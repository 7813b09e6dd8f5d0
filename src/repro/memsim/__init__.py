"""Analytic memory-bandwidth simulator.

Four ingredients reproduce STREAM's measured behaviour on real machines:

1. **traffic accounting** (:mod:`repro.memsim.traffic`) — what each STREAM
   kernel actually moves over the memory bus, including write-allocate
   traffic that the benchmark does not count;
2. **concurrency limits** (:mod:`repro.memsim.concurrency`) — Little's law
   applied to each core's line-fill buffers bounds per-thread bandwidth by
   access latency;
3. **max-min fair sharing** (:mod:`repro.memsim.bwmodel`) — threads share
   memory controllers, UPI links and the CXL path; the water-filling solver
   allocates each flow its fair share subject to every capacity;
4. **calibration** (:mod:`repro.calibration`) — the absolute scale, anchored
   to the paper's measured saturation points.

:mod:`repro.memsim.engine` glues them together behind
:func:`repro.memsim.engine.simulate_stream`.
"""

from repro.memsim.bwmodel import Flow, FlowAllocation, solve_max_min
from repro.memsim.des import (
    DES_BACKENDS,
    DES_VECTORIZE_THRESHOLD,
    DesResult,
    simulate_stream_des,
)
from repro.memsim.concurrency import thread_bandwidth_cap
from repro.memsim.engine import AccessMode, StreamSimResult, simulate_stream
from repro.memsim.latency import path_latency_ns
from repro.memsim.plan import (
    SimulationPlan,
    clear_plan_cache,
    plan_cache_stats,
    simulation_plan,
)
from repro.memsim.traffic import KERNEL_TRAFFIC, KernelTraffic, reported_fraction

__all__ = [
    "AccessMode",
    "DES_BACKENDS",
    "DES_VECTORIZE_THRESHOLD",
    "DesResult",
    "Flow",
    "FlowAllocation",
    "KERNEL_TRAFFIC",
    "KernelTraffic",
    "SimulationPlan",
    "StreamSimResult",
    "clear_plan_cache",
    "path_latency_ns",
    "plan_cache_stats",
    "reported_fraction",
    "simulate_stream",
    "simulate_stream_des",
    "simulation_plan",
    "solve_max_min",
    "thread_bandwidth_cap",
]
