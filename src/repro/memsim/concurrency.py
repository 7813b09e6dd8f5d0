"""Per-thread bandwidth caps from memory-level parallelism.

A core sustains at most ``LFB_entries`` cacheline misses in flight; by
Little's law its demand bandwidth is bounded by
``entries * 64 B / latency``.  This single mechanism produces the paper's
most visible shapes: one thread cannot saturate even the slow CXL device,
high-latency paths (CXL ≈ 430 ns on the FPGA prototype) need several
threads to reach their ceiling, and SMT siblings that share fill buffers
split the cap.
"""

from __future__ import annotations

from repro import units
from repro.errors import SimulationError
from repro.machine.topology import Core

#: Effective multiplier on the architectural LFB count: L2 hardware
#: prefetchers keep extra lines in flight, so real cores sustain more MLP
#: than their LFB count suggests.
PREFETCH_BOOST = 1.6


def inflight_entries(core: Core, smt_sharers: int) -> float:
    """Cacheline misses one thread keeps in flight while ``smt_sharers``
    threads (1 to ``core.smt``, else SimulationError) share the core's
    fill buffers."""
    if smt_sharers < 1:
        raise SimulationError(f"smt_sharers must be >= 1, got {smt_sharers}")
    if smt_sharers > core.smt:
        raise SimulationError(
            f"core {core.core_id} supports {core.smt} SMT threads, "
            f"got {smt_sharers}"
        )
    return core.lfb_entries * PREFETCH_BOOST / smt_sharers


def thread_bandwidth_cap(core: Core, latency_ns: float,
                         smt_sharers: int = 1) -> float:
    """Maximum actual-traffic bandwidth (GB/s) one thread can demand.

    Args:
        core: the core the thread is pinned to.
        latency_ns: composed access latency of the thread's memory path.
        smt_sharers: threads currently sharing this core's fill buffers.

    Raises:
        SimulationError: nonsensical inputs.
    """
    entries = inflight_entries(core, smt_sharers)
    if latency_ns <= 0:
        raise SimulationError(f"latency must be positive, got {latency_ns}")
    return units.bw_from_concurrency(entries, latency_ns)
