"""The simulation engine: STREAM on a modelled machine.

:func:`simulate_stream` turns (machine, kernel, thread placement, memory
policy, access mode) into a bandwidth figure the way the real benchmark
would produce one:

1. resolve each thread's access path(s) through the topology;
2. bound each thread by its concurrency limit (latency-dependent);
3. share every crossed resource max-min fairly;
4. convert the allocated *actual* bus traffic into the STREAM-*reported*
   figure (write-allocate accounting);
5. apply the PMDK software cost in App-Direct mode.

Steps 1–2 are kernel-independent and are built once per configuration as
a cached :class:`repro.memsim.plan.SimulationPlan`; step 3's solve is
memoized per capacity signature inside the plan, so sweeping all four
kernels over one configuration costs a single topology resolution and
(on symmetric-media machines) a single max-min solve.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

from repro import obs
from repro.errors import SimulationError
from repro.machine.numa import NumaPolicy
from repro.machine.topology import Core, Machine
from repro.memsim.bwmodel import FlowAllocation
from repro.memsim.plan import N_ARRAYS, SimulationPlan, simulation_plan
from repro.memsim.traffic import KERNEL_ORDER, reported_fraction
from repro.memsim.traffic import kernel as kernel_traffic

__all__ = [
    "N_ARRAYS",
    "AccessMode",
    "StreamSimResult",
    "simulate_stream",
    "simulate_all_kernels",
]


class AccessMode(enum.Enum):
    """The paper's two access classes."""

    NUMA = "numa"            # Memory Mode: plain CC-NUMA loads/stores
    APP_DIRECT = "pmem"      # App-Direct: PMDK pmemobj access


@dataclass(frozen=True)
class StreamSimResult:
    """Outcome of one simulated STREAM configuration."""

    machine: str
    kernel: str
    mode: AccessMode
    n_threads: int
    reported_gbps: float
    actual_gbps: float
    per_thread_gbps: dict[str, float]
    bottlenecks: dict[str, str]
    policy: str
    placement: str
    cache_resident: bool = False
    resource_load: dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        return (f"{self.machine} {self.kernel:>5s} {self.mode.value:>4s} "
                f"x{self.n_threads:<3d} -> {self.reported_gbps:7.2f} GB/s "
                f"({self.policy})")


def _result_from_plan(plan: SimulationPlan, kernel_name: str,
                      alloc: FlowAllocation, reported: float,
                      ) -> StreamSimResult:
    return StreamSimResult(
        machine=plan.machine.name,
        kernel=kernel_name,
        mode=plan.mode,
        n_threads=plan.n_threads,
        reported_gbps=reported,
        actual_gbps=alloc.total_gbps,
        per_thread_gbps=dict(alloc.rates),
        bottlenecks=dict(alloc.bottleneck),
        policy=plan.policy_desc,
        placement=plan.placement_desc,
        cache_resident=plan.cache_resident,
        resource_load=dict(alloc.resource_load),
    )


def simulate_stream(machine: Machine, kernel_name: str,
                    placement: Sequence[Core], policy: NumaPolicy,
                    mode: AccessMode = AccessMode.NUMA,
                    array_elements: int = 100_000_000,
                    nt_stores: bool = False,
                    plan: SimulationPlan | None = None) -> StreamSimResult:
    """Simulate one STREAM kernel at one thread count.

    Args:
        machine: the modelled testbed.
        kernel_name: a key of :data:`~repro.memsim.traffic.KERNEL_TRAFFIC`.
        placement: one :class:`Core` per thread (see
            :func:`repro.machine.affinity.place_threads`).
        policy: where the arrays live.
        mode: CC-NUMA (Memory Mode) or PMDK App-Direct.
        array_elements: STREAM array length (paper: 100M doubles).
        nt_stores: model non-temporal stores (no write-allocate traffic).
        plan: pre-built :class:`SimulationPlan` for this configuration;
            ``None`` fetches one from the process-wide plan cache.

    Raises:
        SimulationError: empty placement, unresolvable policy, or a working
            set that does not fit its target node.
    """
    if not placement:
        raise SimulationError("placement must contain at least one thread")
    obs.inc("engine.simulations")
    traffic = kernel_traffic(kernel_name)

    if plan is None:
        plan = simulation_plan(machine, placement, policy, mode,
                               array_elements)

    cal = plan.calibration
    app_direct = plan.mode is AccessMode.APP_DIRECT
    eff = cal.pmdk_bw_efficiency if app_direct else 1.0

    if plan.cache_resident:
        # All arrays fit in the LLC: bandwidth comes from the caches and
        # the allocation is independent of the kernel's read/write mix.
        alloc = plan.solve(1.0)
        return _result_from_plan(plan, kernel_name, alloc,
                                 reported=alloc.total_gbps * eff)

    rf = traffic.read_fraction(nt_stores)
    alloc = plan.solve(rf)
    ratio = reported_fraction(kernel_name, nt_stores)
    return _result_from_plan(plan, kernel_name, alloc,
                             reported=alloc.total_gbps * ratio * eff)


def simulate_all_kernels(machine: Machine, placement: Sequence[Core],
                         policy: NumaPolicy,
                         mode: AccessMode = AccessMode.NUMA,
                         array_elements: int = 100_000_000,
                         nt_stores: bool = False) -> dict[str, StreamSimResult]:
    """All four STREAM kernels for one configuration.

    The kernel-independent work (routing, latencies, flow construction)
    runs once via a shared :class:`SimulationPlan`.
    """
    if not placement:
        raise SimulationError("placement must contain at least one thread")
    plan = simulation_plan(machine, placement, policy, mode, array_elements)
    return {
        k: simulate_stream(machine, k, placement, policy, mode,
                           array_elements, nt_stores, plan=plan)
        for k in KERNEL_ORDER
    }
