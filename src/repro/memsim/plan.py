"""Kernel-shared simulation plans.

:func:`repro.memsim.engine.simulate_stream` does two kinds of work: the
expensive, *kernel-independent* part (resolve every thread's policy
targets and routes, compose path latencies, derive per-thread concurrency
caps, build the flow usage maps, validate capacities) and the cheap,
*kernel-dependent* part (blend asymmetric-media capacity for the kernel's
read/write mix, solve, convert to the STREAM-reported figure).

A :class:`SimulationPlan` captures the kernel-independent part once.
:func:`simulation_plan` memoizes plans in a process-wide LRU keyed by
``(machine identity+version, placement, policy, mode, array_elements)``,
so ``simulate_all_kernels`` and sweep drivers that revisit the same
configuration for each of the four kernels build the topology flows a
single time.  Plans additionally memoize solved allocations per capacity
signature: on machines without asymmetric media every kernel sees the
same capacities, so the max-min solve itself runs once per configuration.

The plan cache observes :attr:`repro.machine.topology.Machine.topology_version`;
mutating a machine (adding nodes or resources) naturally invalidates its
cached plans.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Hashable, Mapping, Sequence

from repro.errors import SimulationError
from repro.machine.numa import NumaPolicy
from repro.machine.topology import Core, Machine
from repro.memsim.bwmodel import Flow, FlowAllocation, solve_max_min
from repro.memsim.concurrency import thread_bandwidth_cap
from repro.memsim.latency import path_latency_ns, weighted_latency_ns

if TYPE_CHECKING:  # pragma: no cover - import cycle with engine
    from repro.memsim.engine import AccessMode

#: STREAM uses three arrays.
N_ARRAYS = 3

#: Maximum number of plans kept in the process-wide LRU.
PLAN_CACHE_MAXSIZE = 256


class SimulationPlan:
    """Everything about one (machine, placement, policy, mode) that does
    not depend on the STREAM kernel being timed.

    Attributes:
        machine: the modelled testbed the plan was built for.
        placement: one :class:`Core` per thread.
        placement_desc: human-readable placement summary.
        cache_resident: the working set fits every in-use socket's LLC.
        flows: per-thread :class:`Flow` objects (usage maps + caps).
        base_capacities: resource capacities before per-kernel blending.
        snoop_clamps: home-agent clamps that apply to this placement
            (controller serves flows from both sockets at once).
    """

    def __init__(self, machine: Machine, placement: tuple[Core, ...],
                 policy: NumaPolicy, mode: "AccessMode",
                 array_elements: int) -> None:
        from repro.machine.affinity import describe_placement
        from repro.memsim.engine import AccessMode
        from repro.memsim.traffic import ELEMENT_BYTES

        if not placement:
            raise SimulationError("placement must contain at least one thread")
        self.machine = machine
        self.placement = placement
        self.policy = policy
        self.mode = mode
        self.array_elements = array_elements
        self.policy_desc = policy.describe()
        self.placement_desc = describe_placement(placement)
        self.n_threads = len(placement)
        self._alloc_memo: dict[Hashable, FlowAllocation] = {}

        cal = _calibration(machine)
        self.calibration = cal
        app_direct = mode is AccessMode.APP_DIRECT

        sharers: dict[int, int] = {}
        for core in placement:
            sharers[core.core_id] = sharers.get(core.core_id, 0) + 1

        ws_bytes = N_ARRAYS * array_elements * ELEMENT_BYTES
        sockets_in_use = {c.socket_id for c in placement}
        self.cache_resident = all(
            machine.socket(s).caches.fits_in_llc(ws_bytes)
            for s in sockets_in_use
        )

        flows: list[Flow] = []
        capacities: dict[str, float]
        snoop_clamps: dict[str, float] = {}

        if self.cache_resident:
            # All arrays fit in the LLC: bandwidth comes from the caches.
            capacities = {}
            for i, core in enumerate(placement):
                sock = machine.socket(core.socket_id)
                llc = sock.caches.llc
                res = f"s{core.socket_id}.llc"
                capacities.setdefault(res, llc.bandwidth_gbps)
                latency = llc.latency_ns + (
                    cal.pmdk_latency_ns if app_direct else 0.0
                )
                cap = thread_bandwidth_cap(core, latency,
                                           sharers[core.core_id])
                flows.append(Flow(f"t{i}@s{core.socket_id}c{core.core_id}",
                                  {res: 1.0}, cap))
        else:
            capacities = dict(machine.resources)
            mc_initiators: dict[str, set[bool]] = {}  # mc res -> {is_remote}

            for i, core in enumerate(placement):
                targets = policy.targets_for(machine, core)
                _validate_capacity(machine, targets, ws_bytes)

                usage: dict[str, float] = {}
                lat_parts: list[tuple[float, float]] = []
                for node_id, frac in targets.items():
                    path = machine.route(core.socket_id, node_id)
                    lat_parts.append(
                        (frac, path_latency_ns(path, app_direct, cal)))
                    for res in path.resources:
                        weight = frac
                        if (path.crosses_upi and not path.crosses_cxl
                                and res.endswith(".mc")):
                            weight *= cal.remote_mc_weight
                        usage[res] = usage.get(res, 0.0) + weight
                        if res.endswith(".mc") and res.startswith("s"):
                            mc_initiators.setdefault(res, set()).add(
                                path.crosses_upi)

                latency = weighted_latency_ns(lat_parts)
                cap = thread_bandwidth_cap(core, latency,
                                           sharers[core.core_id])
                flows.append(Flow(f"t{i}@s{core.socket_id}c{core.core_id}",
                                  usage, cap))

            # Home-agent clamp: mixed local+remote streams on one controller.
            for res, clamp in cal.snoop_caps.items():
                kinds = mc_initiators.get(res)
                if kinds and len(kinds) == 2 and res in capacities:
                    snoop_clamps[res] = clamp

        self.flows: tuple[Flow, ...] = tuple(flows)
        self.base_capacities: dict[str, float] = capacities
        self.snoop_clamps: dict[str, float] = snoop_clamps

    def capacities_for(self, read_fraction: float) -> dict[str, float]:
        """Per-kernel capacities: asymmetric blend, then snoop clamps."""
        caps = dict(self.base_capacities)
        if not self.cache_resident:
            for res, mc in self.machine.asymmetric_resources.items():
                caps[res] = mc.blended_stream_gbps(read_fraction)
        for res, clamp in self.snoop_clamps.items():
            caps[res] = min(caps[res], clamp)
        return caps

    def solve(self, read_fraction: float) -> FlowAllocation:
        """Max-min solve for a kernel's read/write mix, memoized.

        On machines without asymmetric media every mix produces the same
        capacities, so the memo collapses all four kernels to one solve.
        """
        if self.cache_resident or not self.machine.asymmetric_resources:
            key: Hashable = "uniform"
        else:
            key = round(read_fraction, 12)
        alloc = self._alloc_memo.get(key)
        if alloc is None:
            alloc = solve_max_min(self.flows,
                                  self.capacities_for(read_fraction))
            self._alloc_memo[key] = alloc
        return alloc


def _calibration(machine: Machine):
    from repro.calibration import DEFAULT_CALIBRATION, CalibrationProfile
    cal = machine.metadata.get("calibration", DEFAULT_CALIBRATION)
    if not isinstance(cal, CalibrationProfile):
        raise SimulationError(
            f"machine {machine.name} carries a bad calibration object"
        )
    return cal


def _validate_capacity(machine: Machine, targets: Mapping[int, float],
                       ws_bytes: int) -> None:
    for node_id, frac in targets.items():
        node = machine.node(node_id)
        if ws_bytes * frac > node.capacity_bytes:
            raise SimulationError(
                f"working set share {ws_bytes * frac / 1e9:.1f} GB exceeds "
                f"node{node_id} capacity {node.capacity_bytes / 1e9:.1f} GB"
            )


# ---------------------------------------------------------------------------
# process-wide plan cache
# ---------------------------------------------------------------------------

_PLAN_CACHE: "OrderedDict[tuple, SimulationPlan]" = OrderedDict()
_STATS = {"hits": 0, "misses": 0}
_ENABLED = True


def simulation_plan(machine: Machine, placement: Sequence[Core],
                    policy: NumaPolicy, mode: "AccessMode",
                    array_elements: int) -> SimulationPlan:
    """Build (or fetch from the LRU cache) the plan for a configuration."""
    placement_t = tuple(placement)
    if not _ENABLED:
        return SimulationPlan(machine, placement_t, policy, mode,
                              array_elements)
    # Cores belong to the machine and are unique per (socket, core id),
    # so id pairs key the placement far cheaper than hashing Core fields.
    placement_key = tuple((c.socket_id, c.core_id) for c in placement_t)
    key = (machine, machine.topology_version, placement_key, policy, mode,
           array_elements)
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        _STATS["hits"] += 1
        _PLAN_CACHE.move_to_end(key)
        return plan
    _STATS["misses"] += 1
    plan = SimulationPlan(machine, placement_t, policy, mode, array_elements)
    _PLAN_CACHE[key] = plan
    while len(_PLAN_CACHE) > PLAN_CACHE_MAXSIZE:
        _PLAN_CACHE.popitem(last=False)
    return plan


def plan_cache_stats() -> dict[str, int]:
    """Hit/miss/size counters of the process-wide plan cache."""
    return {"hits": _STATS["hits"], "misses": _STATS["misses"],
            "size": len(_PLAN_CACHE)}


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the counters."""
    _PLAN_CACHE.clear()
    _STATS["hits"] = _STATS["misses"] = 0


def set_plan_cache_enabled(enabled: bool) -> bool:
    """Toggle plan memoization (benchmarks use this to emulate the
    pre-cache serial baseline).  Returns the previous setting."""
    global _ENABLED
    prev = _ENABLED
    _ENABLED = bool(enabled)
    return prev
