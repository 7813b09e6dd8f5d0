"""Kernel-shared simulation plans.

:func:`repro.memsim.engine.simulate_stream` does two kinds of work: the
expensive, *kernel-independent* part (resolve every thread's policy
targets and routes, compose path latencies, derive per-thread concurrency
caps, build the flow usage maps, validate capacities) and the cheap,
*kernel-dependent* part (blend asymmetric-media capacity for the kernel's
read/write mix, solve, convert to the STREAM-reported figure).

The per-thread memory path is stated once here, and the discrete-event
cross-check (:mod:`repro.memsim.des`) reads it too:
:func:`machine_calibration`, :func:`resolve_routes`, :func:`occupancy`
and :func:`stream_capacities`.

A :class:`SimulationPlan` captures the kernel-independent part once.
:func:`simulation_plan` memoizes plans in a process-wide LRU keyed by
``(machine identity+version, placement, policy, mode, array_elements)``,
so ``simulate_all_kernels`` and sweep drivers that revisit the same
configuration for each of the four kernels build the topology flows a
single time.  Within and across plans, threads of one class (socket,
core fill buffers and SMT width, SMT sharers, policy, mode, working set)
share one flow template, kept in a second LRU beside the plans, so a
thread sweep builds each class's usage map and cap once.  Plans
additionally memoize solved allocations per capacity signature: on
machines without asymmetric media every kernel sees the same capacities,
so the max-min solve itself runs once per configuration.

Both caches observe :attr:`repro.machine.topology.Machine.topology_version`;
mutating a machine (adding nodes or resources) naturally invalidates its
cached plans and templates.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import partial
from typing import TYPE_CHECKING, Hashable, Mapping, Sequence

from repro.calibration import DEFAULT_CALIBRATION, CalibrationProfile
from repro.errors import SimulationError
from repro.machine.affinity import describe_placement, smt_load
from repro.machine.numa import NumaPolicy
from repro.machine.topology import AccessPath, Core, Machine
from repro.memsim.bwmodel import Flow, FlowAllocation, solve_max_min
from repro.memsim.concurrency import thread_bandwidth_cap
from repro.memsim.latency import path_latency_ns, weighted_latency_ns

if TYPE_CHECKING:  # pragma: no cover - import cycle with engine
    from repro.memsim.engine import AccessMode

#: STREAM uses three arrays.
N_ARRAYS = 3

#: Maximum number of plans kept in the process-wide LRU (and of flow
#: templates in theirs).
PLAN_CACHE_MAXSIZE = 256

#: one thread's flow ``(usage, cap)``; nothing mutates a usage map, so the
#: threads of one class share theirs
_Template = tuple[dict[str, float], float]


def machine_calibration(machine: Machine) -> CalibrationProfile:
    """The machine's calibration profile (the default when it has none);
    anything else under ``metadata["calibration"]`` is a SimulationError."""
    cal = machine.metadata.get("calibration", DEFAULT_CALIBRATION)
    if not isinstance(cal, CalibrationProfile):
        raise SimulationError(
            f"machine {machine.name} carries a bad calibration object"
        )
    return cal


def resolve_routes(machine: Machine, placement: Sequence[Core],
                   policy: NumaPolicy, cal: CalibrationProfile):
    """Every thread's memory path, and the home-agent clamps they trigger.

    Returns ``(threads, clamps)``: one ``(core, smt_sharers, routes)`` per
    thread, ``routes`` being its ``(traffic fraction, path)`` pairs, and
    the calibrated ``snoop_caps`` of every socket memory controller that
    serves local and UPI-crossing streams at once.
    """
    sharers = smt_load(placement)
    threads = []
    by_socket: dict[int, list[tuple[float, AccessPath]]] = {}
    initiators: dict[str, set[bool]] = {}  # socket mc -> {crosses_upi}
    for core in placement:
        routes = by_socket.get(core.socket_id)
        if routes is None:  # a policy resolves per socket, not per core
            routes = by_socket[core.socket_id] = []
            for node_id, frac in policy.targets_for(machine, core).items():
                path = machine.route(core.socket_id, node_id)
                routes.append((frac, path))
                for res in path.resources:
                    if res.endswith(".mc") and res.startswith("s"):
                        initiators.setdefault(res, set()).add(
                            path.crosses_upi)
        threads.append((core, sharers[core.core_id], routes))
    clamps = {res: clamp for res, clamp in cal.snoop_caps.items()
              if len(initiators.get(res, ())) == 2}
    return threads, clamps


def occupancy(path: AccessPath, cal: CalibrationProfile) -> tuple[float, ...]:
    """Per-line occupancy weight of each resource on ``path``, in order.

    A UPI-crossing stream to socket DRAM holds the home controller
    ``remote_mc_weight`` times longer (directory/snoop amplification);
    every other hop counts once.
    """
    if path.crosses_upi and not path.crosses_cxl:
        return tuple(cal.remote_mc_weight if res.endswith(".mc") else 1.0
                     for res in path.resources)
    return (1.0,) * len(path.resources)


def stream_capacities(machine: Machine, read_fraction: float,
                      clamps: Mapping[str, float]) -> dict[str, float]:
    """The resource capacities one kernel sees: the machine's resources,
    asymmetric media blended by the kernel's read fraction, then
    ``clamps``."""
    caps = dict(machine.resources)
    for res, mc in machine.asymmetric_resources.items():
        caps[res] = mc.blended_stream_gbps(read_fraction)
    for res, clamp in clamps.items():
        caps[res] = min(caps[res], clamp)
    return caps


class SimulationPlan:
    """Everything about one (machine, placement, policy, mode) that does
    not depend on the STREAM kernel being timed.

    Attributes:
        machine: the modelled testbed the plan was built for.
        placement: one :class:`Core` per thread.
        placement_desc: human-readable placement summary.
        cache_resident: the working set fits every in-use socket's LLC.
        flows: per-thread :class:`Flow` objects (usage maps + caps).
        llc_capacities: the shared LLCs' capacities when cache-resident
            (empty otherwise).
        snoop_clamps: home-agent clamps that apply to this placement
            (controller serves flows from both sockets at once).
    """

    def __init__(self, machine: Machine, placement: tuple[Core, ...],
                 policy: NumaPolicy, mode: "AccessMode",
                 array_elements: int) -> None:
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

        cal = machine_calibration(machine)
        self.calibration = cal
        app_direct = mode is AccessMode.APP_DIRECT

        ws_bytes = N_ARRAYS * array_elements * ELEMENT_BYTES
        sockets_in_use = {c.socket_id for c in placement}
        self.cache_resident = all(
            machine.socket(s).caches.fits_in_llc(ws_bytes)
            for s in sockets_in_use
        )

        self.llc_capacities: dict[str, float] = {}
        self.snoop_clamps: dict[str, float] = {}
        if self.cache_resident:
            # All arrays fit in the LLC: bandwidth comes from the caches.
            for sid in dict.fromkeys(c.socket_id for c in placement):
                self.llc_capacities[f"s{sid}.llc"] = (
                    machine.socket(sid).caches.llc.bandwidth_gbps)
            sharers = smt_load(placement)
            threads = [(core, sharers[core.core_id], None)
                       for core in placement]
        else:
            threads, self.snoop_clamps = resolve_routes(machine, placement,
                                                        policy, cal)

        # A thread's flow (usage, cap) depends only on its class: its core's
        # socket, fill buffers and SMT width, its SMT sharers, and the
        # plan's policy, mode and working set.  Each class is built once and
        # shared with every plan of a series through the template LRU; with
        # the cache disabled, every thread is built from scratch.
        build = partial(_flow_template, machine, cal, ws_bytes, app_direct)
        prefix = ((machine, machine.topology_version, self.cache_resident,
                   policy, mode, ws_bytes) if _ENABLED else None)
        classes: dict[tuple, _Template] = {}
        flows: list[Flow] = []
        for i, (core, sharers, routes) in enumerate(threads):
            if prefix is None:
                template = build(core, sharers, routes)
            else:
                cls = (core.socket_id, core.lfb_entries, core.smt, sharers)
                template = classes.get(cls)
                if template is None:
                    template = classes[cls] = _lru_template(
                        prefix + cls, build, core, sharers, routes)
            usage, cap = template
            flows.append(Flow(f"t{i}@s{core.socket_id}c{core.core_id}",
                              usage, cap))

        self.flows: tuple[Flow, ...] = tuple(flows)

    def capacities_for(self, read_fraction: float) -> dict[str, float]:
        """Per-kernel capacities: the LLCs when cache-resident, else
        :func:`stream_capacities` under this placement's snoop clamps."""
        if self.cache_resident:
            return dict(self.llc_capacities)
        return stream_capacities(self.machine, read_fraction,
                                 self.snoop_clamps)

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


def _flow_template(machine: Machine, cal: CalibrationProfile, ws_bytes: int,
                   app_direct: bool, core: Core, sharers: int,
                   routes: Sequence[tuple[float, AccessPath]] | None
                   ) -> _Template:
    """One thread's flow ``(usage, cap)``: the resources it loads and its
    concurrency-limited rate.  ``routes`` is None when the working set is
    cache-resident, and the thread then reads its socket's LLC."""
    if routes is None:
        llc = machine.socket(core.socket_id).caches.llc
        latency = llc.latency_ns + (cal.pmdk_latency_ns if app_direct
                                    else 0.0)
        return ({f"s{core.socket_id}.llc": 1.0},
                thread_bandwidth_cap(core, latency, sharers))
    _validate_capacity(machine, routes, ws_bytes)
    usage: dict[str, float] = {}
    lat_parts: list[tuple[float, float]] = []
    for frac, path in routes:
        lat_parts.append((frac, path_latency_ns(path, app_direct, cal)))
        for res, weight in zip(path.resources, occupancy(path, cal)):
            usage[res] = usage.get(res, 0.0) + frac * weight
    return usage, thread_bandwidth_cap(core, weighted_latency_ns(lat_parts),
                                       sharers)


def _validate_capacity(machine: Machine,
                       routes: Sequence[tuple[float, AccessPath]],
                       ws_bytes: int) -> None:
    for frac, path in routes:
        node = machine.node(path.node_id)
        if ws_bytes * frac > node.capacity_bytes:
            raise SimulationError(
                f"working set share {ws_bytes * frac / 1e9:.1f} GB exceeds "
                f"node{path.node_id} capacity {node.capacity_bytes / 1e9:.1f} GB"
            )


# ---------------------------------------------------------------------------
# process-wide plan cache
# ---------------------------------------------------------------------------

_PLAN_CACHE: "OrderedDict[tuple, SimulationPlan]" = OrderedDict()
_STATS = {"hits": 0, "misses": 0}
_ENABLED = True

#: (machine, topology_version, cache_resident, policy, mode, ws_bytes,
#: socket_id, lfb_entries, smt, sharers) -> flow template; the same key
#: discipline and bound as ``_PLAN_CACHE``
_TEMPLATE_CACHE: "OrderedDict[tuple, _Template]" = OrderedDict()


def _lru_template(key: tuple, build, *thread) -> _Template:
    """``build(*thread)``, memoized in the template LRU under ``key``.
    A build that raises stores nothing."""
    template = _TEMPLATE_CACHE.get(key)
    if template is None:
        template = _TEMPLATE_CACHE[key] = build(*thread)
        while len(_TEMPLATE_CACHE) > PLAN_CACHE_MAXSIZE:
            _TEMPLATE_CACHE.popitem(last=False)
    else:
        _TEMPLATE_CACHE.move_to_end(key)
    return template


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
    """Drop every cached plan and flow template, and reset the counters."""
    _PLAN_CACHE.clear()
    _TEMPLATE_CACHE.clear()
    _STATS["hits"] = _STATS["misses"] = 0


def set_plan_cache_enabled(enabled: bool) -> bool:
    """Toggle plan and flow-template memoization (benchmarks use this to
    emulate the pre-cache serial baseline).  Returns the previous
    setting."""
    global _ENABLED
    prev = _ENABLED
    _ENABLED = bool(enabled)
    return prev
