"""Cluster scheduling of tenant workloads onto pool slices.

Two halves, both deterministic:

* **capacity placement** — :meth:`FabricScheduler.place` admits tenant
  demands onto the pool through the fabric manager (guaranteed-QoS
  tenants first, then by descending demand), degrading to the largest
  slice that still fits when a demand cannot be served whole;
* **bandwidth contention** — :meth:`FabricScheduler.bandwidth` models
  all placed tenants running *concurrently*: every tenant thread is a
  flow over its host's CXL link plus the shared device media, and the
  max-min solver (:mod:`repro.memsim.bwmodel`) allocates the contended
  rates.  Policy ``"fair"`` is plain max-min fair sharing; policy
  ``"qos"`` first computes each guaranteed tenant's *solo* entitlement,
  reserves ``qos_floor`` of it on every shared resource, and caps
  best-effort flows to the remainder — bounding the noisy-neighbor
  slowdown a guaranteed tenant can suffer.

The scheduler can also run each placed tenant's STREAM sweep through
the existing warm worker pool (:meth:`run_streams`): one sweep series
per tenant against the fabric testbed, exactly the runner/pool/cache
machinery the rest of the repo uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.errors import FabricError
from repro.fabric.manager import SLICE_ALIGN, FabricManager, PoolSlice
from repro.machine.affinity import place_threads
from repro.memsim.bwmodel import Flow, FlowAllocation, solve_max_min
from repro.memsim.concurrency import thread_bandwidth_cap
from repro.memsim.traffic import kernel as kernel_traffic, reported_fraction

__all__ = [
    "QOS_CLASSES",
    "BANDWIDTH_POLICIES",
    "TenantSpec",
    "Placement",
    "BandwidthReport",
    "FabricScheduler",
    "FABRIC_GROUP_ID",
]

#: recognised :attr:`TenantSpec.qos` classes
QOS_CLASSES = ("guaranteed", "best_effort")
#: recognised :meth:`FabricScheduler.bandwidth` policies
BANDWIDTH_POLICIES = ("fair", "qos")
#: group id the fabric STREAM sweep registers under
FABRIC_GROUP_ID = "4f"

_log = obs.get_logger("fabric.schedule")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant workload: a capacity demand plus a bandwidth shape."""

    name: str
    host: int
    demand_bytes: int
    threads: int = 4
    kernel: str = "triad"
    qos: str = "best_effort"

    def __post_init__(self) -> None:
        if self.demand_bytes < 0:
            raise FabricError(
                f"tenant {self.name}: demand must be >= 0 bytes")
        if self.threads < 1:
            raise FabricError(f"tenant {self.name}: needs >= 1 thread")
        if self.qos not in QOS_CLASSES:
            raise FabricError(
                f"tenant {self.name}: unknown QoS class {self.qos!r}; "
                f"expected one of {QOS_CLASSES}")
        try:
            kernel_traffic(self.kernel)
        except KeyError as exc:
            raise FabricError(f"tenant {self.name}: {exc.args[0]}") from None


@dataclass(frozen=True)
class Placement:
    """The scheduler's verdict for one tenant."""

    tenant: TenantSpec
    slice: PoolSlice | None
    served_bytes: int

    @property
    def placed(self) -> bool:
        return self.slice is not None

    @property
    def shortfall_bytes(self) -> int:
        return self.tenant.demand_bytes - self.served_bytes


@dataclass
class BandwidthReport:
    """Contended per-tenant bandwidth under one policy."""

    policy: str
    tenant_gbps: dict[str, float]
    allocation: FlowAllocation = field(repr=False)

    @property
    def aggregate_gbps(self) -> float:
        return sum(self.tenant_gbps.values())


class FabricScheduler:
    """Places tenant workloads onto the pool and models their contention."""

    def __init__(self, manager: FabricManager,
                 qos_floor: float = 0.8) -> None:
        if manager.testbed is None:
            raise FabricError(
                "scheduler needs a manager with a testbed "
                "(FabricManager.build() provides one)")
        if not 0.0 < qos_floor <= 1.0:
            raise FabricError(f"qos_floor must be in (0, 1], got {qos_floor}")
        self.manager = manager
        self.machine = manager.testbed.machine
        self.qos_floor = qos_floor

    # ------------------------------------------------------------------
    # capacity placement
    # ------------------------------------------------------------------

    def place(self, tenants: list[TenantSpec]) -> list[Placement]:
        """Admit tenant demands onto the pool.

        Guaranteed-QoS tenants place first, then descending demand
        (name-tiebroken, deterministic).  A demand that cannot be
        served whole degrades to the largest aligned slice that still
        fits; a tenant that cannot get even one aligned slice is left
        unplaced.  Results are returned in the input order.
        """
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise FabricError(f"duplicate tenant names in {names}")
        order = sorted(
            tenants,
            key=lambda t: (t.qos != "guaranteed", -t.demand_bytes, t.name))
        verdicts: dict[str, Placement] = {}
        for t in order:
            size = self._fit_size(t.demand_bytes)
            if size == 0:
                obs.inc("fabric.sched.unplaced")
                _log.warning("tenant unplaced: pool exhausted",
                             extra=obs.kv(tenant=t.name,
                                          demand=t.demand_bytes))
                verdicts[t.name] = Placement(t, None, 0)
                continue
            sl = self.manager.allocate(t.host, size, tenant=t.name)
            obs.inc("fabric.sched.placed")
            verdicts[t.name] = Placement(t, sl, min(sl.size, t.demand_bytes))
        return [verdicts[t.name] for t in tenants]

    def _fit_size(self, demand: int) -> int:
        """Largest aligned slice size <= demand that the pool can carve."""
        if demand <= 0:
            return 0
        want = (demand + SLICE_ALIGN - 1) // SLICE_ALIGN * SLICE_ALIGN
        best = max((m.largest_free_extent
                    for m in self.manager.mlds.values()
                    if len(m.logical_devices) < m.MAX_LDS), default=0)
        best = best // SLICE_ALIGN * SLICE_ALIGN
        return min(want, best)

    # ------------------------------------------------------------------
    # contended bandwidth
    # ------------------------------------------------------------------

    def _tenant_flows(self, tenant: TenantSpec) -> list[Flow]:
        path = self.machine.route(tenant.host, 100 + tenant.host)
        flows = []
        for i, core in enumerate(place_threads(self.machine, tenant.threads,
                                               sockets=[tenant.host])):
            cap = thread_bandwidth_cap(core, path.latency_ns)
            flows.append(Flow(f"{tenant.name}.t{i}",
                              {r: 1.0 for r in path.resources}, cap))
        return flows

    def solo_gbps(self, tenant: TenantSpec) -> float:
        """The tenant's uncontended (alone-on-the-fabric) bandwidth."""
        alloc = solve_max_min(self._tenant_flows(tenant),
                              dict(self.machine.resources))
        return alloc.total_gbps * reported_fraction(tenant.kernel)

    def bandwidth(self, placements: list[Placement],
                  policy: str = "fair") -> BandwidthReport:
        """Contended per-tenant bandwidth with every placed tenant live.

        Args:
            placements: output of :meth:`place` (unplaced tenants drive
                no traffic).
            policy: ``"fair"`` (plain max-min) or ``"qos"``
                (guaranteed-floor reservation, see the module docstring).
        """
        if policy not in BANDWIDTH_POLICIES:
            raise FabricError(
                f"unknown bandwidth policy {policy!r}; "
                f"expected one of {BANDWIDTH_POLICIES}")
        live = [p.tenant for p in placements if p.placed]
        flows_by_tenant = {t.name: self._tenant_flows(t) for t in live}
        caps = dict(self.machine.resources)
        if policy == "qos":
            flows = self._qos_capped_flows(live, flows_by_tenant, caps)
        else:
            flows = [f for fl in flows_by_tenant.values() for f in fl]
        alloc = solve_max_min(flows, caps) if flows else FlowAllocation({}, {})
        tenant_gbps = {}
        for t in live:
            raw = sum(alloc.rates[f.name] for f in flows_by_tenant[t.name])
            tenant_gbps[t.name] = raw * reported_fraction(t.kernel)
        report = BandwidthReport(policy, tenant_gbps, alloc)
        obs.gauge("fabric.sched.aggregate_gbps",
                  round(report.aggregate_gbps, 4))
        return report

    def _qos_capped_flows(self, live, flows_by_tenant, caps) -> list[Flow]:
        """Re-cap best-effort flows so guaranteed tenants keep their floor.

        For every resource shared by two or more hosts, reserve
        ``qos_floor`` of each guaranteed tenant's solo rate across it;
        best-effort flows crossing that resource split what remains.
        """
        guaranteed = [t for t in live if t.qos == "guaranteed"]
        best_effort = [t for t in live if t.qos != "guaranteed"]
        # a resource is "shared" when flows from >= 2 hosts cross it
        hosts_on: dict[str, set[int]] = {}
        for t in live:
            for f in flows_by_tenant[t.name]:
                for r in f.usage:
                    hosts_on.setdefault(r, set()).add(t.host)
        shared = {r for r, hs in hosts_on.items() if len(hs) >= 2}
        reserved: dict[str, float] = {r: 0.0 for r in shared}
        for t in guaranteed:
            solo = solve_max_min(flows_by_tenant[t.name], caps)
            for f in flows_by_tenant[t.name]:
                for r in f.usage:
                    if r in shared:
                        reserved[r] += solo.rates[f.name] * self.qos_floor
        n_be_flows = {
            r: sum(1 for t in best_effort
                   for f in flows_by_tenant[t.name] if r in f.usage)
            for r in shared
        }
        out: list[Flow] = []
        for t in live:
            for f in flows_by_tenant[t.name]:
                if t.qos == "guaranteed":
                    out.append(f)
                    continue
                cap = f.cap_gbps
                for r in f.usage:
                    if r not in shared or not n_be_flows[r]:
                        continue
                    budget = max(caps[r] - reserved[r], 0.0)
                    cap = min(cap, max(budget / n_be_flows[r], 1e-3))
                out.append(Flow(f.name, f.usage, cap))
        return out

    # ------------------------------------------------------------------
    # STREAM sweeps through the warm worker pool
    # ------------------------------------------------------------------

    def stream_group(self, placements: list[Placement],
                     thread_counts: tuple[int, ...] | None = None):
        """A sweep :class:`~repro.streamer.configs.TestGroup`: one series
        per placed tenant against the fabric testbed."""
        from repro.machine.numa import NumaPolicy
        from repro.memsim.engine import AccessMode
        from repro.stream.simulated import SweepSpec
        from repro.streamer.configs import SYMBOL_CXL, TestGroup, TestSeries

        placed = [p for p in placements if p.placed]
        if not placed:
            raise FabricError("no placed tenants to sweep")
        if thread_counts is None:
            thread_counts = tuple(sorted({p.tenant.threads for p in placed}))
        series = tuple(
            TestSeries(
                key=f"{FABRIC_GROUP_ID}.{p.tenant.name}",
                label=(f"h{p.tenant.host}->pool[{p.slice.name}] "
                       f"{SYMBOL_CXL} {p.tenant.qos}"),
                testbed="fabric",
                symbol=SYMBOL_CXL,
                spec=SweepSpec(
                    label="",
                    policy=NumaPolicy.bind(100 + p.tenant.host),
                    mode=AccessMode.NUMA,
                    sockets=(p.tenant.host,),
                ),
            )
            for p in sorted(placed, key=lambda p: p.tenant.name)
        )
        return TestGroup(
            group_id=FABRIC_GROUP_ID,
            title="Pooled-fabric tenant workloads",
            description=("Each placed tenant's STREAM sweep from its host "
                         "through the pooled CXL fabric"),
            series=series,
            thread_counts=thread_counts,
        )

    def run_streams(self, placements: list[Placement],
                    jobs: int | None = None,
                    thread_counts: tuple[int, ...] | None = None,
                    config=None):
        """Run every placed tenant's STREAM sweep through the runner.

        With ``jobs`` the sweeps fan out over the existing warm worker
        pool (:class:`repro.serve.pool.WarmWorkerPool`); serially
        otherwise.  Output is the standard
        :class:`~repro.streamer.results.ResultSet` — byte-identical
        between the two paths, as everywhere else in the repo.
        """
        from repro.stream.config import StreamConfig
        from repro.streamer.runner import StreamerRunner

        group = self.stream_group(placements, thread_counts)
        runner = StreamerRunner(
            testbeds={"fabric": self.manager.testbed},
            config=config or StreamConfig.paper(),
            cache_dir=None)
        runner.groups = {group.group_id: group}
        kernels = tuple(sorted({p.tenant.kernel for p in placements
                                if p.placed}))
        with runner:
            if jobs:
                runner.start_pool(jobs)
            return runner.run_all(kernels=kernels,
                                  parallel=None if jobs else False)
