"""Trace-driven evaluation of tiering policies.

Runs synthetic access traces — STREAM-shaped streaming, Zipf hot-set,
pointer-chase, mixed-tenant — through the heat tracker, a policy, and
the migration engine, epoch by epoch, and reports the **modelled
effective latency** each policy achieves: workload access time (near
or far latency per access, by the placement current at access time)
plus the migration bus/remap time the policy spent to get there.

The whole pipeline is driven by one :class:`TieringSpec` — a frozen
dataclass of *plain JSON scalars only*, so it rides inside
:class:`repro.stream.simulated.SweepSpec` through the runner's
content-hashed sweep cache and the warm-pool pickling unchanged.

:func:`effective_sweep_policy` is the bridge into the bandwidth model:
it converts a policy's steady near/far traffic split into the weighted
NUMA policy :func:`repro.memsim.engine.simulate_stream` understands
(exactly how ``core/tiering`` translates Memory-Mode hit rates), and is
memoized per (machine, spec) so a 10-point thread sweep pays for one
evaluation.

Everything is deterministic under a fixed :attr:`TieringSpec.seed`:
same spec → same trace → same decisions → identical results, which is
what lets benchmark gates compare policies without timing noise.
"""

from __future__ import annotations

import dataclasses
import weakref
from dataclasses import dataclass, replace

import numpy as np

from repro import obs
from repro.errors import TieringError
from repro.machine.numa import NumaPolicy
from repro.machine.topology import Machine, NodeKind
from repro.tiering.heat import HEAT_BACKENDS, HeatTracker
from repro.tiering.migrate import NEAR, MigrationEngine, TierState
from repro.tiering.policy import POLICIES, make_policy

__all__ = [
    "TRACE_KINDS",
    "TieringSpec",
    "TieringResult",
    "TraceGen",
    "evaluate_policy",
    "compare_policies",
    "effective_sweep_policy",
]

#: recognised :attr:`TieringSpec.trace` values
TRACE_KINDS = ("zipf", "stream", "chase", "mixed")

#: fallback latencies when no machine is supplied (setup1-shaped:
#: DDR5 local vs the DDR4-1333 CXL prototype behind the FPGA)
DEFAULT_NEAR_NS = 126.0
DEFAULT_FAR_NS = 460.0


@dataclass(frozen=True)
class TieringSpec:
    """A complete, cache-key-safe description of one tiering run.

    Every field is a plain ``str``/``int``/``float`` so the spec
    serializes through ``dataclasses.asdict`` + the runner's
    ``_jsonify`` (sweep cache keys) and pickles into warm-pool workers.
    """

    policy: str = "tpp"
    n_pages: int = 4096
    near_fraction: float = 0.25
    trace: str = "zipf"
    epochs: int = 16
    epoch_accesses: int = 8192
    decay: float = 0.5
    alpha: float = 1.0
    hot_fraction: float = 0.9
    seed: int = 1234
    backend: str = "auto"
    max_moves_per_epoch: int = 512
    hot_threshold: float = 1.0
    cold_threshold: float = 0.25
    hysteresis: int = 2
    near_gbps: float = 33.0
    far_gbps: float = 11.5
    link_gbps: float = 11.5
    remap_ns: float = 2000.0
    page_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise TieringError(
                f"unknown tiering policy {self.policy!r}; "
                f"expected one of {sorted(POLICIES)}")
        if self.trace not in TRACE_KINDS:
            raise TieringError(
                f"unknown trace kind {self.trace!r}; "
                f"expected one of {TRACE_KINDS}")
        if self.backend not in HEAT_BACKENDS:
            raise TieringError(
                f"unknown heat backend {self.backend!r}; "
                f"expected one of {HEAT_BACKENDS}")
        if self.n_pages < 2:
            raise TieringError("footprint needs at least two pages")
        if not 0.0 < self.near_fraction < 1.0:
            raise TieringError(
                f"near_fraction must be in (0, 1), got {self.near_fraction}")
        if self.epochs < 1 or self.epoch_accesses < 1:
            raise TieringError("epochs and epoch_accesses must be >= 1")
        if self.alpha < 0:
            raise TieringError("zipf alpha must be >= 0")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise TieringError("hot_fraction must be in [0, 1]")

    @property
    def near_capacity_pages(self) -> int:
        return max(1, int(self.n_pages * self.near_fraction))

    def describe(self) -> str:
        return (f"tiering spec: {self.policy} over {self.n_pages} pages "
                f"({self.near_capacity_pages} near), {self.trace} trace, "
                f"{self.epochs}x{self.epoch_accesses} accesses")


def _policy_kwargs(spec: TieringSpec) -> dict:
    kwargs: dict = {"max_moves_per_epoch": spec.max_moves_per_epoch}
    if spec.policy == "tpp":
        kwargs.update(hot_threshold=spec.hot_threshold,
                      cold_threshold=spec.cold_threshold,
                      hysteresis=spec.hysteresis)
    elif spec.policy == "spill":
        kwargs.update(near_gbps=spec.near_gbps, far_gbps=spec.far_gbps)
    return kwargs


class TraceGen:
    """Deterministic per-epoch batch generator for one spec.

    * ``zipf`` — ``hot_fraction`` of accesses are Zipf(``alpha``)-
      distributed over a near-capacity-sized hot set (rank
      probabilities ``1/r^alpha`` — valid at ``alpha = 1.0``, unlike
      ``np.random.zipf``); the rest are uniform over the footprint;
    * ``stream`` — a STREAM-shaped forward walk that continues across
      epochs and wraps at the footprint (zero reuse inside an epoch
      when the footprint exceeds the epoch);
    * ``chase`` — uniform random pages: a dependent pointer chase with
      no exploitable locality;
    * ``mixed`` — two tenants interleaved access-by-access: tenant A
      runs a Zipf hot set in the lower half of the footprint, tenant B
      streams through the upper half.
    """

    def __init__(self, spec: TieringSpec) -> None:
        self.spec = spec
        self.rng = np.random.default_rng(spec.seed)
        self._zipf_w: np.ndarray | None = None

    def _zipf_weights(self, hot_pages: int) -> np.ndarray:
        if self._zipf_w is None or self._zipf_w.size != hot_pages:
            ranks = np.arange(1, hot_pages + 1, dtype=np.float64)
            w = ranks ** -self.spec.alpha
            self._zipf_w = w / w.sum()
        return self._zipf_w

    def _zipf_batch(self, size: int, lo: int, hot_pages: int,
                    span: int) -> np.ndarray:
        """Zipf hot set at ``[lo, lo+hot_pages)`` inside ``[lo, lo+span)``."""
        spec = self.spec
        hot = self.rng.choice(hot_pages, size=size,
                              p=self._zipf_weights(hot_pages))
        uniform = self.rng.integers(0, span, size=size)
        take_hot = self.rng.random(size) < spec.hot_fraction
        return (lo + np.where(take_hot, hot, uniform)).astype(np.int64)

    def epoch(self, epoch: int) -> np.ndarray:
        spec = self.spec
        size = spec.epoch_accesses
        n = spec.n_pages
        if spec.trace == "zipf":
            return self._zipf_batch(size, 0, spec.near_capacity_pages, n)
        if spec.trace == "stream":
            start = (epoch * size) % n
            return ((start + np.arange(size)) % n).astype(np.int64)
        if spec.trace == "chase":
            return self.rng.integers(0, n, size=size).astype(np.int64)
        # mixed: tenant A (zipf, lower half) / tenant B (stream, upper half)
        half = size // 2
        a = self._zipf_batch(size - half, 0,
                             max(1, min(spec.near_capacity_pages, n // 4)),
                             n // 2)
        start = (epoch * half) % max(1, n - n // 2)
        b = (n // 2 + (start + np.arange(half)) % (n - n // 2)).astype(
            np.int64)
        out = np.empty(size, dtype=np.int64)
        out[0::2] = a
        out[1::2] = b
        return out


@dataclass
class TieringResult:
    """Outcome of one policy evaluation (all values modelled, no
    wall-clock anywhere — deterministic under the spec's seed)."""

    policy: str
    trace: str
    total_accesses: int
    near_access_fraction: float
    workload_ns: float
    move_ns: float
    effective_latency_ns: float
    promotions: int
    demotions: int
    aborted: int
    migration_bytes: int
    final_near_pages: int
    epoch_latency_ns: list[float]

    @property
    def total_ns(self) -> float:
        return self.workload_ns + self.move_ns

    def to_doc(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["total_ns"] = self.total_ns
        return doc

    def describe(self) -> str:
        return (f"{self.policy}/{self.trace}: "
                f"{self.effective_latency_ns:.1f} ns effective "
                f"({self.near_access_fraction:.1%} near, "
                f"{self.promotions}+{self.demotions} moves, "
                f"{self.migration_bytes >> 20} MiB migrated)")


def evaluate_policy(spec: TieringSpec, near_ns: float | None = None,
                    far_ns: float | None = None,
                    machine: Machine | None = None, src_socket: int = 0,
                    port=None, far_base_dpa: int = 0) -> TieringResult:
    """Run one policy over one trace; returns the modelled outcome.

    Latencies come from ``machine`` routes when one is given (nearest
    DRAM node vs first CXL node from ``src_socket``), explicit
    ``near_ns``/``far_ns`` otherwise, setup1-shaped defaults failing
    that.  Pass ``port`` (a :class:`repro.cxl.host.CxlMemPort`) to run
    every migration's far-side copy through the real batched CXL
    datapath — wire accounting and the fault plane included.

    Each epoch: record the batch → charge each access the latency of
    the tier it *currently* lives in → fold the heat epoch → let the
    policy decide → apply the migration (cost added to the bill) →
    audit conservation.
    """
    if machine is not None:
        near_ns, far_ns = _machine_latencies(machine, src_socket)
    if near_ns is None:
        near_ns = DEFAULT_NEAR_NS
    if far_ns is None:
        far_ns = DEFAULT_FAR_NS
    n = spec.n_pages
    cap = spec.near_capacity_pages
    policy = make_policy(spec.policy, n, cap, **_policy_kwargs(spec))
    state = TierState(n, cap, placement=policy.initial_placement())
    tracker = HeatTracker(n, decay=spec.decay, backend=spec.backend)
    engine = MigrationEngine(state, page_bytes=spec.page_bytes,
                             link_gbps=spec.link_gbps,
                             remap_ns=spec.remap_ns, port=port,
                             far_base_dpa=far_base_dpa)
    gen = TraceGen(spec)
    workload_ns = 0.0
    near_hits = 0
    total = 0
    aborted = 0
    epoch_latency: list[float] = []
    with obs.span("tiering.evaluate",
                  meta={"policy": spec.policy, "trace": spec.trace,
                        "pages": n, "epochs": spec.epochs}):
        for epoch in range(spec.epochs):
            with obs.span("tiering.epoch", meta={"epoch": epoch}):
                batch = gen.epoch(epoch)
                tracker.record(batch)
                hits = int(np.count_nonzero(state.placement[batch] == NEAR))
                miss = batch.size - hits
                epoch_ns = hits * near_ns + miss * far_ns
                near_hits += hits
                total += batch.size
                tracker.end_epoch()
                decision = policy.decide(tracker.heat, batch, state, epoch)
                report = engine.apply(decision)
                state.check_conservation()
                if report.aborted_window:
                    aborted += report.aborted
                epoch_ns += report.move_ns
                workload_ns += hits * near_ns + miss * far_ns
                epoch_latency.append(epoch_ns / batch.size)
    return TieringResult(
        policy=spec.policy,
        trace=spec.trace,
        total_accesses=total,
        near_access_fraction=near_hits / total,
        workload_ns=workload_ns,
        move_ns=engine.stats.move_ns,
        effective_latency_ns=(workload_ns + engine.stats.move_ns) / total,
        promotions=engine.stats.promotions,
        demotions=engine.stats.demotions,
        aborted=aborted,
        migration_bytes=engine.stats.migration_bytes,
        final_near_pages=state.near_count,
        epoch_latency_ns=epoch_latency,
    )


def compare_policies(spec: TieringSpec, policies=None,
                     **kwargs) -> dict[str, TieringResult]:
    """Evaluate several policies on the *same* trace/spec; keyword
    arguments forward to :func:`evaluate_policy`."""
    names = list(policies) if policies is not None else sorted(POLICIES)
    return {name: evaluate_policy(replace(spec, policy=name), **kwargs)
            for name in names}


# ---------------------------------------------------------------------------
# bridge into the bandwidth model
# ---------------------------------------------------------------------------

def _machine_latencies(machine: Machine, src_socket: int
                       ) -> tuple[float, float]:
    """(near, far) idle latencies: closest DRAM node vs first CXL node
    (falls back to the slowest node when the machine has no CXL)."""
    dram = [n for n in machine.nodes.values() if n.kind is NodeKind.DRAM]
    if not dram:
        raise TieringError(f"machine {machine.name!r} has no DRAM node")
    near = min(machine.route(src_socket, n.node_id).latency_ns
               for n in dram)
    cxl = machine.cxl_nodes()
    if cxl:
        far = machine.route(src_socket, cxl[0].node_id).latency_ns
    else:
        far = max(machine.route(src_socket, n.node_id).latency_ns
                  for n in machine.nodes.values())
    return near, far


def _tier_nodes(machine: Machine, src_socket: int) -> tuple[int, int]:
    """(near_node, far_node) ids matching :func:`_machine_latencies`."""
    dram = [n for n in machine.nodes.values() if n.kind is NodeKind.DRAM]
    near = min(dram,
               key=lambda n: machine.route(src_socket, n.node_id).latency_ns)
    cxl = machine.cxl_nodes()
    if cxl:
        far = cxl[0]
    else:
        far = max(machine.nodes.values(),
                  key=lambda n: machine.route(src_socket, n.node_id
                                              ).latency_ns)
    return near.node_id, far.node_id


#: machine -> {(spec, src_socket): (policy, result)}; weakly keyed, so a
#: machine's memo goes with it
_SWEEP_POLICY_CACHE: weakref.WeakKeyDictionary[
    Machine, dict[tuple, tuple[NumaPolicy, TieringResult]]
] = weakref.WeakKeyDictionary()


def effective_sweep_policy(machine: Machine, spec: TieringSpec,
                           src_socket: int = 0
                           ) -> tuple[NumaPolicy, TieringResult]:
    """The steady-state NUMA policy a tiering run converges to.

    Evaluates ``spec`` against ``machine``'s near/far latencies and
    converts the observed near-access fraction into a weighted
    interleave over the (near DRAM, far CXL) nodes — the same
    translation :class:`repro.core.tiering.MemoryModeTier` applies to
    Memory-Mode hit rates, so the result drops straight into
    ``simulate_stream``.  Memoized per (machine, spec, socket): one
    evaluation serves a whole thread sweep.
    """
    memo = _SWEEP_POLICY_CACHE.setdefault(machine, {})
    key = (spec, src_socket)
    cached = memo.get(key)
    if cached is not None:
        return cached
    result = evaluate_policy(spec, machine=machine, src_socket=src_socket)
    near_node, far_node = _tier_nodes(machine, src_socket)
    h = result.near_access_fraction
    if h >= 1.0:
        policy = NumaPolicy.bind(near_node)
    elif h <= 0.0:
        policy = NumaPolicy.bind(far_node)
    else:
        policy = NumaPolicy.weighted({near_node: h, far_node: 1.0 - h})
    memo[key] = (policy, result)
    obs.inc("tiering.sweep_policy.evaluations")
    return policy, result
