"""Discrete-event cross-validation of the analytic bandwidth model.

The analytic engine (:mod:`repro.memsim.engine`) computes allocations in
closed form: Little's-law per-thread caps + max-min fair sharing.  This
module reaches the same quantities by *simulation*: threads are
closed-loop request generators with a bounded number of outstanding
cacheline requests; every resource on a path is a FIFO service station
whose service time per line is ``64 B / capacity``; requests carry the
path's fixed propagation latency.  Nothing is shared with the analytic
code except the topology — which is the point: when both models agree,
the curves in Figures 5–8 are not an artifact of either formulation.

The DES reproduces, from first principles:

* the concurrency-limited regime (throughput = MLP × 64 B / latency);
* saturation at the bottleneck station's capacity;
* fair sharing among symmetric threads, and bottleneck-dependent sharing
  for heterogeneous mixes (FIFO approximates max-min);
* the calibrated refinements: multi-target (interleaved / weighted)
  policies, the 1.15× remote-snoop occupancy on UPI-crossing streams,
  and the home-agent ``snoop_caps`` clamp on mixed local+remote
  controllers.

Three backends produce *identical* results (``des_backend=``):

* ``"scalar"`` — the reference heapq event loop, one event at a time;
* ``"vector"`` — :mod:`repro.memsim.des_fast`, which advances the whole
  closed-loop window per epoch with closed-form NumPy FIFO admission;
  single-route setups only (BIND / LOCAL policies);
* ``"compiled"`` — :mod:`repro.memsim.des_jit`, the scalar event loop
  compiled, degrading to ``"scalar"`` without a provider;
* ``"auto"`` (default) — the vector path for single-route setups whose
  primed request count reaches :data:`DES_VECTORIZE_THRESHOLD`, the
  compiled loop otherwise.

Identical means identical: every backend advances time in an integer
tick domain (:data:`TICKS_PER_NS` per nanosecond), where FIFO admission
is exact integer arithmetic, so the closed-form scan equals the
sequential recurrence bit for bit and every :class:`DesResult` field
matches (`tests/property/test_prop_des.py`).

`benchmarks/bench_model_validation.py` sweeps both models across the
paper's configurations and reports the deviation;
`benchmarks/bench_des_perf.py` gates the fast backends' speedups.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import compiled, obs
from repro.calibration import DEFAULT_CALIBRATION, CalibrationProfile
from repro.errors import SimulationError
from repro.machine.numa import NumaPolicy
from repro.machine.topology import Core, Machine
from repro.memsim.latency import path_latency_ns
from repro.memsim.traffic import reported_fraction
from repro.units import CACHELINE

#: simulated line size (bytes) — one CXL.mem / DDR burst
LINE = CACHELINE

#: Integer ticks per nanosecond.  Both backends simulate in this fixed-
#: point domain: integer max/add FIFO admission is exact and associative,
#: which is what lets the vectorized closed-form scan reproduce the
#: sequential recurrence bit for bit.  2^20 ticks/ns keeps quantization
#: error ~1e-6 relative while leaving int64 headroom for multi-ms runs.
TICKS_PER_NS = 1 << 20

#: ``des_backend="auto"`` switches a single-route setup to the
#: vectorized engine once the primed closed-loop window (sum of
#: per-thread MLP) reaches this many requests — the point where NumPy's
#: fixed per-batch overhead wins.
DES_VECTORIZE_THRESHOLD = 64

#: valid ``des_backend=`` values
DES_BACKENDS = ("auto", "scalar", "vector", "compiled")


def _ticks(ns: float) -> int:
    """Nanoseconds → integer simulation ticks."""
    return int(round(ns * TICKS_PER_NS))


# ---------------------------------------------------------------------------
# deterministic multi-target route schedules
# ---------------------------------------------------------------------------

_PATTERN_CACHE: dict[tuple[float, ...], np.ndarray] = {}


def _route_pattern(fracs: tuple[float, ...], n: int) -> np.ndarray:
    """First ``n`` route choices of the deterministic weighted round-robin.

    A thread with target fractions ``fracs`` sends its ``k``-th request to
    route ``pattern[k]``.  The schedule is smooth weighted round-robin:
    choice ``k`` goes to the route minimizing ``(count + 1) / frac`` (ties
    to the lowest index), which interleaves routes as evenly as possible
    while matching each fraction exactly in the long run.  The scalar
    oracle reads this cached pattern; the compiled loop re-runs the same
    recurrence, so their route choices agree by construction.
    """
    pat = _PATTERN_CACHE.get(fracs)
    if pat is None or len(pat) < n:
        length = max(n, 64, 0 if pat is None else 2 * len(pat))
        counts = [0] * len(fracs)
        out = np.empty(length, dtype=np.int64)
        for k in range(length):
            best = 0
            best_cost = (counts[0] + 1) / fracs[0]
            for r in range(1, len(fracs)):
                cost = (counts[r] + 1) / fracs[r]
                if cost < best_cost:
                    best, best_cost = r, cost
            out[k] = best
            counts[best] += 1
        _PATTERN_CACHE[fracs] = pat = out
    return pat[:n]


# ---------------------------------------------------------------------------
# shared setup: flows, stations, schedules — all in integer ticks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Flow:
    """One (thread, route) request stream."""

    thread: int
    stations: tuple[int, ...]   # station indices along the path, in order
    service: tuple[int, ...]    # per-station occupancy (ticks, incl. weights)
    latency: int                # fixed propagation ticks after the stations
    total: int                  # latency + sum(service): min issue→completion


@dataclass
class _Setup:
    """Everything every backend needs, precomputed once."""

    station_names: list[str]
    flows: list[_Flow]
    thread_flows: list[tuple[int, ...]]           # per thread: flow ids
    thread_fracs: list[tuple[float, ...] | None]  # schedule key (None=single)
    mlp: list[int]
    sim_ns: float
    warmup_ns: float
    sim_ticks: int
    warmup_ticks: int
    ratio: float      # reported_fraction(kernel)
    eff: float        # pmdk_bw_efficiency if app_direct else 1.0


@dataclass
class _Counts:
    """Raw integer outcome of a run — the unit of backend equivalence."""

    completed: np.ndarray        # per thread
    completed_warm: np.ndarray   # per thread, at/after warmup
    issued: np.ndarray           # per thread
    busy: np.ndarray             # per station, in-window busy ticks
    latency_sum: int             # ticks, warm completions only
    latency_count: int


@dataclass(frozen=True)
class DesResult:
    """Outcome of one DES run."""

    reported_gbps: float
    actual_gbps: float
    per_thread_gbps: dict[int, float]
    simulated_ns: float
    station_utilization: dict[str, float]
    #: mean request round-trip (issue -> data) after warmup — the
    #: *loaded* latency, which exceeds the idle latency once queues form
    mean_latency_ns: float = 0.0
    #: requests issued / completed over the whole run, and the closed-loop
    #: window still in flight at exit — always issued == completed +
    #: outstanding (requests past ``sim_ns`` stay outstanding, not lost)
    total_issued: int = 0
    total_completed: int = 0
    total_outstanding: int = 0


def _effective_mlp(core: Core, smt_sharers: int,
                   prefetch_boost: float = 1.6) -> int:
    return max(1, round(core.lfb_entries * prefetch_boost / smt_sharers))


def _build_setup(machine: Machine, kernel_name: str,
                 placement: Sequence[Core], policy: NumaPolicy,
                 app_direct: bool, sim_ns: float,
                 warmup_ns: float) -> _Setup:
    if not placement:
        raise SimulationError("placement must contain at least one thread")
    if warmup_ns >= sim_ns:
        raise SimulationError("warmup must be shorter than the simulation")
    cal = machine.metadata.get("calibration", DEFAULT_CALIBRATION)
    if not isinstance(cal, CalibrationProfile):
        cal = DEFAULT_CALIBRATION

    smt: dict[int, int] = {}
    for core in placement:
        smt[core.core_id] = smt.get(core.core_id, 0) + 1

    # Pass 1: resolve routes; find which socket controllers see both local
    # and UPI-crossing initiators (the snoop-clamp condition, mirroring
    # SimulationPlan.snoop_clamps).
    thread_routes = []
    mc_initiators: dict[str, set[bool]] = {}
    for core in placement:
        targets = policy.targets_for(machine, core)
        routes = []
        for node_id, frac in targets.items():
            if frac <= 0.0:
                continue
            path = machine.route(core.socket_id, node_id)
            routes.append((frac, path))
            for res in path.resources:
                if res.endswith(".mc") and res.startswith("s"):
                    mc_initiators.setdefault(res, set()).add(path.crosses_upi)
        if not routes:
            raise SimulationError(
                f"policy {policy.describe()} yields no targets for "
                f"core {core.core_id}"
            )
        thread_routes.append(routes)
    clamps = {res: clamp for res, clamp in cal.snoop_caps.items()
              if len(mc_initiators.get(res, ())) == 2}

    # Pass 2: build stations and per-(thread, route) flows in ticks.
    station_index: dict[str, int] = {}
    station_names: list[str] = []
    station_caps: list[float] = []
    flows: list[_Flow] = []
    thread_flows: list[tuple[int, ...]] = []
    thread_fracs: list[tuple[float, ...] | None] = []
    mlp: list[int] = []
    for i, (core, routes) in enumerate(zip(placement, thread_routes)):
        ids = []
        for _, path in routes:
            st_ids, svc = [], []
            for res in path.resources:
                idx = station_index.get(res)
                if idx is None:
                    idx = station_index[res] = len(station_names)
                    station_names.append(res)
                    cap = machine.resources[res]
                    station_caps.append(min(cap, clamps.get(res, cap)))
                service_ns = LINE / station_caps[idx]
                if (path.crosses_upi and not path.crosses_cxl
                        and res.endswith(".mc")):
                    # UPI-crossing streams occupy the home controller
                    # longer (directory/snoop amplification) — the same
                    # remote_mc_weight the analytic solver applies.
                    service_ns *= cal.remote_mc_weight
                st_ids.append(idx)
                svc.append(_ticks(service_ns))
            total_svc = sum(svc)
            fixed = max(0, _ticks(path_latency_ns(path, app_direct, cal))
                        - total_svc)
            if fixed + total_svc == 0:
                fixed = 1   # keep issue→completion strictly positive
            flows.append(_Flow(i, tuple(st_ids), tuple(svc), fixed,
                               fixed + total_svc))
            ids.append(len(flows) - 1)
        thread_flows.append(tuple(ids))
        thread_fracs.append(tuple(f for f, _ in routes)
                            if len(ids) > 1 else None)
        mlp.append(_effective_mlp(core, smt[core.core_id]))

    return _Setup(
        station_names=station_names,
        flows=flows,
        thread_flows=thread_flows,
        thread_fracs=thread_fracs,
        mlp=mlp,
        sim_ns=sim_ns,
        warmup_ns=warmup_ns,
        sim_ticks=_ticks(sim_ns),
        warmup_ticks=_ticks(warmup_ns),
        ratio=reported_fraction(kernel_name),
        eff=cal.pmdk_bw_efficiency if app_direct else 1.0,
    )


# ---------------------------------------------------------------------------
# scalar reference backend
# ---------------------------------------------------------------------------

def _run_scalar(setup: _Setup) -> _Counts:
    """The oracle: one heapq event per completed cacheline."""
    n_threads = len(setup.thread_flows)
    flows = setup.flows
    thread_flows = setup.thread_flows
    thread_fracs = setup.thread_fracs
    sim_t = setup.sim_ticks
    warm_t = setup.warmup_ticks

    next_free = [0] * len(setup.station_names)
    busy = [0] * len(setup.station_names)
    completed = [0] * n_threads
    completed_warm = [0] * n_threads
    issued = [0] * n_threads

    # event queue: (completion tick, seq, thread id, issue tick)
    events: list[tuple[int, int, int, int]] = []
    seq = itertools.count()

    def issue(tid: int, now: int) -> None:
        """Send one request down the thread's (scheduled) route."""
        k = issued[tid]
        issued[tid] = k + 1
        fids = thread_flows[tid]
        if len(fids) == 1:
            flow = flows[fids[0]]
        else:
            flow = flows[fids[int(_route_pattern(thread_fracs[tid],
                                                 k + 1)[k])]]
        t = now
        for s, svc in zip(flow.stations, flow.service):
            start = next_free[s]
            if t > start:
                start = t
            dep = start + svc
            next_free[s] = dep
            if start < sim_t:
                # charge only the in-window portion of the service
                busy[s] += (dep if dep < sim_t else sim_t) - start
            t = dep
        heapq.heappush(events, (t + flow.latency, next(seq), tid, now))

    # prime: every thread fills its MLP window at t=0
    for tid in range(n_threads):
        for _ in range(setup.mlp[tid]):
            issue(tid, 0)

    latency_sum = 0
    latency_count = 0
    # peek before popping: events past sim_ns stay in flight (outstanding),
    # they are not silently dropped
    while events and events[0][0] <= sim_t:
        now, _, tid, issued_at = heapq.heappop(events)
        completed[tid] += 1
        if now >= warm_t:
            completed_warm[tid] += 1
            latency_sum += now - issued_at
            latency_count += 1
        # closed loop: immediately reissue
        issue(tid, now)

    return _Counts(
        completed=np.asarray(completed, dtype=np.int64),
        completed_warm=np.asarray(completed_warm, dtype=np.int64),
        issued=np.asarray(issued, dtype=np.int64),
        busy=np.asarray(busy, dtype=np.int64),
        latency_sum=latency_sum,
        latency_count=latency_count,
    )


# ---------------------------------------------------------------------------
# result conversion (single code path → identical floats for every backend)
# ---------------------------------------------------------------------------

def _finalize(setup: _Setup, c: _Counts) -> DesResult:
    window = setup.sim_ns - setup.warmup_ns
    per_thread = {
        tid: int(c.completed_warm[tid]) * LINE / window
        for tid in range(len(setup.thread_flows))
    }
    actual = sum(per_thread.values())
    utilization = {
        name: int(b) / setup.sim_ticks
        for name, b in zip(setup.station_names, c.busy)
    }
    mean_latency = (c.latency_sum / c.latency_count / TICKS_PER_NS
                    if c.latency_count else 0.0)
    return DesResult(
        reported_gbps=actual * setup.ratio * setup.eff,
        actual_gbps=actual,
        per_thread_gbps=per_thread,
        simulated_ns=setup.sim_ns,
        station_utilization=utilization,
        mean_latency_ns=mean_latency,
        total_issued=int(c.issued.sum()),
        total_completed=int(c.completed.sum()),
        total_outstanding=int((c.issued - c.completed).sum()),
    )


def simulate_stream_des(machine: Machine, kernel_name: str,
                        placement: Sequence[Core], policy: NumaPolicy,
                        app_direct: bool = False,
                        sim_ns: float = 200_000.0,
                        warmup_ns: float = 40_000.0,
                        des_backend: str = "auto") -> DesResult:
    """Event-driven counterpart of
    :func:`repro.memsim.engine.simulate_stream`.

    Supports every policy the analytic engine does — single-target BIND /
    LOCAL, and multi-target INTERLEAVE / WEIGHTED (each thread's reissue
    stream is split across its routes by a deterministic weighted
    round-robin) — with the calibrated snoop weighting and home-agent
    clamps applied, so the DES validates the *calibrated* engine, not
    just the core mechanics.

    ``des_backend`` selects the engine: ``"scalar"`` (reference event
    loop), ``"vector"`` (batched NumPy epochs, single-route setups
    only), ``"compiled"`` (the JIT/C event loop of
    :mod:`repro.memsim.des_jit`, silently degrading to ``"scalar"`` when
    no compiled provider exists), or ``"auto"`` — vector for a
    single-route setup whose closed-loop window holds ≥
    :data:`DES_VECTORIZE_THRESHOLD` requests, the compiled event loop
    otherwise.  ``REPRO_BACKEND`` (see :mod:`repro.compiled`) overrides
    the ``"auto"`` resolution; an explicit ``des_backend`` argument
    always wins.  All backends return identical results.

    Raises:
        SimulationError: empty placement, no usable targets, warmup not
            shorter than the simulation, an unknown backend, or
            ``"vector"`` for a multi-target (interleaved / weighted)
            policy.
    """
    if des_backend not in DES_BACKENDS:
        raise SimulationError(
            f"unknown des_backend {des_backend!r}; expected one of "
            f"{DES_BACKENDS}"
        )
    setup = _build_setup(machine, kernel_name, placement, policy,
                         app_direct, sim_ns, warmup_ns)
    backend = des_backend
    if backend == "auto":
        backend = compiled.backend_override() or "auto"
    if backend == "auto":
        single_route = all(fracs is None for fracs in setup.thread_fracs)
        backend = ("vector" if single_route
                   and sum(setup.mlp) >= DES_VECTORIZE_THRESHOLD
                   else "compiled")
    if backend == "compiled":
        from repro.memsim import des_jit
        if not des_jit.available():
            backend = "scalar"
    compiled.report_tier("des", backend)
    with obs.span("des.run", meta={"backend": backend,
                                   "kernel": kernel_name,
                                   "threads": len(placement)}):
        if backend == "vector":
            from repro.memsim.des_fast import run_vector
            counts = run_vector(setup)
        elif backend == "compiled":
            from repro.memsim.des_jit import run_compiled
            counts = run_compiled(setup)
        else:
            counts = _run_scalar(setup)
    result = _finalize(setup, counts)
    if obs.metrics_enabled():
        obs.inc("des.runs")
        obs.inc("des.events_issued", result.total_issued)
        obs.inc("des.events_completed", result.total_completed)
        for name, busy_ticks in zip(setup.station_names, counts.busy):
            obs.inc(f"des.station.busy_ns.{name}",
                    int(busy_ticks) / TICKS_PER_NS)
    return result
