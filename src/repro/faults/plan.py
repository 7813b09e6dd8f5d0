"""Fault plans: declarative, seedable fault schedules.

A :class:`FaultPlan` is a list of scoped injector specs plus one RNG
seed.  Each spec kind belongs to one *site*, the layer hook in
:mod:`repro.faults` that consults it: the CXL datapath (``cxl_op``:
:class:`PoisonSpec`, :class:`LinkFlapSpec`, :class:`DeviceTimeoutSpec`),
the pmdk persist path (``persist``: :class:`PowerLossSpec`,
:class:`TxCrashSpec`), the sweep runner (``sweep_task``:
:class:`SweepFailSpec`), the sweep service's admission (``serve_request``:
:class:`ServeShedSpec`), tiering page moves (``migration``:
:class:`MigrationAbortSpec`), fabric workload steps (``fabric_step``:
:class:`HostDetachSpec`) and KV-cache decode rounds (``decode_step``:
:class:`WorkerKillSpec`).  A spec fires when its trigger matches the
site's deterministic operation counter or the plan's seeded RNG, so the
same plan over the same workload injects the same faults at the same
points, every run, which is what makes chaos sweeps reproducible.

Plans round-trip through JSON (``examples/faultplans/`` ships runnable
ones)::

    {"seed": 7, "faults": [
        {"kind": "device_timeout", "device": "cxl0", "p": 0.2,
         "max_fires": 3}
    ]}
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field, fields

from repro.errors import FaultPlanError, UnknownFaultKindError

__all__ = [
    "FaultPlan", "FaultSpec", "PoisonSpec", "LinkFlapSpec",
    "DeviceTimeoutSpec", "PowerLossSpec", "TxCrashSpec", "SweepFailSpec",
    "ServeShedSpec", "MigrationAbortSpec", "HostDetachSpec",
    "WorkerKillSpec", "KNOWN_FAULT_KINDS",
]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_COUNT = ("a 1-based integer (>= 1)", lambda v: _is_int(v) and v >= 1)
_INDEX = ("an integer >= 0", lambda v: _is_int(v) and v >= 0)
_PROB = ("a number in [0, 1]",
         lambda v: (_is_int(v) or isinstance(v, float)) and 0 <= v <= 1)

#: The shared spec validator: field name -> (requirement, test).  Every
#: value a hook compares, counts with or indexes by is checked here, so a
#: plan that parses cannot fail or silently never fire inside a hook.
_FIELD_RULES = {
    **dict.fromkeys(("at_op", "at_persist", "at_move", "at_step", "lines",
                     "retrain_ops", "attempts", "max_fires"), _COUNT),
    **dict.fromkeys(("dpa", "host", "worker"), _INDEX),
    **dict.fromkeys(("p", "survivor_prob"), _PROB),
    "direction": ("'promote', 'demote' or null",
                  lambda v: v in ("promote", "demote")),
}


@dataclass
class FaultSpec:
    """Base injector spec: shared bookkeeping for all fault kinds.

    ``fires`` counts how many times this spec has injected (mutable run
    state, excluded from equality-relevant plan content); ``max_fires``
    caps it (``None`` = unlimited, which one-shot kinds default to 1).
    ``site`` names the :mod:`repro.faults` hook that consults the kind.
    """

    kind = "abstract"
    site = "abstract"
    one_shot = False

    max_fires: int | None = None
    fires: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.max_fires is None and self.one_shot:
            self.max_fires = 1
        for f in fields(self):
            value = getattr(self, f.name)
            # a field annotated ``X | None`` takes null for "no limit/any"
            if f.name not in _FIELD_RULES or (
                    value is None and f.type.endswith("| None")):
                continue
            need, ok = _FIELD_RULES[f.name]
            if not ok(value):
                raise FaultPlanError(
                    f"{self.kind} {f.name} must be {need}, got {value!r}")

    def _spent(self) -> bool:
        return self.max_fires is not None and self.fires >= self.max_fires


@dataclass
class PoisonSpec(FaultSpec):
    """Inject media poison into ``lines`` cachelines at ``dpa`` when the
    ``at_op``-th CXL operation on ``device`` is issued (1-based count of
    host-port reads/writes reaching that device)."""

    kind = "poison"
    site = "cxl_op"

    device: str = ""
    dpa: int = 0
    lines: int = 1
    at_op: int = 1


@dataclass
class LinkFlapSpec(FaultSpec):
    """Take link ``link`` down for ``retrain_ops`` consecutive CXL
    operations starting at the ``at_op``-th op over that link.  Ops in
    the retrain window fail with :class:`~repro.errors.CxlLinkDownError`
    (transient — the port's retry policy rides them out)."""

    kind = "link_flap"
    site = "cxl_op"

    link: str = ""
    at_op: int = 1
    retrain_ops: int = 1


@dataclass
class DeviceTimeoutSpec(FaultSpec):
    """Each CXL operation on ``device`` times out with probability ``p``
    (drawn from the plan's seeded RNG — deterministic per plan+workload).
    A timed-out op fails with :class:`~repro.errors.CxlDeviceTimeoutError`
    (transient)."""

    kind = "device_timeout"
    site = "cxl_op"

    device: str = ""
    p: float = 1.0


@dataclass
class PowerLossSpec(FaultSpec):
    """Cut power to the bound domain ``domain`` at the ``at_persist``-th
    process-wide persist operation.  The domain runs its drain drill
    (battery holdup → partial flush) and the persist raises
    :class:`~repro.errors.PowerLossInjected`."""

    kind = "power_loss"
    site = "persist"
    one_shot = True

    domain: str = ""
    at_persist: int = 1


@dataclass
class TxCrashSpec(FaultSpec):
    """Crash (power loss to the CPU caches) at the ``at_persist``-th
    process-wide persist operation.  A :class:`~repro.pmdk.crash.
    CrashRegion` target drops its store-buffer shadow (each dirty line
    surviving with ``survivor_prob``); any region then raises
    :class:`~repro.errors.CrashInjected` so recovery runs at reopen."""

    kind = "tx_crash"
    site = "persist"
    one_shot = True

    at_persist: int = 1
    survivor_prob: float = 0.0


@dataclass
class SweepFailSpec(FaultSpec):
    """Fail the sweep task for ``series`` (optionally one ``kernel``) on
    its first ``attempts`` tries; ``attempts=None`` fails every try — a
    deterministic failer the runner must quarantine."""

    kind = "sweep_fail"
    site = "sweep_task"

    series: str = ""
    kernel: str | None = None
    attempts: int | None = 1

    def matches(self, series: str, kernel: str) -> bool:
        return (series == self.series
                and (self.kernel is None or kernel == self.kernel))


@dataclass
class ServeShedSpec(FaultSpec):
    """Force the sweep service's admission control to shed requests.

    Matches every request from ``tenant`` (``None`` = any tenant); the
    service rejects the matched admission with a
    :class:`~repro.errors.ServiceOverloadError` exactly as if the queue
    were full, so chaos plans can exercise client backoff paths without
    actually saturating the service.  Cap injections with ``max_fires``.
    """

    kind = "serve_shed"
    site = "serve_request"

    tenant: str | None = None

    def matches(self, tenant: str) -> bool:
        return self.tenant is None or tenant == self.tenant


@dataclass
class MigrationAbortSpec(FaultSpec):
    """Kill a tiering page migration mid-copy.

    Fires at the ``at_move``-th page move the migration engine performs
    (1-based, process-wide), optionally only when the move ``direction``
    matches (``"promote"``/``"demote"``; ``None`` = either).  The copy
    stops between the two half-page spans and raises
    :class:`~repro.errors.MigrationAbortError`; the engine guarantees
    the page still lives fully in its source tier — chaos plans assert
    that conservation invariant afterwards.
    """

    kind = "migration_abort"
    site = "migration"

    at_move: int = 1
    direction: str | None = None

    def matches(self, direction: str) -> bool:
        return self.direction is None or direction == self.direction


@dataclass
class HostDetachSpec(FaultSpec):
    """Surprise-detach host ``host`` from the pooling fabric.

    Fires at the ``at_step``-th fabric workload step (1-based,
    process-wide — the fabric drill calls :func:`repro.faults.
    on_fabric_step` between tenant IO rounds).  The fabric manager
    unbinds every vPPB the host held, releases its slices back to the
    pool, and tears down its HDM decoders; subsequent IO against the
    host's slices raises :class:`~repro.errors.HostDetachedError` while
    *surviving* tenants must stay byte-identical to a fault-free run.
    """

    kind = "host_detach"
    site = "fabric_step"
    one_shot = True

    host: int = 0
    at_step: int = 1


@dataclass
class WorkerKillSpec(FaultSpec):
    """Kill decode worker ``worker`` mid-stream.

    Fires at the ``at_step``-th decode step (1-based, process-wide —
    the KV-cache engine calls :func:`repro.faults.on_decode_step` at
    every decode-round boundary).  The engine marks the worker dead,
    drops its un-offloaded local blocks, and re-routes its sequences;
    recovery must replay from pooled blocks with zero re-prefill of
    shared prefixes (the pooled-block failover drill in
    :mod:`repro.workloads.kvcache` proves byte-identity against an
    uninterrupted run).
    """

    kind = "worker_kill"
    site = "decode_step"
    one_shot = True

    worker: int = 0
    at_step: int = 1


_SPEC_KINDS: dict[str, type[FaultSpec]] = {
    cls.kind: cls
    for cls in (PoisonSpec, LinkFlapSpec, DeviceTimeoutSpec,
                PowerLossSpec, TxCrashSpec, SweepFailSpec, ServeShedSpec,
                MigrationAbortSpec, HostDetachSpec, WorkerKillSpec)
}

#: every fault kind the plane implements (what a JSON plan may name)
KNOWN_FAULT_KINDS: tuple[str, ...] = tuple(sorted(_SPEC_KINDS))


@dataclass
class FaultPlan:
    """A seeded schedule of fault injections.

    Run state (operation counters, per-spec fire counts, the RNG stream)
    lives on the plan; :meth:`reset` rewinds everything so the same plan
    object can drive repeated deterministic runs.
    """

    seed: int = 0
    faults: list[FaultSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.reset()

    # -- run state ------------------------------------------------------

    def reset(self) -> None:
        """Rewind counters, fire counts and the RNG stream to the start of
        the plan, and bucket its specs by kind and site."""
        self.rng = random.Random(self.seed)
        self.counts: dict[str, int] = {}        # scope -> 1-based op count
        self._by_kind: dict[str, list[FaultSpec]] = {}
        for spec in self.faults:
            spec.fires = 0
            self._by_kind.setdefault(spec.kind, []).append(spec)
        #: the hook sites this plan targets; every other hook returns
        #: after one probe of this set
        self.sites = frozenset(spec.site for spec in self.faults)

    def tick(self, scope: str) -> int:
        """Advance and return the 1-based operation counter for ``scope``
        (``dev:<device>``, ``link:<link>``, ``persist``, ``migration``,
        ``fabric_step`` or ``decode_step``)."""
        n = self.counts.get(scope, 0) + 1
        self.counts[scope] = n
        return n

    def specs(self, kind: str) -> list[FaultSpec]:
        """The plan's ``kind`` specs that may still fire, in plan order."""
        return [s for s in self._by_kind.get(kind, ()) if not s._spent()]

    # -- JSON round trip ------------------------------------------------

    def to_doc(self) -> dict:
        """Plan content as a JSON-ready dict (run state excluded)."""
        out = []
        for spec in self.faults:
            doc = {k: v for k, v in asdict(spec).items() if k != "fires"}
            doc["kind"] = spec.kind
            out.append(doc)
        return {"seed": self.seed, "faults": out}

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True)

    @classmethod
    def from_doc(cls, doc: dict) -> "FaultPlan":
        if not isinstance(doc, dict):
            raise FaultPlanError("fault plan must be a JSON object")
        raw_specs = doc.get("faults", [])
        if not isinstance(raw_specs, list):
            raise FaultPlanError(
                f"'faults' must be a list, got {type(raw_specs).__name__}")
        specs: list[FaultSpec] = []
        for i, raw in enumerate(raw_specs):
            if not isinstance(raw, dict) or "kind" not in raw:
                raise FaultPlanError(f"fault #{i} needs a 'kind' field")
            kind = raw["kind"]
            spec_cls = _SPEC_KINDS.get(kind) if isinstance(kind, str) else None
            if spec_cls is None:
                raise UnknownFaultKindError(
                    f"fault #{i}: unknown fault kind {kind!r}; "
                    f"known kinds: {', '.join(KNOWN_FAULT_KINDS)}",
                    kind=str(kind), known=KNOWN_FAULT_KINDS,
                )
            allowed = {f.name for f in fields(spec_cls)} - {"fires"}
            kwargs = {k: v for k, v in raw.items() if k != "kind"}
            unknown = set(kwargs) - allowed
            if unknown:
                raise FaultPlanError(
                    f"fault #{i} ({kind}): unknown fields {sorted(unknown)}"
                )
            specs.append(spec_cls(**kwargs))
        seed = doc.get("seed", 0)
        if not _is_int(seed):
            raise FaultPlanError(f"plan seed must be an integer, got {seed!r}")
        return cls(seed=seed, faults=specs)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise FaultPlanError(f"malformed fault-plan JSON: {exc}") from exc
        return cls.from_doc(doc)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def describe(self) -> str:
        lines = [f"fault plan (seed {self.seed}, {len(self.faults)} faults)"]
        for spec in self.faults:
            doc = {k: v for k, v in asdict(spec).items()
                   if k != "fires" and v is not None}
            doc.pop("max_fires", None)
            args = ", ".join(f"{k}={v}" for k, v in sorted(doc.items()))
            cap = ("" if spec.max_fires is None
                   else f" (max {spec.max_fires} fires)")
            lines.append(f"  - {spec.kind}: {args}{cap}")
        return "\n".join(lines)
