"""The fault-injection plane: one process-wide plan, cheap layer hooks.

Mirrors :mod:`repro.obs`: instrumented layers call one module-level
hook per *site* at their batch boundaries — :func:`on_cxl_op` before a
host port touches the device, :func:`on_persist` at the top of every
:meth:`~repro.pmdk.pmem.PmemRegion.persist`, :func:`on_sweep_task`
before the runner executes one series sweep, :func:`on_serve_request`
at the sweep service's admission, :func:`on_migration` mid-copy of a
tiering page move, :func:`on_fabric_step` and :func:`on_decode_step` at
fabric and KV-cache round boundaries.  Each hook is a **true no-op
while no plan is installed** (one module-global ``None`` check) and
returns after one set probe when the plan targets no spec at its site.
``benchmarks/bench_fault_recovery.py`` gates that fault-free cost at
<= 2% against a :class:`bypassed` baseline.

Typical use (the streamer CLI does this for ``--faults plan.json``)::

    from repro import faults
    from repro.faults.plan import FaultPlan

    faults.install(FaultPlan.load("plan.json"))
    try:
        ...run the workload; injected faults surface as typed errors...
    finally:
        faults.clear()

Power-loss specs need their target registered first::

    faults.bind_domain(domain)          # a repro.core.battery.PowerDomain

Injection is deterministic: triggers match seeded RNG draws and
per-scope operation counters kept on the plan, so the same plan over
the same workload fires at the same points every run.  Every injection
bumps ``faults.injected.<kind>`` and records a ``fault.<kind>`` trace
instant.
"""

from __future__ import annotations

import contextlib

from repro import obs
from repro.errors import (
    BenchmarkError,
    CrashInjected,
    CxlDeviceTimeoutError,
    CxlLinkDownError,
    FaultPlanError,
    MigrationAbortError,
    PowerLossInjected,
    ServiceOverloadError,
)
from repro.faults.plan import (
    KNOWN_FAULT_KINDS,
    DeviceTimeoutSpec,
    FaultPlan,
    FaultSpec,
    HostDetachSpec,
    LinkFlapSpec,
    MigrationAbortSpec,
    PoisonSpec,
    PowerLossSpec,
    ServeShedSpec,
    SweepFailSpec,
    TxCrashSpec,
    WorkerKillSpec,
)

__all__ = [
    "FaultPlan", "FaultSpec", "PoisonSpec", "LinkFlapSpec",
    "DeviceTimeoutSpec", "PowerLossSpec", "TxCrashSpec", "SweepFailSpec",
    "ServeShedSpec", "MigrationAbortSpec", "HostDetachSpec",
    "WorkerKillSpec", "KNOWN_FAULT_KINDS",
    "SweepFaultInjected",
    "install", "clear", "active", "enabled", "use_plan", "export_active",
    "bind_domain", "unbind_domains",
    "on_cxl_op", "on_persist", "on_sweep_task", "on_serve_request",
    "on_migration", "on_fabric_step", "on_decode_step", "bypassed",
]


class SweepFaultInjected(BenchmarkError):
    """A :class:`SweepFailSpec` failed this sweep task on purpose."""

    def __init__(self, message: str, deterministic: bool = False) -> None:
        super().__init__(message)
        self.deterministic = deterministic

    def __reduce__(self):
        # default exception pickling only carries ``args``; keep the
        # deterministic flag intact across the sweep process pool
        return (type(self), (str(self), self.deterministic))


# ---------------------------------------------------------------------------
# the singleton plan + target registry
# ---------------------------------------------------------------------------

_plan: FaultPlan | None = None
_domains: dict[str, object] = {}        # name -> PowerDomain


def install(plan: FaultPlan) -> None:
    """Install ``plan`` process-wide (rewinds its run state first)."""
    global _plan
    if not isinstance(plan, FaultPlan):
        raise FaultPlanError(f"install() takes a FaultPlan, got {plan!r}")
    plan.reset()
    _plan = plan


def clear() -> None:
    """Remove the active plan; hooks return to the no-op path."""
    global _plan
    _plan = None


def active() -> FaultPlan | None:
    """The installed plan, or ``None``."""
    return _plan


def enabled() -> bool:
    """Is a fault plan installed?"""
    return _plan is not None


@contextlib.contextmanager
def use_plan(plan: FaultPlan):
    """Scoped :func:`install`.  On exit the prior plan (or none) is back
    exactly as it was — not rewound, so its one-shot specs that already
    fired stay spent and its counters carry on."""
    global _plan
    prev = _plan
    install(plan)
    try:
        yield plan
    finally:
        _plan = prev


def export_active() -> str | None:
    """The active plan's JSON content, or ``None`` — used to forward the
    plan into sweep worker processes (counters start fresh there)."""
    return None if _plan is None else _plan.to_json()


def bind_domain(domain) -> None:
    """Register a :class:`~repro.core.battery.PowerDomain` so power-loss
    specs can find it by name."""
    _domains[domain.name] = domain


def unbind_domains() -> None:
    """Drop every domain binding (test isolation / teardown)."""
    _domains.clear()


# ---------------------------------------------------------------------------
# layer hooks — the only API instrumented code calls
# ---------------------------------------------------------------------------

def _fired(spec: FaultSpec, **meta) -> None:
    """Account one injection by ``spec`` — the only code that bumps its
    ``fires``, counts ``faults.injected.<kind>`` and records the
    ``fault.<kind>`` trace instant (carrying ``meta``)."""
    spec.fires += 1
    obs.inc(f"faults.injected.{spec.kind}")
    obs.instant(f"fault.{spec.kind}", meta=meta)


def on_cxl_op(op: str, device: str, link: str, dpa: int, nlines: int,
              inject_poison=None) -> None:
    """Consult the plan before one host-port CXL operation.

    Args:
        op: ``"read"`` or ``"write"``.
        device / link: names identifying the datapath.
        dpa / nlines: the span about to be accessed.
        inject_poison: callable ``(dpa) -> None`` poisoning one line on
            the target device (so this module needs no cxl import).

    Raises:
        CxlDeviceTimeoutError: a :class:`DeviceTimeoutSpec` fired.
        CxlLinkDownError: the op landed in a link-retrain window.
    """
    plan = _plan
    if plan is None or "cxl_op" not in plan.sites:
        return
    dev_op = plan.tick(f"dev:{device}")
    link_op = plan.tick(f"link:{link}")
    for spec in plan.specs("poison"):
        if spec.device == device and dev_op == spec.at_op:
            _fired(spec, device=device, dpa=spec.dpa, lines=spec.lines)
            if inject_poison is not None:
                for i in range(spec.lines):
                    inject_poison(spec.dpa + i * 64)
    for spec in plan.specs("link_flap"):
        if (spec.link == link
                and spec.at_op <= link_op < spec.at_op + spec.retrain_ops):
            _fired(spec, link=link, op=link_op)
            raise CxlLinkDownError(
                f"link {link} retraining (op {link_op} in flap window "
                f"[{spec.at_op}, {spec.at_op + spec.retrain_ops}))"
            )
    for spec in plan.specs("device_timeout"):
        if spec.device == device and plan.rng.random() < spec.p:
            _fired(spec, device=device, op=dev_op)
            raise CxlDeviceTimeoutError(
                f"device {device} timed out on {op} of {nlines} line(s) "
                f"at DPA {dpa:#x} (op {dev_op})"
            )


def on_persist(region) -> None:
    """Consult the plan at the top of one ``PmemRegion.persist``.

    Raises:
        PowerLossInjected: a :class:`PowerLossSpec` fired (its bound
            domain has already run the power-fail drill).
        CrashInjected: a :class:`TxCrashSpec` fired (a crash-capable
            region has already dropped its store buffer).
    """
    plan = _plan
    if plan is None or "persist" not in plan.sites:
        return
    n = plan.tick("persist")
    for spec in plan.specs("power_loss"):
        if n == spec.at_persist:
            _fired(spec, domain=spec.domain, persist=n)
            domain = _domains.get(spec.domain)
            if domain is None:
                raise FaultPlanError(
                    f"power_loss targets unbound domain {spec.domain!r}; "
                    "call faults.bind_domain(domain) first"
                )
            report = None
            try:
                report = domain.power_fail()
            except Exception as exc:        # degraded-battery loss path
                report = getattr(exc, "report", None)
            err = PowerLossInjected(
                f"injected power loss on domain {spec.domain!r} at "
                f"persist #{n}"
            )
            err.report = report
            raise err
    for spec in plan.specs("tx_crash"):
        if n == spec.at_persist:
            _fired(spec, persist=n)
            crash = getattr(region, "crash", None)
            if crash is not None:
                crash(spec.survivor_prob, plan.rng)
            raise CrashInjected(
                f"injected tx crash at persist #{n} "
                f"(survivor_prob={spec.survivor_prob})"
            )


def on_sweep_task(series: str, kernel: str, attempt: int) -> None:
    """Consult the plan before one sweep task execution.

    Raises:
        SweepFaultInjected: a :class:`SweepFailSpec` covers this attempt
            (``deterministic`` set when the spec fails *every* attempt).
    """
    plan = _plan
    if plan is None or "sweep_task" not in plan.sites:
        return
    for spec in plan.specs("sweep_fail"):
        if spec.matches(series, kernel) and (
                spec.attempts is None or attempt < spec.attempts):
            _fired(spec, series=series, kernel=kernel, attempt=attempt)
            raise SweepFaultInjected(
                f"injected sweep failure for {series}/{kernel} "
                f"(attempt {attempt})",
                deterministic=spec.attempts is None,
            )


def on_migration(page: int, direction: str) -> None:
    """Consult the plan mid-copy of one tiering page migration.

    The migration engine calls this between the two half-page copy
    spans of every move, so an injected abort genuinely interrupts a
    copy in flight.

    Raises:
        MigrationAbortError: a :class:`MigrationAbortSpec` matched this
            move — the engine leaves the page fully in its source tier.
    """
    plan = _plan
    if plan is None or "migration" not in plan.sites:
        return
    n = plan.tick("migration")
    for spec in plan.specs("migration_abort"):
        if n == spec.at_move and spec.matches(direction):
            _fired(spec, page=page, direction=direction, move=n)
            raise MigrationAbortError(
                f"injected migration abort: {direction} of page {page} "
                f"killed mid-copy (move #{n})",
                page=page, direction=direction,
            )


def on_fabric_step(detach=None) -> None:
    """Consult the plan at one fabric workload step boundary.

    The pooling-fabric chaos drill calls this between tenant IO rounds;
    a matching :class:`HostDetachSpec` surprise-detaches its host.

    Args:
        detach: callable ``(host) -> None`` detaching one host from the
            fabric (so this module needs no fabric import).  The spec
            still fires (and counts) without it.
    """
    plan = _plan
    if plan is None or "fabric_step" not in plan.sites:
        return
    n = plan.tick("fabric_step")
    for spec in plan.specs("host_detach"):
        if n == spec.at_step:
            _fired(spec, host=spec.host, step=n)
            if detach is not None:
                detach(spec.host)


def on_decode_step(kill=None) -> None:
    """Consult the plan at one KV-cache decode-round boundary.

    The KV-serving engine calls this between decode rounds (1-based,
    process-wide counter); a matching :class:`WorkerKillSpec` kills its
    decode worker mid-stream.

    Args:
        kill: callable ``(worker) -> None`` killing one decode worker
            (so this module needs no kvserve import).  The spec still
            fires (and counts) without it.
    """
    plan = _plan
    if plan is None or "decode_step" not in plan.sites:
        return
    n = plan.tick("decode_step")
    for spec in plan.specs("worker_kill"):
        if n == spec.at_step:
            _fired(spec, worker=spec.worker, step=n)
            if kill is not None:
                kill(spec.worker)


def on_serve_request(tenant: str) -> None:
    """Consult the plan at the sweep service's admission boundary.

    Raises:
        ServiceOverloadError: a :class:`ServeShedSpec` covers ``tenant``
            — the service must reject this request exactly as if its
            queue were full (chaos-testing client backoff paths).
    """
    plan = _plan
    if plan is None or "serve_request" not in plan.sites:
        return
    for spec in plan.specs("serve_shed"):
        if spec.matches(tenant):
            _fired(spec, tenant=tenant)
            raise ServiceOverloadError(
                f"injected load shed for tenant {tenant!r}")


# ---------------------------------------------------------------------------
# benchmark support: hook-bypassed baseline
# ---------------------------------------------------------------------------

def _noop(*args, **kwargs) -> None:
    return None


class bypassed:
    """Context manager replacing every hook with a bare no-op.

    The stand-in for *uninstrumented* code in
    ``benchmarks/bench_fault_recovery.py``: call sites still pay a
    function call, but not even the plan-installed check runs.  Not
    thread-safe — benchmarks only.
    """

    _HOOKS = ("on_cxl_op", "on_persist", "on_sweep_task",
              "on_serve_request", "on_migration", "on_fabric_step",
              "on_decode_step", "enabled")

    def __enter__(self) -> "bypassed":
        g = globals()
        self._saved = {name: g[name] for name in self._HOOKS}
        for name in self._HOOKS:
            g[name] = _noop
        g["enabled"] = lambda: False
        return self

    def __exit__(self, *exc) -> None:
        globals().update(self._saved)
