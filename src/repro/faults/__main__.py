"""Demo driver: run a fault plan against a miniature full stack.

Usage::

    python -m repro.faults examples/faultplans/flaky-link.json

Builds the standard demo fixture — device ``cxl0`` behind the default
link ``cxl.link``, power domain ``dom0`` with a battery, and a small
transactional pool on a crash-capable region — installs the plan, runs a
CXL traffic phase and a transactional persistence phase, then reports
what was injected, what the retry machinery absorbed, and how recovery
went.  The example plans in ``examples/faultplans/`` target exactly
these names.
"""

from __future__ import annotations

import sys

from repro import faults, obs, units
from repro.core.battery import Battery, PowerDomain
from repro.cxl.device import MediaController, Type3Device
from repro.cxl.host import CxlMemPort, RetryPolicy
from repro.cxl.link import CxlLink
from repro.cxl.spec import CxlVersion
from repro.errors import (
    CrashInjected,
    CxlPoisonError,
    CxlTimeoutError,
    FaultPlanError,
    PowerLossInjected,
)
from repro.machine.dram import DDR4_1333
from repro.pmdk.crash import CrashRegion
from repro.pmdk.pmem import VolatileRegion
from repro.pmdk.pool import PmemObjPool

POOL_BYTES = 4 * 1024 * 1024
LINE = bytes(range(64))


def _build_port() -> CxlMemPort:
    media = MediaController("m", DDR4_1333, 2, 2, units.mib(32), 0.6, 130.0)
    device = Type3Device("cxl0", media, battery_backed=False,
                         gpf_supported=False)
    link = CxlLink(CxlVersion.CXL_2_0, 16, 330.0)   # name: "cxl.link"
    return CxlMemPort(link, device, retry=RetryPolicy(max_retries=4))


def _cxl_phase(port: CxlMemPort, lines: int = 32, read_passes: int = 2) -> None:
    print(f"phase 1: {lines} line writes + {read_passes}x read sweep "
          f"against {port.device.name!r} over {port.link.name!r}")
    errors = 0
    ops = ([("write", i * 64) for i in range(lines)]
           + [("read", i * 64) for _ in range(read_passes)
              for i in range(lines)])
    for n, (kind, addr) in enumerate(ops, 1):
        try:
            if kind == "write":
                port.write_line(addr, LINE)
            else:
                port.read_line(addr)
        except CxlPoisonError as exc:
            errors += 1
            print(f"  op {n}: poison at DPAs {[hex(d) for d in exc.dpas]} "
                  "(line scrubbed; retried read sees zeros)")
            assert port.read_line(addr) == b"\x00" * 64
        except CxlTimeoutError as exc:
            errors += 1
            detail = ("error budget exhausted" if exc.budget_exhausted
                      else f"gave up after {exc.attempts} attempts")
            print(f"  op {n}: {detail}")
    s = port.stats
    print(f"  stats: reads={s.reads} writes={s.writes} retries={s.retries} "
          f"timeouts={s.timeouts} backoff={s.backoff_ns:.0f}ns "
          f"errors_surfaced={errors}")


def _tx_phase(domain: PowerDomain) -> None:
    print("phase 2: transactional workload on a crash-capable pool")
    backing = VolatileRegion(POOL_BYTES)
    region = CrashRegion(backing)
    interrupted = None
    try:
        pool = PmemObjPool.create(region, layout="fault-demo")
        root = pool.root(64)
        for step in range(16):
            with pool.transaction() as tx:
                pool.tx_write(tx, root, bytes([step]) * 64)
        pool.close()
        region.flush_all()
    except (CrashInjected, PowerLossInjected) as exc:
        interrupted = exc
        print(f"  interrupted: {exc}")
        report = getattr(exc, "report", None)
        if report is not None:
            print(f"  power drill: data_loss={report.data_loss} "
                  f"lines_lost={dict(report.lines_lost)}")
            domain.restore()
    if interrupted is None:
        print("  workload ran to completion (no persist-path fault fired)")
    pool2 = PmemObjPool.open(backing)
    rec = pool2.last_recovery
    print(f"  reopen: recovery action={rec.action!r} "
          f"log_entries={rec.log_entries} "
          f"data_bytes_restored={rec.data_bytes_restored}")
    pool2.close()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 2
    try:
        plan = faults.FaultPlan.load(argv[0])
    except (FaultPlanError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(plan.describe())
    print()

    obs.reset()
    obs.enable(metrics=True, trace=False)
    port = _build_port()
    domain = PowerDomain("dom0", Battery())
    domain.attach(port.device)
    faults.bind_domain(domain)
    faults.install(plan)
    try:
        _cxl_phase(port)
        _tx_phase(domain)
    finally:
        faults.clear()
        obs.disable()

    print()
    print("injected-fault counters:")
    snap = obs.metrics_snapshot()
    injected = {name: m["value"] for name, m in sorted(snap.items())
                if name.startswith("faults.injected.")}
    if not injected:
        print("  (none fired)")
    for name, value in injected.items():
        print(f"  {name}: {value}")
    return 0


if __name__ == "__main__":      # pragma: no cover - exercised via subprocess
    sys.exit(main())
