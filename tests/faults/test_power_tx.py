"""Persist-path injections: power-loss drills and transaction crashes."""

import pytest

from repro import faults, units
from repro.core.battery import Battery, PowerDomain
from repro.cxl.device import MediaController, Type3Device
from repro.errors import (
    CrashInjected,
    FaultPlanError,
    PowerLossInjected,
)
from repro.faults.plan import FaultPlan, PowerLossSpec, TxCrashSpec
from repro.machine.dram import DDR4_1333
from repro.pmdk.check import check_pool
from repro.pmdk.crash import CrashRegion
from repro.pmdk.pmem import VolatileRegion
from repro.pmdk.pool import PmemObjPool

POOL = 4 * 1024 * 1024


def _domain(name="dom0", battery=True) -> tuple[PowerDomain, Type3Device]:
    media = MediaController("m", DDR4_1333, 2, 2, units.mib(8), 0.6, 130.0)
    dev = Type3Device("cxl0", media, battery_backed=False,
                      gpf_supported=False)
    dom = PowerDomain(name, Battery() if battery else None)
    dom.attach(dev)
    return dom, dev


class TestPowerLossInjection:
    def test_drill_runs_through_the_domain(self):
        dom, dev = _domain()
        faults.bind_domain(dom)
        faults.install(FaultPlan(faults=[
            PowerLossSpec(domain="dom0", at_persist=2)]))
        region = VolatileRegion(1024)
        region.write(0, b"x" * 64)
        region.persist(0, 64)                     # persist #1: clean
        with pytest.raises(PowerLossInjected) as ei:
            region.persist(0, 64)                 # persist #2: lights out
        assert ei.value.report is not None
        assert not ei.value.report.data_loss      # healthy battery drained
        assert not dev.powered
        # one-shot: after restore the workload continues uninjected
        dom.restore()
        region.persist(0, 64)

    def test_unbound_domain_is_a_plan_error(self):
        faults.install(FaultPlan(faults=[
            PowerLossSpec(domain="ghost", at_persist=1)]))
        region = VolatileRegion(1024)
        with pytest.raises(FaultPlanError):
            region.persist(0, 64)

    def test_degraded_battery_report_travels_on_the_error(self):
        dom, dev = _domain()
        dom.battery.degrade(1.0)                  # dead BBU
        dom.refresh()
        faults.bind_domain(dom)
        # dirty one line on the device so the drill has something to lose
        dev.write_lines(0, b"\x11" * 64)
        faults.install(FaultPlan(faults=[
            PowerLossSpec(domain="dom0", at_persist=1)]))
        region = VolatileRegion(1024)
        with pytest.raises(PowerLossInjected) as ei:
            region.persist(0, 64)
        assert ei.value.report.data_loss
        assert ei.value.report.lines_lost["cxl0"] == 1


class TestTxCrashInjection:
    def _workload(self, pool: PmemObjPool, steps: int) -> None:
        root = pool.root(64)
        for step in range(steps):
            with pool.transaction() as tx:
                pool.tx_write(tx, root, bytes([step + 1]) * 64)

    def test_crash_drops_the_store_buffer_and_recovery_holds(self):
        backing = VolatileRegion(POOL)
        region = CrashRegion(backing)
        faults.install(FaultPlan(seed=3, faults=[
            TxCrashSpec(at_persist=30, survivor_prob=0.5)]))
        pool = PmemObjPool.create(region, layout="chaos")
        with pytest.raises(CrashInjected):
            self._workload(pool, 64)
        faults.clear()
        # a restarted process reopens the *backing* media
        pool2 = PmemObjPool.open(backing)
        assert check_pool(backing).ok
        rec = pool2.last_recovery
        assert rec.action in ("clean", "rolled_back", "completed")
        state = bytes(pool2.direct(pool2.root(64), 64))
        # never torn: the root is either all pre-tx or all post-tx bytes
        assert len(set(state)) == 1

    def test_plain_region_still_raises(self):
        # a region with no crash() hook gets the exception, not the drop
        faults.install(FaultPlan(faults=[TxCrashSpec(at_persist=1)]))
        region = VolatileRegion(1024)
        with pytest.raises(CrashInjected):
            region.persist(0, 64)

    def test_one_shot_by_default(self):
        faults.install(FaultPlan(faults=[TxCrashSpec(at_persist=1)]))
        region = VolatileRegion(1024)
        with pytest.raises(CrashInjected):
            region.persist(0, 64)
        region.persist(0, 64)                     # spec spent, no re-fire
