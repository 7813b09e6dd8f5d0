"""Battery model and power domains."""

import pytest

from repro import units
from repro.core.battery import Battery, PowerDomain, battery_cost_comparison
from repro.cxl.device import MediaController, Type3Device
from repro.errors import PersistenceDomainError
from repro.machine.dram import DDR4_1333

LINE = b"\x11" * 64


def _device(name="d0") -> Type3Device:
    media = MediaController("m", DDR4_1333, 2, 2, units.mib(64), 0.6, 130.0)
    return Type3Device(name, media, battery_backed=False, gpf_supported=False)


def _dirty(dev: Type3Device) -> None:
    dev.write_lines(0, LINE)


class TestBattery:
    def test_full_battery_covers_flush(self):
        assert Battery(holdup_seconds=60).can_cover(2.0)

    def test_depleted_battery_does_not(self):
        b = Battery(holdup_seconds=60, charge_fraction=0.01)
        assert not b.can_cover(2.0)

    def test_unhealthy_battery_never_covers(self):
        b = Battery(healthy=False)
        assert not b.can_cover(0.001)

    def test_degrade_to_zero_marks_unhealthy(self):
        b = Battery()
        b.degrade(1.0)
        assert not b.healthy and b.charge_fraction == 0.0

    def test_validation(self):
        with pytest.raises(PersistenceDomainError):
            Battery(holdup_seconds=0)
        with pytest.raises(PersistenceDomainError):
            Battery(charge_fraction=1.5)
        with pytest.raises(PersistenceDomainError):
            Battery().degrade(2.0)


class TestPowerDomain:
    def test_attach_propagates_battery_backing(self):
        dom = PowerDomain("rack", Battery())
        dev = _device()
        dom.attach(dev)
        assert dev.battery_backed

    def test_no_battery_means_no_backing(self):
        dom = PowerDomain("rack")
        dev = _device()
        dom.attach(dev)
        assert not dev.battery_backed

    def test_power_fail_with_battery_loses_nothing(self):
        dom = PowerDomain("rack", Battery())
        dev = _device()
        dom.attach(dev)
        _dirty(dev)
        report = dom.power_fail()
        assert not report.data_loss
        assert report.covered[dev.name]

    def test_power_fail_without_battery_loses_dirty_lines(self):
        dom = PowerDomain("rack")
        dev = _device()
        dom.attach(dev)
        _dirty(dev)
        report = dom.power_fail()
        assert report.data_loss
        assert report.lines_lost[dev.name] == 1

    def test_degraded_battery_downgrades_guarantee(self):
        battery = Battery()
        dom = PowerDomain("rack", battery)
        dev = _device()
        dom.attach(dev)
        battery.degrade(1.0)       # silent BBU failure, paper Section 1.2
        dom.refresh()
        assert not dev.battery_backed
        _dirty(dev)
        # the power event must be loud: a fitted-but-dead battery raises,
        # carrying the drill report
        with pytest.raises(PersistenceDomainError) as ei:
            dom.power_fail()
        assert ei.value.report is not None
        assert ei.value.report.data_loss
        assert ei.value.report.lines_lost[dev.name] == 1

    def test_partial_holdup_drains_oldest_lines_first(self):
        # battery covers exactly half the 2 s drain window → the oldest
        # half of the dirty buffer reaches media, the rest is dropped
        battery = Battery(holdup_seconds=2.0, charge_fraction=0.5)
        dom = PowerDomain("rack", battery)
        dev = _device()
        dom.attach(dev)
        for i in range(8):
            dev.write_lines(i * 64, bytes([i]) * 64)
        assert battery.coverage_fraction(dom.FLUSH_SECONDS) == 0.5
        with pytest.raises(PersistenceDomainError) as ei:
            dom.power_fail()
        assert ei.value.report.lines_lost[dev.name] == 4
        dom.restore()
        for i in range(4):          # oldest-first drain → durable
            assert dev.memory.read(i * 64, 64) == bytes([i]) * 64
        for i in range(4, 8):       # beyond the holdup budget → dropped
            assert dev.memory.read(i * 64, 64) == b"\x00" * 64

    def test_restore_repowers_devices(self):
        dom = PowerDomain("rack", Battery())
        dev = _device()
        dom.attach(dev)
        dom.power_fail()
        assert not dev.powered
        dom.restore()
        assert dev.powered and dom.powered

    def test_double_attach_rejected(self):
        dom = PowerDomain("rack")
        dev = _device()
        dom.attach(dev)
        with pytest.raises(PersistenceDomainError):
            dom.attach(dev)

    def test_double_fail_rejected(self):
        dom = PowerDomain("rack")
        dom.power_fail()
        with pytest.raises(PersistenceDomainError):
            dom.power_fail()

    def test_multiple_devices_one_battery(self):
        dom = PowerDomain("rack", Battery())
        devs = [_device(f"d{i}") for i in range(4)]
        for d in devs:
            dom.attach(d)
            _dirty(d)
        report = dom.power_fail()
        assert not report.data_loss
        assert len(report.covered) == 4


class TestCostComparison:
    def test_savings_scale_with_nodes(self):
        c = battery_cost_comparison(64)
        assert c["savings_factor"] == pytest.approx(64.0)
        assert c["cxl_shared_total_usd"] < c["bbu_dimm_total_usd"]

    def test_single_node_no_savings(self):
        assert battery_cost_comparison(1)["savings_factor"] == 1.0

    def test_validation(self):
        with pytest.raises(PersistenceDomainError):
            battery_cost_comparison(0)
