"""Type-3 device: memory, transactions, persistence domain."""

import pytest

from repro import units
from repro.cxl.device import MediaController, SparseMemory, Type3Device
from repro.errors import CxlError, CxlPoisonError
from repro.machine.dram import DDR4_1333

LINE = bytes(range(64))


def _media(capacity=units.mib(64)) -> MediaController:
    return MediaController(
        name="test-media", grade=DDR4_1333, channels=2, modules=2,
        module_capacity=capacity // 2, controller_efficiency=0.6,
        media_latency_ns=130.0)


@pytest.fixture()
def dev() -> Type3Device:
    return Type3Device("dut", _media(), battery_backed=True)


@pytest.fixture()
def nobat() -> Type3Device:
    return Type3Device("dut-nb", _media(), battery_backed=False,
                       gpf_supported=True)


class TestSparseMemory:
    def test_zero_filled_by_default(self):
        m = SparseMemory(1 << 20)
        assert m.read(12345, 8) == b"\x00" * 8

    def test_write_read_roundtrip(self):
        m = SparseMemory(1 << 20)
        m.write(5000, b"hello")
        assert m.read(5000, 5) == b"hello"

    def test_cross_page_write(self):
        m = SparseMemory(1 << 20)
        data = bytes(range(256)) * 40     # 10 KB spanning pages
        m.write(4000, data)
        assert m.read(4000, len(data)) == data

    def test_dense_window_aliases_sparse_writes(self):
        m = SparseMemory(1 << 20)
        m.write(8192, b"before")
        w = m.map_dense(8192, 4096)
        assert bytes(w[:6]) == b"before"
        w[0] = 0x7F
        assert m.read(8192, 1) == b"\x7f"

    def test_dense_window_keeps_bytes_outside_it_on_a_shared_page(self):
        m = SparseMemory(1 << 20)
        m.write(10238, b"edge")             # straddles the window's end
        w = m.map_dense(8192, 2048)         # the first half of its page
        assert bytes(w[-2:]) == b"ed"
        assert m.read(10238, 4) == b"edge"
        m.write(10238, b"EDGE")
        assert bytes(w[-2:]) == b"ED" and m.read(10238, 4) == b"EDGE"

    def test_sparse_access_stops_at_a_window_starting_mid_page(self):
        m = SparseMemory(1 << 20)
        w = m.map_dense(8292, 100)
        m.write(8290, b"abcd")              # two bytes before the window
        assert bytes(w[:2]) == b"cd"
        w[2] = ord("e")
        assert m.read(8290, 5) == b"abcde"

    def test_dense_window_sees_later_api_writes(self):
        m = SparseMemory(1 << 20)
        w = m.map_dense(0, 4096)
        m.write(10, b"xyz")
        assert bytes(w[10:13]) == b"xyz"

    def test_nested_dense_request_returns_subview(self):
        m = SparseMemory(1 << 20)
        w = m.map_dense(0, 8192)
        sub = m.map_dense(4096, 1024)
        sub[0] = 9
        assert w[4096] == 9

    def test_partial_overlap_rejected(self):
        m = SparseMemory(1 << 20)
        m.map_dense(0, 8192)
        with pytest.raises(CxlError):
            m.map_dense(4096, 8192)

    def test_out_of_range_rejected(self):
        m = SparseMemory(4096)
        with pytest.raises(CxlError):
            m.read(4000, 200)
        with pytest.raises(CxlError):
            m.read(0, -1)
        with pytest.raises(CxlError):
            m.write(-1, b"x")

    def test_resident_tracks_materialization(self):
        m = SparseMemory(1 << 30)
        assert m.resident_bytes == 0
        m.write(0, b"x")
        assert m.resident_bytes == 4096


class TestMediaController:
    def test_capacity(self):
        assert _media().capacity_bytes == units.mib(64)

    def test_effective_bandwidth_scaling(self):
        half = _media()
        full = MediaController("f", DDR4_1333, 2, 2, units.mib(32), 1.0,
                               130.0)
        assert full.effective_stream_gbps > half.effective_stream_gbps

    def test_validation(self):
        with pytest.raises(CxlError):
            MediaController("x", DDR4_1333, 0, 1, 1024, 0.5, 100.0)
        with pytest.raises(CxlError):
            MediaController("x", DDR4_1333, 1, 1, 1024, 1.5, 100.0)


class TestCxlMemTransactions:
    def test_read_of_fresh_memory_is_zero(self, dev):
        assert dev.read_lines(0x40, 1) == b"\x00" * 64

    def test_write_then_read(self, dev):
        dev.write_lines(0x80, LINE)
        assert dev.read_lines(0x80, 1) == LINE

    def test_out_of_capacity_write_raises(self, dev):
        with pytest.raises(CxlError):
            dev.write_lines(dev.capacity_bytes, LINE)

    def test_write_buffer_eviction(self, dev):
        for i in range(dev.WRITE_BUFFER_LINES + 10):
            dev.write_lines(i * 64, LINE)
        assert dev.dirty_lines <= dev.WRITE_BUFFER_LINES
        # evicted line readable from media
        assert dev.memory.read(0, 64) == LINE

    def test_stats_accumulate(self, dev):
        dev.write_lines(0, LINE)
        dev.read_lines(0, 1)
        assert dev.stats["writes"] == 1 and dev.stats["reads"] == 1


class TestPersistenceDomain:
    def test_battery_backed_power_fail_loses_nothing(self, dev):
        dev.write_lines(0, LINE)
        lost = dev.power_fail()
        assert lost == 0
        dev.power_on()
        assert dev.memory.read(0, 64) == LINE

    def test_no_battery_gpf_runs_on_power_fail(self, nobat):
        nobat.write_lines(0, LINE)
        gpf_before = nobat.stats["gpf"]
        lost = nobat.power_fail()          # hold-up energy ran the GPF
        assert lost == 0
        assert nobat.stats["gpf"] == gpf_before + 1
        nobat.power_on()
        assert nobat.memory.read(0, 64) == LINE

    def test_no_battery_failed_gpf_drops_dirty_lines(self, nobat):
        nobat.write_lines(0, LINE)
        lost = nobat.power_fail(gpf_energy_ok=False)
        assert lost == 1
        nobat.power_on()
        assert nobat.memory.read(0, 64) == b"\x00" * 64

    def test_gpf_saves_the_day(self, nobat):
        nobat.write_lines(0, LINE)
        nobat.global_persistent_flush()
        assert nobat.power_fail() == 0
        nobat.power_on()
        assert nobat.memory.read(0, 64) == LINE

    def test_gpf_unsupported_raises(self):
        dev = Type3Device("x", _media(), battery_backed=False,
                          gpf_supported=False)
        with pytest.raises(CxlError):
            dev.global_persistent_flush()
        assert not dev.persistence_guaranteed

    def test_dirty_shutdown_state(self, nobat):
        nobat.write_lines(0, LINE)
        nobat.power_fail(gpf_energy_ok=False)
        assert nobat.shutdown_state.value == "dirty"

    def test_clean_shutdown_state(self, dev):
        dev.write_lines(0, LINE)
        dev.mark_clean_shutdown()
        assert dev.shutdown_state.value == "clean"

    def test_powered_off_device_rejects_traffic(self, dev):
        dev.power_fail()
        with pytest.raises(CxlError):
            dev.read_lines(0, 1)


class TestPartitions:
    def test_default_all_persistent(self, dev):
        assert dev.persistent_bytes == dev.capacity_bytes
        assert dev.is_persistent_dpa(0)

    def test_repartition(self):
        big = Type3Device("big", MediaController(
            "m", DDR4_1333, 2, 2, units.gib(8), 0.6, 130.0))
        big.set_partition(256 * 1024 * 1024)
        assert big.volatile_bytes == 256 * 1024 * 1024
        assert not big.is_persistent_dpa(0)
        assert big.is_persistent_dpa(big.persistent_base_dpa)

    def test_alignment_enforced(self, dev):
        with pytest.raises(CxlError):
            dev.set_partition(12345)

    def test_over_capacity_rejected(self, dev):
        with pytest.raises(CxlError):
            dev.set_partition(dev.capacity_bytes * 2)


class TestPoison:
    def test_poisoned_read_flagged(self, dev):
        dev.inject_poison(0x40)
        with pytest.raises(CxlPoisonError):
            dev.read_lines(0x40, 1)

    def test_write_clears_poison(self, dev):
        dev.inject_poison(0x40)
        dev.write_lines(0x40, LINE)
        assert dev.read_lines(0x40, 1) == LINE
