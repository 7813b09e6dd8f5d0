"""The host-side CXL.mem port."""

import pytest

from repro import units
from repro.cxl.device import MediaController, Type3Device
from repro.cxl.host import CxlMemPort
from repro.cxl.link import CxlLink
from repro.cxl.spec import CxlVersion
from repro.errors import CxlError, CxlPoisonError
from repro.machine.dram import DDR4_1333

LINE = bytes(range(64))


@pytest.fixture()
def port() -> CxlMemPort:
    media = MediaController("m", DDR4_1333, 2, 2, units.mib(32), 0.6, 130.0)
    device = Type3Device("dut", media)
    link = CxlLink(CxlVersion.CXL_2_0, 16, 330.0)
    return CxlMemPort(link, device)


class TestLineOps:
    def test_write_read_roundtrip(self, port):
        port.write_line(0x100 * 64, LINE)
        assert port.read_line(0x100 * 64) == LINE

    def test_fresh_memory_reads_zero(self, port):
        assert port.read_line(0) == b"\x00" * 64

    def test_bad_write_size_rejected(self, port):
        with pytest.raises(CxlError):
            port.write_line(0, b"short")

    def test_poisoned_line_raises(self, port):
        port.device.inject_poison(0x40)
        with pytest.raises(CxlError):
            port.read_line(0x40)
        assert port.stats.poisoned_reads == 1

    def test_poisoned_line_counts_no_read(self, port):
        """A poisoned read fails its span: no read and no Req/DRS pair
        is counted."""
        port.device.inject_poison(0x40)
        with pytest.raises(CxlPoisonError):
            port.read_line(0x40)
        port.flush_flits()
        assert port.stats.reads == 0 and port.device.stats["reads"] == 0
        assert port.stats.m2s_flits == port.stats.s2m_flits == 0

    @pytest.mark.parametrize("dpa", [0x41, units.mib(64)])
    def test_bad_address_read_is_not_poison(self, port, dpa):
        """Unaligned and out-of-capacity reads are address errors."""
        with pytest.raises(CxlError) as excinfo:
            port.read_line(dpa)
        assert not isinstance(excinfo.value, CxlPoisonError)
        assert port.stats.reads == 0 and port.stats.poisoned_reads == 0

    def test_stats_count_operations(self, port):
        port.write_line(0, LINE)
        port.read_line(0)
        assert port.stats.writes == 1 and port.stats.reads == 1
        assert port.stats.payload_bytes == 128


class TestBulkOps:
    def test_unaligned_roundtrip(self, port):
        data = bytes(range(200))
        port.write(33, data)
        assert port.read(33, 200) == data

    def test_unaligned_write_preserves_neighbours(self, port):
        port.write_line(0, LINE)
        port.write(10, b"XY")
        got = port.read_line(0)
        assert got[:10] == LINE[:10]
        assert got[10:12] == b"XY"
        assert got[12:] == LINE[12:]

    def test_large_transfer(self, port):
        data = bytes(range(256)) * 64   # 16 KiB
        port.write(4096, data)
        assert port.read(4096, len(data)) == data

    def test_zero_length_read_touches_nothing(self, port):
        """A read of nothing fetches no line — so no stats, no device
        access and no poison error from the line it would have covered."""
        port.device.inject_poison(0x40)
        assert port.read(70, 0) == b""
        assert port.stats.reads == 0
        assert port.stats.payload_bytes == 0
        assert port.device.stats["reads"] == 0

    def test_negative_read_rejected(self, port):
        with pytest.raises(CxlError):
            port.read(0, -1)


class TestWireAccounting:
    def test_flits_flushed_and_counted(self, port):
        for i in range(64):
            port.write_line(i * 64, LINE)
        port.flush_flits()
        assert port.stats.m2s_flits > 0
        assert port.stats.s2m_flits > 0
        # writes: M2S carries the payload, so M2S needs more flits
        assert port.stats.m2s_flits > port.stats.s2m_flits

    def test_read_stream_is_s2m_heavy(self, port):
        for i in range(64):
            port.read_line(i * 64)
        port.flush_flits()
        assert port.stats.s2m_flits > port.stats.m2s_flits

    def test_wire_efficiency_in_realistic_band(self, port):
        for i in range(128):
            port.write_line(i * 64, LINE)
            port.read_line(i * 64)
        port.flush_flits()
        eff = port.stats.efficiency()
        assert 0.4 < eff < 1.1

    def test_describe(self, port):
        port.read_line(0)
        port.flush_flits()
        text = port.describe()
        assert "reads" in text and "flits" in text


class TestChunks:
    """A span reaches the device in ``CHUNK_LINES``-line calls, and each
    call is its own unit of poison."""

    @staticmethod
    def _record(port, monkeypatch, name):
        sizes = []
        call = getattr(port.device, name)

        def recorded(dpa, arg):
            sizes.append(arg if isinstance(arg, int) else len(arg) // 64)
            return call(dpa, arg)

        monkeypatch.setattr(port.device, name, recorded)
        return sizes

    def test_read_span_goes_in_32_line_calls(self, port, monkeypatch):
        sizes = self._record(port, monkeypatch, "read_lines")
        assert len(port.read_lines(0, 70)) == 70 * 64
        assert sizes == [32, 32, 6]

    def test_write_span_goes_in_32_line_calls(self, port, monkeypatch):
        sizes = self._record(port, monkeypatch, "write_lines")
        port.write_lines(0, LINE * 70)
        assert sizes == [32, 32, 6]

    def test_poison_fails_only_its_chunk(self, port):
        port.device.inject_poison(40 * 64)
        with pytest.raises(CxlPoisonError):
            port.read_lines(0, 70)
        assert port.stats.reads == 32
        assert port.stats.poisoned_reads == 1
