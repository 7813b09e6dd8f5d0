"""The CXL-as-PMem runtime on the Setup #1 wiring."""

import pytest

from repro import units
from repro.core.runtime import CxlPmemRuntime
from repro.errors import CxlError, PersistenceDomainError
from repro.machine.presets import setup1

MB = 1 << 20


@pytest.fixture()
def rt() -> CxlPmemRuntime:
    return CxlPmemRuntime(setup1().host_bridges)


class TestDiscovery:
    def test_finds_the_prototype(self, rt):
        eps = rt.endpoints
        assert len(eps) == 1
        assert eps[0].device.name == "cxl0"
        assert eps[0].capacity_bytes == units.gib(16)

    def test_persistent_endpoints(self, rt):
        assert len(rt.persistent_endpoints()) == 1

    def test_no_battery_setup_still_gpf_capable(self):
        rt = CxlPmemRuntime(setup1(battery_backed=False).host_bridges)
        assert rt.persistent_endpoints()          # GPF saves the claim

    def test_device_lookup(self, rt):
        assert rt.device("cxl0").name == "cxl0"
        with pytest.raises(CxlError):
            rt.device("ghost")

    def test_rescan(self, rt):
        assert len(rt.rescan()) == 1


class TestNamespaces:
    def test_create_and_reopen(self, rt):
        ns = rt.create_namespace("cxl0", "scratch", 8 * MB)
        assert ns.size == 8 * MB
        again = rt.open_namespace("cxl0", "scratch")
        assert again.base_dpa == ns.base_dpa

    def test_size_rounded_to_mib(self, rt):
        ns = rt.create_namespace("cxl0", "odd", MB + 1)
        assert ns.size == 2 * MB

    def test_duplicate_name_rejected(self, rt):
        rt.create_namespace("cxl0", "dup", MB)
        with pytest.raises(CxlError):
            rt.create_namespace("cxl0", "dup", MB)

    def test_namespaces_do_not_overlap(self, rt):
        spans = []
        for i in range(5):
            ns = rt.create_namespace("cxl0", f"ns{i}", (i + 1) * MB)
            spans.append((ns.base_dpa, ns.base_dpa + ns.size))
        spans.sort()
        for (a0, a1), (b0, _) in zip(spans, spans[1:]):
            assert a1 <= b0

    def test_delete_frees_space_for_reuse(self, rt):
        ns = rt.create_namespace("cxl0", "temp", 4 * MB)
        base = ns.base_dpa
        rt.delete_namespace("cxl0", "temp")
        ns2 = rt.create_namespace("cxl0", "temp2", 4 * MB)
        assert ns2.base_dpa == base

    def test_first_fit_fills_the_hole_between_namespaces(self, rt):
        rt.create_namespace("cxl0", "low", 2 * MB)
        hole = rt.create_namespace("cxl0", "mid", 4 * MB).base_dpa
        high = rt.create_namespace("cxl0", "high", 2 * MB)
        rt.delete_namespace("cxl0", "mid")
        assert rt.create_namespace("cxl0", "a", 3 * MB).base_dpa == hole
        # 1 MiB left in the hole: a 2 MiB namespace goes past "high"
        assert (rt.create_namespace("cxl0", "b", 2 * MB).base_dpa
                == high.base_dpa + high.size)
        assert rt.create_namespace("cxl0", "c", MB).base_dpa == hole + 3 * MB

    def test_delete_unknown_rejected(self, rt):
        with pytest.raises(CxlError):
            rt.delete_namespace("cxl0", "ghost")

    def test_open_unknown_rejected(self, rt):
        with pytest.raises(CxlError):
            rt.open_namespace("cxl0", "ghost")

    def test_capacity_exhaustion(self, rt):
        with pytest.raises(PersistenceDomainError):
            rt.create_namespace("cxl0", "huge", units.gib(64))

    def test_non_persistent_device_rejected(self):
        tb = setup1(battery_backed=False)
        tb.cxl_devices[0].gpf_supported = False
        rt = CxlPmemRuntime(tb.host_bridges)
        with pytest.raises(PersistenceDomainError):
            rt.create_namespace("cxl0", "nope", MB)

    def test_bad_size_rejected(self, rt):
        with pytest.raises(CxlError):
            rt.create_namespace("cxl0", "zero", 0)

    def test_labels_survive_new_runtime(self):
        tb = setup1()
        rt1 = CxlPmemRuntime(tb.host_bridges)
        rt1.create_namespace("cxl0", "durable", MB)
        # a "rebooted host" builds a fresh runtime over the same hardware
        rt2 = CxlPmemRuntime(tb.host_bridges)
        assert [ns.name for ns in rt2.namespaces("cxl0")] == ["durable"]


class TestShutdown:
    def test_clean_shutdown_flushes_and_marks(self, rt):
        ns = rt.create_namespace("cxl0", "s", MB)
        region = ns.region()
        dev = rt.device("cxl0")
        # park a dirty line in the device write buffer
        dev.write_lines(0, b"\x01" * 64)
        flushed = rt.clean_shutdown()
        assert flushed["cxl0"] >= 1
        assert dev.shutdown_state.value == "clean"

    def test_health_report(self, rt):
        health = rt.health_report()
        assert health["cxl0"]["health_status"] == "ok"
