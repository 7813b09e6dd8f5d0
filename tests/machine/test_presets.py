"""The paper's testbeds as presets."""

import pytest

from repro import units
from repro.calibration import SETUP1_CALIBRATION, SETUP2_CALIBRATION
from repro.cxl.spec import CxlVersion
from repro.machine.dram import DDR5_5600, DramGeneration
from repro.machine.presets import optane_reference, setup1, setup1_variant, setup2
from repro.machine.topology import NodeKind


class TestSetup1:
    def test_two_spr_sockets_ten_cores(self, tb1):
        m = tb1.machine
        assert len(m.sockets) == 2
        for sock in m.sockets.values():
            assert sock.n_cores == 10          # BIOS-limited, per the paper
            assert "Sapphire Rapids" in sock.model

    def test_one_ddr5_dimm_per_socket(self, tb1):
        for sock in tb1.machine.sockets.values():
            mc = sock.controller
            assert len(mc.dimms) == 1
            assert mc.dimms[0].grade.name == "DDR5-4800"
            assert mc.dimms[0].capacity_bytes == units.gib(64)

    def test_three_numa_nodes(self, tb1):
        m = tb1.machine
        assert sorted(m.nodes) == [0, 1, 2]
        assert m.node(2).kind is NodeKind.CXL

    def test_cxl_node_is_persistent(self, tb1):
        assert tb1.machine.node(2).persistent

    def test_cxl_device_capacity_16gib(self, tb1):
        # two 8 GB DDR4-1333 modules (Section 2.2)
        assert tb1.cxl_devices[0].capacity_bytes == units.gib(16)

    def test_cxl_link_is_gen5_x16(self, tb1):
        link = tb1.cxl_links["cxl0.link"]
        assert link.lanes == 16
        assert link.version.pcie_gen == 5
        # "theoretical bandwidth of up to 64 GB/s"
        assert link.raw_gbps == pytest.approx(63.0, abs=1.0)

    def test_link_is_not_the_bottleneck(self, tb1):
        m = tb1.machine
        assert m.resources["cxl0.link"] > m.resources["cxl0.mc"] * 2

    def test_calibration_attached(self, tb1):
        assert tb1.calibration is SETUP1_CALIBRATION

    def test_host_bridge_has_the_device(self, tb1):
        port = tb1.host_bridges[0].port(0)
        assert port.attached is tb1.cxl_devices[0]

    def test_no_battery_variant(self):
        tb = setup1(battery_backed=False)
        assert not tb.cxl_devices[0].battery_backed
        assert not tb.machine.node(2).persistent


class TestSetup2:
    def test_gold_sockets_six_channels(self, tb2):
        for sock in tb2.machine.sockets.values():
            assert "Gold 5215" in sock.model
            assert sock.controller.channels == 6
            assert sock.controller.capacity_bytes == units.gib(96)

    def test_no_cxl_node(self, tb2):
        assert tb2.machine.cxl_nodes() == []
        assert tb2.cxl_devices == []

    def test_snoop_caps_present(self, tb2):
        assert tb2.calibration is SETUP2_CALIBRATION
        assert "s0.mc" in tb2.calibration.snoop_caps

    def test_upi_slower_than_setup1(self, tb1, tb2):
        assert (tb2.machine.upi(0, 1).effective_stream_gbps
                < tb1.machine.upi(0, 1).effective_stream_gbps)


class TestVariants:
    def test_default_variant_is_setup1_apart_from_its_name(self, tb1):
        """Both build the one prototype definition: with no upgrade
        applied, the variant's whole model fingerprint (which keys the
        sweep cache) is Setup #1's."""
        fp = setup1_variant().machine.fingerprint()
        want = tb1.machine.fingerprint()
        assert fp.pop("name") == "setup1-spr-cxl-variant"
        assert want.pop("name") == "setup1-spr-cxl"
        assert fp == want

    def test_default_variant_matches_setup1_ceiling(self, tb1):
        v = setup1_variant()
        assert v.machine.resources["cxl0.mc"] == pytest.approx(
            tb1.machine.resources["cxl0.mc"])

    def test_faster_media_raises_ceiling(self, tb1):
        v = setup1_variant(media_grade=DDR5_5600)
        assert (v.machine.resources["cxl0.mc"]
                > tb1.machine.resources["cxl0.mc"] * 2)

    def test_more_channels_scale(self, tb1):
        v = setup1_variant(channels=4)
        assert v.machine.resources["cxl0.mc"] == pytest.approx(
            2 * tb1.machine.resources["cxl0.mc"])

    def test_cxl3_link_doubles_raw(self, tb1):
        v = setup1_variant(version=CxlVersion.CXL_3_0)
        assert v.cxl_links["cxl0.link"].raw_gbps > 1.9 * tb1.cxl_links[
            "cxl0.link"].raw_gbps

    def test_bad_channel_count_rejected(self):
        from repro.errors import TopologyError
        with pytest.raises(TopologyError):
            setup1_variant(channels=0)

    def test_variant_media_generation(self):
        v = setup1_variant(media_grade=DDR5_5600)
        node = v.machine.node(2)
        assert node.controller.dimms[0].grade.generation is DramGeneration.DDR5


class TestOptaneReference:
    def test_published_numbers(self):
        ref = optane_reference()
        assert ref.max_read_gbps == 6.6
        assert ref.max_write_gbps == 2.3

    def test_asymmetry(self):
        ref = optane_reference()
        assert ref.max_read_gbps / ref.max_write_gbps > 2.5
