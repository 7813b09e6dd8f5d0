"""CXL link rates."""

import pytest

from repro.cxl.link import CxlLink
from repro.cxl.spec import CxlVersion
from repro.errors import CxlLinkError


class TestCxlLink:
    def test_gen5_x16_is_the_papers_64gbs(self):
        link = CxlLink(CxlVersion.CXL_2_0, 16, 330.0)
        assert link.raw_gbps == pytest.approx(63.0, abs=1.0)

    def test_gen6_doubles(self):
        g5 = CxlLink(CxlVersion.CXL_2_0, 16, 330.0)
        g6 = CxlLink(CxlVersion.CXL_3_0, 16, 330.0)
        assert g6.raw_gbps == pytest.approx(2 * g5.raw_gbps, rel=0.05)

    def test_lanes_scale(self):
        x8 = CxlLink(CxlVersion.CXL_2_0, 8, 330.0)
        x16 = CxlLink(CxlVersion.CXL_2_0, 16, 330.0)
        assert x16.raw_gbps == pytest.approx(2 * x8.raw_gbps)

    def test_effective_below_raw_for_one_sided_traffic(self):
        link = CxlLink(CxlVersion.CXL_2_0, 16, 330.0)
        for rf in (0.0, 1.0):
            assert link.effective_data_gbps(rf) < link.raw_gbps

    def test_balanced_mix_exploits_full_duplex(self):
        # payload rides both directions: mixed traffic beats pure traffic
        link = CxlLink(CxlVersion.CXL_2_0, 16, 330.0)
        assert link.effective_data_gbps(0.5) > link.effective_data_gbps(1.0)

    def test_invalid_lanes_rejected(self):
        with pytest.raises(CxlLinkError):
            CxlLink(CxlVersion.CXL_2_0, 3, 330.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(CxlLinkError):
            CxlLink(CxlVersion.CXL_2_0, 16, -1.0)
