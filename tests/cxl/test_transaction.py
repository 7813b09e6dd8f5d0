"""CXL.mem message validation."""

import pytest

from repro.cxl.spec import (
    M2SReqOpcode,
    M2SRwDOpcode,
    S2MDRSOpcode,
    S2MNDROpcode,
)
from repro.cxl.transaction import M2SReq, M2SRwD, S2MDRS, S2MNDR
from repro.errors import CxlError

LINE = b"\xab" * 64


class TestM2SReq:
    def test_valid(self):
        req = M2SReq(M2SReqOpcode.MEM_RD, 0x1000, tag=5)
        assert req.addr == 0x1000

    def test_unaligned_address_rejected(self):
        with pytest.raises(CxlError):
            M2SReq(M2SReqOpcode.MEM_RD, 0x1001, tag=0)

    def test_negative_address_rejected(self):
        with pytest.raises(CxlError):
            M2SReq(M2SReqOpcode.MEM_RD, -64, tag=0)

    def test_tag_range(self):
        with pytest.raises(CxlError):
            M2SReq(M2SReqOpcode.MEM_RD, 0, tag=0x10000)
        with pytest.raises(CxlError):
            M2SReq(M2SReqOpcode.MEM_RD, 0, tag=-1)


class TestM2SRwD:
    def test_valid_full_write(self):
        w = M2SRwD(M2SRwDOpcode.MEM_WR, 0x40, tag=1, data=LINE)
        assert len(w.data) == 64
        assert w.byte_enable == (1 << 64) - 1

    def test_payload_must_be_one_line(self):
        with pytest.raises(CxlError):
            M2SRwD(M2SRwDOpcode.MEM_WR, 0, tag=1, data=b"short")

    def test_full_write_requires_all_bytes_enabled(self):
        with pytest.raises(CxlError):
            M2SRwD(M2SRwDOpcode.MEM_WR, 0, tag=1, data=LINE,
                   byte_enable=0xFF)

    def test_empty_byte_enable_rejected(self):
        with pytest.raises(CxlError):
            M2SRwD(M2SRwDOpcode.MEM_WR_PTL, 0, tag=1, data=LINE,
                   byte_enable=0)


class TestS2M:
    def test_drs_payload_size(self):
        with pytest.raises(CxlError):
            S2MDRS(S2MDRSOpcode.MEM_DATA, tag=0, data=b"x" * 63)

    def test_ndr_tag_checked(self):
        with pytest.raises(CxlError):
            S2MNDR(S2MNDROpcode.CMP, tag=1 << 20)

    def test_poison_flag(self):
        d = S2MDRS(S2MDRSOpcode.MEM_DATA_NXM, tag=0, data=LINE, poison=True)
        assert d.poison
