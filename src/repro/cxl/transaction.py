"""CXL.mem transaction-layer messages.

Four message classes cross a CXL.mem link:

* M2S **Req** — reads/invalidates, no payload;
* M2S **RwD** — writes, carrying one 64-byte cacheline;
* S2M **NDR** — completions without data;
* S2M **DRS** — data responses carrying one cacheline.

Messages are immutable and validated on construction (alignment, 16-bit
tag range, payload size), which is where a surprising number of real
transaction-layer bugs live.  The host port and the device exchange spans
of lines, not message objects; these classes are what those spans stand
for on the wire, and :class:`repro.cxl.flit.FlitPacker` packs them — the
oracle the port's flit accounting is checked against.  Nothing allocates
tags: the port issues one chunk at a time, and the outstanding-request
bound that shapes bandwidth lives in :mod:`repro.memsim.concurrency` and
the DES's closed-loop MLP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.cxl.spec import (
    CACHELINE_BYTES,
    M2SReqOpcode,
    M2SRwDOpcode,
    MetaValue,
    S2MDRSOpcode,
    S2MNDROpcode,
    SnpType,
)
from repro.errors import CxlError

#: Tags are 16-bit in the spec.
MAX_TAG = 0xFFFF


def _check_tag(tag: int) -> None:
    if not 0 <= tag <= MAX_TAG:
        raise CxlError(f"tag {tag:#x} out of 16-bit range")


def _check_addr(addr: int) -> None:
    if addr < 0:
        raise CxlError(f"negative device address {addr:#x}")
    if addr % CACHELINE_BYTES:
        raise CxlError(
            f"address {addr:#x} not {CACHELINE_BYTES}-byte aligned"
        )


@dataclass(frozen=True)
class M2SReq:
    """Master-to-subordinate request (MemRd and friends)."""

    opcode: M2SReqOpcode
    addr: int
    tag: int
    snp: SnpType = SnpType.NO_OP
    meta: MetaValue = MetaValue.ANY

    def __post_init__(self) -> None:
        _check_addr(self.addr)
        _check_tag(self.tag)


@dataclass(frozen=True)
class M2SRwD:
    """Master-to-subordinate request with data (MemWr)."""

    opcode: M2SRwDOpcode
    addr: int
    tag: int
    data: bytes
    byte_enable: int = (1 << CACHELINE_BYTES) - 1   # for MemWrPtl

    def __post_init__(self) -> None:
        _check_addr(self.addr)
        _check_tag(self.tag)
        if len(self.data) != CACHELINE_BYTES:
            raise CxlError(
                f"RwD payload must be {CACHELINE_BYTES} B, got {len(self.data)}"
            )
        if self.opcode is M2SRwDOpcode.MEM_WR and (
            self.byte_enable != (1 << CACHELINE_BYTES) - 1
        ):
            raise CxlError("full MemWr must enable all 64 bytes")
        if not 0 < self.byte_enable < (1 << CACHELINE_BYTES) + 1:
            raise CxlError("byte_enable must select at least one byte")


@dataclass(frozen=True)
class S2MNDR:
    """Subordinate-to-master completion without data."""

    opcode: S2MNDROpcode
    tag: int

    def __post_init__(self) -> None:
        _check_tag(self.tag)


@dataclass(frozen=True)
class S2MDRS:
    """Subordinate-to-master data response."""

    opcode: S2MDRSOpcode
    tag: int
    data: bytes = field(repr=False)
    poison: bool = False

    def __post_init__(self) -> None:
        _check_tag(self.tag)
        if len(self.data) != CACHELINE_BYTES:
            raise CxlError(
                f"DRS payload must be {CACHELINE_BYTES} B, got {len(self.data)}"
            )
