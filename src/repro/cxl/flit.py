"""68-byte flit packing and wire efficiency.

CXL 1.1/2.0 move protocol messages in 68-byte flits: four 16-byte slots
plus 4 bytes of CRC/framing.  Slot 0 of every flit is a header slot; the
remaining three are generic slots.  We use a simplified but deterministic
slot cost model:

===========  ==========================  =========================
message      header/metadata cost        data slots
===========  ==========================  =========================
M2S Req      1 slot                      —
M2S RwD      1 slot                      4 (one 64 B cacheline)
S2M NDR      1/2 slot (two pack per)     —
S2M DRS      1/2 slot (two pack per)     4 (one 64 B cacheline)
===========  ==========================  =========================

This is close to the real packing rules (where e.g. two NDRs share a slot
and data rollover can straddle flits) and—more importantly for the paper—
it yields realistic wire efficiencies: a pure-read stream moves ~64 data
bytes per ~1.6 flits of S2M traffic, i.e. ≈ 59% of raw S2M bandwidth plus
a small M2S request stream.  The link model consumes
:func:`stream_efficiency` to derive effective data bandwidth from the PHY
rate.  :class:`FlitPacker` packs real message objects; it is the oracle
the host port's per-batch flit counts are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.cxl.spec import (
    CACHELINE_BYTES,
    FLIT_BYTES,
    FLIT_SLOTS,
    SLOT_BYTES,
)
from repro.cxl.transaction import M2SReq, M2SRwD, S2MDRS, S2MNDR
from repro.errors import CxlError

Message = M2SReq | M2SRwD | S2MDRS | S2MNDR

#: Slot cost (header part, data slots) per message class, in units of
#: half-slots so that two NDR/DRS headers can share one slot.
_HALF_SLOT_COST: dict[type, tuple[int, int]] = {
    M2SReq: (2, 0),
    M2SRwD: (2, 4),
    S2MNDR: (1, 0),
    S2MDRS: (1, 4),
}


def message_half_slots(msg: Message) -> tuple[int, int]:
    """(header half-slots, data full-slots) consumed by ``msg``."""
    try:
        return _HALF_SLOT_COST[type(msg)]
    except KeyError:
        raise CxlError(f"not a CXL.mem message: {type(msg).__name__}") from None


def class_half_slots(cls: type) -> tuple[int, int]:
    """(header half-slots, data full-slots) for a message *class*."""
    try:
        return _HALF_SLOT_COST[cls]
    except KeyError:
        raise CxlError(f"not a CXL.mem message class: {cls.__name__}") from None


@dataclass
class Flit:
    """One 68-byte flit: up to 4 slots of content.

    ``messages`` lists the messages whose *header* landed in this flit;
    data slots may roll over into subsequent flits (as on the real wire),
    tracked by ``data_half_slots``.
    """

    messages: list[Message] = field(default_factory=list)
    used_half_slots: int = 2     # slot 0 is the flit header
    data_half_slots: int = 0
    seq: int = 0

    MAX_HALF_SLOTS = FLIT_SLOTS * 2

    @property
    def free_half_slots(self) -> int:
        return self.MAX_HALF_SLOTS - self.used_half_slots

    @property
    def payload_bytes(self) -> int:
        """Cacheline payload bytes carried by this flit's data content."""
        return self.data_half_slots * (SLOT_BYTES // 2)


class FlitPacker:
    """Packs a message sequence into flits, greedily, preserving order.

    A message's header stays whole within one flit; its data rolls over
    into following flits when the current one fills — matching the real
    link layer's slot packing behaviour.
    """

    def __init__(self) -> None:
        self._seq = 0

    def _new_flit(self, flits: list[Flit]) -> Flit:
        flit = Flit(seq=self._seq)
        self._seq += 1
        flits.append(flit)
        return flit

    def pack(self, messages: Sequence[Message]) -> list[Flit]:
        flits: list[Flit] = []
        current: Flit | None = None
        for msg in messages:
            header_halves, data_slots = message_half_slots(msg)
            if current is None or current.free_half_slots < header_halves:
                current = self._new_flit(flits)
            current.messages.append(msg)
            current.used_half_slots += header_halves
            remaining = data_slots * 2
            while remaining:
                if current.free_half_slots == 0:
                    current = self._new_flit(flits)
                take = min(current.free_half_slots, remaining)
                current.used_half_slots += take
                current.data_half_slots += take
                remaining -= take
        return flits

    @staticmethod
    def unpack(flits: Iterable[Flit]) -> list[Message]:
        """Flatten flits back into the ordered message sequence."""
        out: list[Message] = []
        for flit in flits:
            out.extend(flit.messages)
        return out


#: usable (non-header) half-slots per 68-byte flit, shared by
#: :func:`stream_efficiency` and the host port's batch accounting
USABLE_HALF_SLOTS = Flit.MAX_HALF_SLOTS - 2


def wire_bytes(flits: Sequence[Flit]) -> int:
    """Total bytes on the wire for ``flits``."""
    return len(flits) * FLIT_BYTES


def packing_efficiency(flits: Sequence[Flit]) -> float:
    """Payload bytes / wire bytes for a packed sequence."""
    wire = wire_bytes(flits)
    if wire == 0:
        return 0.0
    return sum(f.payload_bytes for f in flits) / wire


def stream_efficiency(read_fraction: float) -> float:
    """Data bytes delivered per wire byte for a steady access mix.

    ``read_fraction`` is the fraction of cacheline transfers that are
    reads.  Reads cost an M2S Req (towards the device) and an S2M DRS
    (header + 64 B back); writes cost an M2S RwD (header + 64 B towards
    the device) and an S2M NDR completion.  CXL links are full-duplex and
    the bottleneck is whichever direction fills first, so the figure is
    computed against the busier direction's raw rate.  For balanced
    read/write mixes the value can slightly exceed 1.0 — payload then
    rides *both* directions at once, which is exactly the full-duplex
    advantage CXL has over a half-duplex bus.

    >>> 0.5 < stream_efficiency(1.0) < 0.95
    True
    """
    if not 0.0 <= read_fraction <= 1.0:
        raise CxlError(f"read_fraction must be in [0,1], got {read_fraction}")
    r, w = read_fraction, 1.0 - read_fraction

    # Half-slot budgets per transferred cacheline, split by direction.
    m2s_half = r * _HALF_SLOT_COST[M2SReq][0] + w * (
        _HALF_SLOT_COST[M2SRwD][0] + 2 * _HALF_SLOT_COST[M2SRwD][1]
    )
    s2m_half = r * (
        _HALF_SLOT_COST[S2MDRS][0] + 2 * _HALF_SLOT_COST[S2MDRS][1]
    ) + w * _HALF_SLOT_COST[S2MNDR][0]

    busier_half = max(m2s_half, s2m_half)
    if busier_half == 0:
        return 0.0
    flits_per_line = busier_half / USABLE_HALF_SLOTS
    return CACHELINE_BYTES / (flits_per_line * FLIT_BYTES)
