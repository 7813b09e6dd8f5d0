"""Property tests: flit packing."""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro import units
from repro.cxl.device import MediaController, Type3Device
from repro.cxl.flit import (
    Flit,
    FlitPacker,
    packing_efficiency,
    stream_efficiency,
)
from repro.cxl.host import CxlMemPort
from repro.cxl.link import CxlLink
from repro.cxl.spec import (
    CACHELINE_BYTES,
    FLIT_BYTES,
    CxlVersion,
    M2SReqOpcode,
    M2SRwDOpcode,
    S2MDRSOpcode,
    S2MNDROpcode,
)
from repro.cxl.transaction import M2SReq, M2SRwD, S2MDRS, S2MNDR
from repro.machine.dram import DDR4_1333

LINE = b"\x42" * CACHELINE_BYTES


def _message(kind: str, tag: int):
    if kind == "req":
        return M2SReq(M2SReqOpcode.MEM_RD, (tag % 1000) * 64, tag % 1024)
    if kind == "rwd":
        return M2SRwD(M2SRwDOpcode.MEM_WR, (tag % 1000) * 64, tag % 1024,
                      LINE)
    if kind == "ndr":
        return S2MNDR(S2MNDROpcode.CMP, tag % 1024)
    return S2MDRS(S2MDRSOpcode.MEM_DATA, tag % 1024, LINE)


_sequences = st.lists(
    st.sampled_from(["req", "rwd", "ndr", "drs"]), min_size=0, max_size=80,
).map(lambda kinds: [_message(k, i) for i, k in enumerate(kinds)])


@given(_sequences)
@settings(max_examples=100, deadline=None)
def test_unpack_roundtrips_order(messages):
    flits = FlitPacker().pack(messages)
    assert FlitPacker.unpack(flits) == messages


@given(_sequences)
@settings(max_examples=100, deadline=None)
def test_no_flit_overflows(messages):
    for flit in FlitPacker().pack(messages):
        assert 2 <= flit.used_half_slots <= Flit.MAX_HALF_SLOTS


@given(_sequences)
@settings(max_examples=100, deadline=None)
def test_payload_conservation(messages):
    flits = FlitPacker().pack(messages)
    data_msgs = sum(1 for m in messages if isinstance(m, (M2SRwD, S2MDRS)))
    assert sum(f.payload_bytes for f in flits) == (
        data_msgs * CACHELINE_BYTES)


@given(_sequences)
@settings(max_examples=100, deadline=None)
def test_efficiency_bounded(messages):
    flits = FlitPacker().pack(messages)
    eff = packing_efficiency(flits)
    assert 0.0 <= eff <= 64.0 / FLIT_BYTES + 1e-9


@given(_sequences)
@settings(max_examples=60, deadline=None)
def test_packing_is_dense(messages):
    """Greedy packing never leaves a flit with room for the next
    message's header."""
    flits = FlitPacker().pack(messages)
    # every flit except the last is at least half full when a message
    # stream is continuous
    for flit in flits[:-1]:
        assert flit.used_half_slots > 2


@given(st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_stream_efficiency_continuous_and_bounded(read_fraction):
    eff = stream_efficiency(read_fraction)
    # full-duplex: balanced mixes may slightly exceed one direction's raw
    assert 0.0 < eff < 1.15


# ---------------------------------------------------------------------------
# the host port's wire statistics == FlitPacker over 16-message batches
# ---------------------------------------------------------------------------

#: messages per flit batch on the port; written out here so that a port
#: cutting its batches anywhere else fails
PORT_BATCH = 16

_port_ops = st.lists(st.one_of(
    st.tuples(st.sampled_from(["read_line", "write_line"]),
              st.integers(0, 255), st.just(1)),
    st.tuples(st.sampled_from(["read_lines", "write_lines"]),
              st.integers(0, 255), st.integers(0, 80)),
    st.just(("flush", 0, 0)),
), max_size=40)


def _port() -> CxlMemPort:
    media = MediaController("m", DDR4_1333, 2, 2, units.mib(32), 0.6, 130.0)
    return CxlMemPort(CxlLink(CxlVersion.CXL_2_0, 16, 330.0),
                      Type3Device("dut", media))


@given(_port_ops)
@example([("read_lines", 0, 80)])
@example([("write_line", 3, 1), ("flush", 0, 0), ("write_lines", 0, 70),
          ("read_line", 9, 1), ("read_lines", 5, 40)])
@settings(max_examples=150, deadline=None)
def test_port_wire_stats_match_flitpacker(ops):
    """After any mix of line and span ops and explicit ``flush_flits``,
    the port's flits and wire bytes per direction equal
    ``FlitPacker().pack`` over the same Req/RwD and NDR/DRS streams,
    cut every 16 messages and at every flush."""
    port = _port()
    batches: list[tuple[list, list]] = [([], [])]
    for op, line, n in ops:
        if op == "flush":
            port.flush_flits()
            if batches[-1][0]:
                batches.append(([], []))
            continue
        dpa = line * CACHELINE_BYTES
        if op == "read_line":
            port.read_line(dpa)
        elif op == "write_line":
            port.write_line(dpa, LINE)
        elif op == "read_lines":
            port.read_lines(dpa, n)
        else:
            port.write_lines(dpa, LINE * n)
        for i in range(n):
            addr, tag = dpa + i * CACHELINE_BYTES, i % 1024
            if op.startswith("read"):
                m2s = M2SReq(M2SReqOpcode.MEM_RD, addr, tag)
                s2m = S2MDRS(S2MDRSOpcode.MEM_DATA, tag, LINE)
            else:
                m2s = M2SRwD(M2SRwDOpcode.MEM_WR, addr, tag, LINE)
                s2m = S2MNDR(S2MNDROpcode.CMP, tag)
            batches[-1][0].append(m2s)
            batches[-1][1].append(s2m)
            if len(batches[-1][0]) == PORT_BATCH:
                batches.append(([], []))
    port.flush_flits()
    m2s_flits = sum(len(FlitPacker().pack(m2s)) for m2s, _ in batches)
    s2m_flits = sum(len(FlitPacker().pack(s2m)) for _, s2m in batches)
    assert port.stats.m2s_flits == m2s_flits
    assert port.stats.s2m_flits == s2m_flits
    assert port.stats.m2s_wire_bytes == m2s_flits * FLIT_BYTES
    assert port.stats.s2m_wire_bytes == s2m_flits * FLIT_BYTES
