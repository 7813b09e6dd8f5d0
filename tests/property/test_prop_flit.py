"""Property tests: flit packing."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cxl.flit import (
    Flit,
    FlitPacker,
    pack_messages,
    packing_efficiency,
    stream_efficiency,
    wire_bytes,
)
from repro.cxl.spec import (
    CACHELINE_BYTES,
    FLIT_BYTES,
    M2SReqOpcode,
    M2SRwDOpcode,
    S2MDRSOpcode,
    S2MNDROpcode,
)
from repro.cxl.transaction import M2SReq, M2SRwD, S2MDRS, S2MNDR

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
# batched wire accounting == materialized FlitPacker, bit for bit
# ---------------------------------------------------------------------------

def _assert_stats_match(messages):
    flits = FlitPacker().pack(messages)
    stats = pack_messages(messages)
    assert stats.messages == len(messages)
    assert stats.flits == len(flits)
    assert stats.wire_bytes == wire_bytes(flits)
    assert stats.payload_bytes == sum(f.payload_bytes for f in flits)
    assert stats.packing_efficiency == packing_efficiency(flits)


@given(_sequences)
@settings(max_examples=150, deadline=None)
def test_pack_messages_matches_flitpacker(messages):
    """Random mixes of 1- and 2-half-slot headers exercise both the
    uniform closed form and the sequential padding fallback."""
    _assert_stats_match(messages)


@given(st.sampled_from(["req", "rwd", "ndr", "drs"]), st.integers(0, 200))
@settings(max_examples=80, deadline=None)
def test_pack_messages_uniform_batches(kind, n):
    """Single-class batches take the closed-form (no-padding) path."""
    _assert_stats_match([_message(kind, i) for i in range(n)])
