"""Property tests: the compiled kernel tier vs the references it shadows.

Both kernel families must be **bit-for-bit** interchangeable with their
references:

* the DES event loop: on random small topologies, placements, policies
  and window lengths, the compiled event loop's :class:`DesResult`
  equals the scalar oracle's exactly, and so does the vector backend's
  wherever it runs (single-route BIND policies);
* the undo log's CRC-32: :func:`repro.pmdk.crc_jit.crc32` equals
  :func:`zlib.crc32` on any length, seed and buffer type, and in the
  streaming form the log relies on.  A pure-Python table-driven CRC-32
  pins zlib's own bits.

Compiled-only legs skip cleanly when no C compiler (or, for the CRC, no
x86-64 CPU with PCLMUL) is usable in the environment — e.g. under
``REPRO_NO_COMPILED=1``; the reference assertions always run.
"""

from __future__ import annotations

import random
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro import compiled
from repro.machine.affinity import place_threads
from repro.machine.numa import NumaPolicy, PolicyKind
from repro.machine.presets import setup1, setup2
from repro.memsim import des_jit
from repro.memsim.des import simulate_stream_des
from repro.pmdk import crc_jit

_MACHINES = {"setup1": setup1().machine, "setup2": setup2().machine}
_NODES = {"setup1": (0, 1, 2), "setup2": (0, 1)}

needs_compiled_des = pytest.mark.skipif(
    not des_jit.available(), reason="no compiled DES provider")
needs_compiled_crc = pytest.mark.skipif(
    not crc_jit.available(), reason="no compiled CRC provider")


# ---------------------------------------------------------------------------
# DES: compiled == scalar on random configurations, == vector on the
# single-route ones
# ---------------------------------------------------------------------------

@st.composite
def _configs(draw):
    tb_key = draw(st.sampled_from(sorted(_MACHINES)))
    nodes = _NODES[tb_key]
    kind = draw(st.sampled_from(["bind", "interleave", "weighted"]))
    if kind == "bind":
        policy = NumaPolicy.bind(draw(st.sampled_from(nodes)))
    else:
        subset = draw(st.lists(st.sampled_from(nodes), min_size=2,
                               max_size=len(nodes), unique=True))
        if kind == "interleave":
            policy = NumaPolicy.interleave(*subset)
        else:
            policy = NumaPolicy.weighted(
                {n: draw(st.integers(1, 4)) for n in subset})
    n_threads = draw(st.integers(1, 6))
    sockets = draw(st.sampled_from([[0], [1], [0, 1]]))
    kernel = draw(st.sampled_from(["copy", "scale", "add", "triad"]))
    app_direct = (tb_key == "setup1" and kind == "bind"
                  and draw(st.booleans()))
    sim_ns = draw(st.floats(5_000.0, 40_000.0))
    warmup_ns = sim_ns * draw(st.floats(0.0, 0.8))
    return (tb_key, policy, n_threads, sockets, kernel, app_direct,
            sim_ns, warmup_ns)


@needs_compiled_des
@given(_configs())
@settings(max_examples=40, deadline=None)
def test_compiled_des_matches_scalar_and_vector_exactly(config):
    (tb_key, policy, n, sockets, kernel,
     app_direct, sim_ns, warmup_ns) = config
    m = _MACHINES[tb_key]
    cores = place_threads(m, n, sockets=sockets)

    def run(backend):
        return simulate_stream_des(m, kernel, cores, policy,
                                   app_direct=app_direct, sim_ns=sim_ns,
                                   warmup_ns=warmup_ns, des_backend=backend)

    scalar = run("scalar")
    assert scalar == run("compiled")
    if policy.kind is PolicyKind.BIND:       # vector: single-route only
        assert scalar == run("vector")


def test_compiled_backend_degrades_to_scalar_without_provider(monkeypatch):
    """``des_backend="compiled"`` must not error when no provider exists
    — it silently runs the scalar loop, and dispatch records the tier
    actually run."""
    monkeypatch.setattr(des_jit, "available", lambda: False)
    m = _MACHINES["setup1"]
    cores = place_threads(m, 2, sockets=[0])
    forced = simulate_stream_des(m, "triad", cores, NumaPolicy.bind(2),
                                 des_backend="compiled")
    assert compiled.selected()["des"] == "scalar"
    scalar = simulate_stream_des(m, "triad", cores, NumaPolicy.bind(2),
                                 des_backend="scalar")
    assert scalar == forced


# ---------------------------------------------------------------------------
# CRC: the pure-Python reference emits zlib's bits
# ---------------------------------------------------------------------------

def _crc_table() -> list[int]:
    table = []
    for i in range(256):
        c = i
        for _ in range(8):
            c = (0xEDB88320 ^ (c >> 1)) if c & 1 else c >> 1
        table.append(c)
    return table


_TABLE = _crc_table()


def crc32_py(data: bytes, value: int = 0) -> int:
    """Bytewise table-driven CRC-32 (the zlib / IEEE polynomial)."""
    crc = value ^ 0xFFFFFFFF
    for b in data:
        crc = (crc >> 8) ^ _TABLE[(crc ^ b) & 0xFF]
    return crc ^ 0xFFFFFFFF


_payloads = st.binary(min_size=0, max_size=2048)
_seeds = st.integers(0, 0xFFFFFFFF)


@given(_payloads, _seeds)
@settings(max_examples=150, deadline=None)
def test_scalar_crc_is_zlib_compatible(data, seed):
    assert crc32_py(data, seed) == zlib.crc32(data, seed)


@given(_payloads, st.integers(0, 2048), _seeds)
@settings(max_examples=100, deadline=None)
def test_compiled_crc_streams_identically(data, split, seed):
    """CRC of a concatenation == CRC of the tail seeded with the head's
    CRC, mixing the reference and zlib (the undo log's streaming form,
    which keeps its on-media entries identical to the concatenated
    form)."""
    split = min(split, len(data))
    head, tail = data[:split], data[split:]
    want = zlib.crc32(data, seed)
    assert crc32_py(tail, zlib.crc32(head, seed)) == want
    assert zlib.crc32(tail, crc32_py(head, seed)) == want


# ---------------------------------------------------------------------------
# CRC: the compiled fold emits zlib's bits
# ---------------------------------------------------------------------------

#: lengths that cross every stage of the fold, plus inputs of at least
#: 1 MiB (the undo log's chunk size) with and without a tail
_crc_lengths = st.one_of(
    st.integers(0, 4200),
    st.sampled_from([1 << 20, (1 << 20) + 13, (1 << 20) + 4096 + 7]))


def _as(kind: str, raw: bytes, offset: int, n: int):
    """``n`` bytes of ``raw`` as ``kind``; memoryviews start at
    ``offset`` (1-15), so the fold also reads unaligned addresses."""
    if kind == "memoryview":
        return memoryview(raw)[offset:offset + n].toreadonly()
    data = raw[:n]
    return bytearray(data) if kind == "bytearray" else data


def _random_bytes(n: int, key: int) -> bytes:
    # drawn from a seeded generator, not byte by byte from Hypothesis,
    # which would make the 1 MiB cases crawl
    return random.Random(key).randbytes(n)


@needs_compiled_crc
@given(_crc_lengths, st.integers(1, 15), _seeds,
       st.sampled_from(["bytes", "bytearray", "memoryview"]), _seeds)
@settings(max_examples=200, deadline=None)
def test_compiled_crc_is_zlib(n, offset, seed, kind, key):
    data = _as(kind, _random_bytes(n + offset, key), offset, n)
    assert crc_jit.crc32(data, seed) == zlib.crc32(data, seed)


@needs_compiled_crc
@given(_crc_lengths, st.floats(0.0, 1.0), _seeds, _seeds)
@settings(max_examples=100, deadline=None)
def test_compiled_crc_streams_like_zlib(n, cut, seed, key):
    """The undo log's form: the CRC of the header's bytes seeds the CRC
    of the data, and equals the CRC of the two joined."""
    raw = _random_bytes(n, key)
    split = int(n * cut)
    view = memoryview(raw).toreadonly()
    head, tail = view[:split], view[split:]
    assert (crc_jit.crc32(tail, crc_jit.crc32(head, seed))
            == zlib.crc32(raw, seed))
