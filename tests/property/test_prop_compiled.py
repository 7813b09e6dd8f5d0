"""Property tests: the compiled kernel tier vs the interpreted backends.

Every kernel family of the compiled tier must be **bit-for-bit**
interchangeable with the backends it shadows:

* DES — on random small topologies, placements, policies and window
  lengths, the compiled event loop's :class:`DesResult` equals the
  scalar oracle's exactly, and so does the vector backend's wherever it
  runs (single-route BIND policies);
* flit packing — the compiled layout kernel returns the same used
  half-slot total and per-message header-flit assignment as the
  pure-Python recurrence, on random mixed-header batches and usable
  widths.

The undo-log CRC has no kernel of its own (the log calls
:func:`zlib.crc32`); a pure-Python table-driven CRC-32 pins zlib's bits
and the streaming form the log relies on.

Compiled-only legs skip cleanly when no provider (numba or a C
compiler) is usable in the environment — e.g. under
``REPRO_NO_COMPILED=1``; the scalar/vector assertions always run.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cxl import flit_jit
from repro.machine.affinity import place_threads
from repro.machine.numa import NumaPolicy, PolicyKind
from repro.machine.presets import setup1, setup2
from repro.memsim import des_jit
from repro.memsim.des import simulate_stream_des

_MACHINES = {"setup1": setup1().machine, "setup2": setup2().machine}
_NODES = {"setup1": (0, 1, 2), "setup2": (0, 1)}

needs_compiled_des = pytest.mark.skipif(
    not des_jit.available(), reason="no compiled DES provider")
needs_compiled_flit = pytest.mark.skipif(
    not flit_jit.available(), reason="no compiled flit provider")


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
    — it silently runs the scalar loop."""
    monkeypatch.setattr(des_jit, "available", lambda: False)
    m = _MACHINES["setup1"]
    cores = place_threads(m, 2, sockets=[0])
    scalar = simulate_stream_des(m, "triad", cores, NumaPolicy.bind(2),
                                 des_backend="scalar")
    forced = simulate_stream_des(m, "triad", cores, NumaPolicy.bind(2),
                                 des_backend="compiled")
    assert scalar == forced


# ---------------------------------------------------------------------------
# flit packing: kernel layout == pure-Python recurrence
# ---------------------------------------------------------------------------

@st.composite
def _layouts(draw):
    n = draw(st.integers(0, 120))
    usable = draw(st.integers(2, 12))
    header = draw(st.lists(st.integers(1, min(usable, 3)),
                           min_size=n, max_size=n))
    data = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    return (np.array(header, dtype=np.int64),
            np.array(data, dtype=np.int64), usable)


@needs_compiled_flit
@given(_layouts())
@settings(max_examples=200, deadline=None)
def test_compiled_pack_layout_matches_scalar(layout):
    h, d, usable = layout
    used_s, flits_s = flit_jit.pack_layout(h, d, usable, backend="scalar")
    used_c, flits_c = flit_jit.pack_layout(h, d, usable, backend="compiled")
    assert used_s == used_c
    assert np.array_equal(flits_s, flits_c)


@given(_layouts())
@settings(max_examples=100, deadline=None)
def test_pack_layout_dispatch_is_output_invariant(layout):
    """The default (auto) dispatch returns exactly the scalar answer no
    matter which tier it lands on."""
    h, d, usable = layout
    used_s, flits_s = flit_jit.pack_layout(h, d, usable, backend="scalar")
    used_a, flits_a = flit_jit.pack_layout(h, d, usable)
    assert used_s == used_a
    assert np.array_equal(flits_s, flits_a)


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
