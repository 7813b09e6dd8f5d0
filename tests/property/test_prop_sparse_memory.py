"""Property test: ``SparseMemory`` holds what a flat byte array holds.

Reads and writes cross page edges and dense-window edges; windows are
mapped between operations (absorbing pages already written) and stored
to directly, as persistent-memory namespaces do.  ``zero`` clears every
byte while mapped windows keep aliasing the memory.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cxl.device import SparseMemory
from repro.errors import CxlError

CAP = 16 * 4096
MAX_LEN = 9000

ranges = st.tuples(st.integers(0, CAP - 1), st.integers(0, MAX_LEN))
ops = st.lists(st.tuples(
    st.sampled_from(["write", "read", "map", "store"]), ranges), max_size=25)


@given(ops=ops, seed=st.integers(0, 2**16))
@settings(max_examples=80, deadline=None)
def test_sparse_memory_matches_flat_bytes(ops, seed):
    rng = random.Random(seed)
    mem, model = SparseMemory(CAP), bytearray(CAP)
    windows: list[tuple[int, np.ndarray]] = []
    for kind, (offset, length) in ops:
        length = min(length, CAP - offset)
        if kind == "write":
            data = rng.randbytes(length)
            mem.write(offset, data)
            model[offset:offset + length] = data
        elif kind == "read":
            expect = bytes(model[offset:offset + length])
            assert mem.read(offset, length) == expect
        elif kind == "map" and length:
            try:
                window = mem.map_dense(offset, length)
            except CxlError:
                continue
            assert window.tobytes() == bytes(model[offset:offset + length])
            windows.append((offset, window))
        elif kind == "store" and windows:
            start, window = rng.choice(windows)
            lo = rng.randrange(len(window))
            hi = rng.randrange(lo, len(window)) + 1
            data = rng.randbytes(hi - lo)
            window[lo:hi] = np.frombuffer(data, dtype=np.uint8)
            model[start + lo:start + hi] = data
    assert mem.read(0, CAP) == bytes(model)

    mem.zero()
    assert mem.read(0, CAP) == bytes(CAP)
    assert not any(window.any() for _, window in windows)
    for start, window in windows:
        window[0] = 7
        assert mem.read(start, 1) == b"\x07"
