"""Property tests: the persistent heap under arbitrary alloc/free sequences.

Invariants:
* after every operation the heap's own invariant holds (the walk covers
  it exactly, ``prev_size`` links are exact, no two adjacent chunks are
  free, the free index matches the media);
* live allocations never overlap;
* free + used + headers always account for the full heap;
* data written into one allocation is never clobbered by another;
* reopening a running heap finds the same chunks and writes nothing.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.errors import AllocError
from repro.pmdk.alloc import HEADER_SIZE, PersistentHeap, STATE_ALLOCATED
from repro.pmdk.pmem import VolatileRegion
from tests.pmdk.heap_invariant import assert_heap_invariant

HEAP_SIZE = 256 * 1024

# an operation is ("alloc", size) or ("free", index-into-live-list)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 8192)),
        st.tuples(st.just("free"), st.integers(0, 200)),
    ),
    min_size=1, max_size=120,
)


def _replay(ops) -> tuple[PersistentHeap, dict[int, int], VolatileRegion]:
    region = VolatileRegion(HEAP_SIZE)
    heap = PersistentHeap.format(region, 0, HEAP_SIZE)
    live: dict[int, int] = {}       # payload offset -> requested size
    for kind, arg in ops:
        if kind == "alloc":
            try:
                off = heap.alloc(arg)
            except AllocError:
                continue
            live[off] = arg
        elif live:
            keys = sorted(live)
            victim = keys[arg % len(keys)]
            heap.free(victim)
            del live[victim]
        assert_heap_invariant(heap)
    return heap, live, region


@given(_ops)
@settings(max_examples=60, deadline=None)
def test_live_allocations_never_overlap(ops):
    heap, live, _ = _replay(ops)
    spans = sorted((off, off + heap.payload_size(off)) for off in live)
    for (a0, a1), (b0, _) in zip(spans, spans[1:]):
        assert a1 + HEADER_SIZE <= b0 + HEADER_SIZE  # payloads disjoint
        assert a1 <= b0 - HEADER_SIZE or a1 <= b0    # header gap respected


@given(_ops)
@settings(max_examples=60, deadline=None)
def test_heap_walk_is_exhaustive_and_consistent(ops):
    heap, live, _ = _replay(ops)
    chunks = list(heap.chunks())
    covered = sum(HEADER_SIZE + c.size for c in chunks)
    assert covered == HEAP_SIZE
    allocated = {c.payload_offset for c in chunks
                 if c.state == STATE_ALLOCATED}
    assert allocated == set(live)


@given(_ops)
@settings(max_examples=60, deadline=None)
def test_accounting_identity(ops):
    heap, _, _ = _replay(ops)
    chunks = list(heap.chunks())
    assert heap.free_bytes == sum(c.size for c in chunks if c.is_free)
    assert heap.used_bytes == sum(c.size for c in chunks
                                  if c.state == STATE_ALLOCATED)


@given(_ops)
@settings(max_examples=40, deadline=None)
def test_data_integrity_across_operations(ops):
    region = VolatileRegion(HEAP_SIZE)
    heap = PersistentHeap.format(region, 0, HEAP_SIZE)
    live: dict[int, bytes] = {}
    rng = np.random.default_rng(0)
    for kind, arg in ops:
        if kind == "alloc":
            try:
                off = heap.alloc(arg)
            except AllocError:
                continue
            pattern = bytes(rng.integers(0, 256, size=arg, dtype=np.uint8))
            region.write(off, pattern)
            live[off] = pattern
        elif live:
            keys = sorted(live)
            victim = keys[arg % len(keys)]
            heap.free(victim)
            del live[victim]
    for off, pattern in live.items():
        assert region.read(off, len(pattern)) == pattern


@given(_ops)
@settings(max_examples=40, deadline=None)
def test_reopen_reconstructs_identical_state(ops):
    heap, live, region = _replay(ops)
    media = region.read(0, HEAP_SIZE)
    reopened = PersistentHeap.open(region, 0, HEAP_SIZE)
    assert region.read(0, HEAP_SIZE) == media
    assert list(reopened.chunks()) == list(heap.chunks())
    assert set(live) == {c.payload_offset for c in reopened.chunks()
                         if c.state == STATE_ALLOCATED}
    assert reopened.free_bytes == heap.free_bytes
