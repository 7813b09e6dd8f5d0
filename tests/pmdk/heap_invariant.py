"""The persistent heap's invariant, checked from outside the heap."""

from repro.pmdk.alloc import HEADER_SIZE, PersistentHeap


def assert_heap_invariant(heap: PersistentHeap) -> None:
    """The walk covers the heap exactly, each ``prev_size`` is the size
    of the chunk before it, no two adjacent chunks are free, and the
    free index holds exactly the free chunks on media."""
    chunks = list(heap.chunks())
    assert sum(HEADER_SIZE + c.size for c in chunks) == heap.heap_size
    for prev, c in zip([None] + chunks, chunks):
        assert c.prev_size == (prev.size if prev else 0), (prev, c)
        assert not (prev and prev.is_free and c.is_free), (prev, c)
    assert heap._free == {c.offset: c.size for c in chunks if c.is_free}
