"""The persistent heap: alloc/free, splitting, coalescing, recovery."""

import pytest

from repro.errors import AllocError, CrashInjected, PoolCorruptionError
from repro.pmdk.alloc import (
    ALIGN,
    HEADER_SIZE,
    STATE_ALLOCATED,
    STATE_ALLOCATING,
    STATE_FREE,
    STATE_FREEING,
    PersistentHeap,
    align_up,
)
from repro.pmdk.check import check_pool
from repro.pmdk.crash import CrashController, CrashRegion
from repro.pmdk.pmem import VolatileRegion
from repro.pmdk.pool import PmemObjPool
from tests.pmdk.heap_invariant import assert_heap_invariant

HEAP_OFF = 0
HEAP_SIZE = 64 * 1024


@pytest.fixture()
def region() -> VolatileRegion:
    return VolatileRegion(HEAP_SIZE)


@pytest.fixture()
def heap(region) -> PersistentHeap:
    return PersistentHeap.format(region, HEAP_OFF, HEAP_SIZE)


class TestFormat:
    def test_fresh_heap_is_one_free_chunk(self, heap):
        chunks = list(heap.chunks())
        assert len(chunks) == 1
        assert chunks[0].is_free
        assert chunks[0].size == HEAP_SIZE - HEADER_SIZE

    def test_alignment_validated(self, region):
        with pytest.raises(AllocError):
            PersistentHeap(region, 32, HEAP_SIZE - 32)
        with pytest.raises(AllocError):
            PersistentHeap(region, 0, HEAP_SIZE - 32)

    def test_too_small_rejected(self):
        with pytest.raises(AllocError):
            PersistentHeap(VolatileRegion(256), 0, 64)


class TestAllocFree:
    def test_alloc_returns_aligned_payload(self, heap):
        off = heap.alloc(100)
        assert off % ALIGN == 0
        assert heap.payload_size(off) == align_up(100)

    def test_distinct_allocations_disjoint(self, heap):
        a = heap.alloc(200)
        b = heap.alloc(200)
        assert abs(a - b) >= align_up(200)

    def test_free_then_realloc_reuses_space(self, heap):
        a = heap.alloc(1000)
        heap.free(a)
        b = heap.alloc(1000)
        assert b == a

    def test_accounting(self, heap):
        total = heap.free_bytes
        off = heap.alloc(512)
        assert heap.used_bytes == 512
        heap.free(off)
        assert heap.used_bytes == 0
        assert heap.free_bytes == total

    def test_double_free_rejected(self, heap):
        off = heap.alloc(64)
        heap.free(off)
        with pytest.raises(AllocError):
            heap.free(off)

    def test_free_of_garbage_offset_rejected(self, heap):
        with pytest.raises(AllocError):
            heap.free(HEAP_SIZE * 2)

    def test_zero_alloc_rejected(self, heap):
        with pytest.raises(AllocError):
            heap.alloc(0)

    def test_out_of_memory(self, heap):
        with pytest.raises(AllocError):
            heap.alloc(HEAP_SIZE * 2)

    def test_exhaustion_then_recovery_by_free(self, heap):
        offs = []
        while True:
            try:
                offs.append(heap.alloc(4096))
            except AllocError:
                break
        assert len(offs) > 5
        heap.free(offs[0])
        assert heap.alloc(4096) == offs[0]

    def test_whole_chunk_handout_when_remainder_tiny(self, heap):
        big = heap.alloc(HEAP_SIZE - HEADER_SIZE - HEADER_SIZE - 64)
        # remainder < HEADER+MIN_PAYLOAD → the whole tail was handed out
        assert heap.payload_size(big) >= HEAP_SIZE - 3 * HEADER_SIZE

    def test_is_allocated(self, heap):
        off = heap.alloc(64)
        assert heap.is_allocated(off)
        heap.free(off)
        assert not heap.is_allocated(off)


class TestCoalescing:
    def test_forward_coalesce_on_free(self, heap):
        a = heap.alloc(256)
        b = heap.alloc(256)
        heap.free(b)
        heap.free(a)     # must merge with the free b and the tail
        assert len(list(heap.chunks())) == 1

    def test_interleaved_frees_fully_merge(self, heap):
        offs = [heap.alloc(128) for _ in range(6)]
        for off in offs[::2]:
            heap.free(off)
        for off in offs[1::2]:
            heap.free(off)
        assert len(list(heap.chunks())) == 1
        merged = PersistentHeap.open(heap.region, HEAP_OFF, HEAP_SIZE)
        assert len(list(merged.chunks())) == 1

    def test_address_order_frees_leave_one_chunk(self):
        """The running heap is the heap a reopen would build: freeing in
        address order merges each object into its free predecessor."""
        size = 4 << 20
        heap = PersistentHeap.format(VolatileRegion(size), 0, size)
        offs = [heap.alloc(64 << 10) for _ in range(40)]
        for off in offs:
            heap.free(off)
        assert len(list(heap.chunks())) == 1
        assert heap.largest_free == heap.free_bytes == size - HEADER_SIZE
        heap.alloc(2 << 20)

    def test_largest_free_tracks_merging(self, heap):
        a = heap.alloc(1024)
        heap.alloc(1024)
        heap.free(a)
        assert heap.largest_free < heap.free_bytes     # split free space
        chunks_before = len(list(heap.chunks()))
        assert chunks_before >= 3


class TestReopen:
    def test_open_rebuilds_index(self, heap, region):
        a = heap.alloc(512)
        b = heap.alloc(512)
        heap.free(a)
        reopened = PersistentHeap.open(region, HEAP_OFF, HEAP_SIZE)
        assert reopened.is_allocated(b)
        assert not reopened.is_allocated(a)
        assert reopened.free_bytes == heap.free_bytes

    def test_open_garbage_region_raises(self):
        r = VolatileRegion(HEAP_SIZE)
        r.write(0, b"\xff" * 128)
        with pytest.raises(PoolCorruptionError):
            PersistentHeap.open(r, HEAP_OFF, HEAP_SIZE)


class TestCrashRecovery:
    def _corrupt_state(self, heap, region, payload_off, state):
        """Rewrite a chunk header into a transient state, as a crash
        would leave it."""
        from repro.pmdk.alloc import _pack_header
        info = heap._read_header(payload_off - HEADER_SIZE)
        region.write(payload_off - HEADER_SIZE,
                     _pack_header(state, info.size, info.prev_size))

    def test_allocating_chunk_reverts_to_free(self, heap, region):
        off = heap.alloc(256)
        self._corrupt_state(heap, region, off, STATE_ALLOCATING)
        recovered = PersistentHeap.open(region, HEAP_OFF, HEAP_SIZE)
        assert not recovered.is_allocated(off)
        for c in recovered.chunks():
            assert c.state in (STATE_FREE, STATE_ALLOCATED)

    def test_freeing_chunk_completes_to_free(self, heap, region):
        off = heap.alloc(256)
        self._corrupt_state(heap, region, off, STATE_FREEING)
        recovered = PersistentHeap.open(region, HEAP_OFF, HEAP_SIZE)
        assert not recovered.is_allocated(off)

    def test_recovery_fixes_prev_size_links(self, heap, region):
        from repro.pmdk.alloc import _pack_header
        a = heap.alloc(256)
        heap.alloc(256)
        # a stale prev_size link, which recovery makes exact
        info = heap._read_header(a - HEADER_SIZE)
        region.write(a - HEADER_SIZE,
                     _pack_header(info.state, info.size, 0xDEAD00))
        recovered = PersistentHeap.open(region, HEAP_OFF, HEAP_SIZE)
        prev = 0
        for c in recovered.chunks():
            assert c.prev_size == prev
            prev = c.size

    def test_recovery_is_idempotent(self, heap, region):
        off = heap.alloc(256)
        self._corrupt_state(heap, region, off, STATE_ALLOCATING)
        PersistentHeap.open(region, HEAP_OFF, HEAP_SIZE)
        again = PersistentHeap.open(region, HEAP_OFF, HEAP_SIZE)
        assert again.free_bytes + again.used_bytes > 0


PATTERN = bytes(range(256))


def _object_between_two_free_neighbours():
    backing = VolatileRegion(1 << 20)
    region = CrashRegion(backing)
    pool = PmemObjPool.create(region, layout="merge")
    before, obj, after, _ = pool.alloc_many(4, len(PATTERN))
    pool.write(obj, PATTERN)
    pool.free(before)
    pool.free(after)
    region.flush_all()
    return backing, region, pool, obj


def _tx_free(pool, oid):
    with pool.transaction() as tx:
        pool.tx_free(tx, oid)


@pytest.mark.parametrize("survivor_prob", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("free", [PmemObjPool.free, _tx_free],
                         ids=["free", "tx_free"])
def test_crash_at_every_persist_of_a_merging_free(free, survivor_prob):
    """A crash at any persist of a free that merges both ways leaves the
    object allocated and intact, or freed; either way the reopened heap
    holds its invariant and checks clean."""
    _, region, pool, obj = _object_between_two_free_neighbours()
    region.controller = ctrl = CrashController()
    ctrl.attach(region)
    free(pool, obj)
    assert ctrl.op_count >= 3
    for crash_at in range(1, ctrl.op_count + 1):
        backing, region, pool, obj = _object_between_two_free_neighbours()
        region.controller = crash = CrashController(
            crash_at, survivor_prob=survivor_prob, seed=crash_at)
        crash.attach(region)
        with pytest.raises(CrashInjected):
            free(pool, obj)
        reopened = PmemObjPool.open(backing)
        if reopened.heap.is_allocated(obj.offset):
            assert reopened.read(obj, len(PATTERN)) == PATTERN
        assert_heap_invariant(reopened.heap)
        assert check_pool(backing).ok, crash_at
