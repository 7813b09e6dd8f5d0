"""Single-object pool calls are one-element batches; undo snapshots
never pin what they read."""

from __future__ import annotations

import pytest

from repro.pmdk.crash import CrashController, CrashRegion
from repro.pmdk.pmem import FileRegion, VolatileRegion
from repro.pmdk.pool import METADATA_SIZE, PmemObjPool

POOL = 512 << 10


def _crash_pool():
    backing = VolatileRegion(POOL)
    ctrl = CrashController(ops=("persist", "write"))
    region = CrashRegion(backing, ctrl)
    return backing, region, ctrl, PmemObjPool.create(region, layout="batch")


def _alloc(pool, size, batched):
    if batched:
        return pool.alloc_many(1, size)[0]
    return pool.alloc(size)


def _tx_alloc(pool, size, batched):
    with pool.transaction() as tx:
        if batched:
            return pool.tx_alloc_many(tx, 1, size)[0]
        return pool.tx_alloc(tx, size)


def _tx_write(pool, size, blob, batched):
    data = bytes((i * 7 + 3) & 0xFF for i in range(size))
    with pool.transaction() as tx:
        if batched:
            pool.tx_write_many(tx, [(blob, data, 0)])
        else:
            pool.tx_write(tx, blob, data)
    return blob


class TestSingleIsOneElementBatch:
    """``alloc``/``tx_alloc``/``tx_write`` flush the same lines, hit the
    same crash points and leave the same media as their batched twins
    called with one element."""

    @pytest.mark.parametrize("size", [1, 64, 100, 4096, 5000])
    @pytest.mark.parametrize("call", ["alloc", "tx_alloc", "tx_write"])
    def test_same_flushes_crash_points_and_media(self, call, size):
        runs = []
        for batched in (False, True):
            backing, region, ctrl, pool = _crash_pool()
            if call == "tx_write":
                blob = pool.alloc(size)
                pool.write(blob, b"\xa5" * size)
            flushes, ops = region.flush_count, ctrl.op_count
            if call == "alloc":
                oid = _alloc(pool, size, batched)
            elif call == "tx_alloc":
                oid = _tx_alloc(pool, size, batched)
            else:
                oid = _tx_write(pool, size, blob, batched)
            runs.append((
                region.flush_count - flushes,
                ctrl.op_count - ops,
                oid.offset,
                # durable media and the visible bytes; the two header
                # copies hold the pool uuid and differ by construction
                backing.read(METADATA_SIZE, POOL - METADATA_SIZE),
                region.read(METADATA_SIZE, POOL - METADATA_SIZE),
            ))
        single, batch = runs
        assert single[0] == batch[0], "flush_count deltas differ"
        assert single[1] == batch[1], "crash-point (op_count) deltas differ"
        assert single[2] == batch[2], "objects landed at different offsets"
        assert single[3] == batch[3], "durable media differs"
        assert single[4] == batch[4], "visible bytes differ"


class TestSnapshotsDoNotPin:
    """A committed snapshot is not re-flushed by later no-argument
    persists: undo-log reads go through ``peek``, which pins nothing."""

    @pytest.mark.parametrize("backend", ["volatile", "file"])
    def test_persist_dirty_after_commit_flushes_nothing(self, backend,
                                                        tmp_path):
        if backend == "volatile":
            region = VolatileRegion(4 * POOL)
        else:
            region = FileRegion(str(tmp_path / "pin.pmem"), 4 * POOL,
                                create=True)
        pool = PmemObjPool.create(region, layout="pin")
        blob = pool.alloc(64 * 64)
        with pool.transaction() as tx:
            pool.tx_write_many(
                tx, [(blob, bytes([i]) * 64, i * 64) for i in range(64)])
        pool.persist_dirty()
        assert pool.persist_dirty() == 0
        assert region.dirty.pinned_spans() == []
        assert pool.read(blob, 64, offset=63 * 64) == bytes([63]) * 64
        pool.close()
        region.close()
