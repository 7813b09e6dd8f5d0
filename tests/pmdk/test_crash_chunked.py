"""Crash consistency with chunked undo-log entries and dirty-line flushes.

The persistence path splits large snapshots into LOG_CHUNK-sized undo
entries and coalesces commit flushes through the dirty tracker.
Neither may change what recovery produces: these tests force multi-chunk
entries (by shrinking LOG_CHUNK) and crash at every interesting point —
mid-snapshot, mid-commit, after reopen — checking the old-or-new
invariant survives unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.pmdk.tx as txmod
from repro.errors import CrashInjected, TransactionAborted, TransactionError
from repro.pmdk.containers import PersistentArray
from repro.pmdk.crash import CrashController, CrashRegion
from repro.pmdk.pmem import VolatileRegion
from repro.pmdk.pool import PmemObjPool

POOL = 4 * 1024 * 1024
N = 1024                       # 8 KiB of int64 payload
SMALL_CHUNK = 1024             # → 8 undo chunks per snapshot


@pytest.fixture()
def small_chunks(monkeypatch):
    monkeypatch.setattr(txmod, "LOG_CHUNK", SMALL_CHUNK)


def _fresh(old: np.ndarray):
    backing = VolatileRegion(POOL)
    region = CrashRegion(backing)
    pool = PmemObjPool.create(region, layout="chunked")
    arr = PersistentArray.create(pool, N, "int64")
    arr.write(old)
    region.flush_all()
    return backing, region, pool, arr


def _recovered(backing, oid) -> np.ndarray:
    pool = PmemObjPool.open(backing)
    return PersistentArray.from_oid(pool, oid).read()


class TestChunkedEntries:
    def test_snapshot_splits_into_chunks(self, small_chunks):
        backing, region, pool, arr = _fresh(np.arange(N))
        with pool.transaction() as tx:
            arr.snapshot(tx)
            # 8 KiB payload / 1 KiB chunks → at least 8 log entries
            assert len(tx._snapshots) == 1          # logical ranges: one
            assert tx._tail >= 8 * (txmod.ENTRY_HEADER + SMALL_CHUNK)

    def test_oversized_range_still_rejected(self, small_chunks):
        backing, region, pool, arr = _fresh(np.arange(N))
        with pytest.raises(TransactionAborted):
            with pool.transaction() as tx:
                with pytest.raises(TransactionError):
                    tx.add_range(arr.oid.offset, pool.log_capacity * 2)
                tx.abort()

    def test_commit_and_abort_roundtrip(self, small_chunks):
        backing, region, pool, arr = _fresh(np.arange(N))
        new = np.arange(N) * 5 + 3
        with pool.transaction() as tx:
            arr.write(new, tx=tx)
        assert np.array_equal(arr.read(), new)
        with pytest.raises(TransactionAborted):
            with pool.transaction() as tx:
                arr.write(np.zeros(N, dtype=np.int64), tx=tx)
                tx.abort()
        assert np.array_equal(arr.read(), new)


class TestCrashMidSnapshot:
    @pytest.mark.parametrize("crash_at", [1, 2, 3])
    def test_crash_during_add_range_preserves_old(self, small_chunks,
                                                  crash_at):
        """The chunked snapshot defers durability to one span persist
        plus the ctrl bump; a crash at any of them must leave the old
        value intact after recovery (nothing was mutated yet)."""
        old = np.arange(N)
        backing, region, pool, arr = _fresh(old)
        region.controller = ctrl = CrashController(crash_at=crash_at,
                                                   survivor_prob=0.5,
                                                   seed=7)
        ctrl.attach(region)
        with pytest.raises(CrashInjected):
            with pool.transaction() as tx:
                arr.snapshot(tx)       # crashes inside chunked append
        assert np.array_equal(_recovered(backing, arr.oid), old)

    @pytest.mark.parametrize("crash_at", [1, 3, 6])
    def test_crash_on_write_op_mid_snapshot(self, small_chunks, crash_at):
        old = np.arange(N)
        backing, region, pool, arr = _fresh(old)
        region.controller = ctrl = CrashController(crash_at=crash_at,
                                                   ops=("write",),
                                                   survivor_prob=0.0,
                                                   seed=11)
        ctrl.attach(region)
        with pytest.raises(CrashInjected):
            with pool.transaction() as tx:
                arr.snapshot(tx)
        assert np.array_equal(_recovered(backing, arr.oid), old)


class TestCrashMidCommit:
    @pytest.mark.parametrize("crash_at", list(range(1, 26, 2)))
    @pytest.mark.parametrize("survivor_prob", [0.0, 0.5, 1.0])
    def test_torn_update_is_old_or_new(self, small_chunks, crash_at,
                                       survivor_prob):
        old = np.arange(N)
        new = np.arange(N) * 7 + 1
        backing, region, pool, arr = _fresh(old)
        region.controller = ctrl = CrashController(
            crash_at=crash_at, survivor_prob=survivor_prob, seed=13)
        ctrl.attach(region)
        crashed = False
        try:
            with pool.transaction() as tx:
                arr.write(new, tx=tx)
        except CrashInjected:
            crashed = True
        if not crashed:
            region.flush_all()
        data = _recovered(backing, arr.oid)
        if crashed:
            assert (np.array_equal(data, old)
                    or np.array_equal(data, new)), (
                f"torn state with chunked log at persist #{crash_at}"
            )
        else:
            assert np.array_equal(data, new)


class TestRecoverAfterReopen:
    def test_reopen_then_retry_succeeds(self, small_chunks):
        """Recovery after a mid-commit crash leaves a pool the retried
        transaction completes on — the chunked entries from the dead
        transaction are fully consumed."""
        old = np.arange(N)
        new = np.arange(N) + 1000
        backing, region, pool, arr = _fresh(old)
        region.controller = ctrl = CrashController(crash_at=4,
                                                   survivor_prob=0.5,
                                                   seed=3)
        ctrl.attach(region)
        with pytest.raises(CrashInjected):
            with pool.transaction() as tx:
                arr.write(new, tx=tx)

        pool2 = PmemObjPool.open(backing)
        arr2 = PersistentArray.from_oid(pool2, arr.oid)
        first = arr2.read()
        assert (np.array_equal(first, old) or np.array_equal(first, new))
        with pool2.transaction() as tx:
            arr2.write(new, tx=tx)
        assert np.array_equal(arr2.read(), new)
        from repro.pmdk.check import check_pool
        report = check_pool(backing)
        assert report.ok, report.summary()

    def test_fast_and_legacy_recovery_agree(self, small_chunks):
        """A crash while the chunked log is being written recovers to
        exactly the old value — what a monolithic log recovered to."""
        old = np.arange(N)
        new = np.arange(N) * 3
        backing, region, pool, arr = _fresh(old)
        region.controller = ctrl = CrashController(
            crash_at=2, survivor_prob=0.0, seed=5)
        ctrl.attach(region)
        with pytest.raises(CrashInjected):
            with pool.transaction() as tx:
                arr.write(new, tx=tx)
        # survivor_prob=0 drops every unflushed line: the recovered state
        # is the intact old value
        assert np.array_equal(_recovered(backing, arr.oid), old)
