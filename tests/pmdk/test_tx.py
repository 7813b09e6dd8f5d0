"""Undo-log transactions: commit, abort, nesting, recovery."""

import pytest

from repro.errors import TransactionAborted, TransactionError
from repro.pmdk.alloc import PersistentHeap
from repro.pmdk.pmem import VolatileRegion
from repro.pmdk.tx import (
    STATE_ACTIVE,
    STATE_CLEAN,
    STATE_COMMITTED,
    Transaction,
    UndoLog,
    recover,
)

LOG_OFF = 0
LOG_SIZE = 16 * 1024
HEAP_OFF = LOG_SIZE
HEAP_SIZE = 64 * 1024


@pytest.fixture()
def env():
    region = VolatileRegion(LOG_SIZE + HEAP_SIZE)
    log = UndoLog(region, LOG_OFF, LOG_SIZE)
    log.format()
    heap = PersistentHeap.format(region, HEAP_OFF, HEAP_SIZE)
    return region, log, heap


def _tx(env) -> Transaction:
    _, log, heap = env
    return Transaction(log, heap)


class TestCommit:
    def test_committed_write_sticks(self, env):
        region, log, heap = env
        off = heap.alloc(64)
        region.write(off, b"old-value")
        tx = _tx(env)
        with tx:
            tx.add_range(off, 16)
            region.write(off, b"new-value")
        assert region.read(off, 9) == b"new-value"
        assert log.read_ctrl() == (0, STATE_CLEAN)

    def test_commit_without_changes(self, env):
        tx = _tx(env)
        with tx:
            pass
        assert env[1].read_ctrl() == (0, STATE_CLEAN)

    def test_commit_outside_tx_rejected(self, env):
        with pytest.raises(TransactionError):
            _tx(env).commit()


class TestAbort:
    def test_exception_rolls_back(self, env):
        region, _, heap = env
        off = heap.alloc(64)
        region.write(off, b"original")
        tx = _tx(env)
        with pytest.raises(RuntimeError):
            with tx:
                tx.add_range(off, 8)
                region.write(off, b"mutation")
                raise RuntimeError("boom")
        assert region.read(off, 8) == b"original"

    def test_explicit_abort_raises_and_rolls_back(self, env):
        region, _, heap = env
        off = heap.alloc(64)
        region.write(off, b"original")
        tx = _tx(env)
        with pytest.raises(TransactionAborted):
            with tx:
                tx.add_range(off, 8)
                region.write(off, b"mutation")
                tx.abort()
        assert region.read(off, 8) == b"original"

    def test_rollback_restores_in_reverse_order(self, env):
        region, _, heap = env
        off = heap.alloc(64)
        region.write(off, b"AAAA")
        tx = _tx(env)
        with pytest.raises(RuntimeError):
            with tx:
                tx.add_range(off, 4)
                region.write(off, b"BBBB")
                tx.add_range(off, 4)   # covered → no duplicate snapshot
                region.write(off, b"CCCC")
                raise RuntimeError
        assert region.read(off, 4) == b"AAAA"

    def test_aborted_tx_cannot_be_reused(self, env):
        tx = _tx(env)
        with pytest.raises(RuntimeError):
            with tx:
                raise RuntimeError
        with pytest.raises(TransactionError):
            tx.begin()

    def test_abort_outside_tx_rejected(self, env):
        with pytest.raises(TransactionError):
            _tx(env).abort()


class TestAllocFreeSemantics:
    def test_tx_alloc_freed_on_abort(self, env):
        _, _, heap = env
        tx = _tx(env)
        got = {}
        with pytest.raises(RuntimeError):
            with tx:
                got["off"] = tx.alloc(256)
                raise RuntimeError
        assert not heap.is_allocated(got["off"])

    def test_tx_alloc_survives_commit(self, env):
        _, _, heap = env
        tx = _tx(env)
        with tx:
            off = tx.alloc(256)
        assert heap.is_allocated(off)

    def test_tx_free_deferred_until_commit(self, env):
        _, _, heap = env
        target = heap.alloc(128)
        tx = _tx(env)
        with tx:
            tx.free(target)
            assert heap.is_allocated(target)    # still there mid-tx
        assert not heap.is_allocated(target)

    def test_tx_free_cancelled_on_abort(self, env):
        _, _, heap = env
        target = heap.alloc(128)
        tx = _tx(env)
        with pytest.raises(RuntimeError):
            with tx:
                tx.free(target)
                raise RuntimeError
        assert heap.is_allocated(target)

    def test_tx_free_of_garbage_rejected(self, env):
        tx = _tx(env)
        with tx:
            with pytest.raises(TransactionError):
                tx.free(HEAP_OFF + 77777)
            # recoverable: transaction continues
            tx.alloc(64)


class TestNesting:
    def test_inner_commit_defers_to_outer(self, env):
        region, log, heap = env
        off = heap.alloc(64)
        tx = _tx(env)
        with tx:
            tx.add_range(off, 8)
            region.write(off, b"inner!!!")
            with tx:
                assert tx.depth == 2
            assert tx.active           # still open
            _, state = log.read_ctrl()
            assert state == STATE_ACTIVE
        assert log.read_ctrl() == (0, STATE_CLEAN)

    def test_inner_exception_aborts_everything(self, env):
        region, _, heap = env
        off = heap.alloc(64)
        region.write(off, b"base")
        tx = _tx(env)
        with pytest.raises(RuntimeError):
            with tx:
                tx.add_range(off, 4)
                region.write(off, b"out1")
                with tx:
                    raise RuntimeError
        assert region.read(off, 4) == b"base"
        assert not tx.active


class TestOperationsOutsideTx:
    def test_add_range_requires_active(self, env):
        with pytest.raises(TransactionError):
            _tx(env).add_range(HEAP_OFF + 64, 8)

    def test_bad_length_rejected(self, env):
        tx = _tx(env)
        with tx:
            with pytest.raises(TransactionError):
                tx.add_range(HEAP_OFF + 64, 0)


class TestLogCapacity:
    def test_log_overflow_raises(self, env):
        region, _, heap = env
        off = heap.alloc(32 * 1024)
        tx = _tx(env)
        with pytest.raises(TransactionError):
            with tx:
                tx.add_range(off, 32 * 1024)   # exceeds the 16 KiB log
                raise AssertionError("should not get here")


class TestRecovery:
    def test_recover_clean_log(self, env):
        _, log, heap = env
        assert recover(log, heap).action == "clean"

    def test_recover_active_rolls_back(self, env):
        region, log, heap = env
        off = heap.alloc(64)
        region.write(off, b"original")
        tx = _tx(env)
        tx.begin()
        tx.add_range(off, 8)
        region.write(off, b"mutation")
        # simulate crash: no commit; fresh recovery pass
        assert recover(log, heap).action == "rolled_back"
        assert region.read(off, 8) == b"original"
        assert log.read_ctrl() == (0, STATE_CLEAN)

    def test_recover_active_frees_tx_allocs(self, env):
        _, log, heap = env
        tx = _tx(env)
        tx.begin()
        off = tx.alloc(128)
        recover(log, heap)
        assert not heap.is_allocated(off)

    def test_recover_committed_completes_frees(self, env):
        region, log, heap = env
        victim = heap.alloc(128)
        tx = _tx(env)
        tx.begin()
        tx.free(victim)
        # simulate a crash after the COMMITTED record but before the
        # deferred frees ran: write the commit record manually
        log.write_ctrl(tx._tail, STATE_COMMITTED)
        assert recover(log, heap).action == "completed"
        assert not heap.is_allocated(victim)

    def test_recovery_replay_is_idempotent(self, env):
        _, log, heap = env
        assert recover(log, heap).action == "clean"
        assert recover(log, heap).action == "clean"

    def test_begin_refuses_unrecovered_log(self, env):
        _, log, heap = env
        log.write_ctrl(64, STATE_ACTIVE)
        tx = Transaction(log, heap)
        with pytest.raises(TransactionError):
            tx.begin()
