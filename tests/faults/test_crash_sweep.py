"""Exhaustive crash-point enumeration through a transactional STREAM run.

The workload iterates the STREAM kernels transactionally: every
iteration snapshots the three arrays plus a version counter in one
transaction.  Crashing at *every* persist point of the run and
recovering must always land on a committed iteration — version and
arrays consistent, never torn.
"""

import numpy as np
import pytest

from repro.errors import CrashInjected
from repro.pmdk.check import check_pool
from repro.pmdk.crash import CrashController, CrashRegion
from repro.pmdk.pmem import VolatileRegion
from repro.pmdk.pool import PmemObjPool

POOL = 2 * 1024 * 1024
N = 32                      # elements per STREAM array
ASZ = N * 8
ROOT = 8 + 3 * ASZ          # version counter + a, b, c
SCALAR = 3.0
STEPS = 6


def _stream_step(a, b, c):
    c = a.copy()                    # copy
    b = SCALAR * c                  # scale
    c = a + b                       # add
    a = b + SCALAR * c              # triad
    return a, b, c


def _expected(version: int):
    """Arrays after ``version - 1`` STREAM iterations (version 1 = init)."""
    a, b, c = np.full(N, 1.0), np.full(N, 2.0), np.zeros(N)
    for _ in range(version - 1):
        a, b, c = _stream_step(a, b, c)
    return a, b, c


def _commit(pool, root, version, a, b, c) -> None:
    with pool.transaction() as tx:
        pool.tx_write(tx, root, a.tobytes(), offset=8)
        pool.tx_write(tx, root, b.tobytes(), offset=8 + ASZ)
        pool.tx_write(tx, root, c.tobytes(), offset=8 + 2 * ASZ)
        pool.tx_write(tx, root, version.to_bytes(8, "little"), offset=0)


def _run_workload(region) -> None:
    pool = PmemObjPool.create(region, layout="stream-tx")
    root = pool.root(ROOT)
    a, b, c = _expected(1)
    _commit(pool, root, 1, a, b, c)             # version 0 = uninitialized
    for step in range(2, STEPS + 2):
        a, b, c = _stream_step(a, b, c)
        _commit(pool, root, step, a, b, c)
    pool.close()


def _verify_recovered(backing) -> int | None:
    """Reopen and verify; returns the recovered version (None: pre-init)."""
    try:
        pool = PmemObjPool.open(backing)
    except Exception:
        # headers never landed — a restart would reformat
        return None
    assert check_pool(backing).ok
    raw = bytes(pool.direct(pool.root(ROOT), ROOT))
    version = int.from_bytes(raw[:8], "little")
    if version == 0:
        return None                             # crashed before init commit
    ea, eb, ec = _expected(version)
    got_a = np.frombuffer(raw[8:8 + ASZ], np.float64)
    got_b = np.frombuffer(raw[8 + ASZ:8 + 2 * ASZ], np.float64)
    got_c = np.frombuffer(raw[8 + 2 * ASZ:], np.float64)
    assert np.array_equal(got_a, ea), f"torn a at version {version}"
    assert np.array_equal(got_b, eb), f"torn b at version {version}"
    assert np.array_equal(got_c, ec), f"torn c at version {version}"
    return version


def _total_persists() -> int:
    ctrl = CrashController()
    region = CrashRegion(VolatileRegion(POOL), ctrl)
    _run_workload(region)
    return ctrl.op_count


class TestExhaustiveCrashEnumeration:
    def test_every_crash_point_recovers_consistent(self):
        total = _total_persists()
        assert total > 3 * STEPS        # several crash points per iteration
        recovered = []
        for crash_at in range(1, total + 1):
            backing = VolatileRegion(POOL)
            ctrl = CrashController(crash_at=crash_at, survivor_prob=0.5,
                                   seed=crash_at)
            region = CrashRegion(backing, ctrl)
            with pytest.raises(CrashInjected):
                _run_workload(region)
            recovered.append(_verify_recovered(backing))
        versions = [v for v in recovered if v is not None]
        # late crashes must observe completed iterations, and the final
        # crash point sits after the last commit
        assert versions and max(versions) == STEPS + 1

    def test_uninterrupted_run_reaches_final_state(self):
        backing = VolatileRegion(POOL)
        region = CrashRegion(backing, CrashController())
        _run_workload(region)
        region.flush_all()
        assert _verify_recovered(backing) == STEPS + 1


class TestBatchedFlushCrashPoints:
    """Coalesced no-argument flushes must expose one crash point per
    span, not one per ``persist()`` call."""

    def _k_span_persist(self, ctrl) -> None:
        region = CrashRegion(VolatileRegion(64 * 1024), ctrl)
        # three disjoint dirty spans, one no-argument batched persist
        region.write(0, b"A" * 64)
        region.write(1024, b"B" * 64)
        region.write(4096, b"C" * 64)
        region.persist()

    def test_k_spans_yield_k_crash_points(self):
        ctrl = CrashController()
        self._k_span_persist(ctrl)
        assert ctrl.op_count == 3

    def test_mid_batch_crash_keeps_earlier_spans_durable(self):
        ctrl = CrashController(crash_at=2, survivor_prob=0.0)
        backing = VolatileRegion(64 * 1024)
        region = CrashRegion(backing, ctrl)
        region.write(0, b"A" * 64)
        region.write(1024, b"B" * 64)
        region.write(4096, b"C" * 64)
        with pytest.raises(CrashInjected):
            region.persist()
        # crash between span 1 and span 2: the first span is already
        # durable, the rest never reached media
        assert backing.read(0, 64) == b"A" * 64
        assert backing.read(1024, 64) == b"\x00" * 64
        assert backing.read(4096, 64) == b"\x00" * 64

    def test_legacy_single_span_counts_unchanged(self):
        # a ranged persist is one span, hence one crash point
        ctrl = CrashController()
        region = CrashRegion(VolatileRegion(4096), ctrl)
        region.write(0, b"x" * 64)
        region.persist(0, 64)
        assert ctrl.op_count == 1
