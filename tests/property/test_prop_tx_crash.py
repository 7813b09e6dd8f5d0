"""Property tests: transaction atomicity under arbitrary crash points.

The central crash-consistency theorem of the pmemobj model: for ANY crash
point during a transactional update, and ANY subset of unflushed cachelines
surviving the power loss, recovery yields either the complete old state or
the complete new state — never a mixture.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CrashInjected
from repro.pmdk.containers import PersistentArray
from repro.pmdk.crash import CrashController, CrashRegion
from repro.pmdk.pmem import VolatileRegion
from repro.pmdk.pool import PmemObjPool
from tests.pmdk.heap_invariant import assert_heap_invariant

POOL = 4 * 1024 * 1024
N = 64


def _fresh_pool():
    backing = VolatileRegion(POOL)
    region = CrashRegion(backing)
    pool = PmemObjPool.create(region, layout="prop")
    arr = PersistentArray.create(pool, N, "int64")
    arr.write(np.arange(N))
    region.flush_all()
    return backing, region, pool, arr


@given(
    crash_at=st.integers(1, 30),
    survivor_prob=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    seed=st.integers(0, 2 ** 16),
)
@settings(max_examples=80, deadline=None)
def test_single_tx_update_is_atomic(crash_at, survivor_prob, seed):
    backing, region, pool, arr = _fresh_pool()
    region.controller = ctrl = CrashController(
        crash_at=crash_at, survivor_prob=survivor_prob, seed=seed)
    ctrl.attach(region)

    old = np.arange(N)
    new = np.arange(N) * 7 + 1
    crashed = False
    try:
        with pool.transaction() as tx:
            arr.write(new, tx=tx)
    except CrashInjected:
        crashed = True

    if not crashed:
        region.flush_all()

    recovered_pool = PmemObjPool.open(backing)
    data = PersistentArray.from_oid(recovered_pool, arr.oid).read()
    if crashed:
        assert (np.array_equal(data, old) or np.array_equal(data, new)), (
            f"torn state after crash at persist #{crash_at}"
        )
    else:
        assert np.array_equal(data, new)


@given(
    crash_at=st.integers(1, 60),
    seed=st.integers(0, 2 ** 16),
)
@settings(max_examples=60, deadline=None)
def test_two_object_tx_updates_together_or_not_at_all(crash_at, seed):
    backing = VolatileRegion(POOL)
    region = CrashRegion(backing)
    pool = PmemObjPool.create(region, layout="prop2")
    a = PersistentArray.create(pool, N, "int64")
    b = PersistentArray.create(pool, N, "int64")
    a.write(np.zeros(N, dtype=np.int64))
    b.write(np.zeros(N, dtype=np.int64))
    region.flush_all()

    region.controller = ctrl = CrashController(
        crash_at=crash_at, survivor_prob=0.5, seed=seed)
    ctrl.attach(region)
    crashed = False
    try:
        with pool.transaction() as tx:
            a.write(np.ones(N, dtype=np.int64), tx=tx)
            b.write(np.full(N, 2, dtype=np.int64), tx=tx)
    except CrashInjected:
        crashed = True
    if not crashed:
        region.flush_all()

    recovered = PmemObjPool.open(backing)
    da = PersistentArray.from_oid(recovered, a.oid).read()
    db = PersistentArray.from_oid(recovered, b.oid).read()
    old = (np.all(da == 0) and np.all(db == 0))
    new = (np.all(da == 1) and np.all(db == 2))
    assert old or new, "objects updated independently across a crash"


@given(crash_at=st.integers(1, 40), seed=st.integers(0, 2 ** 12))
@settings(max_examples=50, deadline=None)
def test_pool_always_checks_clean_after_recovery(crash_at, seed):
    from repro.pmdk.check import check_pool

    backing, region, pool, arr = _fresh_pool()
    region.controller = ctrl = CrashController(
        crash_at=crash_at, survivor_prob=0.5, seed=seed)
    ctrl.attach(region)
    try:
        with pool.transaction() as tx:
            arr.write(np.arange(N) * 3, tx=tx)
            extra = pool.tx_alloc(tx, 256)
    except CrashInjected:
        pass
    # open implies recovery; afterwards the pool must be fully consistent
    PmemObjPool.open(backing)
    report = check_pool(backing)
    assert report.ok, report.summary()
    assert not report.pending_tx


@given(crash_at=st.integers(1, 25), seed=st.integers(0, 2 ** 12))
@settings(max_examples=50, deadline=None)
def test_tx_alloc_never_leaks_across_crash(crash_at, seed):
    backing = VolatileRegion(POOL)
    region = CrashRegion(backing)
    pool = PmemObjPool.create(region, layout="leak")
    baseline_used = pool.used_bytes
    region.flush_all()

    region.controller = ctrl = CrashController(
        crash_at=crash_at, survivor_prob=0.5, seed=seed)
    ctrl.attach(region)
    crashed = False
    try:
        with pool.transaction() as tx:
            for _ in range(4):
                pool.tx_alloc(tx, 512)
            tx.abort()
    except CrashInjected:
        crashed = True
    except Exception:
        pass

    recovered = PmemObjPool.open(backing)
    assert recovered.used_bytes == baseline_used


_heap_ops = st.lists(
    st.tuples(st.sampled_from(["alloc", "free", "tx_alloc", "tx_free"]),
              st.integers(0, 1000)),
    min_size=1, max_size=25,
)


@given(ops=_heap_ops, crash_at=st.integers(1, 80),
       survivor_prob=st.sampled_from([0.0, 0.5, 1.0]),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_clean_check_means_open_writes_nothing(ops, crash_at, survivor_prob,
                                               seed):
    """Whatever a crash amid heap operations leaves, a pool that
    ``check_pool`` calls clean is one ``open`` leaves byte-identical,
    and after ``open`` the heap holds its invariant and checks clean."""
    from repro.pmdk.check import check_pool

    backing = VolatileRegion(1 << 20)
    region = CrashRegion(backing)
    pool = PmemObjPool.create(region, layout="heap")
    region.flush_all()
    region.controller = ctrl = CrashController(
        crash_at=crash_at, survivor_prob=survivor_prob, seed=seed)
    ctrl.attach(region)
    live = []
    try:
        for kind, arg in ops:
            if kind == "alloc":
                live.append(pool.alloc(64 * (1 + arg % 16)))
            elif kind == "tx_alloc":
                with pool.transaction() as tx:
                    live.append(pool.tx_alloc(tx, 64 * (1 + arg % 16)))
            elif live and kind == "free":
                pool.free(live.pop(arg % len(live)))
            elif live:
                with pool.transaction() as tx:
                    pool.tx_free(tx, live.pop(arg % len(live)))
        region.crash(survivor_prob, ctrl.rng)
    except CrashInjected:
        pass

    clean = check_pool(backing).ok
    media = backing.read(0, backing.size)
    reopened = PmemObjPool.open(backing)
    if clean:
        assert backing.read(0, backing.size) == media
    assert_heap_invariant(reopened.heap)
    assert check_pool(backing).ok
