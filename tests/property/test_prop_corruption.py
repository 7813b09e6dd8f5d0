"""Fuzz: arbitrary corruption never escapes the error taxonomy.

A production persistence stack must fail *cleanly* on damaged media:
``open`` either succeeds or raises a :class:`repro.errors.ReproError`
subclass, and ``check_pool`` always returns a report — no stray
``struct.error``, ``KeyError``, ``UnicodeDecodeError`` or assertion can
escape, no matter which bytes rotted.  A read-only check, and an open
that refuses the pool, write nothing.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.pmdk.check import check_pool
from repro.pmdk.containers import PersistentArray
from repro.pmdk.pmem import VolatileRegion
from repro.pmdk.pmemblk import PmemBlk
from repro.pmdk.pmemlog import PmemLog
from repro.pmdk.pool import PmemObjPool

POOL = 1 << 20

_corruptions = st.lists(
    st.tuples(st.integers(0, POOL - 1), st.integers(0, 255)),
    min_size=1, max_size=64,
)


def _healthy_pool_region() -> VolatileRegion:
    region = VolatileRegion(POOL)
    pool = PmemObjPool.create(region, layout="fuzz")
    arr = PersistentArray.create(pool, 64, "float64")
    arr.write(np.arange(64.0))
    with pool.transaction() as tx:
        arr.write(np.arange(64.0) * 2, tx=tx)
    return region


def _corrupt(region: VolatileRegion, spots) -> None:
    for offset, value in spots:
        region.write(offset, bytes([value]))


@given(_corruptions)
@settings(max_examples=80, deadline=None)
def test_pool_open_fails_cleanly_or_succeeds(spots):
    region = _healthy_pool_region()
    _corrupt(region, spots)
    try:
        pool = PmemObjPool.open(region)
        # if it opened, basic operations must also stay in-taxonomy
        try:
            pool.alloc(64)
        except ReproError:
            pass
    except ReproError:
        pass           # clean, typed failure — acceptable


@given(_corruptions)
@settings(max_examples=80, deadline=None)
def test_check_pool_always_returns_a_report(spots):
    region = _healthy_pool_region()
    _corrupt(region, spots)
    try:
        report = check_pool(region)
    except ReproError:
        return         # acceptable: damage beyond diagnosis
    assert isinstance(report.ok, bool)
    assert isinstance(report.issues, list)


@given(_corruptions)
@settings(max_examples=80, deadline=None)
def test_check_repair_never_crashes(spots):
    region = _healthy_pool_region()
    _corrupt(region, spots)
    try:
        check_pool(region, repair=True)
    except ReproError:
        pass


@given(_corruptions)
@settings(max_examples=80, deadline=None)
def test_check_and_refused_open_write_nothing(spots):
    # recovery of this pool would write: two adjacent free chunks to
    # merge and an interrupted transaction to roll back
    region = VolatileRegion(POOL)
    pool = PmemObjPool.create(region, layout="fuzz")
    arr = PersistentArray.create(pool, 64, "float64")
    a, b, _ = pool.alloc_many(3, 64)
    pool.free(a)
    pool.free(b)
    tx = pool.transaction()
    tx.begin()
    arr.write(np.arange(64.0), tx=tx)
    _corrupt(region, spots)
    before = region.read(0, POOL)
    check_pool(region)
    assert region.read(0, POOL) == before
    try:
        PmemObjPool.open(region)
    except ReproError:
        assert region.read(0, POOL) == before


@given(_corruptions)
@settings(max_examples=60, deadline=None)
def test_pmemlog_open_and_walk_fail_cleanly(spots):
    region = VolatileRegion(POOL)
    log = PmemLog.create(region)
    for i in range(10):
        log.append(f"record {i}".encode())
    _corrupt(region, spots)
    try:
        reopened = PmemLog.open(region)
        reopened.walk()
    except ReproError:
        pass


@given(_corruptions)
@settings(max_examples=60, deadline=None)
def test_pmemblk_open_and_read_fail_cleanly(spots):
    region = VolatileRegion(POOL)
    blk = PmemBlk.create(region, 512)
    for i in range(min(8, blk.nblock)):
        blk.write(i, bytes([i]) * 512)
    _corrupt(region, spots)
    try:
        reopened = PmemBlk.open(region)
        for i in range(reopened.nblock):
            reopened.read(i)
    except ReproError:
        pass


_lsa_payloads = st.one_of(
    st.binary(max_size=200),
    st.text(max_size=120).map(lambda t: t.encode("utf-8", "ignore")),
    st.sampled_from([
        b"[1,2,3]", b"123", b'"str"', b"{}",
        b'{"version":1,"namespaces":[{"name":1}]}',
        b'{"version":1,"namespaces":{"a":1}}',
        b'{"version":1,"namespaces":[[1,2]]}',
        b'{"version":1,"namespaces":[{"name":"x","base":"y","size":"z"}]}',
        b'{"version":1,"namespaces":[{"name":"x","base":-5,"size":0}]}',
    ]),
)


@given(_lsa_payloads)
@settings(max_examples=120, deadline=None)
def test_lsa_labels_fail_cleanly(payload):
    """Arbitrary LSA contents: read_labels returns labels or raises a
    typed CxlError — the label index is torn-write territory."""
    from repro.core.namespace import read_labels
    from repro.cxl.mailbox import MailboxOpcode
    from repro.machine.presets import setup1

    dev = setup1().cxl_devices[0]
    dev.mailbox.execute(MailboxOpcode.SET_LSA,
                        {"offset": 0, "data": payload.ljust(4096, b"\x00")})
    try:
        labels = read_labels(dev)
        assert isinstance(labels, list)
    except ReproError:
        pass


@given(_corruptions)
@settings(max_examples=60, deadline=None)
def test_checkpoint_catalog_fails_cleanly(spots):
    from repro.workloads.checkpoint import CheckpointManager

    region = VolatileRegion(POOL)
    pool = PmemObjPool.create(region, layout="ckpt-fuzz")
    cm = CheckpointManager(pool)
    cm.save("state", {"u": np.zeros(32)}, step=1)
    _corrupt(region, spots)
    try:
        pool2 = PmemObjPool.open(region)
        cm2 = CheckpointManager(pool2)
        cm2.list_checkpoints()
        if dict(cm2.list_checkpoints()).get("state") is not None:
            cm2.load("state")
    except ReproError:
        pass


@given(_corruptions)
@settings(max_examples=60, deadline=None)
def test_file_store_fails_cleanly(spots):
    from repro.pmdk.fs import PmemFileStore

    region = VolatileRegion(POOL)
    pool = PmemObjPool.create(region, layout="fs-fuzz")
    fs = PmemFileStore(pool)
    fs.write("victim", b"payload")
    _corrupt(region, spots)
    try:
        pool2 = PmemObjPool.open(region)
        fs2 = PmemFileStore(pool2)
        for name in fs2.listdir():
            fs2.read(name)
    except ReproError:
        pass
