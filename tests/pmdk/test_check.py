"""Pool checking and repair (pmempool check equivalent)."""

import re
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import TransactionError
from repro.pmdk.alloc import (
    HEADER_SIZE,
    STATE_ALLOCATING,
    STATE_FREE,
    STATE_FREEING,
    _pack_header,
)
from repro.pmdk.check import check_pool
from repro.pmdk.containers import PersistentArray
from repro.pmdk.pmem import VolatileRegion
from repro.pmdk.pool import (
    BACKUP_HEADER_OFF,
    METADATA_SIZE,
    PRIMARY_HEADER_OFF,
    PmemObjPool,
)
from repro.pmdk.tx import CTRL_SIZE


class TestHealthyPool:
    def test_fresh_pool_is_consistent(self, pool):
        report = check_pool(pool.region)
        assert report.ok
        assert report.issues == []
        assert report.n_chunks >= 1

    def test_stats_reflect_allocations(self, pool):
        pool.alloc(1000)
        report = check_pool(pool.region)
        assert report.allocated_bytes >= 1000
        assert report.free_bytes > 0

    def test_root_reported(self, pool):
        assert not check_pool(pool.region).root_present
        pool.root(64)
        assert check_pool(pool.region).root_present

    def test_summary_text(self, pool):
        text = check_pool(pool.region).summary()
        assert "consistent" in text and "chunks" in text


class TestDamage:
    def test_no_pool_at_all(self):
        report = check_pool(VolatileRegion(1 << 20))
        assert not report.ok
        assert any("header" in i for i in report.issues)

    def test_torn_primary_detected_and_repaired(self, pool):
        region = pool.region
        region.write(PRIMARY_HEADER_OFF, b"\xff" * 64)
        report = check_pool(region, repair=False)
        assert any("primary header" in i for i in report.issues)
        fixed = check_pool(region, repair=True)
        assert any("restored from backup" in r for r in fixed.repairs)
        assert check_pool(region).ok

    def test_torn_backup_repaired_from_primary(self, pool):
        region = pool.region
        region.write(BACKUP_HEADER_OFF, b"\xff" * 64)
        fixed = check_pool(region, repair=True)
        assert any("backup header restored" in r for r in fixed.repairs)
        assert check_pool(region).issues == []

    def test_pending_tx_reported(self, pool):
        oid = pool.alloc(64)
        tx = pool.transaction()
        tx.begin()
        tx.add_range(oid.offset, 8)
        report = check_pool(pool.region)
        assert report.pending_tx
        assert any("interrupted transaction" in i for i in report.issues)
        tx.commit()

    def test_pending_tx_repaired(self, pool):
        oid = pool.alloc(64)
        pool.write(oid, b"original")
        tx = pool.transaction()
        tx.begin()
        pool.tx_write(tx, oid, b"mutation")
        # abandon the transaction (simulated crash), then repair
        tx._depth = 0          # the "process" holding it died
        tx._aborted = True
        report = check_pool(pool.region, repair=True)
        assert any("rolled_back" in r for r in report.repairs)
        assert pool.read(oid, 8) == b"original"
        after = check_pool(pool.region)
        assert not after.pending_tx

    def test_log_entry_overrunning_the_log_reported(self):
        region = VolatileRegion(1 << 20)
        pool = PmemObjPool.create(region)
        oid = pool.alloc(64)
        tx = pool.transaction()
        tx.begin()
        pool.tx_write(tx, oid, b"mutation")
        # one rotten byte in the high half of the first entry's length
        region.write(METADATA_SIZE + CTRL_SIZE + 20, b"\x5a")
        before = region.read(0, region.size)
        report = check_pool(region)
        assert not report.ok
        assert any(i.startswith("transaction log:") and "overruns the log" in i
                   for i in report.issues)
        with pytest.raises(TransactionError, match="overruns the log"):
            PmemObjPool.open(region)
        assert region.read(0, region.size) == before


class TestRealWorkloadThenCheck:
    def test_pool_with_arrays_checks_clean(self, pool):
        import numpy as np
        for _ in range(5):
            pa = PersistentArray.create(pool, 64, "float64")
            pa.write(np.random.default_rng(1).standard_normal(64))
        report = check_pool(pool.region)
        assert report.ok
        assert report.n_chunks >= 5

    def test_check_does_not_mutate_without_repair(self, pool):
        pool.alloc(64)
        before = pool.region.read(0, 4096)
        check_pool(pool.region, repair=False)
        assert pool.region.read(0, 4096) == before


def _rewrite_header(pool, oid, **fields) -> int:
    """Rewrite the chunk header of ``oid`` in place; returns its offset."""
    info = replace(pool.heap._read_header(oid.offset - HEADER_SIZE),
                   **fields)
    pool.region.write(info.offset, _pack_header(info.state, info.size,
                                                info.prev_size))
    return info.offset


class TestHeapIssues:
    """``check_pool`` reports exactly the chunk headers ``open`` then
    rewrites, so a pool it calls clean is one ``open`` leaves as is."""

    @pytest.mark.parametrize("damage", [
        "adjacent-free", "stale-prev-size", "allocating", "freeing"])
    def test_check_names_the_headers_open_rewrites(self, damage):
        region = VolatileRegion(1 << 20)
        pool = PmemObjPool.create(region)
        a, b, c = pool.alloc_many(3, 64)
        if damage == "adjacent-free":    # what a forward-only free leaves
            _rewrite_header(pool, a, state=STATE_FREE)
            _rewrite_header(pool, b, state=STATE_FREE)
            expected = {a.offset - HEADER_SIZE, c.offset - HEADER_SIZE}
        else:
            fields = {"stale-prev-size": {"prev_size": 128},
                      "allocating": {"state": STATE_ALLOCATING},
                      "freeing": {"state": STATE_FREEING}}[damage]
            expected = {_rewrite_header(pool, b, **fields)}
        report = check_pool(region)
        named = {int(m, 16) for m in re.findall(
            r"chunk header at (0x[0-9a-f]+)", "\n".join(report.issues))}
        assert named == expected, report.summary()

        before = np.frombuffer(region.read(0, region.size), np.uint8)
        rec = PmemObjPool.open(region).last_recovery
        after = np.frombuffer(region.read(0, region.size), np.uint8)
        changed = np.flatnonzero(before != after)
        assert set(changed // HEADER_SIZE * HEADER_SIZE) == expected
        assert rec.heap_headers_rewritten == len(expected)
        assert check_pool(region).ok
