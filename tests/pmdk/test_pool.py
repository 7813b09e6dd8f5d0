"""pmemobj pools: create/open, root, objects, header repair."""

import numpy as np
import pytest

from repro.errors import (
    AllocError,
    PmemError,
    PoolCorruptionError,
    PoolError,
    TransactionError,
)
from repro.pmdk.alloc import HEADER_SIZE, STATE_FREE, _pack_header
from repro.pmdk.check import check_pool
from repro.pmdk.oid import OID_NULL, PMEMoid
from repro.pmdk.pmem import VolatileRegion
from repro.pmdk.pool import (
    BACKUP_HEADER_OFF,
    METADATA_SIZE,
    PRIMARY_HEADER_OFF,
    PmemObjPool,
    _HDR_LEN,
    _Header,
)
from repro.pmdk.tx import CTRL_SIZE, ENTRY_HEADER


class TestCreateOpen:
    def test_create_sets_layout_and_uuid(self, pool):
        assert pool.layout == "test"
        assert len(pool.uuid) == 16 and pool.uuid != b"\x00" * 16

    def test_double_create_rejected(self, volatile_region):
        PmemObjPool.create(volatile_region, layout="one")
        with pytest.raises(PoolError):
            PmemObjPool.create(volatile_region, layout="two")

    def test_open_validates_layout(self, file_pool):
        pool, path = file_pool
        pool.close()
        with pytest.raises(PoolError):
            PmemObjPool.open(path, layout="wrong")

    def test_open_without_layout_accepts_any(self, file_pool):
        pool, path = file_pool
        pool.close()
        p2 = PmemObjPool.open(path)
        assert p2.layout == "test"
        p2.close()

    def test_too_small_region_rejected(self):
        with pytest.raises(PoolError):
            PmemObjPool.create(VolatileRegion(64 * 1024), layout="x")

    def test_file_pool_data_survives_reopen(self, file_pool):
        pool, path = file_pool
        oid = pool.alloc(128)
        pool.write(oid, b"persisted data")
        off = oid.offset
        pool.close()
        p2 = PmemObjPool.open(path, layout="test")
        oid2 = PMEMoid(p2.uuid, off)
        assert p2.read(oid2, 14) == b"persisted data"
        p2.close()

    def test_create_path_requires_size(self, tmp_path):
        with pytest.raises(PoolError):
            PmemObjPool.create(str(tmp_path / "p.pool"), layout="x")

    def test_create_refuses_a_pool_whose_primary_is_torn(self):
        region = VolatileRegion(1 << 20)
        pool = PmemObjPool.create(region, layout="torn")
        pool.write(pool.root(64), b"rooted")
        region.write(PRIMARY_HEADER_OFF + 8, b"\xff" * 8)
        before = region.read(0, region.size)
        with pytest.raises(PoolError, match="already contains a pool"):
            PmemObjPool.create(region)
        assert region.read(0, region.size) == before
        reopened = PmemObjPool.open(region)
        assert reopened.read(reopened.root_oid, 6) == b"rooted"

    @pytest.mark.parametrize("layout", ["\u20ac" * 30, "x" * 65],
                             ids=["multibyte", "ascii"])
    def test_layout_over_64_utf8_bytes_refused(self, layout):
        region = VolatileRegion(1 << 20)
        with pytest.raises(PoolError, match="64-byte limit"):
            PmemObjPool.create(region, layout=layout)
        assert region.read(0, region.size) == bytes(region.size)

    def test_layout_cut_mid_character_is_a_header_fault(self):
        """A pool whose stored layout is not valid UTF-8 (what storing
        ``"\u20ac" * 30`` cut at byte 64 leaves) is a corrupt header."""
        region = VolatileRegion(1 << 20)
        PmemObjPool.create(region, layout="short")
        hdr = _Header.unpack(region.read(PRIMARY_HEADER_OFF, _HDR_LEN))
        hdr.layout = "\u20ac" * 30      # packing keeps the first 64 bytes
        for off in (PRIMARY_HEADER_OFF, BACKUP_HEADER_OFF):
            region.write(off, hdr.pack())
        with pytest.raises(PoolCorruptionError, match="not valid UTF-8"):
            PmemObjPool.open(region)
        assert "primary header: pool layout is not valid UTF-8" in (
            check_pool(region).issues)


class TestObjects:
    def test_alloc_zeroes_by_default(self, pool):
        oid = pool.alloc(256)
        assert pool.read(oid, 256) == b"\x00" * 256

    def test_write_read_roundtrip(self, pool):
        oid = pool.alloc(64)
        pool.write(oid, b"value", offset=10)
        assert pool.read(oid, 5, offset=10) == b"value"

    def test_write_beyond_object_rejected(self, pool):
        oid = pool.alloc(64)
        with pytest.raises(PmemError):
            pool.write(oid, b"x" * 100)

    def test_foreign_oid_rejected(self, pool):
        alien = PMEMoid(b"\x01" * 16, 64)
        with pytest.raises(PmemError):
            pool.read(alien, 1)

    def test_null_oid_rejected(self, pool):
        with pytest.raises(PmemError):
            pool.direct(OID_NULL)

    def test_free_releases(self, pool):
        oid = pool.alloc(128)
        used = pool.used_bytes
        pool.free(oid)
        assert pool.used_bytes < used

    def test_size_of(self, pool):
        oid = pool.alloc(100)
        assert pool.size_of(oid) >= 100

    def test_direct_view_aliases(self, pool):
        oid = pool.alloc(64)
        v = pool.direct(oid)
        v[:3] = b"abc"
        assert pool.read(oid, 3) == b"abc"

    def test_np_view(self, pool):
        oid = pool.alloc(800)
        arr = pool.np_view(oid, "float64", 100)
        arr[:] = 7.5
        assert pool.read(oid, 8)[:8] == np.float64(7.5).tobytes()

    def test_np_view_bounds_checked(self, pool):
        oid = pool.alloc(80)
        with pytest.raises(PmemError):
            pool.np_view(oid, "float64", 100)

    def test_oid_not_naming_an_object_is_an_alloc_error(self):
        region = VolatileRegion(1 << 20)
        pool = PmemObjPool.create(region)
        inside = PMEMoid(pool.uuid, pool.alloc(256).offset + 64)
        before = region.read(0, region.size)
        for call in (pool.free, pool.read, pool.size_of, pool.direct,
                     lambda oid: pool.write(oid, b"x")):
            with pytest.raises(AllocError,
                               match="does not name an allocated object"):
                call(inside)
        assert region.read(0, region.size) == before


class TestRoot:
    def test_root_allocated_once(self, pool):
        r1 = pool.root(128)
        r2 = pool.root(128)
        assert r1 == r2

    def test_root_zeroed(self, pool):
        assert pool.read(pool.root(64), 64) == b"\x00" * 64

    def test_root_growth_rejected(self, pool):
        pool.root(64)
        with pytest.raises(PoolError):
            pool.root(1 << 20)

    def test_root_smaller_request_ok(self, pool):
        pool.root(128)
        assert pool.root(64) == pool.root_oid

    def test_root_oid_null_before_creation(self, pool):
        assert pool.root_oid.is_null

    def test_root_survives_reopen(self, file_pool):
        pool, path = file_pool
        root = pool.root(64)
        pool.write(root, b"rooted")
        pool.close()
        p2 = PmemObjPool.open(path)
        assert p2.read(p2.root(64), 6) == b"rooted"
        p2.close()

    def test_bad_root_size(self, pool):
        with pytest.raises(PoolError):
            pool.root(0)


class TestHeaderRedundancy:
    def test_torn_primary_restored_from_backup(self, file_pool):
        pool, path = file_pool
        oid = pool.alloc(64)
        pool.write(oid, b"survive")
        off = oid.offset
        pool.close()
        # tear the primary header
        from repro.pmdk.pmem import map_file
        r = map_file(path)
        r.write(PRIMARY_HEADER_OFF, b"\xde\xad" * 32)
        r.persist(0, 64)
        r.close()
        p2 = PmemObjPool.open(path)
        assert p2.read(PMEMoid(p2.uuid, off), 7) == b"survive"
        p2.close()

    def test_both_headers_torn_is_fatal(self, file_pool):
        pool, path = file_pool
        pool.close()
        from repro.pmdk.pmem import map_file
        r = map_file(path)
        r.write(PRIMARY_HEADER_OFF, b"\xde" * 64)
        r.write(BACKUP_HEADER_OFF, b"\xad" * 64)
        r.close()
        with pytest.raises(PoolCorruptionError):
            PmemObjPool.open(path)


class TestOpenIsTheRepairPath:
    """``open`` validates before its first write, then repairs; the
    read-only checker finds nothing left to report."""

    @staticmethod
    def _region() -> VolatileRegion:
        region = VolatileRegion(1 << 20)
        PmemObjPool.create(region, layout="repair")
        return region

    @staticmethod
    def _header(region, off=PRIMARY_HEADER_OFF) -> _Header:
        return _Header.unpack(region.read(off, _HDR_LEN))

    def test_torn_backup_restored(self):
        region = self._region()
        region.write(BACKUP_HEADER_OFF + 8, b"\xff" * 8)
        pool = PmemObjPool.open(region)
        assert (pool.last_recovery.header_repair
                == "backup header restored from primary")
        assert check_pool(region).issues == []

    def test_disagreeing_backup_rewritten_from_primary(self):
        region = self._region()
        primary = self._header(region)
        backup = self._header(region, BACKUP_HEADER_OFF)
        backup.root_size = 4096
        region.write(BACKUP_HEADER_OFF, backup.pack())
        assert "header copies disagree" in check_pool(region).issues
        pool = PmemObjPool.open(region)
        assert (pool.last_recovery.header_repair
                == "backup header rewritten from primary")
        assert check_pool(region).issues == []
        assert region.read(BACKUP_HEADER_OFF, _HDR_LEN) == primary.pack()

    @pytest.mark.parametrize("field, delta, message", [
        ("heap_size", 1 << 20, "heap geometry exceeds the pool"),
        ("log_offset", 64, "log geometry overlaps"),
    ], ids=["heap-past-the-region", "log-into-the-heap"])
    def test_bad_geometry_refused_without_writing(self, field, delta,
                                                  message):
        region = self._region()
        hdr = self._header(region)
        setattr(hdr, field, getattr(hdr, field) + delta)
        for off in (PRIMARY_HEADER_OFF, BACKUP_HEADER_OFF):
            region.write(off, hdr.pack())
        before = region.read(0, region.size)
        with pytest.raises(PoolCorruptionError, match=message):
            PmemObjPool.open(region)
        assert region.read(0, region.size) == before
        assert any(message in i for i in check_pool(region).issues)

    def test_fragmented_pool_opens_in_one_walk(self):
        """A pool whose objects carry FREE headers in place (what
        address-order frees that merge only forward leave) opens in one
        walk: at most two reads per chunk and a few header writes, to
        exactly the headers the checker names first."""
        reads = writes = 0

        class Counting(VolatileRegion):
            def read(self, offset, length):
                nonlocal reads
                reads += 1
                return super().read(offset, length)

            def write(self, offset, data):
                nonlocal writes
                writes += 1
                super().write(offset, data)

        region = Counting(1 << 20)
        pool = PmemObjPool.create(region)
        oids = pool.alloc_many(800, 64)
        for oid in oids[:-1]:
            info = pool.heap._read_header(oid.offset - HEADER_SIZE)
            region.write(info.offset, _pack_header(STATE_FREE, info.size,
                                                   info.prev_size))
        n_chunks = len(list(pool.heap.chunks()))
        issues = check_pool(region).issues
        assert issues == [
            f"chunk header at {oids[0].offset - HEADER_SIZE:#x} reads free "
            f"64 B (prev 0 B); recovery writes free {799 * 128 - 64} B "
            f"(prev 0 B)",
            f"chunk header at {oids[-1].offset - HEADER_SIZE:#x} reads "
            f"allocated 64 B (prev 64 B); recovery writes allocated 64 B "
            f"(prev {799 * 128 - 64} B)"]
        reads = writes = 0
        reopened = PmemObjPool.open(region)
        assert reads <= 2 * n_chunks + 32 and writes <= 4, (reads, writes)
        assert len(list(reopened.heap.chunks())) == 3
        assert check_pool(region).ok

    def test_corrupt_undo_log_refused_without_writing(self):
        region = VolatileRegion(1 << 20)
        pool = PmemObjPool.create(region)
        a, b, c = pool.alloc_many(3, 64)
        pool.free(a)
        pool.free(b)        # two adjacent free chunks: recovery merges them
        tx = pool.transaction()
        tx.begin()
        pool.tx_write(tx, c, b"mutation")
        # the process holding the transaction dies; one snapshot byte rots
        payload = METADATA_SIZE + CTRL_SIZE + ENTRY_HEADER
        region.write(payload, bytes([region.read(payload, 1)[0] ^ 0xFF]))
        before = region.read(0, region.size)
        with pytest.raises(TransactionError, match="failed its CRC"):
            PmemObjPool.open(region)
        assert region.read(0, region.size) == before


class TestLifecycle:
    def test_closed_pool_rejects_use(self, volatile_region):
        p = PmemObjPool.create(volatile_region, layout="x")
        p.close()
        with pytest.raises(PoolError):
            p.alloc(64)

    def test_close_with_active_tx_rejected(self, pool):
        tx = pool.transaction()
        tx.begin()
        with pytest.raises(PoolError):
            pool.close()
        tx.commit()
        pool.close()

    def test_context_manager(self, volatile_region):
        with PmemObjPool.create(volatile_region, layout="cm") as p:
            p.alloc(64)
        with pytest.raises(PoolError):
            p.alloc(64)

    def test_persistent_property_follows_region(self, pool, file_pool):
        assert not pool.persistent          # volatile backing
        assert file_pool[0].persistent      # file backing


class TestPoolTransactions:
    def test_tx_write_helper(self, pool):
        oid = pool.alloc(64)
        pool.write(oid, b"before")
        with pool.transaction() as tx:
            pool.tx_write(tx, oid, b"after!")
        assert pool.read(oid, 6) == b"after!"

    def test_tx_write_rolls_back(self, pool):
        oid = pool.alloc(64)
        pool.write(oid, b"before")
        with pytest.raises(RuntimeError):
            with pool.transaction() as tx:
                pool.tx_write(tx, oid, b"after!")
                raise RuntimeError
        assert pool.read(oid, 6) == b"before"

    def test_tx_alloc_and_free_helpers(self, pool):
        with pool.transaction() as tx:
            oid = pool.tx_alloc(tx, 128)
        assert pool.size_of(oid) == 128
        with pool.transaction() as tx:
            pool.tx_free(tx, oid)
        with pytest.raises(PmemError):
            pool.size_of(oid)

    def test_nested_transaction_object_reused(self, pool):
        t1 = pool.transaction()
        with t1:
            t2 = pool.transaction()
            assert t2 is t1

    def test_fresh_transaction_after_completion(self, pool):
        t1 = pool.transaction()
        with t1:
            pass
        t2 = pool.transaction()
        assert t2 is not t1


class _FailingFreeHeap:
    """Heap double: alloc succeeds a fixed number of times, then faults;
    every free also faults (models a heap the alloc fault left
    inconsistent)."""

    def __init__(self, real, alloc_budget):
        self._real = real
        self._budget = alloc_budget

    def alloc(self, size):
        if self._budget <= 0:
            from repro.errors import AllocError
            raise AllocError("injected alloc fault")
        self._budget -= 1
        return self._real.alloc(size)

    def free(self, off):
        raise RuntimeError("injected free fault")

    def __getattr__(self, name):
        return getattr(self._real, name)


class TestCleanupErrorMasking:
    def test_alloc_many_rollback_preserves_root_cause(self, pool):
        from repro.errors import AllocError

        pool._heap = _FailingFreeHeap(pool._heap, alloc_budget=2)
        # 2 allocations land, the 3rd faults; rollback frees then fault
        # too — but the surfaced error must be the allocation fault
        with pytest.raises(AllocError, match="injected alloc fault"):
            pool.alloc_many(4, 128)

    def test_create_failure_survives_failing_region_close(
            self, tmp_path, monkeypatch):
        import repro.pmdk.pool as pool_mod

        class _Region:
            size = 1024                       # far too small for a pool

            def read(self, off, length):
                raise PoolCorruptionError("unformatted")

            def close(self):
                raise RuntimeError("injected close fault")

        monkeypatch.setattr(pool_mod, "map_file",
                            lambda *a, **kw: _Region())
        with pytest.raises(PoolError, match="too small"):
            PmemObjPool.create(str(tmp_path / "x.pool"), size=1 << 20)
