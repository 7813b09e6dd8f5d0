"""Crash injection: store-buffer semantics and controller behaviour."""

import pytest

from repro.errors import CrashInjected, PmemError
from repro.pmdk.crash import CrashController, CrashRegion
from repro.pmdk.pmem import VolatileRegion


@pytest.fixture()
def backing() -> VolatileRegion:
    return VolatileRegion(64 * 1024)


@pytest.fixture()
def region(backing) -> CrashRegion:
    return CrashRegion(backing)


class TestStoreBuffer:
    def test_write_invisible_to_backing_until_persist(self, region, backing):
        region.write(128, b"buffered")
        assert backing.read(128, 8) == b"\x00" * 8
        region.persist(128, 8)
        assert backing.read(128, 8) == b"buffered"

    def test_read_own_writes(self, region):
        region.write(128, b"fresh")
        assert region.read(128, 5) == b"fresh"

    def test_read_mixes_shadow_and_backing(self, region, backing):
        backing.write(0, b"old-old-old-old-")
        region.write(4, b"NEW")
        assert region.read(0, 10) == b"old-NEW-ol"

    def test_persist_is_line_granular(self, region, backing):
        region.write(0, b"A" * 64)      # line 0
        region.write(64, b"B" * 64)     # line 1
        region.persist(0, 64)
        assert backing.read(0, 64) == b"A" * 64
        assert backing.read(64, 64) == b"\x00" * 64

    def test_dirty_lines_accounting(self, region):
        region.write(0, b"x")
        region.write(200, b"y")
        assert region.dirty_lines == 2
        region.persist(0, 1)
        assert region.dirty_lines == 1

    def test_flush_all(self, region, backing):
        region.write(0, b"a")
        region.write(1000, b"b")
        region.flush_all()
        assert region.dirty_lines == 0
        assert backing.read(1000, 1) == b"b"

    def test_views_unsupported(self, region):
        with pytest.raises(PmemError):
            region.view(0, 8)

    def test_size_and_persistence_delegate(self, region, backing):
        assert region.size == backing.size
        assert region.persistent == backing.persistent


class TestCrash:
    def test_crash_drops_unflushed(self, region, backing):
        region.write(0, b"durable!")
        region.persist(0, 8)
        region.write(64, b"volatile")
        lost = region.crash()
        assert lost == 1
        assert backing.read(0, 8) == b"durable!"
        assert backing.read(64, 8) == b"\x00" * 8

    def test_crashed_region_refuses_use(self, region):
        region.crash()
        with pytest.raises(PmemError):
            region.read(0, 1)
        with pytest.raises(PmemError):
            region.write(0, b"x")

    def test_survivor_probability_one_keeps_everything(self, backing):
        region = CrashRegion(backing)
        region.write(0, b"lucky")
        lost = region.crash(survivor_prob=1.0)
        assert lost == 0
        assert backing.read(0, 5) == b"lucky"

    def test_deterministic_survivors(self):
        import random
        losses = []
        for _ in range(2):
            backing = VolatileRegion(64 * 1024)
            region = CrashRegion(backing)
            for i in range(50):
                region.write(i * 64, bytes([i]) * 64)
            losses.append(region.crash(0.5, random.Random(99)))
        assert losses[0] == losses[1]

    def test_close_without_crash_flushes(self, backing):
        region = CrashRegion(backing)
        region.write(0, b"flushed-on-close")
        region.close()
        assert backing.read(0, 16) == b"flushed-on-close"


class TestController:
    def test_record_only_counts(self, backing):
        ctrl = CrashController()
        region = CrashRegion(backing, ctrl)
        region.write(0, b"x")
        region.persist(0, 1)
        region.persist(0, 1)
        assert ctrl.op_count == 2

    def test_crash_at_nth_persist(self, backing):
        ctrl = CrashController(crash_at=2)
        region = CrashRegion(backing, ctrl)
        region.write(0, b"first")
        region.persist(0, 5)                 # persist #1 — succeeds
        region.write(64, b"second")
        with pytest.raises(CrashInjected):
            region.persist(64, 6)            # persist #2 — crash wins
        assert backing.read(0, 5) == b"first"
        assert backing.read(64, 6) == b"\x00" * 6

    def test_injection_before_flush_effect(self, backing):
        # the crash beats the flush: the persisted range itself is lost
        ctrl = CrashController(crash_at=1)
        region = CrashRegion(backing, ctrl)
        region.write(0, b"too-late")
        with pytest.raises(CrashInjected):
            region.persist(0, 8)
        assert backing.read(0, 8) == b"\x00" * 8

    def test_write_ops_countable(self, backing):
        ctrl = CrashController(crash_at=3, ops=("write",))
        region = CrashRegion(backing, ctrl)
        region.write(0, b"1")
        region.write(0, b"2")
        with pytest.raises(CrashInjected):
            region.write(0, b"3")

    def test_validation(self):
        with pytest.raises(PmemError):
            CrashController(crash_at=0)
        with pytest.raises(PmemError):
            CrashController(survivor_prob=2.0)
