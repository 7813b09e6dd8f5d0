"""Dirty-line tracking: interval set, tracker, coalescing, flush counts."""

import numpy as np
import pytest

from repro.errors import PmemError
from repro.pmdk.dirty import (
    DirtyTracker,
    _IntervalSet,
    coalesce_ranges,
    line_count,
)
from repro.pmdk.pmem import FLUSH_LINE, FileRegion, VolatileRegion


class TestLineCount:
    def test_empty(self):
        assert line_count(0, 0) == 0
        assert line_count(100, -5) == 0

    def test_single_byte(self):
        assert line_count(0, 1) == 1
        assert line_count(63, 1) == 1

    def test_straddles_boundary(self):
        assert line_count(63, 2) == 2

    def test_exact_lines(self):
        assert line_count(0, 64) == 1
        assert line_count(64, 128) == 2

    def test_unaligned_span(self):
        # bytes [60, 200) touch lines 0, 1, 2, 3
        assert line_count(60, 140) == 4


class TestIntervalSet:
    def test_add_disjoint(self):
        s = _IntervalSet()
        s.add(0, 64)
        s.add(128, 192)
        assert s.spans() == [(0, 64), (128, 64)]

    def test_add_adjacent_merges(self):
        s = _IntervalSet()
        s.add(0, 64)
        s.add(64, 128)
        assert s.spans() == [(0, 128)]

    def test_add_overlapping_merges(self):
        s = _IntervalSet()
        s.add(0, 100)
        s.add(50, 200)
        assert s.spans() == [(0, 200)]

    def test_add_bridges_many(self):
        s = _IntervalSet()
        s.add(0, 10)
        s.add(20, 30)
        s.add(40, 50)
        s.add(5, 45)
        assert s.spans() == [(0, 50)]

    def test_add_contained_is_noop(self):
        s = _IntervalSet()
        s.add(0, 100)
        s.add(10, 20)
        assert s.spans() == [(0, 100)]

    def test_remove_interior_splits(self):
        s = _IntervalSet()
        s.add(0, 100)
        s.remove(30, 60)
        assert s.spans() == [(0, 30), (60, 40)]

    def test_remove_straddling_edges(self):
        s = _IntervalSet()
        s.add(20, 80)
        s.remove(0, 30)
        s.remove(70, 100)
        assert s.spans() == [(30, 40)]

    def test_remove_between_intervals_is_noop(self):
        s = _IntervalSet()
        s.add(0, 10)
        s.add(50, 60)
        s.remove(20, 40)
        assert s.spans() == [(0, 10), (50, 10)]

    def test_remove_everything(self):
        s = _IntervalSet()
        s.add(0, 10)
        s.add(50, 60)
        s.remove(0, 60)
        assert s.spans() == []
        assert not s

    def test_total(self):
        s = _IntervalSet()
        s.add(0, 64)
        s.add(128, 256)
        assert s.total == 64 + 128

    def test_union_spans(self):
        a = _IntervalSet()
        a.add(0, 64)
        b = _IntervalSet()
        b.add(64, 128)
        b.add(256, 320)
        assert a.union_spans(b) == [(0, 128), (256, 64)]
        # union does not mutate either operand
        assert a.spans() == [(0, 64)]
        assert b.spans() == [(64, 64), (256, 64)]


class TestDirtyTracker:
    def test_mark_aligns_outward(self):
        t = DirtyTracker(4096)
        t.mark(70, 10)
        assert t.transient_spans() == [(64, 64)]

    def test_mark_clamps_to_region(self):
        t = DirtyTracker(100)
        t.mark(96, 50)
        assert t.transient_spans() == [(64, 36)]

    def test_take_clears_transient(self):
        t = DirtyTracker(4096)
        t.mark(0, 1)
        assert t.take() == [(0, 64)]
        assert t.take() == []

    def test_pin_survives_take(self):
        t = DirtyTracker(4096)
        t.pin(128, 64)
        assert t.take() == [(128, 64)]
        assert t.take() == [(128, 64)]

    def test_take_merges_pins_and_dirt(self):
        t = DirtyTracker(4096)
        t.pin(0, 64)
        t.mark(64, 64)
        assert t.take() == [(0, 128)]
        assert t.take() == [(0, 64)]

    def test_discard_drops_covered_lines(self):
        t = DirtyTracker(4096)
        t.mark(0, 256)
        t.discard(64, 128)
        assert t.transient_spans() == [(0, 64), (192, 64)]

    def test_discard_keeps_partial_boundary_lines(self):
        t = DirtyTracker(4096)
        t.mark(0, 128)
        t.discard(10, 100)   # fully covers no line: both stay tracked
        assert t.transient_spans() == [(0, 128)]
        t.discard(0, 128)    # now both lines are wholly covered
        assert t.transient_spans() == []

    def test_discard_region_tail(self):
        t = DirtyTracker(100)
        t.mark(64, 36)
        t.discard(64, 36)    # the 36-byte tail counts as a full line
        assert t.transient_spans() == []

    def test_discard_never_touches_pins(self):
        t = DirtyTracker(4096)
        t.pin(0, 4096)
        t.discard(0, 4096)
        assert t.pinned_spans() == [(0, 4096)]

    def test_dirty_accounting(self):
        t = DirtyTracker(4096)
        t.mark(0, 65)
        assert t.dirty_bytes == 128
        assert t.dirty_lines == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            DirtyTracker(0)
        with pytest.raises(ValueError):
            DirtyTracker(64, line=0)


class TestCoalesceRanges:
    def test_merges_and_aligns(self):
        got = coalesce_ranges([(70, 10), (100, 28), (256, 64)])
        assert got == [(64, 64), (256, 64)]

    def test_skips_empty(self):
        assert coalesce_ranges([(0, 0), (10, -1)]) == []

    def test_bound_clamps(self):
        assert coalesce_ranges([(0, 1000)], bound=100) == [(0, 100)]

    def test_unsorted_input(self):
        got = coalesce_ranges([(256, 1), (0, 1), (64, 1)])
        assert got == [(0, 128), (256, 64)]


class TestRegionDirtyIntegration:
    def test_no_arg_persist_flushes_only_dirty_lines(self):
        r = VolatileRegion(4096)
        r.write(0, b"x")
        r.write(300, b"y" * 10)
        before = r.flush_count
        r.persist()
        assert r.flush_count - before == 2   # lines 0 and 4
        r.persist()
        assert r.flush_count - before == 2   # nothing left to flush

    def test_ranged_persist_counts_lines(self):
        r = VolatileRegion(4096)
        r.write(0, b"a" * 130)
        before = r.flush_count
        r.persist(0, 130)
        assert r.flush_count - before == 3

    def test_ranged_persist_discards_covered_dirt(self):
        r = VolatileRegion(4096)
        r.write(0, b"a" * 128)
        r.persist(0, 128)
        assert r.dirty_bytes == 0

    def test_view_pins_range(self):
        r = VolatileRegion(4096)
        mv = r.view(128, 64)
        mv[0] = 7
        before = r.flush_count
        r.persist()
        assert r.flush_count - before == 1
        # the pin keeps the viewed line in every later no-arg persist
        r.persist()
        assert r.flush_count - before == 2

    def test_persist_rejects_offset_without_length(self):
        r = VolatileRegion(4096)
        with pytest.raises(PmemError):
            r.persist(0)
        with pytest.raises(PmemError):
            r.persist(length=64)

    def test_zero_chunked(self):
        r = VolatileRegion(4096)
        r.write(0, b"\xff" * 4096)
        r.zero(64, 200)
        assert r.read(64, 200) == b"\x00" * 200
        assert r.read(0, 64) == b"\xff" * 64

    def test_file_region_dirty_flush(self, tmp_path):
        r = FileRegion(str(tmp_path / "d.pmem"), 8192, create=True)
        try:
            r.write(100, b"hello")
            before = r.flush_count
            r.persist()
            assert r.flush_count - before == 1
            assert r.read(100, 5) == b"hello"
        finally:
            r.close()


class TestFastPersistToggle:
    def test_flush_count_is_read_only(self):
        r = VolatileRegion(4096)
        with pytest.raises(AttributeError):
            r.flush_count = 5


class TestStreamFlushesReporting:
    def test_every_backend_reports_real_flushes(self):
        # flush_count is an ABC property now; no backend can silently
        # report 0 through a getattr fallback
        from repro.pmdk.crash import CrashRegion

        backing = VolatileRegion(64 * 1024)
        crash = CrashRegion(backing)
        crash.write(0, b"z")
        crash.persist(0, 1)
        assert crash.flush_count == 1

    def test_cxl_region_flush_count(self):
        from repro.core.runtime import CxlPmemRuntime
        from repro.machine.presets import setup1

        runtime = CxlPmemRuntime(setup1().host_bridges)
        ns = runtime.create_namespace("cxl0", "fc-test", 1 << 20)
        region = ns.region()
        region.write(0, b"q" * 65)
        before = region.flush_count
        region.persist()
        assert region.flush_count - before == 2
