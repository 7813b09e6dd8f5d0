"""Unit tests for the vectorized heat tracker (dispatch + semantics)."""

import numpy as np
import pytest

from repro import compiled
from repro.errors import TieringError
from repro.tiering.heat import (
    HEAT_BACKENDS,
    HEAT_VECTORIZE_THRESHOLD,
    HeatTracker,
)


class TestConstruction:
    def test_rejects_empty_footprint(self):
        with pytest.raises(TieringError, match="at least one page"):
            HeatTracker(0)

    @pytest.mark.parametrize("decay", [-0.1, 1.0, 1.5])
    def test_rejects_decay_outside_unit_interval(self, decay):
        with pytest.raises(TieringError, match="decay"):
            HeatTracker(16, decay=decay)

    def test_rejects_unknown_backend(self):
        for backend in ("gpu", "compiled"):
            with pytest.raises(TieringError, match="unknown heat backend"):
                HeatTracker(16, backend=backend)

    def test_backend_registry_is_closed(self):
        assert HEAT_BACKENDS == ("auto", "scalar", "vector")


class TestDispatch:
    def test_auto_picks_scalar_below_threshold(self):
        t = HeatTracker(HEAT_VECTORIZE_THRESHOLD - 1)
        assert t.resolve_backend() == "scalar"

    def test_auto_picks_vector_at_threshold(self):
        t = HeatTracker(HEAT_VECTORIZE_THRESHOLD)
        assert t.resolve_backend() == "vector"

    def test_explicit_backends_win_over_size(self):
        assert HeatTracker(4, backend="vector").resolve_backend() == "vector"
        assert HeatTracker(10_000,
                           backend="scalar").resolve_backend() == "scalar"

    def test_global_compiled_override_resolves_to_vector(self, monkeypatch):
        monkeypatch.setattr(compiled, "backend_override", lambda: "compiled")
        assert HeatTracker(4).resolve_backend() == "vector"

    def test_auto_honours_global_backend_override(self, monkeypatch):
        monkeypatch.setattr(compiled, "backend_override", lambda: "scalar")
        t = HeatTracker(10_000)    # auto, well past the threshold
        assert t.resolve_backend() == "scalar"


class TestRecord:
    def test_rejects_2d_batch(self):
        with pytest.raises(TieringError, match="1-D"):
            HeatTracker(8).record(np.zeros((2, 2), dtype=np.int64))

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(TieringError, match="page ids"):
            HeatTracker(8).record([0, 8])
        with pytest.raises(TieringError, match="page ids"):
            HeatTracker(8).record([-1])

    def test_empty_batch_is_a_noop(self):
        t = HeatTracker(8)
        t.record(np.empty(0, dtype=np.int64))
        assert t.total_accesses == 0

    def test_accepts_any_integer_array_like(self):
        t = HeatTracker(8, backend="vector")
        t.record([1, 1, 3])
        t.record(np.array([3], dtype=np.int32))
        counts = t.end_epoch()
        assert counts.tolist() == [0, 2, 0, 2, 0, 0, 0, 0]


class TestEpochFold:
    def test_decay_fold_is_geometric(self):
        t = HeatTracker(4, decay=0.5, backend="vector")
        t.record([0, 0, 1])
        t.end_epoch()
        t.record([1])
        t.end_epoch()
        # page 0: 2*0.5 = 1; page 1: 1*0.5 + 1 = 1.5
        assert t.heat.tolist() == [1.0, 1.5, 0.0, 0.0]

    def test_end_epoch_returns_copy_and_zeroes_accumulator(self):
        t = HeatTracker(4, backend="vector")
        t.record([2])
        counts = t.end_epoch()
        assert counts.tolist() == [0, 0, 1, 0]
        counts[0] = 99                       # caller's copy, not internal
        assert t.end_epoch().tolist() == [0, 0, 0, 0]
        assert t.epoch == 2

    def test_zero_decay_forgets_instantly(self):
        t = HeatTracker(4, decay=0.0, backend="scalar")
        t.record([0, 0, 0])
        t.end_epoch()
        t.end_epoch()
        assert t.heat.tolist() == [0.0, 0.0, 0.0, 0.0]


class TestQueries:
    def test_hottest_orders_by_heat_then_page_id(self):
        t = HeatTracker(6, backend="vector")
        t.record([5, 5, 5, 2, 2, 4, 4, 0])
        t.end_epoch()
        # heat: 5→3, {2,4}→2 (tie → lower id first), 0→1
        assert t.hottest(4).tolist() == [5, 2, 4, 0]

    def test_hottest_clamps_k(self):
        t = HeatTracker(4)
        assert t.hottest(0).size == 0
        assert t.hottest(-3).size == 0
        assert t.hottest(100).size == 4

    def test_describe_names_the_resolved_backend(self):
        t = HeatTracker(4)
        assert "backend scalar" in t.describe()
