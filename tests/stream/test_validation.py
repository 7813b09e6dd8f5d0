"""The checkSTREAMresults port."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ValidationError
from repro.stream.config import StreamConfig
from repro.stream.kernels import KERNELS, init_arrays
from repro.stream.validation import (
    _mean_abs_errors,
    check_stream_results,
    expected_values,
)


def _run_benchmark(cfg: StreamConfig):
    a = np.empty(cfg.array_size, dtype=cfg.np_dtype)
    b = np.empty_like(a)
    c = np.empty_like(a)
    init_arrays(a, b, c)
    for _ in range(cfg.ntimes):
        for k in KERNELS:
            KERNELS[k](a, b, c, cfg.scalar)
    return a, b, c


class TestExpectedValues:
    def test_scalar_evolution_matches_real_run(self):
        cfg = StreamConfig(array_size=100, ntimes=5)
        a, b, c = _run_benchmark(cfg)
        aj, bj, cj = expected_values(cfg)
        assert a[0] == pytest.approx(aj)
        assert b[0] == pytest.approx(bj)
        assert c[0] == pytest.approx(cj)

    def test_more_iterations_changes_expectations(self):
        e3 = expected_values(StreamConfig(array_size=16, ntimes=3))
        e4 = expected_values(StreamConfig(array_size=16, ntimes=4))
        assert e3 != e4


class TestCheck:
    def test_correct_run_passes(self):
        cfg = StreamConfig(array_size=1000, ntimes=4)
        a, b, c = _run_benchmark(cfg)
        check_stream_results(a, b, c, cfg)     # must not raise

    def test_corrupted_array_detected(self):
        cfg = StreamConfig(array_size=1000, ntimes=4)
        a, b, c = _run_benchmark(cfg)
        c[500] *= 1.5
        with pytest.raises(ValidationError) as exc:
            check_stream_results(a, b, c, cfg)
        assert "array c" in str(exc.value)

    def test_systematic_error_detected(self):
        cfg = StreamConfig(array_size=1000, ntimes=4)
        a, b, c = _run_benchmark(cfg)
        a += 1e-6
        with pytest.raises(ValidationError):
            check_stream_results(a, b, c, cfg)

    def test_wrong_length_detected(self):
        cfg = StreamConfig(array_size=1000, ntimes=4)
        a, b, c = _run_benchmark(cfg)
        with pytest.raises(ValidationError):
            check_stream_results(a[:999], b, c, cfg)

    def test_float32_uses_looser_epsilon(self):
        cfg = StreamConfig(array_size=500, ntimes=3, dtype="float32")
        a = np.empty(cfg.array_size, dtype=np.float32)
        b = np.empty_like(a)
        c = np.empty_like(a)
        init_arrays(a, b, c)
        for _ in range(cfg.ntimes):
            for k in KERNELS:
                KERNELS[k](a, b, c, cfg.scalar)
        check_stream_results(a, b, c, cfg)     # passes at 1e-6 epsilon


class TestNaN:
    """STREAM's ``avgErr > epsilon`` lets a NaN through; this port does
    not."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("where", ["one", "all"])
    @pytest.mark.parametrize("name", ["a", "b", "c"])
    def test_nan_anywhere_fails(self, name, where, dtype):
        cfg = StreamConfig(array_size=1000, ntimes=4, dtype=dtype)
        arrays = dict(zip("abc", _run_benchmark(cfg)))
        check_stream_results(*arrays.values(), cfg)
        if where == "one":
            arrays[name][617] = np.nan
        else:
            arrays[name][:] = np.nan
        with pytest.raises(ValidationError, match=f"array {name}: ") as exc:
            check_stream_results(*arrays.values(), cfg)
        assert str(exc.value).count("array ") == 1

    def test_zero_scalar_is_held_to_absolute_error(self):
        """With scalar 0 every expected value is 0 and a relative error
        would be 0/0: a correct run passes, a NaN still fails."""
        cfg = StreamConfig(array_size=1000, ntimes=4, scalar=0.0)
        a, b, c = _run_benchmark(cfg)
        assert expected_values(cfg) == (0.0, 0.0, 0.0)
        check_stream_results(a, b, c, cfg)
        b[3] = np.nan
        with pytest.raises(ValidationError, match="array b: "):
            check_stream_results(a, b, c, cfg)


def _arrays(dtype):
    return hnp.arrays(dtype, st.integers(16, 300),
                      elements=st.floats(-1e6, 1e6, width=8 * np.dtype(
                          dtype).itemsize, allow_nan=False))


@given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]),
       expected=st.tuples(*[st.floats(-1e6, 1e6, allow_nan=False)] * 3))
@settings(max_examples=150, deadline=None)
def test_buffered_errors_are_bit_identical(data, dtype, expected):
    """One scratch array gives ``np.abs(arr - expect).mean()`` exactly,
    dtype included, however the three arrays' lengths differ."""
    arrays = [data.draw(_arrays(dtype)) for _ in range(3)]
    got = _mean_abs_errors(arrays, expected)
    for arr, expect, err in zip(arrays, expected, got):
        want = np.abs(arr - expect).mean()
        assert err.dtype == want.dtype
        assert err.tobytes() == want.tobytes()
