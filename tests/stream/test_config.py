"""STREAM configuration."""

import pytest

from repro.errors import BenchmarkError
from repro.stream.config import PAPER_ARRAY_SIZE, StreamConfig


class TestDefaults:
    def test_paper_config(self):
        cfg = StreamConfig.paper()
        assert cfg.array_size == PAPER_ARRAY_SIZE == 100_000_000
        assert cfg.ntimes == 10
        assert cfg.dtype == "float64"
        assert cfg.scalar == 3.0

    def test_paper_working_set_is_2_4_gb(self):
        assert StreamConfig.paper().working_set_bytes == 2_400_000_000

    def test_element_bytes(self):
        assert StreamConfig(dtype="float64").element_bytes == 8
        assert StreamConfig(dtype="float32").element_bytes == 4


class TestCountedBytes:
    @pytest.mark.parametrize("kernel,factor", [
        ("copy", 2), ("scale", 2), ("add", 3), ("triad", 3),
    ])
    def test_stream_formula(self, kernel, factor):
        for dtype, width in (("float64", 8), ("float32", 4)):
            cfg = StreamConfig(array_size=1000, dtype=dtype)
            assert cfg.counted_bytes(kernel) == factor * 1000 * width

    def test_unknown_kernel(self):
        with pytest.raises(BenchmarkError):
            StreamConfig().counted_bytes("fft")


class TestValidation:
    def test_minimum_array(self):
        with pytest.raises(BenchmarkError):
            StreamConfig(array_size=8)

    def test_ntimes_minimum(self):
        with pytest.raises(BenchmarkError):
            StreamConfig(ntimes=1)

    def test_float_type_required(self):
        with pytest.raises(BenchmarkError):
            StreamConfig(dtype="int64")

    def test_negative_offset(self):
        with pytest.raises(BenchmarkError):
            StreamConfig(offset=-1)

    def test_describe(self):
        assert "ntimes=10" in StreamConfig().describe()
