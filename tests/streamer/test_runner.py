"""Sweep runner."""

import os

import pytest

from repro.errors import BenchmarkError
from repro.stream.config import StreamConfig
from repro.streamer.runner import StreamerRunner

CFG = StreamConfig(array_size=5_000_000, ntimes=3)


@pytest.fixture(scope="module")
def runner() -> StreamerRunner:
    return StreamerRunner(config=CFG)


class TestRunGroup:
    def test_group_1a_record_count(self, runner):
        rs = runner.run_group("1a", kernels=("triad",))
        # 2 series x 10 thread counts
        assert len(rs) == 20

    def test_group_accepts_object(self, runner):
        g = runner.groups["2a"]
        rs = runner.run_group(g, kernels=("copy",))
        assert rs.groups() == ["2a"]

    def test_unknown_group_rejected(self, runner):
        with pytest.raises(BenchmarkError):
            runner.run_group("9z")

    def test_records_carry_metadata(self, runner):
        rs = runner.run_group("1b", kernels=("triad",))
        rec = next(iter(rs))
        assert rec.mode in ("pmem", "numa")
        assert rec.testbed in ("setup1", "setup2")
        assert rec.label


class TestRunAll:
    def test_full_matrix(self, runner):
        rs = runner.run_all(kernels=("triad",))
        assert rs.groups() == ["1a", "1b", "1c", "2a", "2b"]
        # 1a:2, 1b:3, 2a:3 series x10 + 1c:4, 2b:3 series x20
        assert len(rs) == (2 + 3 + 3) * 10 + (4 + 3) * 20

    def test_run_figure_selects_kernel(self, runner):
        rs = runner.run_figure(8)
        assert rs.kernels() == ["triad"]
        rs5 = runner.run_figure(5)
        assert rs5.kernels() == ["scale"]

    def test_bad_figure_rejected(self, runner):
        with pytest.raises(BenchmarkError):
            runner.run_figure(4)

    def test_missing_testbed_detected(self):
        r = StreamerRunner(testbeds={}, config=CFG)
        with pytest.raises(BenchmarkError):
            r.run_group("1a")


class TestKernelNames:
    def test_unknown_kernel_rejected_before_any_task(self, runner,
                                                     monkeypatch):
        from repro.streamer import runner as runner_mod

        ran = []
        monkeypatch.setattr(runner_mod, "run_task",
                            lambda *args, **kw: ran.append(args))
        with pytest.raises(BenchmarkError, match="'fft'.*'copy'"):
            runner.run_all(kernels=("triad", "fft"), parallel=False,
                           use_cache=False)
        with pytest.raises(BenchmarkError, match="'fft'"):
            runner.run_group("1a", kernels=("fft",))
        assert ran == []

    def test_kernel_names_are_case_insensitive(self, runner):
        """``"Triad"`` is swept and recorded as ``"triad"``."""
        rs = runner.run_group("1a", kernels=("Triad",))
        assert rs.complete and len(rs) == 20
        assert rs.to_json() == runner.run_group(
            "1a", kernels=("triad",)).to_json()

    def test_cache_key_is_the_canonical_name(self, tmp_path):
        cached = StreamerRunner(config=StreamConfig(array_size=10_000),
                                cache_dir=str(tmp_path))
        lower = cached.run_all(kernels=("triad",)).to_json()
        assert cached.run_all(kernels=("TRIAD",)).to_json() == lower
        assert len(os.listdir(tmp_path)) == 1       # one key, one entry


class TestSweepCacheKey:
    def test_key_is_stable_and_content_sensitive(self, runner):
        k1 = runner.sweep_cache_key(("triad",))
        assert k1 == runner.sweep_cache_key(("triad",))
        assert k1 != runner.sweep_cache_key(("copy",))
        other = StreamerRunner(config=StreamConfig(array_size=1_000_000))
        assert k1 != other.sweep_cache_key(("triad",))

    def test_jsonify_unwraps_enums_by_value(self):
        import enum

        from repro.streamer.runner import _jsonify

        class Color(enum.Enum):
            RED = "red"

        class Prio(enum.IntEnum):
            LOW = 0                     # falsy value must still unwrap

        assert _jsonify(Color.RED) == "red"
        assert _jsonify(Prio.LOW) == 0

    def test_jsonify_rejects_unknown_types(self):
        from repro.streamer.runner import _jsonify

        class Opaque:
            pass

        with pytest.raises(TypeError, match="cannot serialize"):
            _jsonify(Opaque())
