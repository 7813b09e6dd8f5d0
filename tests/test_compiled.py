"""The compiled tier's detection, forcing and dispatch plumbing."""

from __future__ import annotations

import ctypes
import os

import pytest

from repro import compiled, obs
from repro.errors import SimulationError
from repro.machine.affinity import place_threads
from repro.machine.numa import NumaPolicy
from repro.machine.presets import setup1
from repro.memsim import des_jit
from repro.memsim.des import simulate_stream_des


@pytest.fixture(autouse=True)
def _clean_override(monkeypatch):
    """Each test starts from automatic dispatch with a pristine env."""
    monkeypatch.delenv(compiled.BACKEND_ENV, raising=False)
    compiled.refresh()
    yield
    compiled.refresh()


def _small_des(**kwargs):
    m = setup1().machine
    cores = place_threads(m, 2, sockets=[0])
    return simulate_stream_des(m, "triad", cores, NumaPolicy.bind(2),
                               **kwargs)


#: the perf ledger's des cases: triad on setup #1's socket 0
LEDGER_THREADS = (1, 2, 4, 8, 10)
LEDGER_POLICIES = {"bind0": NumaPolicy.bind(0), "bind2": NumaPolicy.bind(2),
                   "interleave02": NumaPolicy.interleave(0, 2)}


def _des(threads, policy, **kwargs):
    m = setup1().machine
    cores = place_threads(m, threads, sockets=[0])
    return simulate_stream_des(m, "triad", cores, policy, sim_ns=5_000.0,
                               warmup_ns=1_000.0, **kwargs)


class TestAutoDispatch:
    @pytest.mark.parametrize("threads", LEDGER_THREADS)
    @pytest.mark.parametrize("policy", sorted(LEDGER_POLICIES))
    def test_ledger_cases(self, policy, threads):
        """Each thread primes 26 requests: bind at 4+ threads reaches the
        vectorization threshold; 1-2 threads and every interleaved case
        run the event loop."""
        _des(threads, LEDGER_POLICIES[policy])
        event_loop = "compiled" if des_jit.available() else "scalar"
        vector = threads >= 4 and policy != "interleave02"
        assert compiled.selected()["des"] == (
            "vector" if vector else event_loop)


class TestVectorRejectsMultiRoute:
    @pytest.mark.parametrize("policy", [
        NumaPolicy.interleave(0, 2), NumaPolicy.weighted({0: 3, 2: 1})])
    def test_as_argument(self, policy):
        with pytest.raises(SimulationError, match="'compiled' or 'scalar'"):
            _des(4, policy, des_backend="vector")

    def test_under_backend_env(self, monkeypatch):
        monkeypatch.setenv(compiled.BACKEND_ENV, "vector")
        compiled.refresh()
        with pytest.raises(SimulationError, match="'compiled' or 'scalar'"):
            _des(4, NumaPolicy.interleave(0, 2))


class TestBackendForcing:
    def test_env_var_forces_every_auto_dispatch(self, monkeypatch):
        monkeypatch.setenv(compiled.BACKEND_ENV, "vector")
        compiled.refresh()
        baseline = _small_des(des_backend="scalar")
        forced = _small_des()
        assert compiled.selected()["des"] == "vector"
        assert forced == baseline

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(compiled.BACKEND_ENV, "vector")
        compiled.refresh()
        _small_des(des_backend="scalar")
        assert compiled.selected()["des"] == "scalar"

    def test_invalid_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(compiled.BACKEND_ENV, "turbo")
        compiled.refresh()
        with pytest.raises(SimulationError):
            compiled.backend_override()

    def test_set_backend_returns_previous_and_restores(self):
        assert compiled.backend_override() is None
        prev = compiled.set_backend("scalar")
        assert prev is None
        assert compiled.backend_override() == "scalar"
        assert compiled.set_backend(prev) == "scalar"
        assert compiled.backend_override() is None

    def test_set_backend_rejects_unknown(self):
        with pytest.raises(SimulationError):
            compiled.set_backend("gpu")

    def test_compiled_allowed_follows_override(self):
        assert compiled.compiled_allowed()
        compiled.set_backend("scalar")
        assert not compiled.compiled_allowed()
        compiled.set_backend("compiled")
        assert compiled.compiled_allowed()
        compiled.set_backend(None)


class TestTierReporting:
    def test_selected_reports_latest_choice(self):
        _small_des(des_backend="scalar")
        assert compiled.selected()["des"] == "scalar"
        _small_des(des_backend="vector")
        assert compiled.selected()["des"] == "vector"

    def test_gauge_carries_tier_code(self):
        obs.reset()
        obs.enable(metrics=True)
        try:
            _small_des(des_backend="vector")
            snap = obs.metrics_snapshot()
            assert snap["dispatch.tier.des"]["value"] == (
                compiled.TIERS.index("vector"))
        finally:
            obs.disable()
            obs.reset()

    def test_warmup_reports_every_family(self):
        providers = compiled.warmup()
        assert set(providers) == {"des", "flit"}
        for provider in providers.values():
            assert provider in (None, "numba", "cc")


class TestCcBuildCache:
    SOURCE = "long long answer(void) { return 42; }\n"

    def test_build_and_cache_reuse(self, tmp_path, monkeypatch):
        if compiled.cc_compiler() is None:
            pytest.skip("no C compiler")
        monkeypatch.setenv(compiled.JIT_CACHE_ENV, str(tmp_path))
        lib = compiled.cc_build("answer", self.SOURCE)
        assert lib is not None
        lib.answer.restype = ctypes.c_longlong
        assert lib.answer() == 42
        cached = [p for p in os.listdir(tmp_path) if p.endswith(".so")]
        assert len(cached) == 1
        # second build must reuse the artifact, not recompile
        before = os.stat(tmp_path / cached[0]).st_mtime_ns
        lib2 = compiled.cc_build("answer", self.SOURCE)
        assert lib2 is not None
        assert os.stat(tmp_path / cached[0]).st_mtime_ns == before

    def test_source_edit_invalidates_only_its_entry(self, tmp_path,
                                                    monkeypatch):
        if compiled.cc_compiler() is None:
            pytest.skip("no C compiler")
        monkeypatch.setenv(compiled.JIT_CACHE_ENV, str(tmp_path))
        assert compiled.cc_build("answer", self.SOURCE) is not None
        edited = self.SOURCE.replace("42", "43")
        lib = compiled.cc_build("answer", edited)
        assert lib is not None
        lib.answer.restype = ctypes.c_longlong
        assert lib.answer() == 43
        assert len([p for p in os.listdir(tmp_path)
                    if p.endswith(".so")]) == 2

    def test_bad_source_returns_none(self, tmp_path, monkeypatch):
        if compiled.cc_compiler() is None:
            pytest.skip("no C compiler")
        monkeypatch.setenv(compiled.JIT_CACHE_ENV, str(tmp_path))
        assert compiled.cc_build("broken", "this is not C") is None


class TestDetectionKillSwitch:
    def test_no_compiled_env_disables_providers(self, monkeypatch):
        monkeypatch.setenv(compiled.NO_COMPILED_ENV, "1")
        assert compiled.numba_njit() is None
        assert compiled.cc_compiler() is None
        assert compiled.detection_disabled()

    def test_forced_compiled_degrades_when_unavailable(self, monkeypatch):
        """REPRO_BACKEND=compiled with no provider silently falls back;
        the dispatch records the tier actually run."""
        monkeypatch.setattr(des_jit, "available", lambda: False)
        monkeypatch.setenv(compiled.BACKEND_ENV, "compiled")
        compiled.refresh()
        result = _small_des()
        assert compiled.selected()["des"] == "scalar"
        assert result == _small_des(des_backend="scalar")
