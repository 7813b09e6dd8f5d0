"""The compiled tier's detection, self-check and dispatch plumbing."""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import compiled, obs
from repro.errors import SimulationError
from repro.machine.affinity import place_threads
from repro.machine.numa import NumaPolicy
from repro.machine.presets import setup1
from repro.memsim import des_jit
from repro.memsim.des import _run_scalar, simulate_stream_des
from repro.pmdk import crc_jit

SRC = str(Path(repro.__file__).resolve().parents[1])


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
    def test_ledger_cases(self, policy, threads, monkeypatch):
        """Each thread primes 26 requests.  With the compiled kernel,
        bind at 8+ threads reaches the vectorization threshold and
        everything else runs the compiled loop; without it, every bind
        case runs vector and only interleave runs the scalar loop."""
        if not des_jit.available():
            # the rule is under test, not the kernel: the scalar oracle
            # stands in for the missing compiled loop
            monkeypatch.setattr(des_jit, "run_compiled", _run_scalar)
        interleaved = policy == "interleave02"
        with_provider = ("compiled" if interleaved or threads < 8
                         else "vector")
        without = "scalar" if interleaved else "vector"
        for provider, want in ((True, with_provider), (False, without)):
            monkeypatch.setattr(des_jit, "available", lambda p=provider: p)
            _des(threads, LEDGER_POLICIES[policy])
            assert compiled.selected()["des"] == want


class TestVectorRejectsMultiRoute:
    @pytest.mark.parametrize("policy", [
        NumaPolicy.interleave(0, 2), NumaPolicy.weighted({0: 3, 2: 1})])
    def test_as_argument(self, policy):
        with pytest.raises(SimulationError, match="'compiled' or 'scalar'"):
            _des(4, policy, des_backend="vector")


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
        assert set(providers) == {"des", "crc"}
        for provider in providers.values():
            assert provider in (None, "cc")


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


def _cc_build(name, source, tmp_path, monkeypatch) -> ctypes.CDLL:
    """``source`` built through ``cc_build`` into a temporary cache."""
    if compiled.cc_compiler() is None:
        pytest.skip("no C compiler")
    monkeypatch.setenv(compiled.JIT_CACHE_ENV, str(tmp_path))
    lib = compiled.cc_build(name, source)
    assert lib is not None
    return lib


class TestSelfCheck:
    """The provider is accepted only when its counts match the scalar
    oracle; a kernel off by one tie-break or one boundary must fail."""

    MUTANTS = {
        "sift-down-tie-break": ("heap_seq[r] < heap_seq[c]",
                                "heap_seq[r] > heap_seq[c]"),
        "warm-window-boundary": ("now >= warm_t", "now > warm_t"),
        "route-tie-break": ("cost < best_cost", "cost <= best_cost"),
    }

    def _build(self, name, source, tmp_path, monkeypatch):
        return des_jit._bind(_cc_build(name, source, tmp_path, monkeypatch))

    def test_accepts_the_kernel(self, tmp_path, monkeypatch):
        fn = self._build("des", des_jit._C_SOURCE, tmp_path, monkeypatch)
        assert des_jit._self_check(fn)

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_refuses_mutant(self, mutant, tmp_path, monkeypatch):
        old, new = self.MUTANTS[mutant]
        assert des_jit._C_SOURCE.count(old) == 1
        source = des_jit._C_SOURCE.replace(old, new)
        fn = self._build(f"des-{mutant}", source, tmp_path, monkeypatch)
        assert not des_jit._self_check(fn)


class TestCrcSelfCheck:
    """The CRC kernel is accepted only when it reproduces zlib.crc32; a
    fold off by one constant bit, one block or one mask must fail."""

    MUTANTS = {
        "fold-constant-bit": ("0x1751997d0", "0x1751997d1"),
        "last-block-skipped": ("p < end", "p + 16 < end"),
        "barrett-mask-dropped": ("_mm_and_si128(q, low32)", "q"),
    }

    def _build(self, name, source, tmp_path, monkeypatch):
        fold = crc_jit._bind(_cc_build(name, source, tmp_path, monkeypatch))
        if fold is None:
            pytest.skip("no x86-64 CPU with PCLMUL and SSE4.1")
        return fold

    def test_accepts_the_kernel(self, tmp_path, monkeypatch):
        fold = self._build("crc", crc_jit._C_SOURCE, tmp_path, monkeypatch)
        assert crc_jit._self_check(fold)

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_refuses_mutant(self, mutant, tmp_path, monkeypatch):
        old, new = self.MUTANTS[mutant]
        assert crc_jit._C_SOURCE.count(old) == 1
        source = crc_jit._C_SOURCE.replace(old, new)
        fold = self._build(f"crc-{mutant}", source, tmp_path, monkeypatch)
        assert not crc_jit._self_check(fold)

    def test_self_check_inputs_stay_small(self):
        """The check runs in every process that writes a log entry, the
        ledger's stream-pmem child included: it must not move its RSS."""
        inputs = crc_jit._check_inputs()
        assert max(len(data) for data in inputs) <= 64 * 1024
        lengths = {len(data) for data in inputs}
        assert {64, 80, 128, 199, 4096 + 13} <= lengths


class TestNothingAtImport:
    def test_importing_the_log_resolves_no_kernel(self, tmp_path):
        """Every workload imports the pmdk layer; importing it must build
        and load nothing."""
        code = ("import repro, repro.pmdk.tx, repro.stream.pmem_stream\n"
                "from repro.pmdk import crc_jit\n"
                "from repro.memsim import des_jit\n"
                "assert not crc_jit._resolved and crc_jit._fold is None\n"
                "assert not des_jit._resolved and des_jit._fn is None\n")
        env = dict(os.environ, PYTHONPATH=SRC)
        env[compiled.JIT_CACHE_ENV] = str(tmp_path / "jit")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert not (tmp_path / "jit").exists()


class TestDetectionKillSwitch:
    def test_no_compiled_env_disables_providers(self, monkeypatch):
        monkeypatch.setenv(compiled.NO_COMPILED_ENV, "1")
        assert compiled.cc_compiler() is None
        assert compiled.detection_disabled()
