"""Simulated sweep helper."""

import pytest

from repro.machine.affinity import AffinityMode
from repro.machine.numa import NumaPolicy
from repro.memsim.engine import AccessMode
from repro.stream.config import StreamConfig
from repro.stream.simulated import SweepSpec, simulate_sweep, sweep_result_table


@pytest.fixture()
def spec() -> SweepSpec:
    return SweepSpec(label="local", policy=NumaPolicy.bind(0),
                     mode=AccessMode.APP_DIRECT, sockets=(0,))


class TestSweep:
    def test_one_result_per_thread_count(self, tb1, spec):
        results = simulate_sweep(tb1.machine, "triad", spec, [1, 2, 4])
        assert [r.n_threads for r in results] == [1, 2, 4]

    def test_uses_paper_config_by_default(self, tb1, spec):
        r = simulate_sweep(tb1.machine, "triad", spec, [2])[0]
        assert not r.cache_resident       # 100M elements → memory resident

    def test_small_config_hits_cache(self, tb1, spec):
        cfg = StreamConfig(array_size=10_000, ntimes=3)
        r = simulate_sweep(tb1.machine, "triad", spec, [2], cfg)[0]
        assert r.cache_resident

    def test_affinity_forwarded(self, tb1):
        spec = SweepSpec(label="spread", policy=NumaPolicy.bind(0),
                         mode=AccessMode.NUMA,
                         affinity=AffinityMode.SPREAD, sockets=(0, 1))
        r = simulate_sweep(tb1.machine, "copy", spec, [4])[0]
        assert "s0" in r.placement and "s1" in r.placement


class TestTable:
    def test_table_layout(self, tb1, spec):
        series = {
            "local": simulate_sweep(tb1.machine, "triad", spec, [1, 2]),
        }
        text = sweep_result_table(series)
        lines = text.splitlines()
        assert "threads" in lines[0] and "local" in lines[0]
        assert len(lines) == 3

    def test_empty_table(self):
        assert "empty" in sweep_result_table({})

    def test_unequal_series_lengths_rejected(self, tb1, spec):
        from repro.errors import BenchmarkError
        series = {
            "long": simulate_sweep(tb1.machine, "triad", spec, [1, 2, 4]),
            "short": simulate_sweep(tb1.machine, "triad", spec, [1, 2]),
        }
        with pytest.raises(BenchmarkError, match="unequal lengths"):
            sweep_result_table(series)


class TestPlacementCache:
    def test_sweep_reuses_placements(self, tb1, spec):
        from repro.machine import affinity
        affinity._PLACEMENT_CACHE.clear()
        simulate_sweep(tb1.machine, "triad", spec, [1, 2, 4])
        assert len(affinity._PLACEMENT_CACHE[tb1.machine]) == 3
        simulate_sweep(tb1.machine, "copy", spec, [1, 2, 4])
        assert len(affinity._PLACEMENT_CACHE[tb1.machine]) == 3  # all hits

    def test_cached_placement_matches_direct(self, tb1):
        from repro.machine.affinity import (
            place_threads,
            place_threads_cached,
        )
        direct = place_threads(tb1.machine, 4, sockets=[0])
        cached = place_threads_cached(tb1.machine, 4, sockets=[0])
        assert cached == direct
        # callers get a fresh list each time — mutation cannot poison it
        cached.append(cached[0])
        assert place_threads_cached(tb1.machine, 4, sockets=[0]) == direct
