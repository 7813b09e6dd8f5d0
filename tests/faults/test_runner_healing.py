"""Self-healing sweep runner: retries, quarantine, partial results."""

import pytest

from repro import faults, obs
from repro.errors import BenchmarkError
from repro.faults.plan import FaultPlan, SweepFailSpec
from repro.stream.config import StreamConfig
from repro.streamer.results import FailureRecord, ResultSet
from repro.streamer.runner import StreamerRunner

CFG = StreamConfig(array_size=500_000, ntimes=2)
KERNELS = ("triad",)


@pytest.fixture(scope="module")
def baseline() -> ResultSet:
    """Fault-free reference run (module-scoped: the sweep is the cost)."""
    return StreamerRunner(config=CFG).run_all(kernels=KERNELS)


def _runner(**kw) -> StreamerRunner:
    return StreamerRunner(config=CFG, **kw)


class TestTransientHealing:
    def test_transient_failure_retried_to_full_results(self, baseline):
        faults.install(FaultPlan(faults=[
            SweepFailSpec(series="1b.cxl", kernel="triad", attempts=1)]))
        rs = _runner().run_all(kernels=KERNELS)
        assert rs.complete
        assert rs.to_json() == baseline.to_json()

    def test_retry_counters_reach_obs(self, baseline):
        obs.enable(metrics=True, trace=False)
        faults.install(FaultPlan(faults=[
            SweepFailSpec(series="1b.cxl", kernel="triad", attempts=2)]))
        rs = _runner().run_all(kernels=KERNELS, max_retries=2)
        assert rs.complete
        snap = obs.metrics_snapshot()
        assert snap["sweep.retries"]["value"] == 2
        assert snap["faults.injected.sweep_fail"]["value"] == 2
        assert "sweep.failures" not in snap

    def test_exhausted_retries_record_failure(self):
        faults.install(FaultPlan(faults=[
            SweepFailSpec(series="1b.cxl", kernel="triad", attempts=5)]))
        rs = _runner().run_all(kernels=KERNELS, max_retries=1)
        assert not rs.complete
        [failure] = rs.failures
        assert failure.series == "1b.cxl"
        assert failure.error_type == "SweepFaultInjected"
        assert failure.attempts == 2              # 1 try + 1 retry
        assert failure.quarantined

    def test_max_retries_zero_disables_healing(self):
        faults.install(FaultPlan(faults=[
            SweepFailSpec(series="1b.cxl", kernel="triad", attempts=1)]))
        rs = _runner().run_all(kernels=KERNELS, max_retries=0)
        assert not rs.complete
        assert rs.failures[0].attempts == 1

    def test_negative_max_retries_rejected(self):
        with pytest.raises(BenchmarkError):
            _runner().run_all(kernels=KERNELS, max_retries=-1)

    def test_run_group_heals_and_quarantines_like_run_all(self, baseline):
        faults.install(FaultPlan(faults=[
            SweepFailSpec(series="1a.ddr4", attempts=1),
            SweepFailSpec(series="1a.ddr5", attempts=None)]))
        rs = _runner().run_group("1a", kernels=KERNELS, max_retries=1)
        [failure] = rs.failures
        assert (failure.series, failure.error_type) == (
            "1a.ddr5", "SweepFaultInjected")
        expect = [r for r in baseline
                  if r.group == "1a" and r.series != "1a.ddr5"]
        assert list(rs) == expect
        with pytest.raises(BenchmarkError):
            _runner().run_group("1a", kernels=KERNELS, max_retries=-1)


class TestDeterministicQuarantine:
    def test_partial_resultset_with_surviving_records_identical(self,
                                                                baseline):
        faults.install(FaultPlan(faults=[
            SweepFailSpec(series="1b.cxl", attempts=None)]))
        rs = _runner().run_all(kernels=KERNELS)
        assert not rs.complete
        [failure] = rs.failures
        assert failure.quarantined and failure.attempts == 1
        # every surviving record is byte-identical to the fault-free run
        expect = [r for r in baseline if r.series != "1b.cxl"]
        assert list(rs) == expect

    def test_quarantine_skips_later_kernels(self, baseline):
        faults.install(FaultPlan(faults=[
            SweepFailSpec(series="1b.cxl", attempts=None)]))
        rs = _runner().run_all(kernels=("copy", "triad"))
        fails = rs.failures
        assert len(fails) == 2
        assert fails[0].kernel == "copy" and fails[0].attempts == 1
        assert fails[1].kernel == "triad" and fails[1].attempts == 0
        assert fails[1].error_type == "SeriesQuarantined"

    def test_failures_round_trip_through_json(self):
        faults.install(FaultPlan(faults=[
            SweepFailSpec(series="1b.cxl", attempts=None)]))
        rs = _runner().run_all(kernels=KERNELS)
        clone = ResultSet.from_json(rs.to_json())
        assert clone.failures == rs.failures
        assert list(clone) == list(rs)
        assert not clone.complete

    def test_fault_free_json_has_no_failures_key(self, baseline):
        assert "failures" not in baseline.to_json()


class TestParallelHealing:
    def test_parallel_partial_matches_serial(self, baseline):
        plan_doc = FaultPlan(faults=[
            SweepFailSpec(series="1b.cxl", attempts=None)]).to_doc()
        faults.install(FaultPlan.from_doc(plan_doc))
        serial = _runner().run_all(kernels=KERNELS)
        faults.install(FaultPlan.from_doc(plan_doc))
        par = _runner().run_all(kernels=KERNELS, parallel=2)
        assert par.to_json() == serial.to_json()

    def test_parallel_transient_heals_in_parent(self, baseline):
        faults.install(FaultPlan(faults=[
            SweepFailSpec(series="1b.cxl", kernel="triad", attempts=1)]))
        rs = _runner().run_all(kernels=KERNELS, parallel=2)
        assert rs.complete
        assert rs.to_json() == baseline.to_json()

    def test_generous_worker_timeout_is_harmless(self, baseline):
        rs = _runner().run_all(kernels=KERNELS, parallel=2,
                               worker_timeout=300.0)
        assert rs.to_json() == baseline.to_json()


class TestCacheInteraction:
    def test_failed_runs_are_never_cached(self, tmp_path, baseline):
        cache = str(tmp_path / "cache")
        faults.install(FaultPlan(faults=[
            SweepFailSpec(series="1b.cxl", attempts=None)]))
        runner = _runner(cache_dir=cache)
        rs = runner.run_all(kernels=KERNELS)
        assert not rs.complete
        import os
        assert not os.path.exists(cache) or not os.listdir(cache)
        # the healthy rerun populates the cache and hits it afterwards
        faults.clear()
        full = runner.run_all(kernels=KERNELS)
        assert full.to_json() == baseline.to_json()
        assert os.listdir(cache)
        again = runner.run_all(kernels=KERNELS)
        assert again.to_json() == baseline.to_json()


class TestFailureRecord:
    def test_fields(self):
        f = FailureRecord(group="1b", series="1b.cxl", kernel="triad",
                          testbed="setup1", error_type="Boom",
                          message="m", attempts=3, quarantined=True)
        assert f.attempts == 3 and f.quarantined
        rs = ResultSet(failures=[f])
        assert not rs.complete
        assert ResultSet.from_json(rs.to_json()).failures == [f]
