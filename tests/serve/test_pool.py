"""Warm worker pool: reuse, recycling and state shipping."""

import os

import pytest

from repro import faults
from repro.errors import BenchmarkError
from repro.faults.plan import FaultPlan, SweepFailSpec
from repro.serve.pool import (WarmWorkerPool, pack_state, run_shard,
                              worker_ident)
from repro.stream.config import StreamConfig
from repro.streamer.runner import StreamerRunner


class TestWarmWorkerPool:
    def test_workers_are_reused_across_submissions(self):
        with WarmWorkerPool(1) as pool:
            pids = {pool.submit(worker_ident).result() for _ in range(4)}
        assert len(pids) == 1, "one worker must serve every submission"
        assert pids != {os.getpid()}, "work must run out of process"

    def test_recycle_respawns_and_counts(self):
        with WarmWorkerPool(1) as pool:
            pool.submit(worker_ident).result()
            pool.recycle()
            assert pool.restarts == 1
            assert pool.alive
            # the recycled pool still serves work
            assert isinstance(pool.submit(worker_ident).result(), int)

    def test_submit_autostarts(self):
        pool = WarmWorkerPool(1)
        assert not pool.alive
        try:
            assert isinstance(pool.submit(worker_ident).result(), int)
            assert pool.alive
            assert pool.submitted == 1
        finally:
            pool.shutdown()

    def test_shutdown_idempotent(self):
        pool = WarmWorkerPool(1).start()
        pool.shutdown()
        pool.shutdown()
        assert not pool.alive

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_bad_worker_count(self, bad):
        with pytest.raises(BenchmarkError, match="worker"):
            WarmWorkerPool(bad)


class TestPackState:
    def test_key_is_content_addressed(self):
        cfg = StreamConfig(array_size=10_000)
        k1, b1 = pack_state({}, cfg)
        k2, b2 = pack_state({}, cfg)
        assert k1 == k2 and b1 == b2
        k3, _ = pack_state({}, StreamConfig(array_size=20_000))
        assert k3 != k1


class TestRunShard:
    def test_one_outcome_per_task_and_a_failure_does_not_stop_the_shard(
            self):
        runner = StreamerRunner(config=StreamConfig(array_size=10_000))
        tasks = runner._tasks(("triad",))[:3]
        key, blob = runner._pool_state()
        clean = run_shard(key, blob, tasks)
        faults.install(FaultPlan(faults=[SweepFailSpec(
            series=tasks[0][1].key, kernel="triad", attempts=1)]))
        outcomes = run_shard(key, blob, tasks)
        assert isinstance(outcomes[0], faults.SweepFaultInjected)
        assert outcomes[1:] == clean[1:]
        assert all(isinstance(o, list) and o for o in clean)
