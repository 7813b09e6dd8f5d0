"""Instrumentation parity: obs counters must agree with what the
instrumented layers report through their own result objects, and
enabling observability must never change simulation output."""

from repro import obs
from repro.machine.affinity import place_threads
from repro.machine.numa import NumaPolicy
from repro.memsim.des import simulate_stream_des
from repro.stream.config import StreamConfig
from repro.stream.pmem_stream import StreamPmem
from repro.streamer.runner import StreamerRunner


def _counters():
    return {name: doc["value"]
            for name, doc in obs.metrics_snapshot().items()
            if doc["kind"] == "counter"}


class TestPmdkParity:
    def test_flush_lines_match_stream_pmem_result(self, small_config):
        sp = StreamPmem.create("mem://8m", small_config)
        try:
            obs.enable(metrics=True, trace=False)
            result = sp.run()
            obs.disable()
        finally:
            sp.close()
        c = _counters()
        # the only persists between enable/disable are the benchmark's
        # own array flushes, so all three accountings must agree
        assert c["stream.flushes"] == result.flushes
        assert c["pmdk.flush_lines"] == result.flushes
        assert c["pmdk.flush_lines.volatile"] == result.flushes
        assert result.flushes > 0
        assert c["pmdk.persist_calls"] > 0

    def test_tx_commit_counted(self, small_config):
        obs.enable(metrics=True, trace=False)
        sp = StreamPmem.create("mem://8m", small_config)
        sp.close()
        obs.disable()
        c = _counters()
        assert c["pmdk.tx.commits"] == 1        # the _allocate transaction
        assert "pmdk.tx.aborts" not in c
        assert c["pmdk.tx.undo_bytes"] > 0


class TestDesParity:
    def test_event_counters_match_des_result(self, tb1):
        m = tb1.machine
        cores = place_threads(m, 4, sockets=[0])
        obs.enable(metrics=True, trace=False)
        # des.windows counts the vector backend's epochs
        result = simulate_stream_des(m, "triad", cores, NumaPolicy.bind(2),
                                     des_backend="vector")
        obs.disable()
        c = _counters()
        assert c["des.runs"] == 1
        assert c["des.events_issued"] == result.total_issued
        assert c["des.events_completed"] == result.total_completed
        assert c["des.windows"] > 0

    def test_station_busy_ns_recorded(self, tb1):
        m = tb1.machine
        cores = place_threads(m, 2, sockets=[0])
        obs.enable(metrics=True, trace=False)
        simulate_stream_des(m, "triad", cores, NumaPolicy.bind(0))
        obs.disable()
        busy = {k: v for k, v in _counters().items()
                if k.startswith("des.station.busy_ns.")}
        assert busy, "per-station busy counters missing"
        assert all(v >= 0 for v in busy.values())


class TestOutputInvariance:
    def test_enabled_obs_gives_byte_identical_results(self, small_config):
        runner = StreamerRunner(config=small_config)
        baseline = runner.run_group("1a", kernels=("triad",))

        obs.enable()
        traced = runner.run_group("1a", kernels=("triad",))
        obs.disable()

        assert traced.to_csv() == baseline.to_csv()
        assert traced.to_json() == baseline.to_json()
        # and the run actually recorded something while enabled
        assert _counters()["sweep.series_runs"] > 0
        assert len(obs.tracer()) > 0
