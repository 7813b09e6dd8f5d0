"""Unit tests for the trace-driven evaluation harness and its bridge
into the streamer sweep (policy as a sweepable axis)."""

import gc
import sys
import threading
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.errors import TieringError
from repro.machine.numa import PolicyKind
from repro.machine.presets import setup1
from repro.stream.config import StreamConfig
from repro.streamer.configs import TIERING_GROUP_ID, tiering_group
from repro.streamer.runner import StreamerRunner
from repro.tiering import evaluate
from repro.tiering.evaluate import (
    DEFAULT_FAR_NS,
    DEFAULT_NEAR_NS,
    TRACE_KINDS,
    TieringSpec,
    TraceGen,
    compare_policies,
    effective_sweep_policy,
    evaluate_policy,
)
from repro.tiering.heat import HeatTracker
from repro.tiering.policy import POLICIES

SMALL = TieringSpec(n_pages=256, epochs=4, epoch_accesses=512)


class TestSpec:
    def test_defaults_are_valid(self):
        assert TieringSpec().policy == "tpp"

    @pytest.mark.parametrize("kw", [
        {"policy": "fifo"},
        {"trace": "random"},
        {"n_pages": 1},
        {"near_fraction": 0.0},
        {"near_fraction": 1.0},
        {"epochs": 0},
        {"epoch_accesses": 0},
        {"alpha": -1.0},
        {"hot_fraction": 1.5},
        {"hot_fraction": -0.1},
    ])
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(TieringError):
            TieringSpec(**kw)

    def test_near_capacity_is_floor_of_fraction(self):
        assert TieringSpec(n_pages=100,
                           near_fraction=0.25).near_capacity_pages == 25
        assert TieringSpec(n_pages=3,
                           near_fraction=0.1).near_capacity_pages == 1

    def test_describe(self):
        assert "tpp over 256 pages" in SMALL.describe()


class TestTraceGen:
    @pytest.mark.parametrize("trace", TRACE_KINDS)
    def test_batches_are_in_range(self, trace):
        spec = replace(SMALL, trace=trace)
        gen = TraceGen(spec)
        for epoch in range(spec.epochs):
            batch = gen.epoch(epoch)
            assert batch.shape == (spec.epoch_accesses,)
            assert batch.dtype == np.int64
            assert batch.min() >= 0
            assert batch.max() < spec.n_pages

    def test_same_seed_same_trace(self):
        a = TraceGen(replace(SMALL, trace="zipf"))
        b = TraceGen(replace(SMALL, trace="zipf"))
        for epoch in range(3):
            assert np.array_equal(a.epoch(epoch), b.epoch(epoch))

    def test_stream_walks_forward_across_epochs(self):
        spec = replace(SMALL, trace="stream", n_pages=1024,
                       epoch_accesses=256)
        gen = TraceGen(spec)
        assert gen.epoch(0).tolist() == list(range(256))
        assert gen.epoch(1).tolist() == list(range(256, 512))

    def test_zipf_concentrates_on_the_hot_set(self):
        spec = replace(SMALL, trace="zipf", hot_fraction=0.95)
        batch = TraceGen(spec).epoch(0)
        hot = np.count_nonzero(batch < spec.near_capacity_pages)
        assert hot / batch.size > 0.9

    def test_mixed_interleaves_the_two_tenants(self):
        spec = replace(SMALL, trace="mixed")
        batch = TraceGen(spec).epoch(0)
        assert batch[0::2].max() < spec.n_pages // 2    # tenant A: lower half
        assert batch[1::2].min() >= spec.n_pages // 2   # tenant B: upper half


class TestEvaluatePolicy:
    def test_result_accounting_adds_up(self):
        r = evaluate_policy(SMALL)
        assert r.total_accesses == SMALL.epochs * SMALL.epoch_accesses
        assert 0.0 <= r.near_access_fraction <= 1.0
        assert r.total_ns == r.workload_ns + r.move_ns
        assert r.effective_latency_ns == pytest.approx(
            r.total_ns / r.total_accesses)
        assert len(r.epoch_latency_ns) == SMALL.epochs
        assert r.final_near_pages <= SMALL.near_capacity_pages

    def test_static_policy_never_migrates(self):
        r = evaluate_policy(replace(SMALL, policy="static"))
        assert r.promotions == r.demotions == 0
        assert r.migration_bytes == 0
        assert r.move_ns == 0.0

    def test_effective_latency_bounded_by_tier_latencies(self):
        r = evaluate_policy(replace(SMALL, policy="static"))
        assert DEFAULT_NEAR_NS <= r.effective_latency_ns <= DEFAULT_FAR_NS

    def test_explicit_latencies_scale_the_bill(self):
        spec = replace(SMALL, policy="static")
        cheap = evaluate_policy(spec, near_ns=1.0, far_ns=2.0)
        dear = evaluate_policy(spec, near_ns=10.0, far_ns=20.0)
        assert dear.workload_ns == pytest.approx(10 * cheap.workload_ns)
        assert dear.near_access_fraction == cheap.near_access_fraction

    def test_tpp_beats_static_on_a_zipf_hot_set(self):
        spec = replace(SMALL, epochs=12, hot_fraction=0.95)
        static = evaluate_policy(replace(spec, policy="static"))
        tpp = evaluate_policy(replace(spec, policy="tpp"))
        assert tpp.effective_latency_ns < static.effective_latency_ns
        assert tpp.near_access_fraction > static.near_access_fraction

    def test_machine_latencies_from_testbed(self, tb1):
        r = evaluate_policy(replace(SMALL, policy="static"),
                            machine=tb1.machine)
        assert r.effective_latency_ns > 0
        assert "static/zipf" in r.describe()

    def test_to_doc_is_json_plain(self):
        import json
        json.dumps(evaluate_policy(SMALL).to_doc())


class TestComparePolicies:
    def test_covers_all_policies_by_default(self):
        out = compare_policies(SMALL)
        assert sorted(out) == ["lru", "spill", "static", "tpp"]
        assert all(r.trace == "zipf" for r in out.values())

    def test_policy_subset(self):
        out = compare_policies(SMALL, policies=["static"])
        assert list(out) == ["static"]


class TestEffectiveSweepPolicy:
    def test_memoized_per_machine_and_spec(self, tb1):
        p1, r1 = effective_sweep_policy(tb1.machine, SMALL)
        p2, r2 = effective_sweep_policy(tb1.machine, SMALL)
        assert p1 is p2                    # cache hit, not a re-evaluation
        assert r1 is r2
        p3, _ = effective_sweep_policy(tb1.machine, replace(SMALL, seed=9))
        assert p3 is not p1

    def test_memo_is_dropped_with_its_machine(self):
        gc.collect()
        before = len(evaluate._SWEEP_POLICY_CACHE)
        refs = []
        for _ in range(50):
            machine = setup1().machine
            effective_sweep_policy(machine, SMALL)
            refs.append(weakref.ref(machine))
        del machine
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert len(evaluate._SWEEP_POLICY_CACHE) == before

    def test_split_mirrors_near_fraction(self, tb1):
        policy, result = effective_sweep_policy(
            tb1.machine, replace(SMALL, policy="static"))
        assert 0.0 < result.near_access_fraction < 1.0
        assert policy.kind is PolicyKind.WEIGHTED
        assert sum(policy.weights) == pytest.approx(1.0)
        assert any(w == pytest.approx(result.near_access_fraction)
                   for w in policy.weights)


#: a value per policy (in name order) for every spec field TraceGen
#: must not read
_KNOBS = {
    "decay": (0.5, 0.2, 0.7, 0.9),
    "max_moves_per_epoch": (512, 64, 7, 200),
    "hot_threshold": (1.0, 2.0, 0.5, 3.0),
    "cold_threshold": (0.25, 0.5, 0.1, 1.0),
    "hysteresis": (2, 1, 3, 4),
    "near_gbps": (33.0, 20.0, 50.0, 11.5),
    "far_gbps": (11.5, 20.0, 5.0, 33.0),
    "link_gbps": (11.5, 4.0, 30.0, 8.0),
    "remap_ns": (2000.0, 0.0, 500.0, 10_000.0),
    "page_bytes": (4096, 64, 2048, 65_536),
}


class TestSharedTrace:
    def test_every_spec_field_is_a_trace_field_or_a_knob(self):
        trace_fields = set(evaluate._TRACE_FIELDS)
        assert not trace_fields & set(_KNOBS)
        assert trace_fields | set(_KNOBS) | {"policy"} == {
            f.name for f in fields(TieringSpec)}

    @pytest.mark.parametrize("trace", TRACE_KINDS)
    def test_shared_trace_matches_standalone_evaluation(self, trace):
        specs = [replace(SMALL, trace=trace, policy=name,
                         **{k: v[i] for k, v in _KNOBS.items()})
                 for i, name in enumerate(sorted(POLICIES))]
        machine = setup1().machine
        shared = [effective_sweep_policy(machine, spec)[1] for spec in specs]
        for spec, result in zip(specs, shared):
            # a fresh machine makes its own trace from this spec alone
            alone = evaluate_policy(spec, machine=setup1().machine)
            assert result.to_doc() == alone.to_doc()

    def test_shared_trace_is_read_only(self):
        machine = setup1().machine
        trace, heats = evaluate._trace(SMALL, machine)
        lru = evaluate._trace(replace(SMALL, policy="lru"), machine)
        assert lru[0] is trace and lru[1] is heats
        cooler = evaluate._trace(replace(SMALL, decay=0.1), machine)
        assert cooler[0] is trace and cooler[1] is not heats
        assert evaluate._trace(replace(SMALL, seed=99), machine)[0] \
            is not trace
        for batch in (*trace, *heats, *cooler[1]):
            with pytest.raises(ValueError, match="read-only"):
                batch[0] = 1

    def test_one_trace_per_machine(self, monkeypatch):
        epochs = []
        epoch = TraceGen.epoch

        def counted(gen, i):
            epochs.append(i)
            return epoch(gen, i)

        monkeypatch.setattr(TraceGen, "epoch", counted)
        machines = [setup1().machine, setup1().machine]
        for n, machine in enumerate(machines, start=1):
            for name in sorted(POLICIES):
                effective_sweep_policy(machine, replace(SMALL, policy=name))
            assert epochs == list(range(SMALL.epochs)) * n
        # the slot holds the last machine's trace, by a weak reference
        assert evaluate._TRACE_SLOT[0]() is machines[-1]

    def test_one_heat_fold_per_trace_and_decay(self, monkeypatch):
        folds = []
        end_epoch = HeatTracker.end_epoch

        def counted(tracker):
            folds.append(tracker.decay)
            return end_epoch(tracker)

        monkeypatch.setattr(HeatTracker, "end_epoch", counted)
        machine = setup1().machine
        for name in sorted(POLICIES):
            effective_sweep_policy(machine, replace(SMALL, policy=name))
        assert folds == [SMALL.decay] * SMALL.epochs
        # another decay refolds the same trace
        effective_sweep_policy(machine, replace(SMALL, decay=0.1))
        assert folds == [SMALL.decay] * SMALL.epochs + [0.1] * SMALL.epochs

    def test_threads_racing_on_the_slot_each_get_their_own_trace(self):
        specs = [replace(SMALL, trace=trace, policy=policy, decay=decay)
                 for trace in ("zipf", "chase") for policy in ("lru", "tpp")
                 for decay in (0.5, 0.1)]
        expected = [evaluate_policy(spec, machine=setup1().machine).to_doc()
                    for spec in specs]
        machine = setup1().machine
        got: list[tuple[int, dict]] = []

        def worker(k: int) -> None:
            for i in range(8):
                j = (k + i) % len(specs)
                got.append((j, evaluate_policy(specs[j],
                                               machine=machine).to_doc()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 4 * 8
        assert all(doc == expected[j] for j, doc in got)


class TestTieringSweepGroup:
    def _group(self):
        return replace(
            tiering_group(spec=SMALL),
            thread_counts=(1, 2),
        )

    def _runner(self, tb1, cache_dir=None):
        runner = StreamerRunner(
            testbeds={"setup1": tb1},
            config=StreamConfig(array_size=50_000, ntimes=3),
            cache_dir=cache_dir)
        runner.groups = {TIERING_GROUP_ID: self._group()}
        return runner

    def test_group_has_one_series_per_policy(self):
        group = self._group()
        assert [s.key for s in group.series] == [
            "3t.lru", "3t.spill", "3t.static", "3t.tpp"]
        assert all(s.spec.tiering is not None for s in group.series)

    def test_serial_pool_and_cache_are_byte_identical(self, tb1, tmp_path):
        serial = self._runner(tb1).run_all(
            kernels=("triad",), parallel=False, use_cache=False)

        pooled_runner = self._runner(tb1)
        with pooled_runner:
            pooled_runner.start_pool(2)
            pooled = pooled_runner.run_all(kernels=("triad",),
                                           use_cache=False)

        cached_runner = self._runner(tb1, cache_dir=str(tmp_path))
        first = cached_runner.run_all(kernels=("triad",), parallel=False)
        replay = cached_runner.run_all(kernels=("triad",), parallel=False)

        assert serial.to_json() == pooled.to_json()
        assert serial.to_json() == first.to_json()
        assert serial.to_json() == replay.to_json()
