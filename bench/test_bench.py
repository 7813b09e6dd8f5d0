"""Unit tests of the perf ledger: ``python -m pytest bench -q``."""

import json
import os
import types

import pytest

from bench import harness, ledger

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _span(layer, start, end):
    return (layer, layer, start, end)


# ---------------------------------------------------------------------------
# self-time folding
# ---------------------------------------------------------------------------

def test_fold_nested_spans():
    spans = [_span("b", 20, 30), _span("a", 10, 50), _span("a", 60, 70),
             _span("root", 0, 100)]
    self_ns, calls = harness.fold_self_time(spans)
    assert self_ns == {"root": 50, "a": 40, "b": 10}
    assert calls == {"root": 1, "a": 2, "b": 1}
    assert sum(self_ns.values()) == 100


def test_fold_same_layer_recursion_counts_time_once():
    spans = [_span("y", 30, 40), _span("x", 20, 80), _span("x", 10, 90),
             _span("root", 0, 100)]
    self_ns, calls = harness.fold_self_time(spans)
    assert self_ns == {"root": 20, "x": 70, "y": 10}
    assert calls["x"] == 2
    assert sum(self_ns.values()) == 100


def test_fold_separate_roots_and_overlap():
    self_ns, _ = harness.fold_self_time(
        [_span("root", 0, 10), _span("root", 10, 30)])
    assert self_ns == {"root": 30}
    with pytest.raises(ValueError):
        harness.fold_self_time([_span("root", 0, 10), _span("a", 5, 15)])


# ---------------------------------------------------------------------------
# wrapping and restoring layer boundaries
# ---------------------------------------------------------------------------

class _Base:
    def inherited(self):
        return "base"


class _Thing(_Base):
    def method(self, x):
        return x + 1


def _fixtures():
    mod = types.ModuleType("fake_layer")

    def func(x):
        if x < 0:
            raise KeyError(x)
        return 2 * x

    mod.func = func
    table = {"k": lambda: "v"}
    return mod, table


def test_wrappers_record_spans_and_restore_by_identity():
    mod, table = _fixtures()
    originals = (mod.func, vars(_Thing)["method"], table["k"])
    tracer = harness.LayerTracer([("m", mod, "func"), ("c", _Thing, "method"),
                                  ("d", table, "k")])
    with tracer:
        assert mod.func is not originals[0]
        assert mod.func(3) == 6
        assert _Thing().method(1) == 2
        assert table["k"]() == "v"
    assert (mod.func, vars(_Thing)["method"], table["k"]) == originals
    assert [s[0] for s in tracer.spans] == ["m", "c", "d"]
    assert all(end >= start for _, _, start, end in tracer.spans)


def test_wrappers_restored_after_an_op_that_raises():
    mod, table = _fixtures()
    original = mod.func
    tracer = harness.LayerTracer([("m", mod, "func")])
    with pytest.raises(KeyError):
        with tracer:
            mod.func(-1)
    assert mod.func is original
    assert [s[0] for s in tracer.spans] == ["m"]


def test_inherited_method_is_refused_and_nothing_stays_wrapped():
    mod, _ = _fixtures()
    original = mod.func
    tracer = harness.LayerTracer([("m", mod, "func"),
                                  ("c", _Thing, "inherited")])
    with pytest.raises(AttributeError):
        with tracer:
            pass
    assert mod.func is original
    assert "inherited" not in vars(_Thing)


# ---------------------------------------------------------------------------
# percentiles
# ---------------------------------------------------------------------------

def test_percentile_needs_ten_samples_beyond():
    samples = list(range(1, 101))
    assert harness.percentile(samples, 90) == 90
    assert harness.percentile(samples, 50) == 50
    # 0.9 * 110 is 99.00000000000001 in floating point; the rank is 99
    assert harness.percentile(list(range(1, 111)), 90) == 99
    with pytest.raises(ValueError):
        harness.percentile(samples[:99], 90)
    assert harness.min_samples(90) == 100
    assert harness.min_samples(50) == 20


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def test_failed_ops_count_without_aborting_the_round():
    def op(i):
        if i == 1:
            raise RuntimeError("boom")
        return "wrong" if i == 3 else "right"

    def check(out):
        if out != "right":
            raise AssertionError("bad output")

    passed = []
    res = harness.run_round(op, check, ops=6,
                            after=lambda i, out: passed.append(i))
    assert (res.attempted, res.failed, res.completed) == (6, 2, 4)
    assert len(res.adj_ms) == 4 and passed == [0, 2, 4, 5]
    assert len(res.probes_ms) == 7
    assert "boom" in res.errors[0] and "bad output" in res.errors[1]


def test_op_times_are_rescaled_by_the_probes_around_each_op(monkeypatch):
    probes = iter([2.0, 4.0, 2.0])      # in units of PROBE_REF_MS
    clock = iter([0.0, 0.3, 0.3, 1.0, 1.3, 1.3])    # t0, t1, t2 per op

    def probe():
        return next(probes) * harness.PROBE_REF_MS

    monkeypatch.setattr(harness.time, "perf_counter", lambda: next(clock))
    res = harness.run_round(lambda i: i, lambda out: None, ops=2,
                            probe=probe)
    # each op took 300 ms between probes averaging 3 x PROBE_REF_MS
    assert res.adj_ms == pytest.approx([100.0, 100.0])
    assert res.ops_per_s == pytest.approx(2 / 0.2)


# ---------------------------------------------------------------------------
# report and result line
# ---------------------------------------------------------------------------

def _record(sha="abc", failed=0, latencies=None, **extra):
    latencies = latencies or [float(i) for i in range(1, 121)]
    rec = {"setup_s": 0.5, "adj_window_s": 1.0,
           "attempted": len(latencies) + failed, "failed": failed,
           "errors": ["op 1: boom"] * bool(failed), "ops_per_s": 10.0,
           "sentinel_ms": 1.8, "peak_rss_mb": 40.0, "adj_ms": latencies,
           "output_sha256": sha, "modelled": {"tokens_per_s": 1.5},
           "selected": {"des": "vector"}}
    rec.update(extra)
    return rec


def _traced():
    return _record(self_ms={"bench.op": 0.5, "pmdk.tx": 9.5},
                   calls={"bench.op": 1.0, "pmdk.tx": 3.0},
                   counters={"pmdk.flushes": 7.0}, op_wall_ms=10.0,
                   ops_per_s=9.0, spans=4, trace_path="results/t.json")


def test_summary_counts_failures_in_error_rate():
    section = ledger.summarize([_record(), _record(failed=2)])
    assert section["metrics"]["error_rate"]["value"] == 2 / 242
    assert section["failed"] == 2
    assert not section["correct"]
    assert ledger.summarize([_record(), _record()])["correct"]


def test_summary_refuses_disagreeing_outputs():
    section = ledger.summarize([_record(sha="a"), _record(sha="b")])
    assert not section["correct"]


def test_report_json_round_trip():
    section = ledger.summarize([_record(), _record()], _traced())
    assert section["metrics"]["op_p90_ms"]["value"] == 108.0
    assert section["trace"]["layer_sum_error"] == 0.0
    assert section["trace"]["overhead"] == pytest.approx(10.0 / 9.0 - 1.0)
    doc = {"seed": 7, "correct": section["correct"],
           "workloads": {"kvserve": section}}
    assert json.loads(harness.dumps(doc)) == doc
    for trace in (False, True):
        line = json.loads(harness.dumps(ledger.result_line(doc, trace)))
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        spec = ledger.per_layer_metrics() if trace else ledger.END_TO_END
        expected = {k: unit for k, (unit, _) in spec.items()}
        assert {k: m["unit"] for k, m in line["metrics"].items()} == expected
    # a one-workload traced line reads 0 for a layer its workload never
    # called, as measured
    line = ledger.result_line(doc, True)["metrics"]
    assert line["pmdk.tx.calls"] == {"value": 3.0, "unit": "count"}
    assert line["memsim.des.calls"] == {"value": 0.0, "unit": "count"}


def test_result_line_leaves_out_what_was_not_measured():
    short = ledger.summarize([_record(latencies=[1.0] * 50)])
    assert short["metrics"]["op_p90_ms"]["value"] is None
    assert not short["correct"]
    doc = {"correct": False, "workloads": {"des": short}}
    line = ledger.result_line(doc, False)["metrics"]
    assert "op_p90_ms" not in line and line["op_p50_ms"]["value"] == 1.0

    traced = ledger.summarize([_record(), _record()], _traced())
    doc = {"correct": True, "workloads": {"des": short, "kvserve": traced}}
    doc["workloads"]["des"]["trace"] = traced["trace"] | {
        "self_ms": {"bench.op": 1.0}, "calls": {"bench.op": 1.0},
        "counters": {}}
    line = ledger.result_line(doc, True)["metrics"]
    assert "kvserve.pmdk.tx.self_ms" in line
    assert "des.pmdk.tx.self_ms" not in line
    assert "des.pmdk.flushes" not in line
    assert line["des.bench.op.calls"]["value"] == 1.0


def test_benchmark_json_matches_the_ledger():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(ledger.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == ledger.END_TO_END
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == ledger.per_layer_metrics()


# ---------------------------------------------------------------------------
# against the system under test
# ---------------------------------------------------------------------------

def test_boundaries_cover_the_layers_and_restore():
    pytest.importorskip("repro")
    from bench import workloads
    from repro.obs.tracing import validate_chrome_trace

    # the default rounds give every workload enough samples for its p90
    for w in workloads.WORKLOADS.values():
        assert w.ops_per_round * ledger.DEFAULT_ROUNDS >= \
            harness.min_samples(90)

    bounds = workloads.boundaries()
    assert {layer for layer, _, _ in bounds} == \
        set(ledger.LAYERS) - {harness.ROOT}
    before = [harness._get(owner, attr) for _, owner, attr in bounds]
    tracer = harness.LayerTracer(bounds)
    with tracer:
        assert all(harness._get(owner, attr) is not orig
                   for (_, owner, attr), orig in zip(bounds, before))
    assert all(harness._get(owner, attr) is orig
               for (_, owner, attr), orig in zip(bounds, before))

    # two ops of two spans each, in completion order
    spans = [("a", "a.f", 1_000, 2_000), (harness.ROOT, "op", 0, 10_000),
             ("a", "a.f", 11_000, 12_000), (harness.ROOT, "op", 10_000,
                                              20_000)]
    doc = harness.chrome_trace(spans, "t")
    validate_chrome_trace(doc)
    assert len(doc["traceEvents"]) == 5
    capped = harness.chrome_trace(spans, "t", cap=3)
    assert capped["otherData"] == {"generator": "bench", "ops": 1,
                                   "ops_traced": 2}
    assert len(capped["traceEvents"]) == 3
