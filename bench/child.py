"""One benchmark round in a fresh process (spawned by :mod:`bench.ledger`).

Usage: ``python -m bench.child '<task json>'``.  The task is either
``{"prepare": true}`` — compile the kernel tier into ``$REPRO_JIT_CACHE``
and report provenance — or one round of one workload::

    {"workload": "kvserve", "seed": 7, "trace_path": null}

The last line of standard output is the round's JSON record.  Set-up
time is wall clock from the top of this module, before the system under
test is imported, to the end of the untimed warm-up op; op times are
host-adjusted (see :func:`bench.harness.run_round`).
"""

import json
import resource
import statistics
import sys
import time

from bench import harness   # standard library only

# set-up time starts here, before the system under test is imported
_START = time.perf_counter()


def prepare() -> dict:
    """Compile every kernel family once and byte-compile the workloads,
    so neither lands in a round's set-up time."""
    import platform

    import numpy

    import repro
    from bench import workloads  # noqa: F401 - warms the bytecode cache
    from repro import compiled

    return {"providers": compiled.warmup(),
            "repro": repro.__file__,
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def run(task: dict) -> dict:
    from bench import workloads
    from repro import compiled

    w = workloads.WORKLOADS[task["workload"]](task["seed"])
    w.warm_up()
    setup_s = time.perf_counter() - _START

    trace_path = task.get("trace_path")
    record: dict = {}
    if trace_path is None:
        res = harness.run_round(w.op, w.check, ops=w.ops_per_round)
    else:
        tracer = harness.LayerTracer(workloads.boundaries())
        totals: dict[str, float] = {}

        def after(i, out) -> None:
            for name, value in w.counters(out).items():
                totals[name] = totals.get(name, 0.0) + value

        with tracer:
            res = harness.run_round(
                tracer.wrap(harness.ROOT, harness.ROOT, w.op), w.check,
                ops=w.ops_per_round, after=after)
        spans = tracer.spans
        record.update(_fold(spans, res, totals), trace_path=trace_path)
        doc = harness.chrome_trace(spans, f"bench {w.name}")
        from repro.obs.tracing import validate_chrome_trace
        validate_chrome_trace(doc)
        with open(trace_path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
    record.update({
        "workload": w.name,
        "setup_s": setup_s,
        "attempted": res.attempted,
        "failed": res.failed,
        "errors": res.errors,
        "adj_window_s": res.adj_window_s,
        "ops_per_s": res.ops_per_s,
        "adj_ms": res.adj_ms,
        "sentinel_ms": statistics.median(res.probes_ms),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "output_sha256": w.output_sha256,
        "modelled": w.modelled,
        "selected": compiled.selected(),
    })
    return record


def _fold(spans, res: harness.RoundResult, totals: dict) -> dict:
    """Per-op layer self time, calls and counters of a traced round."""
    self_ns, calls = harness.fold_self_time(spans)
    ops = max(res.attempted, 1)
    op_wall_ns = sum(end - start for layer, _, start, end in spans
                     if layer == harness.ROOT)
    return {
        "self_ms": {k: v / 1e6 / ops for k, v in self_ns.items()},
        "calls": {k: v / ops for k, v in calls.items()},
        "counters": {k: v / max(res.completed, 1) for k, v in totals.items()},
        "op_wall_ms": op_wall_ns / 1e6 / ops,
        "spans": len(spans),
    }


def main(argv: list[str]) -> int:
    task = json.loads(argv[1])
    print(harness.dumps(prepare() if task.get("prepare") else run(task)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
