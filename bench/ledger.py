"""The perf ledger: one command, four workloads, per-layer trace.

``PYTHONPATH=src python -m bench [--workloads a,b] [--seed N] [--rounds R]
[--trace [0|1]] [--out PATH]``

The parent never imports the system under test.  It runs ``R``
interleaved rounds (W1 W2 W3 W4, W1 W2 ...), each (round, workload) in a
fresh child process, one child at a time.  Each child is a single client
in a closed loop over its workload's fixed number of timed ops.  With
``--trace`` one more child per workload runs the same loop with every
layer boundary wrapped, folds the spans into per-layer self time and
writes them to ``results/bench_trace_<workload>.json`` as Chrome trace
events.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace`` the per-layer ones.  With several workloads
each metric name is prefixed by ``<workload>.``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from bench import harness

WORKLOADS = ("stream-pmem", "kvserve", "sweep", "des")

DEFAULT_ROUNDS = 5
DEFAULT_SEED = 7

#: end-to-end metrics: name -> (unit, better).  ``setup_s`` is wall
#: clock; the op timings are host-adjusted (see ``harness.run_round``):
#: ``adj_ms`` is a millisecond on a host that runs the probe in
#: ``harness.PROBE_REF_MS``.  ``error_rate`` is printed too but is not a
#: regression metric: a correct run reads exactly 0.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_p50_ms": ("adj_ms", "lower"),
    "op_p90_ms": ("adj_ms", "lower"),
    "ops_per_s": ("1/adj_s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: traced layers, named after the modules they wrap (see
#: ``bench.workloads.boundaries``); ``bench.op`` is the root span
LAYERS = (
    "bench.op",
    "stream.kernels", "stream.validation", "stream.native",
    "stream.pmem_stream",
    "pmdk.tx", "pmdk.pmem",
    "cxl.host", "cxl.device", "fabric", "faults",
    "kvserve.engine", "kvserve.blocks", "kvserve.routing",
    "streamer", "stream.simulated", "memsim.engine", "memsim.plan",
    "memsim.bwmodel", "machine.affinity",
    "tiering.evaluate", "tiering.heat", "tiering.migrate",
    "memsim.des", "memsim.des_fast", "memsim.des_jit",
)

#: per-op counters read at layer boundaries in the traced round:
#: name -> (unit, better)
COUNTERS = {
    "stream.triad_gbps": ("GB/s", "higher"),
    "pmdk.flushes": ("count", "lower"),
    "cxl.payload_bytes": ("B", "lower"),
    "cxl.wire_bytes": ("B", "lower"),
    "cxl.wire_efficiency": ("fraction", "higher"),
    "kvserve.prefetch_hit_ratio": ("fraction", "higher"),
    "kvserve.tokens_from_pool": ("count", "higher"),
    "kvserve.tokens_recomputed": ("count", "lower"),
    "memsim.plan_hit_ratio": ("fraction", "higher"),
    "memsim.des_events": ("count", "lower"),
    "memsim.des_backend.vector": ("fraction", "lower"),
    "memsim.des_backend.compiled": ("fraction", "higher"),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better), in report order."""
    out: dict[str, tuple[str, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = ("ms", "lower")
        out[f"{layer}.calls"] = ("count", "lower")
    out.update(COUNTERS)
    out["bench.trace_overhead"] = ("fraction", "lower")
    return out


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

#: a round measures about 3 s; this is far beyond any healthy round
_CHILD_TIMEOUT_S = 60.0
#: the prepare child may compile the kernel tier on a fresh checkout
_PREPARE_TIMEOUT_S = 600.0


class ChildFailed(RuntimeError):
    """A child process crashed, timed out or printed no record."""


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # string hashing salts dict and set layouts; pin it for steadier timing
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_JIT_CACHE"] = os.path.join(root, ".bench_cache", "jit")
    return env


def spawn(root: str, env: dict, task: dict, timeout: float) -> dict:
    """Run one child to completion and return its record."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bench.child", harness.dumps(task)],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{task} exceeded {timeout:.0f}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise ChildFailed(
            f"{task} exited with {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def git_sha(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _metric(value, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def summarize(rounds: list[dict], traced: dict | None = None) -> dict:
    """One workload's section of the report from its child records."""
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    problems = [e for r in rounds for e in r["errors"]]
    metrics = {"setup_s": _metric(
        statistics.median(r["setup_s"] for r in rounds), "s", len(rounds))}
    samples = [x for r in rounds for x in r["adj_ms"]]
    for q in (50, 90):
        try:
            value = harness.percentile(samples, q)
        except ValueError as exc:
            value = None
            problems.append(str(exc))
        metrics[f"op_p{q}_ms"] = _metric(value, "adj_ms", len(samples))
    metrics["ops_per_s"] = _metric(
        statistics.median(r["ops_per_s"] for r in rounds), "1/adj_s",
        len(rounds))
    metrics["error_rate"] = _metric(
        failed / attempted if attempted else 1.0, "fraction", attempted)
    metrics["peak_rss_mb"] = _metric(
        max(r["peak_rss_mb"] for r in rounds), "MB", len(rounds))

    everyone = rounds + ([traced] if traced else [])
    shas = sorted({r["output_sha256"] for r in everyone})
    if len(shas) > 1:
        problems.append(f"rounds disagree on the output: {shas}")
    section = {
        "metrics": metrics,
        "attempted": attempted + (traced["attempted"] if traced else 0),
        "failed": failed + (traced["failed"] if traced else 0),
        "output_sha256": shas[0],
        "modelled": rounds[0]["modelled"],
        "dispatch": rounds[-1]["selected"],
        "rounds": [{k: r[k] for k in ("setup_s", "adj_window_s", "attempted",
                                      "ops_per_s", "sentinel_ms",
                                      "peak_rss_mb")}
                   for r in rounds],
    }
    if traced:
        problems.extend(traced["errors"])
        section["trace"] = trace_summary(
            traced, metrics["ops_per_s"]["value"])
    section["problems"] = problems
    section["correct"] = section["failed"] == 0 and not problems
    return section


def trace_summary(traced: dict, untraced_ops_per_s: float) -> dict:
    """The traced round, per op: self time and calls of each layer it
    called, and the counters its workload keeps."""
    wall = traced["op_wall_ms"]
    return {
        "self_ms": traced["self_ms"],
        "calls": traced["calls"],
        "counters": traced["counters"],
        "op_wall_ms": wall,
        "layer_sum_error":
            abs(sum(traced["self_ms"].values()) - wall) / wall
            if wall else 0.0,
        "ops_per_s": traced["ops_per_s"],
        "overhead": (untraced_ops_per_s / traced["ops_per_s"] - 1.0
                     if traced["ops_per_s"] else 0.0),
        "spans": traced["spans"],
        "file": traced["trace_path"],
    }


def layer_values(section: dict) -> dict[str, float]:
    """The per-layer metrics a traced round measured."""
    trace = section["trace"]
    out: dict[str, float] = {}
    for layer, calls in trace["calls"].items():
        out[f"{layer}.self_ms"] = trace["self_ms"][layer]
        out[f"{layer}.calls"] = calls
    out.update(trace["counters"])
    out["bench.trace_overhead"] = trace["overhead"]
    return out


def result_line(doc: dict, trace: bool) -> dict:
    """The last-line summary: ``correct``/``attempted``/``failed`` and the
    end-to-end (or, traced, per-layer) metrics.

    A value that was not measured is left out: a p90 refused for too few
    samples, and in a multi-workload line the layers a workload never
    called and the counters it does not keep.  A one-workload traced line
    lists every per-layer metric, so there a layer the workload never
    called reads the 0 calls and 0 ms it measured.
    """
    sections = doc["workloads"]
    declared = per_layer_metrics() if trace else END_TO_END
    metrics = {}
    for name, section in sections.items():
        values = layer_values(section) if trace else {
            k: m["value"] for k, m in section["metrics"].items()
            if m["value"] is not None}
        if trace and len(sections) == 1:
            values = {k: values.get(k, 0.0) for k in declared}
        prefix = "" if len(sections) == 1 else f"{name}."
        for metric, (unit, _) in declared.items():
            if metric in values:
                metrics[prefix + metric] = {"value": values[metric],
                                            "unit": unit}
    return {"correct": doc["correct"],
            "attempted": sum(s["attempted"] for s in sections.values()),
            "failed": sum(s["failed"] for s in sections.values()),
            "metrics": metrics}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def render(doc: dict) -> str:
    prov = doc["provenance"]
    lines = [
        f"perf ledger  seed {doc['seed']}  {doc['rounds']} rounds  "
        f"git {prov['git_sha'] or '-'}",
        f"python {prov['python']}  numpy {prov['numpy']}  nproc "
        f"{prov['nproc']}  providers {prov['providers']}  env {prov['env']}",
    ]
    for name, section in doc["workloads"].items():
        lines.append("")
        lines.append(f"== {name}  {'ok' if section['correct'] else 'FAILED'}"
                     f"  output_sha256 {section['output_sha256']}")
        lines.append(f"  {'metric':<14}{'value':>14}  {'unit':<9}{'n':>6}")
        for metric, m in section["metrics"].items():
            value = "-" if m["value"] is None else f"{m['value']:.6g}"
            lines.append(f"  {metric:<14}{value:>14}  {m['unit']:<9}"
                         f"{m['n']:>6}")
        lines.append("  host probe ms per round: " + " ".join(
            f"{r['sentinel_ms']:.3f}" for r in section["rounds"]))
        lines.append(f"  dispatch: {section['dispatch']}")
        lines.append(f"  modelled (not wall clock): "
                     f"{json.dumps(section['modelled'], sort_keys=True)}")
        for problem in section["problems"]:
            lines.append(f"  problem: {problem}")
        if "trace" in section:
            lines.extend(_render_trace(section["trace"]))
    return "\n".join(lines)


def _render_trace(trace: dict) -> list[str]:
    wall = trace["op_wall_ms"]
    lines = [
        f"  traced round: op wall {wall:.4g} ms, overhead "
        f"{trace['overhead']:+.1%} vs untraced ops_per_s, layer-sum error "
        f"{trace['layer_sum_error']:.3%}, {trace['spans']} spans -> "
        f"{trace['file']}",
        f"    {'layer':<20}{'self_ms/op':>12}{'share':>8}{'calls/op':>10}",
    ]
    for layer, ms in sorted(trace["self_ms"].items(), key=lambda kv: -kv[1]):
        share = ms / wall if wall else 0.0
        lines.append(f"    {layer:<20}{ms:>12.4f}{share:>8.1%}"
                     f"{trace['calls'][layer]:>10.1f}")
    counters = {k: v for k, v in trace["counters"].items() if v}
    if counters:
        lines.append("    counters/op: "
                     + json.dumps(counters, sort_keys=True))
    return lines


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="python -m bench",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS),
                   help=f"comma-separated subset of {','.join(WORKLOADS)}")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    # the shared benchmark calling convention passes --seconds; a run's
    # length is set by each workload's fixed op count per round instead
    p.add_argument("--seconds", type=float, help=argparse.SUPPRESS)
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1), help="also run one traced round")
    p.add_argument("--out", help="write the full report as JSON here")
    args = p.parse_args(argv)
    args.workloads = args.workloads.split(",")
    unknown = [w for w in args.workloads if w not in WORKLOADS]
    if unknown or len(set(args.workloads)) != len(args.workloads):
        p.error(f"--workloads takes distinct names from {WORKLOADS}")
    if args.rounds < 1:
        p.error("--rounds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = child_env(root)
    rounds: dict[str, list[dict]] = {w: [] for w in args.workloads}
    traced: dict[str, dict] = {}
    try:
        prepared = spawn(root, env, {"prepare": True}, _PREPARE_TIMEOUT_S)
        src = os.path.join(root, "src", "")
        if not prepared["repro"].startswith(src):
            raise ChildFailed(f"repro imported from {prepared['repro']}, "
                              f"not from this checkout's {src}")
        for _ in range(args.rounds):
            for w in args.workloads:
                rounds[w].append(spawn(root, env, {
                    "workload": w, "seed": args.seed}, _CHILD_TIMEOUT_S))
        if args.trace:
            os.makedirs(os.path.join(root, "results"), exist_ok=True)
            for w in args.workloads:
                path = os.path.join("results", f"bench_trace_{w}.json")
                traced[w] = spawn(root, env, {
                    "workload": w, "seed": args.seed, "trace_path": path},
                    _CHILD_TIMEOUT_S)
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    sections = {w: summarize(rounds[w], traced.get(w))
                for w in args.workloads}
    doc = {
        "seed": args.seed,
        "rounds": args.rounds,
        "provenance": {
            "git_sha": git_sha(root),
            "python": prepared["python"],
            "numpy": prepared["numpy"],
            "nproc": os.cpu_count(),
            "providers": prepared["providers"],
            "env": {k: v for k, v in sorted(os.environ.items())
                    if k.startswith("REPRO_")},
        },
        "correct": all(s["correct"] for s in sections.values()),
        "workloads": sections,
    }
    print(render(doc))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(harness.dumps(doc) + "\n")
    print(harness.dumps(result_line(doc, bool(args.trace))))
    return 0 if doc["correct"] else 1
