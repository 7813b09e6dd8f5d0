"""DES engine performance: vector and compiled backends vs the scalar oracle.

Four gates, all recorded in ``results/BENCH_des.json``:

* **throughput** — events/sec of every available backend on the
  validation-scale configurations (10 threads, 200 us window, triad) for
  the three paths of the paper's evaluation (local DDR5, remote DDR5,
  CXL).  Target: vector >= 10x scalar on every path at full scale;
* **small-N** — the compiled event loop vs the scalar loop in the
  regime below the vectorization threshold (2 threads), where ``auto``
  dispatches to it.  Target: >= 5x when a compiled provider exists;
* **oracle equivalence** — at small scale every ``DesResult`` field from
  the compiled backend (every policy) and the vector backend
  (single-target policies, the only ones it runs) is byte-identical to
  the scalar oracle, on both testbeds;
* **validation tolerances** — the analytic-vs-DES deviations of
  ``bench_model_validation.py`` still hold at a 10x longer window
  (affordable only because of the fast backends).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_des_perf.py [--smoke]

or via pytest (CI smoke step)::

    PYTHONPATH=src python -m pytest benchmarks/bench_des_perf.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from repro import compiled
from repro.machine.affinity import place_threads
from repro.machine.numa import NumaPolicy, PolicyKind
from repro.machine.presets import setup1, setup2
from repro.memsim import des_jit
from repro.memsim.des import (
    _build_setup,
    _finalize,
    _run_scalar,
    simulate_stream_des,
)
from repro.memsim.des_fast import run_vector

try:
    from benchmarks._timing import best_of as _best_of
    from benchmarks.bench_model_validation import TOLERANCE, _validate_all
except ImportError:                                   # CLI: script-dir import
    from _timing import best_of as _best_of
    from bench_model_validation import TOLERANCE, _validate_all

RESULTS_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "results"))

#: validation-scale window (ns) — what bench_model_validation runs
FULL_SIM_NS = 200_000.0
#: reduced window for ``--smoke`` / CI
SMOKE_SIM_NS = 50_000.0

#: throughput scenarios: the three paths of the paper's evaluation
SCENARIOS = [
    ("local_ddr5", NumaPolicy.bind(0)),
    ("remote_ddr5", NumaPolicy.bind(1)),
    ("cxl", NumaPolicy.bind(2)),
]

#: oracle-scale equivalence matrix (small placements, every policy kind)
ORACLE_CASES = [
    ("setup1", NumaPolicy.bind(0), 1),
    ("setup1", NumaPolicy.bind(0), 3),
    ("setup1", NumaPolicy.bind(1), 3),
    ("setup1", NumaPolicy.bind(2), 3),
    ("setup1", NumaPolicy.interleave(0, 2), 4),
    ("setup1", NumaPolicy.interleave(0, 1, 2), 6),
    ("setup1", NumaPolicy.weighted({0: 3, 2: 1}), 4),
    ("setup2", NumaPolicy.bind(0), 4),
    ("setup2", NumaPolicy.bind(1), 4),
]


def _throughput(sim_ns: float, threads: int, repeat: int) -> dict:
    m = setup1().machine
    out: dict[str, dict] = {}
    for key, policy in SCENARIOS:
        cores = place_threads(m, threads, sockets=[0])
        setup = _build_setup(m, "triad", cores, policy, False,
                             sim_ns, sim_ns * 0.1)
        scalar_s, counts_s = _best_of(repeat, lambda: _run_scalar(setup))
        vector_s, counts_v = _best_of(repeat, lambda: run_vector(setup))
        if _finalize(setup, counts_s) != _finalize(setup, counts_v):
            raise AssertionError(f"{key}: backends disagree at bench scale")
        events = int(np.sum(counts_s.completed))
        out[key] = {
            "events": events,
            "scalar_s": round(scalar_s, 6),
            "vector_s": round(vector_s, 6),
            "scalar_events_per_s": round(events / scalar_s),
            "vector_events_per_s": round(events / vector_s),
            "speedup": round(scalar_s / vector_s, 2),
        }
        if des_jit.available():
            compiled_s, counts_c = _best_of(
                repeat, lambda: des_jit.run_compiled(setup))
            if _finalize(setup, counts_s) != _finalize(setup, counts_c):
                raise AssertionError(
                    f"{key}: compiled backend disagrees at bench scale")
            out[key]["compiled_s"] = round(compiled_s, 6)
            out[key]["compiled_events_per_s"] = round(events / compiled_s)
            out[key]["speedup_compiled"] = round(scalar_s / compiled_s, 2)
    return out


def _small_n(sim_ns: float, repeat: int) -> dict:
    """Scalar vs compiled in the small-N regime (below the vectorization
    threshold, where ``auto`` picks the compiled loop)."""
    m = setup1().machine
    out: dict[str, dict] = {}
    for key, policy in SCENARIOS:
        cores = place_threads(m, 2, sockets=[0])
        setup = _build_setup(m, "triad", cores, policy, False,
                             sim_ns, sim_ns * 0.1)
        scalar_s, counts_s = _best_of(repeat, lambda: _run_scalar(setup))
        events = int(np.sum(counts_s.completed))
        entry = {
            "events": events,
            "scalar_s": round(scalar_s, 6),
        }
        if des_jit.available():
            compiled_s, counts_c = _best_of(
                repeat, lambda: des_jit.run_compiled(setup))
            if _finalize(setup, counts_s) != _finalize(setup, counts_c):
                raise AssertionError(
                    f"small_n/{key}: compiled backend disagrees")
            entry["compiled_s"] = round(compiled_s, 6)
            entry["speedup"] = round(scalar_s / compiled_s, 2)
        out[key] = entry
    return out


def _oracle_identical(sim_ns: float) -> tuple[bool, list[str]]:
    testbeds = {"setup1": setup1(), "setup2": setup2()}
    mismatched: list[str] = []
    for tb_key, policy, n in ORACLE_CASES:
        m = testbeds[tb_key].machine
        kwargs = {} if tb_key == "setup2" else {"sockets": [0]}
        cores = place_threads(m, n, **kwargs)
        scalar = simulate_stream_des(m, "triad", cores, policy,
                                     sim_ns=sim_ns, warmup_ns=sim_ns * 0.1,
                                     des_backend="scalar")
        if policy.kind is PolicyKind.BIND:
            vector = simulate_stream_des(m, "triad", cores, policy,
                                         sim_ns=sim_ns,
                                         warmup_ns=sim_ns * 0.1,
                                         des_backend="vector")
            if scalar != vector:
                mismatched.append(f"{tb_key}/{policy.describe()}/n={n}")
        if des_jit.available():
            comp = simulate_stream_des(m, "triad", cores, policy,
                                       sim_ns=sim_ns,
                                       warmup_ns=sim_ns * 0.1,
                                       des_backend="compiled")
            if scalar != comp:
                mismatched.append(
                    f"{tb_key}/{policy.describe()}/n={n} (compiled)")
    return not mismatched, mismatched


def run_bench(sim_ns: float = FULL_SIM_NS, threads: int = 10,
              repeat: int = 3) -> dict:
    """Measure every backend; return the ``BENCH_des.json`` document."""
    compiled.warmup()
    scenarios = _throughput(sim_ns, threads, repeat)
    small_n = _small_n(sim_ns, repeat)
    identical, mismatched = _oracle_identical(sim_ns / 4)

    deviations = {
        label: round(abs(des - analytic) / analytic, 4)
        for label, (analytic, des)
        in _validate_all(sim_ns=10 * sim_ns).items()
    }
    worst = max(deviations.values())

    return {
        "config": {
            "sim_ns": sim_ns,
            "threads": threads,
            "repeat": repeat,
            "oracle_cases": len(ORACLE_CASES),
        },
        "scenarios": scenarios,
        "small_n": small_n,
        "speedup_min": min(s["speedup"] for s in scenarios.values()),
        "compiled_provider": des_jit.provider(),
        "small_n_speedup_min": (
            min(s["speedup"] for s in small_n.values())
            if des_jit.available() else None),
        "oracle_identical": identical,
        "oracle_mismatched": mismatched,
        "deviation_10x_window": {
            "per_config": deviations,
            "worst": worst,
            "tolerance": TOLERANCE,
            "ok": worst <= TOLERANCE,
        },
    }


def _report(doc: dict) -> str:
    cfg = doc["config"]
    lines = [
        f"=== DES backends: events/sec ({cfg['threads']} threads, "
        f"{cfg['sim_ns']:,.0f} ns window, triad) ===",
        f"{'scenario':<14}{'events':>9}{'scalar ev/s':>14}"
        f"{'vector ev/s':>14}{'compiled ev/s':>15}{'speedup':>9}",
    ]
    for key, s in doc["scenarios"].items():
        comp = (f"{s['compiled_events_per_s']:>15,}"
                if "compiled_events_per_s" in s else f"{'n/a':>15}")
        lines.append(
            f"{key:<14}{s['events']:>9,}{s['scalar_events_per_s']:>14,}"
            f"{s['vector_events_per_s']:>14,}{comp}{s['speedup']:>8.1f}x"
        )
    dev = doc["deviation_10x_window"]
    lines += [
        f"minimum speedup (vector vs scalar): {doc['speedup_min']:.1f}x",
        f"compiled provider: {doc['compiled_provider'] or 'none'}",
    ]
    if doc["small_n_speedup_min"] is not None:
        lines.append(
            "small-N compiled vs scalar (2 threads), minimum speedup: "
            f"{doc['small_n_speedup_min']:.1f}x")
    lines += [
        f"oracle-scale results identical: {doc['oracle_identical']} "
        f"({cfg['oracle_cases']} cases)",
        f"worst analytic deviation at 10x window: {dev['worst']:.2%} "
        f"(tolerance {dev['tolerance']:.0%})",
    ]
    return "\n".join(lines)


def _write(doc: dict, out_path: str) -> None:
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# pytest entry point (CI smoke step)
# ---------------------------------------------------------------------------

def test_des_perf_smoke(results_dir):
    """Reduced-scale run; asserts equivalence and a conservative speedup
    floor (full-scale numbers are committed from a standalone run)."""
    doc = run_bench(sim_ns=SMOKE_SIM_NS, threads=10, repeat=2)
    _write(doc, os.path.join(results_dir, "BENCH_des.json"))
    print("\n" + _report(doc))
    assert doc["oracle_identical"], doc["oracle_mismatched"]
    assert doc["deviation_10x_window"]["ok"], doc["deviation_10x_window"]
    assert doc["speedup_min"] >= 3.0
    # small-N gate: the compiled event loop must beat the scalar loop
    # >= 5x in the regime auto-dispatch hands it (skipped only when no
    # compiled provider exists in this environment)
    if doc["compiled_provider"] is not None:
        assert doc["small_n_speedup_min"] >= 5.0, doc["small_n"]


# ---------------------------------------------------------------------------
# standalone CLI
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--smoke", action="store_true",
                   help=f"reduced window ({SMOKE_SIM_NS:,.0f} ns)")
    p.add_argument("--repeat", type=int, default=3,
                   help="repetitions per backend (best-of)")
    p.add_argument("--threads", type=int, default=10)
    p.add_argument("--out", default=os.path.join(RESULTS_DIR,
                                                 "BENCH_des.json"))
    args = p.parse_args(argv)

    sim_ns = SMOKE_SIM_NS if args.smoke else FULL_SIM_NS
    doc = run_bench(sim_ns=sim_ns, threads=args.threads, repeat=args.repeat)
    _write(doc, args.out)
    print(_report(doc))
    print(f"wrote {args.out}")
    ok = (doc["oracle_identical"] and doc["deviation_10x_window"]["ok"]
          and doc["speedup_min"] >= (3.0 if args.smoke else 10.0))
    if doc["compiled_provider"] is not None:
        ok = ok and doc["small_n_speedup_min"] >= 5.0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
