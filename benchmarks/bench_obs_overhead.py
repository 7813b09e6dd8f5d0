"""Observability overhead: the disabled path must be free.

The instrumentation hooks (``obs.inc``, ``obs.span``...) sit on the hot
layers' batch boundaries; while disabled each call is one module-global
flag check.  This bench times representative workloads twice —

* **bypassed** — under ``obs.bypassed()``, where every hook is swapped
  for a bare no-op: the stand-in for uninstrumented code;
* **disabled** — the normal production path (flag check, then return);

and gates the difference at <= 2%.  An **enabled** pass is also timed
(informational — recording is allowed to cost something) and its
``ResultSet`` output is checked byte-identical to the disabled run.
Everything lands in ``results/BENCH_obs.json``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py [--smoke]

or via pytest (CI smoke step)::

    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro import obs
from repro.machine.affinity import place_threads
from repro.machine.numa import NumaPolicy
from repro.machine.presets import setup1
from repro.memsim.des import simulate_stream_des
from repro.stream.config import StreamConfig
from repro.stream.pmem_stream import StreamPmem
from repro.streamer.runner import StreamerRunner

try:
    from benchmarks._timing import iters_per_sample, paired_overhead, \
        time_once
except ImportError:                                   # CLI: script-dir import
    from _timing import iters_per_sample, paired_overhead, time_once

RESULTS_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "results"))

#: disabled-mode overhead gate (percent of the bypassed baseline)
GATE_PCT = 2.0

FULL_REPEAT = 9
SMOKE_REPEAT = 7


def _workloads(smoke: bool) -> dict:
    """name -> zero-arg callable exercising one instrumented layer."""
    m = setup1().machine
    cores = place_threads(m, 4, sockets=[0])
    sim_ns = 50_000.0 if smoke else 200_000.0
    cfg = StreamConfig(array_size=100_000 if smoke else 400_000, ntimes=3)
    runner = StreamerRunner(config=cfg)

    def des():
        return simulate_stream_des(m, "triad", cores, NumaPolicy.bind(2),
                                   sim_ns=sim_ns, warmup_ns=sim_ns * 0.1)

    def pmem():
        with StreamPmem.create("mem://32m", cfg) as sp:
            return sp.run(validate=False)

    def sweep():
        return runner.run_group("1a", kernels=("triad",))

    return {"des": des, "pmem": pmem, "sweep": sweep}


def run_bench(repeat: int = FULL_REPEAT, smoke: bool = False) -> dict:
    """Measure every workload; return the ``BENCH_obs.json`` document."""
    obs.disable()
    obs.reset()
    workloads = _workloads(smoke)

    results: dict[str, dict] = {}
    for name, fn in workloads.items():
        fn()                                    # warm caches / plan pools
        iters = iters_per_sample(fn)
        # the true disabled-mode cost is a handful of flag checks (~0%);
        # a shared runner can still throw multi-percent noise spikes, so
        # a measurement over the gate is retried — genuine regressions
        # (hot-path work outside the flag check) fail every attempt
        for attempt in range(3):
            bypassed_s, disabled_s, ratio = paired_overhead(
                fn, obs.bypassed, repeat, iters)
            if (ratio - 1.0) * 100.0 <= GATE_PCT:
                break
        obs.enable()
        enabled_s = min(time_once(fn, iters)
                        for _ in range(max(2, repeat // 2))) / iters
        obs.disable()
        obs.reset()
        results[name] = {
            "iters_per_sample": iters,
            "bypassed_s": round(bypassed_s, 6),
            "disabled_s": round(disabled_s, 6),
            "enabled_s": round(enabled_s, 6),
            "overhead_pct": round((ratio - 1.0) * 100.0, 3),
            "enabled_overhead_pct": round(
                (enabled_s - bypassed_s) / bypassed_s * 100.0, 3),
        }

    # enabling observability must not change simulation output
    sweep = workloads["sweep"]
    baseline_csv = sweep().to_csv()
    obs.enable()
    enabled_csv = sweep().to_csv()
    obs.disable()
    obs.reset()
    identical = enabled_csv == baseline_csv

    worst = max(r["overhead_pct"] for r in results.values())
    return {
        "config": {"repeat": repeat, "smoke": smoke,
                   "workloads": sorted(workloads)},
        "workloads": results,
        "overhead_max_pct": worst,
        "gate_pct": GATE_PCT,
        "identical_output": identical,
        "ok": worst <= GATE_PCT and identical,
    }


def _report(doc: dict) -> str:
    lines = [
        "=== observability overhead: disabled hooks vs bypassed "
        f"baseline (best of {doc['config']['repeat']}) ===",
        f"{'workload':<10}{'bypassed':>11}{'disabled':>11}{'enabled':>11}"
        f"{'disabled %':>12}{'enabled %':>11}",
    ]
    for name, r in doc["workloads"].items():
        lines.append(
            f"{name:<10}{r['bypassed_s']:>10.4f}s{r['disabled_s']:>10.4f}s"
            f"{r['enabled_s']:>10.4f}s{r['overhead_pct']:>11.2f}%"
            f"{r['enabled_overhead_pct']:>10.2f}%"
        )
    lines += [
        f"worst disabled-mode overhead: {doc['overhead_max_pct']:.2f}% "
        f"(gate {doc['gate_pct']:.0f}%)",
        f"enabled-mode output byte-identical: {doc['identical_output']}",
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

def test_obs_overhead_smoke(results_dir):
    """Reduced-scale run; gates disabled-mode overhead and output parity."""
    doc = run_bench(repeat=SMOKE_REPEAT, smoke=True)
    _write(doc, os.path.join(results_dir, "BENCH_obs.json"))
    print("\n" + _report(doc))
    assert doc["identical_output"]
    assert doc["overhead_max_pct"] <= doc["gate_pct"], doc["workloads"]


# ---------------------------------------------------------------------------
# standalone CLI
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--smoke", action="store_true",
                   help="reduced workload sizes")
    p.add_argument("--repeat", type=int, default=FULL_REPEAT,
                   help="repetitions per variant (best-of)")
    p.add_argument("--out", default=os.path.join(RESULTS_DIR,
                                                 "BENCH_obs.json"))
    args = p.parse_args(argv)

    doc = run_bench(repeat=args.repeat, smoke=args.smoke)
    _write(doc, args.out)
    print(_report(doc))
    print(f"wrote {args.out}")
    return 0 if doc["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
