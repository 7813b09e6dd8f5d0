"""Runtime tiering: heat-tracking speedup, policy gates, and overhead.

Five gates, all landing in ``results/BENCH_tiering.json``:

* **heat_speedup** — :class:`HeatTracker`'s vectorized fold must be
  >= 10x the per-element :func:`fold_reference` on the same 64k-page
  batch (wall-clock, best-of);
* **zipf_advantage** — on a Zipf hot set that fits the near tier,
  TPP promotion must reach >= 2x lower modelled effective latency than
  the static interleave baseline;
* **streaming_inversion** — on a pure streaming trace the ranking must
  invert: migration only costs, so static wins;
* **crossover** — sweeping the far:near latency ratio must flip the
  TPP-vs-static sign: migration loses when the tiers are equally fast
  and wins once far memory is slow enough;
* **disabled_overhead** — a sweep with no tiering axis must stay within
  2% of a hook-bypassed baseline (the tiering wiring's cost when off is
  one ``is not None`` check per series).

The three policy gates are fully modelled and seeded — zero timing
noise, so their margins are exact on any machine.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_tiering.py [--smoke]

or via pytest (CI smoke step)::

    PYTHONPATH=src python -m pytest benchmarks/bench_tiering.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from repro import faults, obs
from repro.stream.config import StreamConfig
from repro.streamer.runner import StreamerRunner
from repro.tiering.evaluate import TieringSpec, evaluate_policy
from repro.tiering.heat import HeatTracker, fold_reference

try:
    from benchmarks._timing import best_of as _best_of, iters_per_sample, \
        paired_overhead
except ImportError:                      # standalone execution
    from _timing import best_of as _best_of, iters_per_sample, \
        paired_overhead

RESULTS_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "results"))

#: HeatTracker's fold vs the per-element fold_reference (>= 64k pages)
HEAT_GATE_X = 10.0
#: TPP vs static on the DDR-sized Zipf hot set
ZIPF_GATE_X = 2.0
#: tiering-disabled sweep overhead vs hook-bypassed baseline
OVERHEAD_GATE_PCT = 2.0

HEAT_PAGES = 65_536

FULL_REPEAT = 7
SMOKE_REPEAT = 3

#: the Zipf-hot-set gate workload: the hot set is exactly near-capacity
#: sized, so a promoting policy can (after warm-up epochs) serve ~95% of
#: traffic from DDR while the static stripe serves ~25%
ZIPF_SPEC = TieringSpec(
    policy="tpp", trace="zipf", n_pages=4096, near_fraction=0.25,
    epochs=48, epoch_accesses=16_384, hot_fraction=0.95,
    max_moves_per_epoch=1024,
)

#: the pure-streaming gate workload: every page is touched exactly once
#: per sweep, so heat never concentrates and migration is pure cost
STREAM_SPEC = TieringSpec(
    policy="tpp", trace="stream", n_pages=2048, near_fraction=0.5,
    epochs=16, epoch_accesses=1024, hysteresis=1,
    max_moves_per_epoch=4096,
)

#: far:near latency ratios swept for the crossover gate
CROSSOVER_RATIOS = (1.0, 1.5, 2.0, 3.0, 4.0)
CROSSOVER_NEAR_NS = 100.0


# ---------------------------------------------------------------------------
# gate 1: vectorized heat tracking
# ---------------------------------------------------------------------------

def bench_heat(repeat: int, pages: int = HEAT_PAGES) -> dict:
    """Best-of seconds for one record+fold epoch: the per-element
    reference vs the tracker, on the same batch."""
    rng = np.random.default_rng(42)
    batch = rng.integers(0, pages, size=pages, dtype=np.int64)
    tracker = HeatTracker(pages)
    heat = np.zeros(pages, dtype=np.float64)

    def fold():
        tracker.record(batch)
        tracker.end_epoch()

    reference_s, _ = _best_of(
        repeat, lambda: fold_reference(heat, batch, tracker.decay))
    tracker_s, _ = _best_of(repeat, fold)
    speedup = reference_s / tracker_s
    return {
        "pages": pages,
        "accesses_per_epoch": int(batch.size),
        "reference_s": round(reference_s, 6),
        "tracker_s": round(tracker_s, 6),
        "speedup_x": round(speedup, 2),
        "gate_x": HEAT_GATE_X,
        "ok": speedup >= HEAT_GATE_X,
    }


# ---------------------------------------------------------------------------
# gates 2-4: modelled policy outcomes (deterministic, no timing)
# ---------------------------------------------------------------------------

def _latency(spec: TieringSpec, policy: str, **kwargs) -> float:
    return evaluate_policy(replace(spec, policy=policy),
                           **kwargs).effective_latency_ns


def bench_zipf_advantage() -> dict:
    static = evaluate_policy(replace(ZIPF_SPEC, policy="static"))
    tpp = evaluate_policy(replace(ZIPF_SPEC, policy="tpp"))
    ratio = static.effective_latency_ns / tpp.effective_latency_ns
    return {
        "spec": ZIPF_SPEC.describe(),
        "static_ns": round(static.effective_latency_ns, 2),
        "tpp_ns": round(tpp.effective_latency_ns, 2),
        "tpp_near_fraction": round(tpp.near_access_fraction, 4),
        "static_near_fraction": round(static.near_access_fraction, 4),
        "advantage_x": round(ratio, 3),
        "gate_x": ZIPF_GATE_X,
        "ok": ratio >= ZIPF_GATE_X,
    }


def bench_streaming_inversion() -> dict:
    static_ns = _latency(STREAM_SPEC, "static")
    tpp_ns = _latency(STREAM_SPEC, "tpp")
    penalty = tpp_ns / static_ns
    return {
        "spec": STREAM_SPEC.describe(),
        "static_ns": round(static_ns, 2),
        "tpp_ns": round(tpp_ns, 2),
        "tpp_penalty_x": round(penalty, 3),
        "ok": penalty > 1.0,        # the ranking inverts: static wins
    }


def bench_crossover() -> dict:
    """TPP-minus-static sign across a far:near latency ratio sweep."""
    spec = replace(ZIPF_SPEC, epochs=16)
    points = []
    for ratio in CROSSOVER_RATIOS:
        far_ns = CROSSOVER_NEAR_NS * ratio
        static_ns = _latency(spec, "static", near_ns=CROSSOVER_NEAR_NS,
                             far_ns=far_ns)
        tpp_ns = _latency(spec, "tpp", near_ns=CROSSOVER_NEAR_NS,
                          far_ns=far_ns)
        points.append({
            "far_over_near": ratio,
            "static_ns": round(static_ns, 2),
            "tpp_ns": round(tpp_ns, 2),
            "tpp_wins": tpp_ns < static_ns,
        })
    first, last = points[0], points[-1]
    return {
        "near_ns": CROSSOVER_NEAR_NS,
        "points": points,
        # equally-fast tiers: migration is pure cost; slow far tier:
        # promotion pays for itself — the preference must flip between
        "ok": (not first["tpp_wins"]) and last["tpp_wins"],
    }


# ---------------------------------------------------------------------------
# gate 5: tiering-disabled sweep overhead
# ---------------------------------------------------------------------------

def bench_disabled_overhead(repeat: int, smoke: bool) -> dict:
    """A no-tiering sweep vs the same sweep with every fault hook
    bypassed.

    The tiering axis adds exactly one ``spec.tiering is not None``
    check per series plus the (never-called) ``on_migration`` hook;
    pairing each repetition's two variants in alternating order and
    gating the *median* per-pair ratio keeps shared-runner noise out
    (:func:`benchmarks._timing.paired_overhead`).
    """
    cfg = StreamConfig(array_size=100_000 if smoke else 400_000, ntimes=3)
    runner = StreamerRunner(config=cfg)

    def sweep():
        return runner.run_group("1a", kernels=("triad",))

    sweep()                                     # warm placement caches
    iters = iters_per_sample(sweep)
    for attempt in range(3):
        bypassed_s, normal_s, median = paired_overhead(
            sweep, faults.bypassed, repeat, iters)
        overhead_pct = (median - 1.0) * 100.0
        if overhead_pct <= OVERHEAD_GATE_PCT:
            break                               # noise spikes retry
    return {
        "iters_per_sample": iters,
        "bypassed_s": round(bypassed_s, 6),
        "normal_s": round(normal_s, 6),
        "overhead_pct": round(overhead_pct, 3),
        "gate_pct": OVERHEAD_GATE_PCT,
        "ok": overhead_pct <= OVERHEAD_GATE_PCT,
    }


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def run_bench(repeat: int = FULL_REPEAT, smoke: bool = False) -> dict:
    obs.disable()
    obs.reset()
    faults.clear()
    gates = {
        "heat_speedup": bench_heat(repeat),
        "zipf_advantage": bench_zipf_advantage(),
        "streaming_inversion": bench_streaming_inversion(),
        "crossover": bench_crossover(),
        "disabled_overhead": bench_disabled_overhead(repeat, smoke),
    }
    return {
        "config": {"repeat": repeat, "smoke": smoke},
        "gates": gates,
        "ok": all(g["ok"] for g in gates.values()),
    }


def _report(doc: dict) -> str:
    g = doc["gates"]
    heat, zipf = g["heat_speedup"], g["zipf_advantage"]
    inv, cross, ovh = (g["streaming_inversion"], g["crossover"],
                       g["disabled_overhead"])
    flips = [p["far_over_near"] for p in cross["points"] if p["tpp_wins"]]
    lines = [
        "=== runtime tiering gates ===",
        f"heat fold @ {heat['pages']} pages: reference "
        f"{heat['reference_s']:.4f}s tracker {heat['tracker_s']:.4f}s -> "
        f"{heat['speedup_x']:.1f}x"
        f" (gate >= {heat['gate_x']:.0f}x) "
        f"{'ok' if heat['ok'] else 'FAIL'}",
        f"zipf hot set: static {zipf['static_ns']:.1f}ns vs tpp "
        f"{zipf['tpp_ns']:.1f}ns -> {zipf['advantage_x']:.2f}x "
        f"(gate >= {zipf['gate_x']:.1f}x) {'ok' if zipf['ok'] else 'FAIL'}",
        f"pure streaming: tpp pays {inv['tpp_penalty_x']:.2f}x over static "
        f"(ranking inverts) {'ok' if inv['ok'] else 'FAIL'}",
        f"crossover: tpp first wins at far:near >= "
        f"{min(flips) if flips else 'never'} "
        f"{'ok' if cross['ok'] else 'FAIL'}",
        f"tiering-disabled sweep overhead: {ovh['overhead_pct']:.2f}% "
        f"(gate <= {ovh['gate_pct']:.0f}%) {'ok' if ovh['ok'] else 'FAIL'}",
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

def test_tiering_smoke(results_dir):
    """Reduced-scale run; every gate must hold."""
    doc = run_bench(repeat=SMOKE_REPEAT, smoke=True)
    _write(doc, os.path.join(results_dir, "BENCH_tiering.json"))
    print("\n" + _report(doc))
    assert doc["ok"], {k: v["ok"] for k, v in doc["gates"].items()}


# ---------------------------------------------------------------------------
# standalone CLI
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--smoke", action="store_true",
                   help="reduced workload sizes")
    p.add_argument("--repeat", type=int, default=FULL_REPEAT,
                   help="repetitions per timed variant (best-of)")
    p.add_argument("--out", default=os.path.join(RESULTS_DIR,
                                                 "BENCH_tiering.json"))
    args = p.parse_args(argv)

    doc = run_bench(repeat=args.repeat, smoke=args.smoke)
    _write(doc, args.out)
    print(_report(doc))
    print(f"wrote {args.out}")
    return 0 if doc["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
