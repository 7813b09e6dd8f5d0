"""Shared timing helpers for the benches.

Every perf benchmark measures through :func:`best_of` or
:func:`best_of_timed`, and both run **one untimed warm-up iteration**
before the timed repeats.  The warm-up absorbs one-time costs that are
not the steady-state being measured — JIT/C kernel compilation and
self-checks in the compiled tier, lazy imports, allocator pool growth,
CPU frequency ramp — so the recorded best-of is a steady-state number.
``benchmarks/conftest.py`` asserts that the perf benches actually route
their timing through this module, keeping the hygiene uniform.

The hook-overhead gates (observability, fault plane, tiering, KV-cache
serving) measure through :func:`paired_overhead`: the code as shipped
against the same code with its hooks swapped for no-ops.
"""

from __future__ import annotations

import gc
import statistics
import time

#: untimed iterations run before measurement starts
WARMUP_ITERATIONS = 1


def best_of(repeat: int, fn) -> tuple[float, object]:
    """Best wall-clock seconds of ``repeat`` calls to ``fn()``.

    Runs :data:`WARMUP_ITERATIONS` untimed calls first.  Returns
    ``(best_seconds, last_result)``.
    """
    for _ in range(WARMUP_ITERATIONS):
        fn()
    best, result = float("inf"), None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def best_of_timed(repeat: int, fn) -> tuple[float, object]:
    """Best-of for self-timing scenarios: ``fn()`` returns
    ``(elapsed_seconds, result)`` so setup/teardown inside ``fn`` can be
    excluded from its own measurement.

    Runs :data:`WARMUP_ITERATIONS` untimed calls first.  Returns
    ``(best_seconds, last_result)``.
    """
    for _ in range(WARMUP_ITERATIONS):
        fn()
    best, result = float("inf"), None
    for _ in range(repeat):
        elapsed, result = fn()
        best = min(best, elapsed)
    return best, result


#: minimum seconds one paired-overhead sample spans — sub-ms samples
#: (warm plan caches make repeat sweeps nearly free) are pure jitter
MIN_SAMPLE_S = 0.1


def time_once(fn, iters: int = 1) -> float:
    """Wall-clock seconds of ``iters`` back-to-back calls to ``fn()``."""
    t0 = time.perf_counter()
    for _ in range(iters):
        fn()
    return time.perf_counter() - t0


def iters_per_sample(fn, min_sample_s: float = MIN_SAMPLE_S) -> int:
    """Calls per sample so one sample spans >= ``min_sample_s``."""
    single = time_once(fn)
    if single >= min_sample_s:
        return 1
    return int(min_sample_s / max(single, 1e-6)) + 1


def paired_overhead(fn, baseline, repeat: int,
                    iters: int) -> tuple[float, float, float]:
    """``(baseline_s, hooked_s, median_ratio)`` of ``fn`` as shipped
    (hooked) against ``fn`` inside the ``baseline()`` context, e.g.
    ``obs.bypassed`` or ``faults.bypassed``, which swap every hook for a
    bare no-op: the stand-in for uninstrumented code.

    The two variants are paired within each repetition — in alternating
    order, so neither side systematically runs on a fresher heap — and
    every sample of ``iters`` calls starts from a collected heap with
    the collector parked, keeping GC passes out of the measured window.

    The absolute times are per-call best-of minimums; the ratio is the
    *median* of the per-repetition hooked/baseline ratios.  Paired
    samples are adjacent in time and share whatever drift the machine is
    under, so their ratio is far more stable than a difference of
    independent minima — which matters on noisy shared CI runners.
    """
    best = {"baseline": float("inf"), "hooked": float("inf")}
    ratios: list[float] = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(repeat):
            order = (("baseline", "hooked") if i % 2 == 0
                     else ("hooked", "baseline"))
            pair = {}
            for variant in order:
                gc.collect()
                if variant == "baseline":
                    with baseline():
                        t = time_once(fn, iters)
                else:
                    t = time_once(fn, iters)
                pair[variant] = t
                best[variant] = min(best[variant], t)
            ratios.append(pair["hooked"] / pair["baseline"])
    finally:
        if gc_was_enabled:
            gc.enable()
    return (best["baseline"] / iters, best["hooked"] / iters,
            statistics.median(ratios))
