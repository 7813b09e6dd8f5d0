"""PMDK persistence path: fast (dirty-tracked, zero-copy) vs baseline.

Times the persistence-heavy operations of the PMDK layer under two
library modes on each backend (``mem``, ``file``, ``cxl``):

* ``baseline`` — :func:`repro.pmdk.dirty.set_fast_persist_enabled`
  off: the pre-optimization path (eager ``bytes`` copies into single
  undo entries with per-entry persists, eager allocation zeroing,
  whole-pool close flushes, one transaction per record);
* ``fast``     — dirty-line flush tracking, chunked zero-copy undo
  snapshots, and the batched transaction/allocation APIs.

Scenarios:

* ``stream_persist`` — STREAM-PMem create + ``run(persist_each_
  iteration=True)`` + close: the paper's App-Direct loop end to end;
* ``stream_tx``      — ``run_transactional``: every kernel invocation
  undo-logged (big-log pool);
* ``tx_batch``       — N durable 64-byte record updates: one
  transaction per record (the only pre-PR idiom) vs one batched
  ``tx_write_many`` transaction;
* ``append_log``     — N sequential record appends made durable: ranged
  persist per record vs one dirty-coalesced ``persist()``;
* ``alloc_batch``    — K same-size object allocations: ``alloc`` loop
  vs vectorized ``alloc_many``.

Both modes must produce byte-identical final contents (asserted via
checksums).  Results land in ``results/BENCH_pmem.json``.  Standalone::

    PYTHONPATH=src python benchmarks/bench_pmem_persist.py [--smoke]

or via pytest (CI smoke step)::

    PYTHONPATH=src python -m pytest benchmarks/bench_pmem_persist.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
import zlib

from repro.core.provider import open_region
from repro.core.runtime import CxlPmemRuntime
from repro.machine.presets import setup1
from repro.pmdk.containers import PersistentArray
from repro.pmdk.dirty import set_fast_persist_enabled
from repro.pmdk.pool import PmemObjPool
from repro.pmdk.tx import undo_bytes_needed
from repro.stream.config import StreamConfig
from repro.stream.pmem_stream import StreamPmem, pool_size_for

try:
    from benchmarks._timing import best_of, best_of_timed as _best_of
except ImportError:                                   # CLI: script-dir import
    from _timing import best_of, best_of_timed as _best_of

RESULTS_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "results"))

BACKENDS = ("mem", "file", "cxl")

#: STREAM elements for ``--smoke`` / CI (paper: 100M).
SMOKE_ELEMENTS = 200_000
FULL_ELEMENTS = 2_000_000

N_RECORDS = 4_000        # tx_batch / append_log record count
RECORD = 64              # one cacheline per record
N_ALLOCS = 256
ALLOC_SIZE = 4096


class _Backend:
    """Creates fresh regions/pools of one flavour, cleaning up after."""

    def __init__(self, kind: str, workdir: str) -> None:
        self.kind = kind
        self.workdir = workdir
        self._n = 0

    def region(self, size: int):
        self._n += 1
        if self.kind == "mem":
            return open_region(f"mem://{size}", create=True)
        if self.kind == "file":
            path = os.path.join(self.workdir, f"r{self._n}.pmem")
            if os.path.exists(path):
                os.unlink(path)
            return open_region(path, size=size, create=True)
        runtime = CxlPmemRuntime(setup1().host_bridges)
        ns = runtime.create_namespace("cxl0", f"bench{self._n}", size)
        return ns.region()

    def pool(self, size: int, log_size: int | None = None) -> PmemObjPool:
        region = self.region(size)
        if log_size is None:
            return PmemObjPool.create(region, layout="bench")
        return PmemObjPool.create(region, layout="bench", log_size=log_size)

    def stream(self, config: StreamConfig,
               log_size: int | None = None) -> StreamPmem:
        size = pool_size_for(config) + (log_size or 0)
        pool = self.pool(size, log_size=log_size)
        sp = StreamPmem(pool, config, backend=pool.region.backend)
        sp._allocate()
        return sp


def _checksum_arrays(sp: StreamPmem) -> int:
    crc = 0
    for arr in sp.arrays:
        crc = zlib.crc32(arr.read().tobytes(), crc)
    return crc


# ---------------------------------------------------------------------------
# scenarios — each returns (elapsed_seconds, output_checksum)
# ---------------------------------------------------------------------------

def scenario_stream_persist(backend: _Backend, config: StreamConfig):
    t0 = time.perf_counter()
    sp = backend.stream(config)
    sp.run(persist_each_iteration=True, validate=True)
    crc = _checksum_arrays(sp)
    sp.close()
    return time.perf_counter() - t0, crc


def scenario_stream_tx(backend: _Backend, config: StreamConfig):
    log_size = undo_bytes_needed(config.array_bytes) + (64 << 10)
    sp = backend.stream(config, log_size=log_size)
    t0 = time.perf_counter()
    sp.run_transactional(validate=True)
    elapsed = time.perf_counter() - t0
    crc = _checksum_arrays(sp)
    sp.close()
    return elapsed, crc


def _record_pool(backend: _Backend) -> tuple[PmemObjPool, object]:
    pool = backend.pool(8 << 20, log_size=1 << 20)
    blob = pool.alloc(N_RECORDS * RECORD, zero=True)
    return pool, blob


def scenario_tx_batch(backend: _Backend, config: StreamConfig):
    """N durable record updates, all-or-nothing semantics per update."""
    from repro.pmdk.dirty import fast_persist_enabled

    pool, blob = _record_pool(backend)
    payloads = [bytes([i & 0xFF]) * RECORD for i in range(N_RECORDS)]
    t0 = time.perf_counter()
    if fast_persist_enabled():
        with pool.transaction() as tx:
            pool.tx_write_many(
                tx, [(blob, payloads[i], i * RECORD)
                     for i in range(N_RECORDS)])
    else:
        for i in range(N_RECORDS):
            with pool.transaction() as tx:
                pool.tx_write(tx, blob, payloads[i], offset=i * RECORD)
    elapsed = time.perf_counter() - t0
    crc = zlib.crc32(pool.read(blob, N_RECORDS * RECORD))
    pool.close()
    return elapsed, crc


def scenario_append_log(backend: _Backend, config: StreamConfig):
    """N sequential record appends made durable: per-record ranged
    persists vs one coalesced dirty-line flush at the batch end."""
    from repro.pmdk.dirty import fast_persist_enabled

    size = N_RECORDS * RECORD + (1 << 20)
    region = backend.region(size)
    t0 = time.perf_counter()
    if fast_persist_enabled():
        for i in range(N_RECORDS):
            region.write(i * RECORD, bytes([i & 0xFF]) * RECORD)
        region.persist()           # one span: the tracker coalesced all
    else:
        for i in range(N_RECORDS):
            off = i * RECORD
            region.write(off, bytes([i & 0xFF]) * RECORD)
            region.persist(off, RECORD)
    elapsed = time.perf_counter() - t0
    crc = zlib.crc32(region.read(0, N_RECORDS * RECORD))
    region.close()
    return elapsed, crc


def scenario_alloc_batch(backend: _Backend, config: StreamConfig):
    """K zeroed same-size allocations (the vectorized-alloc API)."""
    from repro.pmdk.dirty import fast_persist_enabled

    pool = backend.pool((N_ALLOCS * ALLOC_SIZE * 2) + (2 << 20))
    t0 = time.perf_counter()
    if fast_persist_enabled():
        oids = pool.alloc_many(N_ALLOCS, ALLOC_SIZE, zero=True)
    else:
        oids = [pool.alloc(ALLOC_SIZE, zero=True) for _ in range(N_ALLOCS)]
    elapsed = time.perf_counter() - t0
    crc = len(oids)
    pool.close()
    return elapsed, crc


SCENARIOS = {
    "stream_persist": scenario_stream_persist,
    "stream_tx": scenario_stream_tx,
    "tx_batch": scenario_tx_batch,
    "append_log": scenario_append_log,
    "alloc_batch": scenario_alloc_batch,
}


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def measure_stream_gate(config: StreamConfig, workdir: str,
                        repeat: int = 3) -> dict:
    """Steady-state STREAM ``run()`` on a persistent file pool vs the
    volatile in-memory pool (fast mode, pool lifecycle excluded)."""
    times: dict[str, float] = {}
    for kind in ("mem", "file"):
        sp = _Backend(kind, workdir).stream(config)
        try:
            best, _ = best_of(
                repeat,
                lambda: sp.run(persist_each_iteration=True, validate=True))
            times[f"{kind}_s"] = round(best, 6)
        finally:
            sp.close()
    times["ratio"] = round(times["file_s"] / max(times["mem_s"], 1e-9), 2)
    return times


def run_bench(config: StreamConfig | None = None, repeat: int = 3,
              backends=BACKENDS) -> dict:
    """Measure every scenario on every backend; return the JSON doc."""
    config = config or StreamConfig(array_size=FULL_ELEMENTS)
    results: dict[str, dict] = {}
    mismatched: list[str] = []
    totals = {"baseline": 0.0, "fast": 0.0}

    with tempfile.TemporaryDirectory(prefix="bench-pmem-") as workdir:
        stream_gate = measure_stream_gate(config, workdir, repeat=max(
            repeat, 3))
        for kind in backends:
            results[kind] = {}
            for name, fn in SCENARIOS.items():
                entry: dict = {}
                crcs: dict[str, object] = {}
                for mode in ("baseline", "fast"):
                    backend = _Backend(kind, workdir)
                    prev = set_fast_persist_enabled(mode == "fast")
                    try:
                        elapsed, crc = _best_of(
                            repeat, lambda: fn(backend, config))
                    finally:
                        set_fast_persist_enabled(prev)
                    entry[f"{mode}_s"] = round(elapsed, 6)
                    crcs[mode] = crc
                    totals[mode] += elapsed
                entry["speedup"] = round(
                    entry["baseline_s"] / max(entry["fast_s"], 1e-9), 2)
                entry["identical_output"] = crcs["baseline"] == crcs["fast"]
                if not entry["identical_output"]:
                    mismatched.append(f"{kind}/{name}")
                results[kind][name] = entry

    doc = {
        "config": {
            "array_elements": config.array_size,
            "ntimes": config.ntimes,
            "repeat": repeat,
            "records": N_RECORDS,
            "allocs": N_ALLOCS,
            "backends": list(backends),
        },
        "scenarios": results,
        "stream_run_gate": stream_gate,
        "totals_s": {k: round(v, 6) for k, v in totals.items()},
        "composite_speedup": round(
            totals["baseline"] / max(totals["fast"], 1e-9), 2),
        "identical_output": not mismatched,
        "mismatched": mismatched,
    }
    return doc


def _report(doc: dict) -> str:
    lines = [
        "=== PMDK persistence path: baseline vs fast "
        f"({doc['config']['array_elements']:,} elements, "
        f"best of {doc['config']['repeat']}) ===",
        f"{'backend/scenario':<28}{'baseline':>10}{'fast':>10}{'speedup':>9}",
    ]
    for kind, scenarios in doc["scenarios"].items():
        for name, e in scenarios.items():
            lines.append(
                f"{kind + '/' + name:<28}{e['baseline_s']:>10.4f}"
                f"{e['fast_s']:>10.4f}{e['speedup']:>8.1f}x")
    lines.append(
        f"{'TOTAL':<28}{doc['totals_s']['baseline']:>10.4f}"
        f"{doc['totals_s']['fast']:>10.4f}"
        f"{doc['composite_speedup']:>8.1f}x")
    g = doc["stream_run_gate"]
    lines.append(
        f"steady-state STREAM run(): file {g['file_s']:.4f}s vs "
        f"mem {g['mem_s']:.4f}s ({g['ratio']:.2f}x)")
    lines.append(
        f"identical output across modes: {doc['identical_output']}")
    return "\n".join(lines)


def _write(doc: dict, out_path: str) -> None:
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# pytest entry point (CI smoke step)
# ---------------------------------------------------------------------------

def test_pmem_persist_smoke(results_dir):
    """Smoke-size run: asserts equivalence, the composite speedup, and
    that persistent STREAM stays within 3x of the volatile baseline."""
    config = StreamConfig(array_size=SMOKE_ELEMENTS)
    doc = run_bench(config, repeat=2)
    _write(doc, os.path.join(results_dir, "BENCH_pmem.json"))
    print("\n" + _report(doc))
    assert doc["identical_output"], doc["mismatched"]
    # the headline: the fast path beats the pre-PR baseline >= 5x on the
    # persistence-dominated suite
    assert doc["composite_speedup"] >= 5.0, doc["totals_s"]
    # regression gate: steady-state persistent STREAM-PMem (file) must
    # stay within 3x of the volatile in-memory run at test scale.  The
    # warmed-up ratio sits near 2-2.7 at smoke scale (the untimed
    # warm-up iteration removed the interpreter cold-start that used to
    # inflate the volatile baseline, and msync noise under a loaded
    # container adds the rest); the pre-optimization path this guards
    # against is ~10x, so 3.0 still trips on a real regression.
    gate = doc["stream_run_gate"]
    assert gate["ratio"] <= 3.0, (
        f"persistent STREAM regressed: file {gate['file_s']:.4f}s vs "
        f"mem {gate['mem_s']:.4f}s ({gate['ratio']}x)"
    )


# ---------------------------------------------------------------------------
# standalone CLI
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--smoke", action="store_true",
                   help=f"small arrays ({SMOKE_ELEMENTS:,} elements)")
    p.add_argument("--repeat", type=int, default=3,
                   help="repetitions per scenario (best-of)")
    p.add_argument("--backends", default=",".join(BACKENDS),
                   help="comma-separated subset of mem,file,cxl")
    p.add_argument("--out", default=os.path.join(RESULTS_DIR,
                                                 "BENCH_pmem.json"))
    args = p.parse_args(argv)

    config = StreamConfig(
        array_size=SMOKE_ELEMENTS if args.smoke else FULL_ELEMENTS)
    doc = run_bench(config, repeat=args.repeat,
                    backends=tuple(args.backends.split(",")))
    _write(doc, args.out)
    print(_report(doc))
    print(f"wrote {args.out}")
    return 0 if doc["identical_output"] else 1


if __name__ == "__main__":
    sys.exit(main())
