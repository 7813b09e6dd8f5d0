"""PMDK persistence path: wall time and flushed cachelines per scenario.

Runs the persistence-heavy operations of the PMDK layer on each backend
(``mem``, ``file``, ``cxl``) and records, per scenario, its best-of wall
time and the cachelines it flushed — the total ``flush_count`` over
every region the scenario creates.

Scenarios:

* ``stream_persist`` — STREAM-PMem create + ``run(persist_each_
  iteration=True)`` + close: the paper's App-Direct loop end to end;
* ``stream_tx``      — ``run_transactional``: every kernel invocation
  undo-logged (big-log pool);
* ``tx_batch``       — N durable 64-byte record updates in one batched
  ``tx_write_many`` transaction;
* ``append_log``     — N sequential record appends made durable by one
  dirty-coalesced ``persist()``;
* ``alloc_batch``    — K same-size zeroed allocations via ``alloc_many``.

Gates: each scenario's output checksum and flush-line count are
identical on every backend, ``append_log`` flushes exactly one line per
record, and at smoke scale no scenario flushes more lines than
:data:`SMOKE_FLUSH_CEILINGS`; steady-state persistent STREAM stays
within 3x of the volatile run.  Results land in
``results/BENCH_pmem.json``.  Standalone::

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

#: most cachelines each scenario may flush at smoke scale (any backend);
#: ``append_log`` must flush exactly one line per record at any scale
SMOKE_FLUSH_CEILINGS = {
    "stream_persist": 300_050,
    "stream_tx": 2_225_207,
    "tx_batch": 14_016,
    "alloc_batch": 17_162,
}


class _Backend:
    """Creates fresh regions/pools of one flavour, cleaning up after."""

    def __init__(self, kind: str, workdir: str) -> None:
        self.kind = kind
        self.workdir = workdir
        self.regions = []

    def region(self, size: int):
        n = len(self.regions) + 1
        if self.kind == "mem":
            region = open_region(f"mem://{size}", create=True)
        elif self.kind == "file":
            path = os.path.join(self.workdir, f"r{n}.pmem")
            if os.path.exists(path):
                os.unlink(path)
            region = open_region(path, size=size, create=True)
        else:
            runtime = CxlPmemRuntime(setup1().host_bridges)
            ns = runtime.create_namespace("cxl0", f"bench{n}", size)
            region = ns.region()
        self.regions.append(region)
        return region

    @property
    def flush_lines(self) -> int:
        """Cachelines flushed so far over every region created here."""
        return sum(r.flush_count for r in self.regions)

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
    """N durable record updates in one all-or-nothing transaction."""
    pool, blob = _record_pool(backend)
    payloads = [bytes([i & 0xFF]) * RECORD for i in range(N_RECORDS)]
    t0 = time.perf_counter()
    with pool.transaction() as tx:
        pool.tx_write_many(
            tx, [(blob, payloads[i], i * RECORD) for i in range(N_RECORDS)])
    elapsed = time.perf_counter() - t0
    crc = zlib.crc32(pool.read(blob, N_RECORDS * RECORD))
    pool.close()
    return elapsed, crc


def scenario_append_log(backend: _Backend, config: StreamConfig):
    """N sequential record appends made durable by one coalesced
    dirty-line flush at the batch end."""
    size = N_RECORDS * RECORD + (1 << 20)
    region = backend.region(size)
    t0 = time.perf_counter()
    for i in range(N_RECORDS):
        region.write(i * RECORD, bytes([i & 0xFF]) * RECORD)
    region.persist()           # one span: the tracker coalesced all
    elapsed = time.perf_counter() - t0
    crc = zlib.crc32(region.read(0, N_RECORDS * RECORD))
    region.close()
    return elapsed, crc


def scenario_alloc_batch(backend: _Backend, config: StreamConfig):
    """K zeroed same-size allocations (the vectorized-alloc API)."""
    pool = backend.pool((N_ALLOCS * ALLOC_SIZE * 2) + (2 << 20))
    t0 = time.perf_counter()
    oids = pool.alloc_many(N_ALLOCS, ALLOC_SIZE, zero=True)
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
    volatile in-memory pool (pool lifecycle excluded)."""
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


def _run_scenario(fn, kind: str, workdir: str, config: StreamConfig):
    """One scenario run on fresh regions → ``(elapsed, (crc, lines))``."""
    backend = _Backend(kind, workdir)
    elapsed, crc = fn(backend, config)
    return elapsed, (crc, backend.flush_lines)


def run_bench(config: StreamConfig | None = None, repeat: int = 3,
              backends=BACKENDS) -> dict:
    """Measure every scenario on every backend; return the JSON doc."""
    config = config or StreamConfig(array_size=FULL_ELEMENTS)
    results: dict[str, dict] = {}
    crcs: dict[str, set] = {name: set() for name in SCENARIOS}
    total = 0.0

    with tempfile.TemporaryDirectory(prefix="bench-pmem-") as workdir:
        stream_gate = measure_stream_gate(config, workdir, repeat=max(
            repeat, 3))
        for kind in backends:
            results[kind] = {}
            for name, fn in SCENARIOS.items():
                elapsed, (crc, lines) = _best_of(
                    repeat, lambda: _run_scenario(fn, kind, workdir, config))
                results[kind][name] = {"s": round(elapsed, 6),
                                       "flush_lines": lines}
                crcs[name].add(crc)
                total += elapsed

    mismatched = [name for name, seen in crcs.items() if len(seen) > 1]
    return {
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
        "total_s": round(total, 6),
        "identical_output": not mismatched,
        "mismatched": mismatched,
    }


def flush_gate_failures(doc: dict) -> list[str]:
    """Every flush-line gate ``doc`` misses (empty when all hold)."""
    failures = []
    smoke = doc["config"]["array_elements"] == SMOKE_ELEMENTS
    for name in SCENARIOS:
        counts = {kind: scenarios[name]["flush_lines"]
                  for kind, scenarios in doc["scenarios"].items()}
        if len(set(counts.values())) > 1:
            failures.append(f"{name}: flush lines differ by backend {counts}")
        if name == "append_log":
            if set(counts.values()) != {N_RECORDS}:
                failures.append(
                    f"append_log: {counts} lines, expected one per record "
                    f"({N_RECORDS})")
        elif smoke and max(counts.values()) > SMOKE_FLUSH_CEILINGS[name]:
            failures.append(
                f"{name}: {max(counts.values())} lines exceed the smoke "
                f"ceiling {SMOKE_FLUSH_CEILINGS[name]}")
    return failures


def _report(doc: dict) -> str:
    lines = [
        "=== PMDK persistence path "
        f"({doc['config']['array_elements']:,} elements, "
        f"best of {doc['config']['repeat']}) ===",
        f"{'backend/scenario':<28}{'seconds':>10}{'flush lines':>13}",
    ]
    for kind, scenarios in doc["scenarios"].items():
        for name, e in scenarios.items():
            lines.append(
                f"{kind + '/' + name:<28}{e['s']:>10.4f}"
                f"{e['flush_lines']:>13,}")
    lines.append(f"{'TOTAL':<28}{doc['total_s']:>10.4f}")
    g = doc["stream_run_gate"]
    lines.append(
        f"steady-state STREAM run(): file {g['file_s']:.4f}s vs "
        f"mem {g['mem_s']:.4f}s ({g['ratio']:.2f}x)")
    lines.append(
        f"identical output across backends: {doc['identical_output']}")
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
    """Smoke-size run: asserts identical output and flush-line counts on
    every backend, the flush-line ceilings, and that persistent STREAM
    stays within 3x of the volatile baseline."""
    config = StreamConfig(array_size=SMOKE_ELEMENTS)
    doc = run_bench(config, repeat=2)
    _write(doc, os.path.join(results_dir, "BENCH_pmem.json"))
    print("\n" + _report(doc))
    assert doc["identical_output"], doc["mismatched"]
    # the deterministic half of the persistence path's speed: how many
    # cachelines each scenario flushes (dirty tracking, coalesced spans,
    # unpinned undo snapshots)
    failures = flush_gate_failures(doc)
    assert not failures, failures
    # regression gate: steady-state persistent STREAM-PMem (file) must
    # stay within 3x of the volatile in-memory run at test scale.  The
    # warmed-up ratio sits near 2-2.7 at smoke scale (the untimed
    # warm-up iteration removed the interpreter cold-start that used to
    # inflate the volatile baseline, and msync noise under a loaded
    # container adds the rest); the pre-optimization persistence path
    # read ~10x, so 3.0 still trips on a real regression.
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
    failures = flush_gate_failures(doc)
    for failure in failures:
        print(f"FAIL {failure}")
    return 0 if doc["identical_output"] and not failures else 1


if __name__ == "__main__":
    sys.exit(main())
