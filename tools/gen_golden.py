#!/usr/bin/env python
"""Regenerate tests/golden/digests.json, the outputs pinned across commits.

Each key names one deterministic output and the function that hashes
it; ``tests/test_golden.py`` recomputes every key and compares it with
the file.  Running this script rewrites the file and prints each key
whose digest moved — a change that moves one should say which and why.

Run:  PYTHONPATH=src python tools/gen_golden.py
"""

from __future__ import annotations

import hashlib
import json
import logging
import random
import sys
import tempfile
import zlib
from dataclasses import asdict
from pathlib import Path

from repro import faults, units
from repro.core.runtime import CxlPmemRuntime
from repro.core.tiering import MemoryModeTier, sequential_trace, zipf_trace
from repro.cxl.device import MediaController, Type3Device
from repro.cxl.host import CxlMemPort
from repro.cxl.link import CxlLink
from repro.cxl.spec import CxlVersion
from repro.fabric.evaluate import FabricSpec, noisy_neighbor, pooling_sweep
from repro.machine.affinity import place_threads
from repro.machine.dram import DDR4_1333
from repro.machine.numa import NumaPolicy, PolicyKind
from repro.machine.presets import (
    ablation_variants,
    multihost_cxl,
    setup1,
    setup1_switched,
    setup1_variant,
    setup1_with_dcpmm,
    setup2,
)
from repro.memsim.des import simulate_stream_des
from repro.stream.config import StreamConfig
from repro.stream.pmem_stream import StreamPmem
from repro.streamer.configs import tiering_group
from repro.streamer.runner import StreamerRunner
from repro.tiering.evaluate import TRACE_KINDS, TieringSpec, evaluate_policy
from repro.tiering.policy import POLICIES
from repro.workloads.kvcache import KvWorkloadSpec, kill_worker_drill

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "golden" / "digests.json"


def sha256_json(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


#: the perf ledger's DES ladder: triad on setup #1's socket 0
DES_THREADS = (1, 2, 4, 8, 10)
DES_POLICIES = (NumaPolicy.bind(0), NumaPolicy.bind(2),
                NumaPolicy.interleave(0, 2))


def des_ladder(backend: str = "auto") -> str:
    """Digest of the ladder's :class:`DesResult` list, each case run with
    ``des_backend=backend`` over a 100 us window after a 10 us warm-up.

    ``"vector"`` runs the bind cases only; the interleaved ones, which it
    rejects, go through ``"compiled"``.
    """
    m = setup1().machine
    results = []
    for threads in DES_THREADS:
        cores = place_threads(m, threads, sockets=[0])
        for policy in DES_POLICIES:
            tier = backend
            if tier == "vector" and policy.kind is not PolicyKind.BIND:
                tier = "compiled"
            results.append(simulate_stream_des(
                m, "triad", cores, policy, sim_ns=100_000,
                warmup_ns=10_000, des_backend=tier))
    return sha256_json([asdict(r) for r in results])


def sweep_paper() -> str:
    """Digest of the perf ledger's sweep: ``run_all()`` JSON of the five
    paper groups plus the tiering group at seed 7, serial, uncached."""
    runner = StreamerRunner(config=StreamConfig.paper())
    group = tiering_group(spec=TieringSpec(seed=7))
    runner.groups[group.group_id] = group
    return hashlib.sha256(
        runner.run_all(parallel=False, use_cache=False).to_json().encode()
    ).hexdigest()


def tiering_policies() -> str:
    """Digest of every policy on every trace, evaluated on setup #1
    (policies in name order, traces in :data:`TRACE_KINDS` order)."""
    m = setup1().machine
    return sha256_json([
        evaluate_policy(TieringSpec(policy=policy, trace=trace, n_pages=512,
                                    epochs=8, epoch_accesses=2048, seed=7),
                        machine=m).to_doc()
        for policy in sorted(POLICIES) for trace in TRACE_KINDS])


def tiering_memory_mode() -> str:
    """Digest of the Memory-Mode profiles of bench_hybrid_memory's three
    traces (4 MiB of DRAM caching the CXL node of setup #1)."""
    m = setup1().machine
    traces = (sequential_trace(8192, 20_000),
              zipf_trace(4096, 20_000, alpha=1.2, seed=1),
              zipf_trace(2048, 20_000, alpha=1.6, seed=1))
    profiles = []
    for trace in traces:
        tier = MemoryModeTier(m, near_node=0, far_node=2,
                              near_capacity_bytes=1024 * 4096)
        profiles.append(asdict(tier.run_trace(trace)))
    return sha256_json(profiles)


#: the datapath mix stays inside this many lines; its final span sits
#: just past them, touches no buffered line and so takes the device's
#: drain-and-bulk write branch
DATAPATH_LINES = 2048
DATAPATH_SPAN = 640


def cxl_datapath() -> str:
    """Digest of a seeded, fault-free mix of every CXL.mem port call on
    one Type-3 device: line and span reads and writes, unaligned
    ``read``/``write`` and explicit ``flush_flits``, ending with one
    :data:`DATAPATH_SPAN`-line write (larger than the device write
    buffer).  Hashes the port and device stats, the write buffer's
    addresses in order, the media and every byte read."""
    rng = random.Random(18)
    media = MediaController("m", DDR4_1333, 2, 2, units.mib(32), 0.6, 130.0)
    device = Type3Device("dut", media)
    port = CxlMemPort(CxlLink(CxlVersion.CXL_2_0, 16, 330.0), device)
    read = hashlib.sha256()
    for _ in range(600):
        op = rng.randrange(7)
        dpa = rng.randrange(DATAPATH_LINES - 128) * 64
        if op == 0:
            port.write_line(dpa, rng.randbytes(64))
        elif op == 1:
            read.update(port.read_line(dpa))
        elif op == 2:
            port.write_lines(dpa, rng.randbytes(64 * rng.randint(1, 128)))
        elif op == 3:
            read.update(port.read_lines(dpa, rng.randint(1, 128)))
        elif op == 4:
            port.write(dpa + rng.randrange(64),
                       rng.randbytes(rng.randint(1, 300)))
        elif op == 5:
            read.update(port.read(dpa + rng.randrange(64),
                                  rng.randint(1, 300)))
        else:
            port.flush_flits()
    port.write_lines(DATAPATH_LINES * 64, rng.randbytes(64 * DATAPATH_SPAN))
    total = (DATAPATH_LINES + DATAPATH_SPAN) * 64
    read.update(port.read_lines(0, total // 64))
    port.flush_flits()
    return sha256_json({
        "port": asdict(port.stats),
        "device": device.stats,
        "write_buffer": list(device._write_buffer),
        "media": hashlib.sha256(device.memory.read(0, total)).hexdigest(),
        "read": read.hexdigest(),
    })


def kvserve_drill() -> str:
    """Digest of :func:`kill_worker_drill` on the default spec: the
    per-sequence digests and recovery report of the clean, pooled and
    re-prefill runs."""
    return sha256_json(kill_worker_drill(KvWorkloadSpec()))


def chaos_cross_plane() -> str:
    """Digest of the survivors of the cross-plane chaos test's plan
    (worker kill, host detach and migration abort in one run): every
    sequence's KV digest and the block store's conservation audit."""
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from tests.integration.test_chaos_cross_plane import _chaos_plan, _engine

    engine = _engine()
    with faults.use_plan(_chaos_plan()):
        engine.run()
    return sha256_json({
        "digests": {str(k): v for k, v in engine.digests().items()},
        "audit": engine.store.check_conservation(),
    })


def machine_fingerprints() -> str:
    """Digest of :meth:`Machine.fingerprint` of every preset and of every
    :func:`ablation_variants` entry built by :func:`setup1_variant`."""
    testbeds = {
        "setup1": setup1(),
        "setup1(battery_backed=False)": setup1(battery_backed=False),
        "setup2": setup2(),
        "setup1_with_dcpmm": setup1_with_dcpmm(),
        "multihost_cxl(4)": multihost_cxl(4),
        "setup1_switched": setup1_switched(),
    }
    for name, kw in ablation_variants().items():
        testbeds[f"setup1_variant({name})"] = setup1_variant(**kw)
    return sha256_json({name: tb.machine.fingerprint()
                        for name, tb in testbeds.items()})


def stream_pmem_arrays() -> str:
    """Digest of STREAM-PMem on ``mem://``, ``file://`` and a namespace of
    setup #1's ``cxl0``: per backend, the CRC-32 of each of the three
    arrays and the flush counts of one ``run_transactional()`` followed
    by one ``run(persist_each_iteration=True)`` on 20,000-element
    arrays, three iterations each."""
    cfg = StreamConfig(array_size=20_000, ntimes=3)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        backends = (
            ("mem", "mem://", None),
            ("file", f"file://{tmp}/stream.pool", None),
            ("cxl", "cxl://cxl0/stream",
             CxlPmemRuntime(setup1().host_bridges)),
        )
        for name, uri, runtime in backends:
            with StreamPmem.create(uri, cfg, runtime=runtime) as sp:
                tx = sp.run_transactional()
                app = sp.run(persist_each_iteration=True)
                out[name] = {
                    "crc32": [zlib.crc32(memoryview(arr.as_ndarray()).cast("B"))
                              for arr in sp.arrays],
                    "flushes": [tx.flushes, app.flushes],
                }
    return sha256_json(out)


def fabric_scheduler() -> str:
    """Digest of the default fabric spec's pooling sweep and its
    noisy-neighbour scenario (fair and QoS max-min solves over 34
    flows)."""
    spec = FabricSpec()
    return sha256_json({"pooling_sweep": pooling_sweep(spec),
                        "noisy_neighbor": noisy_neighbor(spec)})


#: every golden key and the function recomputing it
DIGESTS = {
    "chaos.cross_plane": chaos_cross_plane,
    "cxl.datapath": cxl_datapath,
    "des.ladder": des_ladder,
    "fabric.scheduler": fabric_scheduler,
    "kvserve.drill": kvserve_drill,
    "machine.fingerprints": machine_fingerprints,
    "stream_pmem.arrays": stream_pmem_arrays,
    "sweep.paper": sweep_paper,
    "tiering.policies": tiering_policies,
    "tiering.memory_mode": tiering_memory_mode,
}


def main() -> int:
    # the drills log their worker kills and host detach as warnings
    logging.getLogger("repro").addHandler(logging.NullHandler())
    old = json.loads(OUT.read_text()) if OUT.exists() else {}
    new = {key: fn() for key, fn in DIGESTS.items()}
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            print(f"{key}: {old.get(key)} -> {new.get(key)}")
    OUT.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
