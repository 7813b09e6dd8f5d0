"""The four ledger workloads and the layer boundaries traced under them.

Imported only by the child process (:mod:`bench.child`), because it
imports the system under test.  Each workload builds its system in
``__init__`` (set-up), fixes its expected output in :meth:`warm_up`,
runs one timed op per :meth:`op` call and verifies every output in
:meth:`check` without calling any traced boundary, so checks never show
up in the per-layer split.  ``ops_per_round`` is fixed per workload and
sized so a round measures about 2.8 s on a 2-vCPU VM: five rounds give
every workload the 100 samples its p90 needs, and a whole run stays
short enough to be repeated ninety times within an hour on a slow host.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import asdict

from repro import compiled, faults
from repro.core.runtime import CxlPmemRuntime
from repro.cxl import device as cxl_device
from repro.cxl import host as cxl_host
from repro.fabric import manager as fabric_manager
from repro.faults.plan import FaultPlan, WorkerKillSpec
from repro.kvserve import blocks as kv_blocks
from repro.kvserve import engine as kv_engine
from repro.kvserve import routing as kv_routing
from repro.machine import affinity
from repro.machine.numa import NumaPolicy
from repro.machine.presets import setup1
from repro.memsim import des, des_fast, des_jit
from repro.memsim import engine as memsim_engine
from repro.memsim import plan as memsim_plan
from repro.pmdk import pmem, tx
from repro.pmdk.pool import PmemObjPool
from repro.stream import kernels, native, pmem_stream, simulated, validation
from repro.stream.config import StreamConfig
from repro.streamer import configs, results, runner
from repro.tiering import evaluate, heat, migrate
from repro.workloads import kvcache


def boundaries() -> list[tuple[str, object, str]]:
    """Every traced ``(layer, owner, attr)``, wrapped at its lookup site.

    Functions a caller imported by name are wrapped in the caller's
    namespace; ``run_vector`` / ``run_compiled`` are imported at call
    time, so they are wrapped on their own modules.
    """
    def methods(layer, cls, *names):
        return [(layer, cls, n) for n in names]

    return [
        *[("stream.kernels", kernels.KERNELS, k) for k in kernels.KERNELS],
        ("stream.validation", native, "check_stream_results"),
        ("stream.validation", validation, "check_stream_results"),
        ("stream.native", pmem_stream, "run_single"),
        *methods("stream.pmem_stream", pmem_stream.StreamPmem,
                 "run", "run_transactional"),
        *methods("pmdk.tx", tx.Transaction,
                 "add_range", "add_ranges", "commit"),
        ("pmdk.pmem", pmem.PmemRegion, "persist"),
        *methods("cxl.host", cxl_host.CxlMemPort, "read", "write",
                 "read_lines", "write_lines", "flush_flits"),
        *methods("cxl.device", cxl_device.Type3Device,
                 "read_lines", "write_lines", "flush"),
        *methods("fabric", fabric_manager.FabricManager,
                 "read", "write", "allocate", "detach_host"),
        *[("faults", faults, hook) for hook in (
            "on_cxl_op", "on_persist", "on_decode_step", "on_fabric_step",
            "on_migration", "on_sweep_task")],
        ("kvserve.engine", kv_engine.KvServeEngine, "run"),
        *methods("kvserve.blocks", kv_blocks.KvBlockStore,
                 "offload", "read_pooled", "evict_cold", "acquire",
                 "add_local", "restore", "release_all",
                 "check_conservation"),
        ("kvserve.routing", kv_routing.Router, "place"),
        ("streamer", runner.StreamerRunner, "run_all"),
        ("streamer", results.ResultSet, "to_json"),
        ("stream.simulated", runner, "simulate_sweep"),
        ("memsim.engine", simulated, "simulate_stream"),
        ("memsim.plan", memsim_engine, "simulation_plan"),
        ("memsim.plan", memsim_plan.SimulationPlan, "solve"),
        ("memsim.bwmodel", memsim_plan, "solve_max_min"),
        ("machine.affinity", simulated, "place_threads_cached"),
        ("tiering.evaluate", simulated, "effective_sweep_policy"),
        ("tiering.evaluate", evaluate, "evaluate_policy"),
        ("tiering.evaluate", evaluate.TraceGen, "epoch"),
        *methods("tiering.heat", heat.HeatTracker, "record", "end_epoch"),
        ("tiering.migrate", migrate.MigrationEngine, "apply"),
        ("memsim.des", des, "simulate_stream_des"),
        ("memsim.des_fast", des_fast, "run_vector"),
        ("memsim.des_jit", des_jit, "run_compiled"),
    ]


def _sha256_json(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


class Mismatch(AssertionError):
    """An op's output differs from the expected output."""


class StreamPmemWorkload:
    """The paper's Listing 2 on CXL: STREAM arrays in a pmemobj pool on a
    namespace of setup #1's battery-backed ``cxl0``.

    One op is a fully undo-logged ``run_transactional()`` followed by an
    App-Direct ``run(persist_each_iteration=True)``.  Write-heavy
    persistence: exercises ``pmdk.*`` and ``stream.*``; the CXL port,
    fabric, kvserve and memsim are bypassed because the namespace region
    maps device media directly.  STREAM is deterministic, so the seed is
    unused.  The 4.8 MB of arrays sit far below the last-level cache:
    bytes moved are computed, not a DRAM-bandwidth claim.
    """

    name = "stream-pmem"
    ops_per_round = 68

    def __init__(self, seed: int) -> None:
        cfg = StreamConfig(array_size=200_000, ntimes=10)
        log_size = tx.undo_bytes_needed(cfg.array_bytes) + (64 << 10)
        runtime = CxlPmemRuntime(setup1().host_bridges)
        ns = runtime.create_namespace(
            "cxl0", "stream-pmem", pmem_stream.pool_size_for(cfg) + log_size)
        pool = PmemObjPool.create(ns.region(), layout="bench",
                                  log_size=log_size)
        self.sp = pmem_stream.StreamPmem(pool, cfg,
                                         backend=pool.region.backend)
        self.sp._allocate()
        self.crc: int | None = None
        self.output_sha256 = ""
        self.modelled: dict = {}

    def op(self, i: int):
        # validate=True: the STREAM validators run inside the op and raise
        return (self.sp.run_transactional(validate=True),
                self.sp.run(persist_each_iteration=True, validate=True))

    def _arrays(self):
        return [arr.as_ndarray() for arr in self.sp.arrays]

    def warm_up(self) -> None:
        self.op(0)
        arrays = self._arrays()
        self.crc = _crc32(arrays)
        sha = hashlib.sha256()
        for a in arrays:
            sha.update(a.tobytes())
        self.output_sha256 = sha.hexdigest()

    def check(self, out) -> None:
        crc = _crc32(self._arrays())
        if crc != self.crc:
            raise Mismatch(f"array CRC32 {crc:#x} != warm-up {self.crc:#x}")

    def counters(self, out) -> dict:
        run_tx, run_app = out
        return {"stream.triad_gbps": run_app.best_rate_gbps("triad"),
                "pmdk.flushes": run_tx.flushes + run_app.flushes}


def _crc32(arrays) -> int:
    crc = 0
    for a in arrays:
        crc = zlib.crc32(memoryview(a).cast("B"), crc)
    return crc


class KvServeWorkload:
    """Disaggregated KV-cache serving with a seeded decode-worker kill.

    Every sealed block crosses fabric → ``cxl.host`` → ``cxl.device`` as a
    write (offload) and as a read (shared prefixes, pooled recovery), and
    every CXL op passes the fault hook because a plan is installed.
    pmdk and memsim are bypassed.
    """

    name = "kvserve"
    ops_per_round = 140

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.spec = kvcache.KvWorkloadSpec(
            n_groups=4, seqs_per_group=4, prompt_tokens=128,
            decode_tokens=48, shared_prefix_tokens=64, slots_per_host=256,
            seed=seed)
        clean = kvcache.build_engine(self.spec)
        clean.run()
        self.digests = clean.digests()
        self.output_sha256 = _sha256_json(
            {str(k): v for k, v in self.digests.items()})
        self.modelled: dict = {}

    def op(self, i: int):
        engine = kvcache.build_engine(self.spec)
        plan = FaultPlan(seed=self.seed, faults=[
            WorkerKillSpec(worker=self.seed % self.spec.n_workers,
                           at_step=8)])
        with faults.use_plan(plan):
            report = engine.run()      # raises if the conservation audit fails
        return engine, report

    def warm_up(self) -> None:
        out = self.op(0)
        self.check(out)
        report = out[1]
        self.modelled = {"tokens_per_s": report["tokens_per_s"],
                         "recovery_ns": report["recovery"]["total_ns"]}

    def check(self, out) -> None:
        engine, report = out
        recovery = report["recovery"]
        if engine.digests() != self.digests:
            raise Mismatch("KV digests differ from the fault-free run")
        if not recovery["events"]:
            raise Mismatch("the worker kill orphaned no sequence")
        if recovery["prefix_reprefill_tokens"]:
            raise Mismatch(f"{recovery['prefix_reprefill_tokens']} shared-"
                           "prefix tokens were re-prefilled")

    def counters(self, out) -> dict:
        engine, report = out
        ports = [h.port_for(d) for h in engine.manager.hosts.values()
                 for d in engine.manager.testbed.cxl_devices]
        stats = [p.stats for p in ports]
        payload = sum(s.payload_bytes for s in stats)
        busier = sum(max(s.m2s_wire_bytes, s.s2m_wire_bytes) for s in stats)
        prefetch = report["prefetch"]
        tries = prefetch["hits"] + prefetch["misses"]
        recovery = report["recovery"]
        return {
            "cxl.payload_bytes": payload,
            "cxl.wire_bytes": sum(s.total_wire_bytes for s in stats),
            "cxl.wire_efficiency": payload / busier if busier else 0.0,
            "kvserve.prefetch_hit_ratio":
                prefetch["hits"] / tries if tries else 0.0,
            "kvserve.tokens_from_pool": recovery["tokens_from_pool"],
            "kvserve.tokens_recomputed": recovery["tokens_recomputed"],
        }


class SweepWorkload:
    """A cold ``streamer run`` as a user pays it: fresh runner and
    testbeds, empty plan cache, the paper's five groups plus the
    runtime-tiering group, serial, uncached, then JSON encoding.

    Covers the analytic memsim solver, plan building, thread placement,
    tiering evaluation and result encoding; the persistence and CXL
    datapaths and the DES are bypassed.
    """

    name = "sweep"
    ops_per_round = 20

    def __init__(self, seed: int) -> None:
        self.spec = evaluate.TieringSpec(seed=seed)
        self.output_sha256 = ""
        self.modelled: dict = {}

    def op(self, i: int):
        sweep = runner.StreamerRunner(config=StreamConfig.paper())
        memsim_plan.clear_plan_cache()
        group = configs.tiering_group(spec=self.spec)
        sweep.groups[group.group_id] = group
        result = sweep.run_all(parallel=False, use_cache=False)
        return result, result.to_json()

    def warm_up(self) -> None:
        out = result, text = self.op(0)
        self.output_sha256 = hashlib.sha256(text.encode()).hexdigest()
        self.check(out)
        triad: dict[str, float] = {}
        for rec in result:
            if rec.kernel == "triad":
                triad[rec.series] = max(triad.get(rec.series, 0.0), rec.gbps)
        self.modelled = {"records": len(result),
                         "triad_peak_gbps": triad}

    def check(self, out) -> None:
        result, text = out
        if result.failures:
            raise Mismatch(f"{len(result.failures)} sweep tasks failed")
        sha = hashlib.sha256(text.encode()).hexdigest()
        if sha != self.output_sha256:
            raise Mismatch("sweep JSON differs from the warm-up op's")

    def counters(self, out) -> dict:
        stats = memsim_plan.plan_cache_stats()
        looked_up = stats["hits"] + stats["misses"]
        return {"memsim.plan_hit_ratio":
                stats["hits"] / looked_up if looked_up else 0.0}


class DesWorkload:
    """A DES model-validation ladder on setup #1's socket 0: triad at
    1, 2, 4, 8 and 10 threads against local DDR5, CXL and their
    interleave, one ``simulate_stream_des`` call per op.

    The closed-loop window is 26 requests per thread, so 1 and 2 threads
    fall below ``des_threshold()`` (compiled event loop) and 4 or more
    above it (vector), on single- and multi-target routes alike.  The DES
    is deterministic, so the seed is unused.
    """

    name = "des"

    SIM_NS = 100_000
    WARMUP_NS = 10_000
    THREADS = (1, 2, 4, 8, 10)
    TARGETS = (("ddr5", NumaPolicy.bind(0)), ("cxl", NumaPolicy.bind(2)),
               ("interleave", NumaPolicy.interleave(0, 2)))
    # eight whole cycles through the 15 cases
    ops_per_round = 8 * len(THREADS) * len(TARGETS)

    def __init__(self, seed: int) -> None:
        self.machine = setup1().machine
        self.cases = [
            (f"t{t}.{label}", affinity.place_threads(self.machine, t,
                                                     sockets=[0]), policy)
            for t in self.THREADS for label, policy in self.TARGETS]
        self.cycle = len(self.cases)
        reference = "compiled" if des_jit.available() else "scalar"
        self.expected = [self._simulate(i, reference)
                         for i in range(self.cycle)]
        self.output_sha256 = _sha256_json([asdict(r) for r in self.expected])
        self.modelled = {
            "reference_backend": reference,
            "reported_gbps": {label: r.reported_gbps for (label, _, _), r
                              in zip(self.cases, self.expected)}}

    def _simulate(self, i: int, backend: str = "auto"):
        _, placement, policy = self.cases[i % self.cycle]
        return des.simulate_stream_des(
            self.machine, "triad", placement, policy, sim_ns=self.SIM_NS,
            warmup_ns=self.WARMUP_NS, des_backend=backend)

    def op(self, i: int):
        return i % self.cycle, self._simulate(i)

    def warm_up(self) -> None:
        self.check(self.op(0))

    def check(self, out) -> None:
        case, result = out
        if result != self.expected[case]:
            raise Mismatch(f"DES case {self.cases[case][0]} differs from "
                           "its set-up reference")

    def counters(self, out) -> dict:
        _, result = out
        backend = compiled.selected().get("des")
        return {"memsim.des_events": result.total_issued,
                **{f"memsim.des_backend.{tier}": float(backend == tier)
                   for tier in ("vector", "compiled")}}


WORKLOADS = {w.name: w for w in (StreamPmemWorkload, KvServeWorkload,
                                  SweepWorkload, DesWorkload)}
