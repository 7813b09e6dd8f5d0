"""The ``streamer`` command-line tool.

Usage::

    streamer run      [--figure N | --group ID] [--out results.csv] [-n SIZE]
    streamer report   [--figure N] [--results results.csv]
    streamer compare  [--results results.csv] [--kernel triad]
    streamer serve    [--port 8787] [-j N] [--max-queue 64]
    streamer fabric   [--hosts 4] [--drill] [--json]
    streamer kvcache  [--kill-worker 0] [--kill-step 4] [--json]
    streamer dataflow
    streamer describe

``run`` without a stored-results file feeds straight into ``report`` /
``compare``; with ``--out`` the CSV can be re-reported later without
re-running.  ``serve`` starts the resident sweep service
(:mod:`repro.serve`): a warm worker pool behind a coalescing,
admission-controlled JSON-over-TCP front end.

Observability flags sit on the top-level parser (before the
subcommand)::

    streamer --trace trace.json --metrics-out metrics.json run --group 1a

``--trace`` writes a Chrome trace-event JSON (load in
``chrome://tracing`` or Perfetto), ``--metrics-out`` writes the metrics
snapshot, ``--log-level`` configures the ``repro.*`` logger hierarchy.
Without these flags the observability layer stays on its no-op path.
"""

from __future__ import annotations

import argparse
import sys

from repro import faults, obs
from repro.stream.config import StreamConfig
from repro.streamer.compare import comparison_report
from repro.streamer.configs import FIGURE_KERNELS
from repro.tiering.evaluate import TRACE_KINDS
from repro.tiering.policy import POLICIES as TIERING_POLICIES
from repro.streamer.report import dataflow_report, figure_report, full_report
from repro.streamer.results import ResultSet
from repro.streamer.runner import StreamerRunner


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="streamer",
        description="STREAMer — automated CXL/PMem bandwidth evaluation "
                    "(reproduction of the SC'23 paper's tool)")
    p.add_argument("--trace", metavar="OUT.json",
                   help="record span traces and write Chrome trace-event "
                        "JSON here (chrome://tracing / Perfetto)")
    p.add_argument("--metrics-out", metavar="OUT.json",
                   help="record metrics and write the snapshot here")
    p.add_argument("--log-level", metavar="LEVEL",
                   choices=["debug", "info", "warning", "error", "critical"],
                   help="configure repro.* structured logging at this level")
    p.add_argument("--faults", metavar="PLAN.json",
                   help="install a fault-injection plan for this invocation "
                        "(see examples/faultplans/)")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run sweeps on the modelled testbeds")
    run.add_argument("--figure", type=int, choices=sorted(FIGURE_KERNELS),
                     help="regenerate one paper figure (5-8)")
    run.add_argument("--group", help="run a single test group (1a..2b)")
    run.add_argument("-n", "--array-size", type=int, default=None,
                     help="STREAM array elements (default: the paper's 100M)")
    run.add_argument("--out", help="write results CSV here")
    run.add_argument("--gnuplot", metavar="DIR",
                     help="emit gnuplot scripts for the swept figures here")
    run.add_argument("--quiet", action="store_true",
                     help="suppress the report, print only a summary")
    run.add_argument("-j", "--jobs", type=int, default=None, metavar="N",
                     help="fan the sweep out over N worker processes "
                          "(0 = one per CPU; default: serial)")
    run.add_argument("--cache-dir", default=".streamer-cache", metavar="DIR",
                     help="on-disk sweep cache location "
                          "(default: .streamer-cache)")
    run.add_argument("--no-cache", action="store_true",
                     help="ignore and do not write the sweep cache")
    run.add_argument("--max-retries", type=int, default=2, metavar="N",
                     help="retries per failed sweep task before the task "
                          "lands in the failures section (default: 2)")
    run.add_argument("--worker-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="per-task budget for parallel workers; timed-out "
                          "tasks are retried in the parent process")
    run.add_argument("--tiering-policy", metavar="POLICY",
                     choices=sorted(TIERING_POLICIES) + ["all"],
                     help="sweep the runtime-tiering group instead of the "
                          "paper groups: one series per policy "
                          f"({', '.join(sorted(TIERING_POLICIES))}; "
                          "'all' sweeps every policy)")
    run.add_argument("--tiering-trace", default="zipf",
                     choices=list(TRACE_KINDS),
                     help="access trace driving the tiering evaluation "
                          "(default: zipf)")

    rep = sub.add_parser("report", help="render figure tables from a CSV")
    rep.add_argument("--results", required=True, help="results CSV path")
    rep.add_argument("--figure", type=int, choices=sorted(FIGURE_KERNELS))

    cmp_ = sub.add_parser("compare",
                          help="check the paper's Section-4 claims")
    cmp_.add_argument("--results", help="results CSV (else: run now)")
    cmp_.add_argument("--kernel", default="triad",
                      choices=["copy", "scale", "add", "triad"])
    cmp_.add_argument("--json", action="store_true",
                      help="machine-readable verdicts (for CI gates)")

    sub.add_parser("dataflow", help="print the Figure-9 data flows")
    sub.add_parser("latency", help="print the idle-latency matrix")
    sub.add_parser("describe", help="describe the modelled testbeds")

    nat = sub.add_parser(
        "native",
        help="run STREAM on THIS machine (the tool's original purpose)")
    nat.add_argument("-n", "--array-size", type=int, default=2_000_000)
    nat.add_argument("-t", "--threads", type=int, default=1,
                     help="worker processes (1 = single-threaded)")
    nat.add_argument("--ntimes", type=int, default=10)
    nat.add_argument("--pmem", metavar="URI",
                     help="run STREAM-PMem over a pool at this URI "
                          "(file://..., mem://SIZE)")

    abl = sub.add_parser(
        "ablation",
        help="sweep the paper's proposed prototype upgrades")
    abl.add_argument("--threads", type=int, default=10)
    abl.add_argument("--policy", metavar="POLICY",
                     choices=sorted(TIERING_POLICIES),
                     help="run each variant under this runtime tiering "
                          "policy's steady-state traffic split instead of "
                          "CXL-bound NUMA")

    srv = sub.add_parser(
        "serve",
        help="run the resident sweep service (warm pool, coalescing, "
             "admission control)")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8787,
                     help="TCP port (0 = ephemeral, printed on start)")
    srv.add_argument("-j", "--jobs", type=int, default=0, metavar="N",
                     help="warm-pool worker processes (0 = one per CPU)")
    srv.add_argument("--max-queue", type=int, default=64, metavar="N",
                     help="bounded request queue depth (admission limit)")
    srv.add_argument("--lru-entries", type=int, default=128, metavar="N",
                     help="in-memory result cache capacity")
    srv.add_argument("--tenant-quota", type=int, default=None, metavar="N",
                     help="max in-flight executions per tenant")
    srv.add_argument("--deadline", type=float, default=None,
                     metavar="SECONDS",
                     help="default per-request deadline")
    srv.add_argument("--cache-dir", default=".streamer-cache", metavar="DIR",
                     help="on-disk sweep cache location "
                          "(default: .streamer-cache)")
    srv.add_argument("--no-cache", action="store_true",
                     help="disable the on-disk sweep cache layer")

    fab = sub.add_parser(
        "fabric",
        help="evaluate the multi-host pooled-memory fabric (pooling-ratio "
             "stranding sweep, noisy-neighbor QoS, host-detach drill)")
    fab.add_argument("--hosts", type=int, default=4, metavar="N",
                     help="hosts sharing the pool (default: 4)")
    fab.add_argument("--tenants-per-host", type=int, default=2, metavar="N",
                     help="tenant workloads per host (default: 2)")
    fab.add_argument("--skew", type=float, default=1.5,
                     help="Zipf exponent of the tenant demand sizes "
                          "(default: 1.5)")
    fab.add_argument("--seed", type=int, default=2023,
                     help="demand-shuffle seed (default: 2023)")
    fab.add_argument("--ratios", metavar="R,R,...",
                     help="pooling ratios to sweep "
                          "(default: 0,0.25,0.5,0.75,1)")
    fab.add_argument("--qos-floor", type=float, default=0.8,
                     help="guaranteed-tenant bandwidth floor as a fraction "
                          "of its solo rate (default: 0.8)")
    fab.add_argument("--drill", action="store_true",
                     help="also run the host-detach chaos drill")
    fab.add_argument("--json", action="store_true",
                     help="emit machine-readable JSON instead of tables")

    kv = sub.add_parser(
        "kvcache",
        help="run the disaggregated KV-cache serving workload and its "
             "worker-kill recovery drill over the pooled fabric")
    kv.add_argument("--hosts", type=int, default=2, metavar="N",
                    help="fabric hosts backing the KV pool (default: 2)")
    kv.add_argument("--workers-per-host", type=int, default=2, metavar="N",
                    help="decode workers per host (default: 2)")
    kv.add_argument("--groups", type=int, default=2, metavar="N",
                    help="prompt families (default: 2)")
    kv.add_argument("--seqs-per-group", type=int, default=3, metavar="N",
                    help="sequences per prompt family (default: 3)")
    kv.add_argument("--prompt-tokens", type=int, default=64, metavar="N")
    kv.add_argument("--decode-tokens", type=int, default=24, metavar="N")
    kv.add_argument("--shared-prefix", type=int, default=32, metavar="N",
                    help="shared prompt-prefix tokens per family "
                         "(default: 32)")
    kv.add_argument("--seed", type=int, default=2023)
    kv.add_argument("--kill-worker", type=int, default=0, metavar="W",
                    help="decode worker the drill kills (default: 0)")
    kv.add_argument("--kill-step", type=int, default=4, metavar="STEP",
                    help="decode step the kill fires at (default: 4)")
    kv.add_argument("--no-drill", action="store_true",
                    help="serve only; skip the worker-kill recovery drill")
    kv.add_argument("--json", action="store_true",
                    help="emit machine-readable JSON instead of tables")
    return p


def _tiering_report(results: ResultSet) -> str:
    """Bandwidth-vs-threads table per kernel for the tiering group."""
    lines = ["=== Runtime tiering policies — STREAM bandwidth (GB/s) ==="]
    for kernel in sorted({r.kernel for r in results}):
        recs = results.filter(kernel=kernel)
        series = sorted({r.series for r in recs})
        lines.append(f"\n--- {kernel} ---")
        lines.append(f"{'threads':>8}" + "".join(
            f"{s.split('.', 1)[1]:>12}" for s in series))
        threads = sorted({r.n_threads for r in recs})
        by = {(r.series, r.n_threads): r.gbps for r in recs}
        for n in threads:
            lines.append(f"{n:>8}" + "".join(
                f"{by.get((s, n), float('nan')):>12.2f}" for s in series))
    return "\n".join(lines)


def _runner(args) -> StreamerRunner:
    config = (StreamConfig(array_size=args.array_size)
              if getattr(args, "array_size", None) else StreamConfig.paper())
    cache_dir = None
    if not getattr(args, "no_cache", False):
        cache_dir = getattr(args, "cache_dir", None)
    return StreamerRunner(config=config, cache_dir=cache_dir)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.log_level:
        obs.setup_logging(args.log_level)
    want_metrics = args.metrics_out is not None
    want_trace = args.trace is not None
    if want_metrics or want_trace:
        obs.reset()     # one CLI invocation = one snapshot/trace
        obs.enable(metrics=want_metrics, trace=want_trace)
    if args.faults:
        plan = faults.FaultPlan.load(args.faults)
        faults.install(plan)
        print(f"fault plan installed: {plan.describe()}", file=sys.stderr)
    try:
        return _dispatch(args)
    finally:
        if args.faults:
            faults.clear()
        if want_metrics or want_trace:
            obs.disable()
            if want_metrics:
                obs.write_metrics(args.metrics_out)
                print(f"wrote metrics snapshot to {args.metrics_out}",
                      file=sys.stderr)
            if want_trace:
                obs.write_trace(args.trace)
                print(f"wrote Chrome trace to {args.trace}", file=sys.stderr)


def _dispatch(args) -> int:
    if args.command == "run":
        runner = _runner(args)
        jobs = args.jobs
        parallel: int | bool | None = None
        if jobs is not None:
            if jobs < 0:
                _build_parser().error(
                    f"--jobs must be >= 0 (0 = one per CPU), got {jobs}")
            parallel = True if jobs == 0 else jobs
        if args.max_retries < 0:
            _build_parser().error(
                f"--max-retries must be >= 0, got {args.max_retries}")
        if args.tiering_policy:
            from repro.streamer.configs import tiering_group
            policies = (None if args.tiering_policy == "all"
                        else [args.tiering_policy])
            group = tiering_group(policies, trace=args.tiering_trace)
            runner.groups[group.group_id] = group
            results = runner.run_group(
                group, max_retries=args.max_retries)
        elif args.group:
            results = runner.run_group(
                args.group, max_retries=args.max_retries)
        elif args.figure:
            results = runner.run_figure(args.figure, parallel=parallel,
                                        max_retries=args.max_retries,
                                        worker_timeout=args.worker_timeout)
        else:
            results = runner.run_all(parallel=parallel,
                                     max_retries=args.max_retries,
                                     worker_timeout=args.worker_timeout)
        if args.out:
            results.to_csv(args.out)
            print(f"wrote {len(results)} records to {args.out}")
        if args.gnuplot:
            from repro.streamer.plots import write_all_figures
            for path in write_all_figures(results, args.gnuplot):
                print(f"wrote {path}")
        if not args.quiet:
            if args.tiering_policy:
                print(_tiering_report(results))
            else:
                figures = ([args.figure] if args.figure
                           else sorted(FIGURE_KERNELS))
                for f in figures:
                    kernel = FIGURE_KERNELS[f]
                    if results.filter(kernel=kernel):
                        print(figure_report(results, f))
                        print()
        if results.failures:
            print(f"{len(results.failures)} sweep task(s) failed:",
                  file=sys.stderr)
            for f in results.failures:
                detail = ("quarantined" if f.attempts == 0
                          else f"{f.attempts} attempt(s)")
                print(f"  {f.series}/{f.kernel}: {f.error_type} "
                      f"({detail}) - {f.message}", file=sys.stderr)
            return 1
        return 0

    if args.command == "report":
        results = ResultSet.from_csv(args.results)
        if args.figure:
            print(figure_report(results, args.figure))
        else:
            print(full_report(results))
        return 0

    if args.command == "compare":
        if args.results:
            results = ResultSet.from_csv(args.results)
        else:
            results = StreamerRunner().run_all(kernels=(args.kernel,))
        if args.json:
            import json

            from repro.streamer.compare import compare_to_paper
            checks = compare_to_paper(results, args.kernel)
            doc = {
                "kernel": args.kernel,
                "passed": sum(c.passed for c in checks),
                "total": len(checks),
                "claims": [
                    {"claim": c.claim, "expected": c.expected,
                     "measured": c.measured, "passed": c.passed}
                    for c in checks
                ],
            }
            print(json.dumps(doc, indent=2))
            return 0 if doc["passed"] == doc["total"] else 1
        report = comparison_report(results, args.kernel)
        print(report)
        return 0 if "FAIL" not in report else 1

    if args.command == "dataflow":
        print(dataflow_report())
        return 0

    if args.command == "latency":
        from repro.streamer.report import latency_report
        print(latency_report())
        return 0

    if args.command == "describe":
        from repro.machine.presets import setup1, setup2
        for tb in (setup1(), setup2()):
            print(f"## {tb.name}: {tb.description}")
            print(tb.machine.describe())
            print()
        return 0

    if args.command == "native":
        from repro.stream.native import run_parallel, run_single
        from repro.stream.pmem_stream import StreamPmem
        cfg = StreamConfig(array_size=args.array_size, ntimes=args.ntimes)
        print(f"native STREAM on this host: {cfg.describe()}")
        if args.pmem:
            sp = StreamPmem.create(args.pmem, cfg)
            result = sp.run()
            print(f"backend: {result.backend} "
                  f"(persistent={result.persistent})")
            print(result.native.table())
            sp.close()
        elif args.threads > 1:
            print(run_parallel(cfg, args.threads).table())
        else:
            print(run_single(cfg).table())
        return 0

    if args.command == "ablation":
        from repro.machine.affinity import place_threads
        from repro.machine.numa import NumaPolicy
        from repro.machine.presets import ablation_variants, setup1_variant
        from repro.memsim.engine import AccessMode, simulate_stream
        header = "triad GB/s"
        if args.policy:
            from repro.tiering.evaluate import (
                TieringSpec,
                effective_sweep_policy,
            )
            header = f"triad GB/s [{args.policy}]"
        print(f"{'variant':<28}{header:>20}")
        for name, kw in ablation_variants().items():
            tb = setup1_variant(**kw)
            if args.policy:
                policy, _ = effective_sweep_policy(
                    tb.machine, TieringSpec(policy=args.policy))
            else:
                policy = NumaPolicy.bind(2)
            cores = place_threads(tb.machine, args.threads, sockets=[0])
            r = simulate_stream(tb.machine, "triad", cores,
                                policy, AccessMode.NUMA)
            print(f"{name:<28}{r.reported_gbps:>20.2f}")
        return 0

    if args.command == "serve":
        return _serve(args)

    if args.command == "fabric":
        return _fabric(args)

    if args.command == "kvcache":
        return _kvcache(args)

    return 2    # pragma: no cover - argparse enforces choices


def _fabric(args) -> int:
    import dataclasses
    import json

    from repro.fabric import (
        FabricSpec,
        host_detach_drill,
        noisy_neighbor,
        pooling_sweep,
    )
    from repro.fabric.evaluate import DEFAULT_RATIOS

    spec = FabricSpec(n_hosts=args.hosts,
                      tenants_per_host=args.tenants_per_host,
                      demand_skew=args.skew, seed=args.seed,
                      qos_floor=args.qos_floor)
    ratios = (tuple(float(r) for r in args.ratios.split(","))
              if args.ratios else DEFAULT_RATIOS)
    sweep = pooling_sweep(spec, ratios)
    nn = noisy_neighbor(spec)
    drill = host_detach_drill(spec) if args.drill else None
    ok = drill is None or drill["ok"]

    if args.json:
        doc = {"spec": dataclasses.asdict(spec), "pooling": sweep,
               "noisy_neighbor": nn}
        if drill is not None:
            doc["drill"] = drill
        print(json.dumps(doc, indent=2))
        return 0 if ok else 1

    mib = 1 << 20
    print(f"=== Pooling ratio vs stranding "
          f"({spec.n_hosts} hosts x {spec.tenants_per_host} tenants, "
          f"skew {spec.demand_skew}) ===")
    print(f"{'ratio':>7}{'utilization':>14}{'satisfaction':>14}"
          f"{'stranded MiB':>14}")
    for point in sweep:
        print(f"{point['ratio']:>7.2f}{point['utilization']:>14.4f}"
              f"{point['satisfaction']:>14.4f}"
              f"{point['stranded_bytes'] // mib:>14}")
    print()
    print(f"=== Noisy neighbor ({nn['n_aggressors']} aggressors x "
          f"{nn['aggressor_threads']} threads vs guaranteed victim x "
          f"{nn['victim_threads']}) ===")
    print(f"{'policy':>10}{'victim GB/s':>14}{'retention':>12}"
          f"{'aggregate GB/s':>16}")
    print(f"{'solo':>10}{nn['victim_solo_gbps']:>14.2f}{1.0:>12.2f}"
          f"{nn['victim_solo_gbps']:>16.2f}")
    print(f"{'fair':>10}{nn['victim_fair_gbps']:>14.2f}"
          f"{nn['fair_retention']:>12.2f}{nn['aggregate_fair_gbps']:>16.2f}")
    print(f"{'qos':>10}{nn['victim_qos_gbps']:>14.2f}"
          f"{nn['qos_retention']:>12.2f}{nn['aggregate_qos_gbps']:>16.2f}")
    if drill is not None:
        print()
        print(f"=== Host-detach drill (host {drill['detach_host']} at "
              f"step {drill['at_step']}/{drill['n_steps']}) ===")
        print(f"killed: {', '.join(drill['killed']) or '(none)'} "
              f"(as expected: {drill['killed_as_expected']})")
        print(f"survivors byte-identical to fault-free run: "
              f"{drill['byte_identical']}")
        print(f"drill {'PASS' if drill['ok'] else 'FAIL'}")
    return 0 if ok else 1


def _kvcache(args) -> int:
    import json

    from repro.workloads.kvcache import (
        KvWorkloadSpec,
        kill_worker_drill,
        run_kvcache,
    )

    spec = KvWorkloadSpec(
        n_hosts=args.hosts, workers_per_host=args.workers_per_host,
        n_groups=args.groups, seqs_per_group=args.seqs_per_group,
        prompt_tokens=args.prompt_tokens, decode_tokens=args.decode_tokens,
        shared_prefix_tokens=args.shared_prefix, seed=args.seed)
    if args.no_drill:
        report = run_kvcache(spec)
        if args.json:
            print(json.dumps(report, indent=2, default=str))
            return 0
        print(f"=== KV-cache serving ({spec.n_sequences} sequences on "
              f"{spec.n_workers} workers / {spec.n_hosts} hosts) ===")
        print(f"decode tokens/s (modelled): {report['tokens_per_s']:.0f}")
        print(f"prefill: {report['prefill']['computed_tokens']} computed, "
              f"{report['prefill']['shared_tokens']} shared from pool")
        print(f"pooled blocks: {report['blocks']['states']['pooled']} "
              f"({report['blocks']['pooled_bytes']} bytes)")
        return 0

    drill = kill_worker_drill(spec, worker=args.kill_worker,
                              at_step=args.kill_step)
    if args.json:
        print(json.dumps(drill, indent=2, default=str))
        return 0 if drill["ok"] else 1
    print(f"=== Worker-kill recovery drill (worker {drill['worker']} at "
          f"decode step {drill['at_step']}) ===")
    print(f"victim sequences: {drill['victim_sequences']} "
          f"(all recovered: {drill['recovered_sequences']})")
    print(f"{'run':>12}{'tokens/s':>12}{'recovery ns':>14}"
          f"{'from pool':>11}{'recomputed':>12}")
    for name in ("clean", "pooled", "reprefill"):
        s = drill[name]
        print(f"{name:>12}{s['tokens_per_s']:>12.0f}"
              f"{s['recovery_ns']:>14.0f}{s['tokens_from_pool']:>11}"
              f"{s['tokens_recomputed']:>12}")
    print(f"sha256 digests identical across runs: "
          f"{drill['digests_identical']}")
    print(f"shared-prefix tokens re-prefilled (pooled): "
          f"{drill['pooled']['prefix_reprefill_tokens']}")
    print(f"recovery speedup pooled vs re-prefill: "
          f"{drill['recovery_speedup']:.2f}x "
          f"(floor {drill['speedup_floor']:.1f}x)")
    print(f"drill {'PASS' if drill['ok'] else 'FAIL'}")
    return 0 if drill["ok"] else 1


def _serve(args) -> int:
    import asyncio
    import signal

    from repro.serve.server import SweepServer
    from repro.serve.service import SweepService

    if args.jobs < 0:
        _build_parser().error(
            f"--jobs must be >= 0 (0 = one per CPU), got {args.jobs}")
    service = SweepService(
        jobs=args.jobs or None,
        max_queue=args.max_queue,
        lru_entries=args.lru_entries,
        tenant_quota=args.tenant_quota,
        default_deadline_s=args.deadline,
        cache_dir=None if args.no_cache else args.cache_dir,
    )
    server = SweepServer(service, host=args.host, port=args.port)

    async def _run() -> None:
        await server.start()
        print(f"sweep service listening on {server.host}:{server.port} "
              f"(workers={service.pool.workers}, "
              f"max_queue={service.max_queue})",
              flush=True)
        # SIGTERM stops like Ctrl-C: cancelling this task runs
        # server.stop(), which shuts the warm pool down and reaps it
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("sweep service stopped", file=sys.stderr)
    return 0


if __name__ == "__main__":     # pragma: no cover
    sys.exit(main())
