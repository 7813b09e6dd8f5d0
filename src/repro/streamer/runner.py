"""Sweep execution: test groups × kernels × thread counts → results.

Three execution strategies, all producing byte-identical
:class:`~repro.streamer.results.ResultSet` contents:

* **serial** — the reference path (one series sweep after another);
* **parallel** — ``run_all(parallel=N)`` fans the independent series
  sweeps out over a warm process pool, one task per submission, and
  reassembles records in the exact serial order;
* **cached** — with a ``cache_dir``, ``run_all`` keys the sweep by a
  content hash of the STREAM configuration, every machine fingerprint
  (capacities, latencies, calibration) and the group specs, and replays
  the stored ``ResultSet`` JSON when nothing changed.

Every tier runs one task body, :func:`run_task`, and ends in one
collector, :meth:`StreamerRunner._collect`, which walks the task
outcomes in serial order and heals failed tasks with retries and
quarantine — the sweep service hands its sharded outcomes to the same
collector.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import json
import os
import tempfile
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import asdict
from typing import Iterable, Mapping, Sequence

from repro import faults, obs
from repro.errors import BenchmarkError
from repro.machine.presets import Testbed, setup1, setup2
from repro.machine.topology import Machine
from repro.memsim import traffic
from repro.stream.config import StreamConfig
from repro.stream.simulated import simulate_sweep
from repro.streamer.configs import (
    FIGURE_KERNELS,
    TestGroup,
    TestSeries,
    test_groups,
)
from repro.streamer.results import FailureRecord, ResultRecord, ResultSet

#: Bump when the cached-result layout or the model semantics change in a
#: way the content hash cannot see.
SWEEP_CACHE_SCHEMA = 3    # 3: SweepSpec grew the tiering axis

_log = obs.get_logger("streamer.runner")


def _jsonify(obj: object) -> object:
    """``json.dumps(default=...)`` hook for the sweep-cache key.

    Only enum members are expected here (policy/mode/affinity kinds in
    the group specs); anything else means a fingerprint field changed
    type without a matching schema bump, which must fail loudly — a
    silent ``str(obj)`` fallback would hash ``repr`` noise (e.g. object
    ids) into the key and quietly defeat caching.
    """
    if isinstance(obj, enum.Enum):
        return obj.value
    raise TypeError(
        f"sweep-cache key cannot serialize {type(obj).__name__!r}: {obj!r}"
    )


def _series_records(group: TestGroup, series: TestSeries, kernel: str,
                    results) -> list[ResultRecord]:
    return [
        ResultRecord(
            group=group.group_id,
            series=series.key,
            label=series.label,
            kernel=kernel,
            mode=r.mode.value,
            testbed=series.testbed,
            n_threads=r.n_threads,
            gbps=round(r.reported_gbps, 4),
        )
        for r in results
    ]


#: one sweep task: a group's series under one kernel
Task = tuple[TestGroup, TestSeries, str]


def run_task(machines: Mapping[str, Machine], config: StreamConfig,
             task: Task, attempt: int = 0) -> list[ResultRecord]:
    """Run one sweep task: the fault hook, the series sweep, its records.

    The serial path and the pool workers both run this body, which is
    what keeps pooled and serial records byte-identical.
    """
    group, series, kernel = task
    faults.on_sweep_task(series.key, kernel, attempt)
    start = obs.clock()
    with obs.span("sweep.series",
                  meta={"series": series.key, "kernel": kernel}):
        results = simulate_sweep(machines[series.testbed], kernel,
                                 series.spec, group.thread_counts, config)
    obs.observe_since("sweep.series_wall_s", start)
    return _series_records(group, series, kernel, results)


def canonical_kernels(kernels: Iterable[str]) -> tuple[str, ...]:
    """Each STREAM kernel name resolved through :func:`traffic.kernel` to
    its canonical name, so ``"Triad"`` is swept, cached and recorded as
    ``"triad"`` on every way into a sweep.

    Raises:
        BenchmarkError: a name that is not a string or not a kernel.
    """
    names = []
    for name in kernels:
        if not isinstance(name, str):
            raise BenchmarkError(f"kernel names are strings, got {name!r}")
        try:
            names.append(traffic.kernel(name).name)
        except KeyError as exc:
            raise BenchmarkError(exc.args[0]) from None
    return tuple(names)


def _check_max_retries(max_retries: int) -> None:
    if max_retries < 0:
        raise BenchmarkError(f"max_retries must be >= 0, got {max_retries}")


class StreamerRunner:
    """Runs the paper's evaluation matrix on the modelled testbeds.

    Testbeds are constructed once and shared across sweeps; a custom
    mapping can be injected to run the same groups against prototype
    variants (the ablation benches do exactly that).

    Args:
        testbeds: name → :class:`Testbed`; defaults to the paper's two.
        config: STREAM configuration (defaults to the paper's 100M
            elements).
        cache_dir: directory for the on-disk sweep cache; ``None``
            disables result caching.
    """

    #: Base of the real (slept) exponential backoff between sweep-task
    #: retries.  Kept tiny — the point is ordering/jitter realism in the
    #: self-healing loop, not to slow the test suite down.
    RETRY_BACKOFF_S = 0.01

    def __init__(self, testbeds: dict[str, Testbed] | None = None,
                 config: StreamConfig | None = None,
                 cache_dir: str | None = None) -> None:
        if testbeds is None:
            testbeds = {"setup1": setup1(), "setup2": setup2()}
        self.testbeds = testbeds
        self.config = config or StreamConfig.paper()
        self.groups = test_groups()
        self.cache_dir = cache_dir
        self._pool = None               # attached WarmWorkerPool
        self._pool_owned = False
        self._state_blob: tuple[str, bytes] | None = None

    # ------------------------------------------------------------------
    # warm worker pool attachment
    # ------------------------------------------------------------------

    def start_pool(self, jobs: int | bool | None = True):
        """Start (or return) a persistent warm worker pool on this runner.

        Once live, every parallel ``run_all()`` — and, by default, every
        ``run_all()`` with ``parallel`` unspecified — reuses the same
        pre-warmed workers instead of respawning a process pool per
        call.  The pool forwards the currently active fault plan to its
        workers, matching the one-shot pool's contract.  Close with
        :meth:`close_pool` (or use the runner as a context manager).
        """
        from repro.serve.pool import WarmWorkerPool
        if self._pool is not None and self._pool.alive:
            return self._pool
        self._pool = WarmWorkerPool(
            self._n_jobs(True if jobs is None else jobs),
            fault_plan_json=faults.export_active()).start()
        self._pool_owned = True
        return self._pool

    def attach_pool(self, pool) -> None:
        """Adopt an externally owned warm pool (the sweep service's).

        The runner uses it exactly like one from :meth:`start_pool` but
        never shuts it down — :meth:`close_pool` only detaches.
        """
        self._pool = pool
        self._pool_owned = False

    @property
    def pool(self):
        """The attached warm pool, or ``None``."""
        return self._pool

    def close_pool(self) -> None:
        """Shut down an owned pool / detach an adopted one (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None and self._pool_owned:
            pool.shutdown()
        self._pool_owned = False

    def __enter__(self) -> "StreamerRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close_pool()

    def _pool_state(self) -> tuple[str, bytes]:
        """The (content key, pickle blob) of this runner's sweep state.

        Pickled once and reused for every pool submission; workers cache
        the unpickled (machines, config) pair under the content key.
        """
        if self._state_blob is None:
            from repro.serve.pool import pack_state
            machines = {name: tb.machine
                        for name, tb in self.testbeds.items()}
            self._state_blob = pack_state(machines, self.config)
        return self._state_blob

    def _testbed(self, name: str) -> Testbed:
        try:
            return self.testbeds[name]
        except KeyError:
            raise BenchmarkError(
                f"no testbed {name!r}; have {sorted(self.testbeds)}"
            ) from None

    def _resolve_group(self, group: TestGroup | str) -> TestGroup:
        if isinstance(group, str):
            try:
                return self.groups[group]
            except KeyError:
                raise BenchmarkError(
                    f"unknown test group {group!r}; have {sorted(self.groups)}"
                ) from None
        return group

    def run_group(self, group: TestGroup | str,
                  kernels: Iterable[str] = traffic.KERNEL_ORDER,
                  max_retries: int = 2) -> ResultSet:
        """Run one test group for the given kernels, serially, with the
        same retries and quarantine as :meth:`run_all`."""
        group = self._resolve_group(group)
        _check_max_retries(max_retries)
        with obs.span("sweep.run_group", meta={"group": group.group_id}):
            return self._collect(self._tasks(canonical_kernels(kernels),
                                             group),
                                 itertools.repeat(None), max_retries)

    # ------------------------------------------------------------------
    # full-matrix execution
    # ------------------------------------------------------------------

    def _tasks(self, kernels: Sequence[str], group: TestGroup | None = None
               ) -> list[Task]:
        """Every (group, series, kernel) sweep of ``group`` (default: of
        every group), in serial record order, for ``kernels`` already
        made canonical by :func:`canonical_kernels`."""
        groups = ([group] if group is not None
                  else [self.groups[gid] for gid in sorted(self.groups)])
        tasks: list[Task] = []
        for g in groups:
            for kernel in kernels:
                for series in g.series:
                    self._testbed(series.testbed)   # fail like the serial path
                    tasks.append((g, series, kernel))
        return tasks

    @staticmethod
    def _n_jobs(parallel: int | bool | None) -> int:
        if parallel is None or parallel is False:
            return 1
        if parallel is True:
            return os.cpu_count() or 1
        jobs = int(parallel)
        if jobs < 1:
            raise BenchmarkError(f"parallel job count must be >= 1, got {jobs}")
        return jobs

    # ------------------------------------------------------------------
    # self-healing task execution
    # ------------------------------------------------------------------

    def _collect(self, tasks: Sequence[Task], outcomes: Iterable,
                 max_retries: int = 2) -> ResultSet:
        """Walk task outcomes in serial order into one ResultSet.

        ``outcomes`` yields one entry per task: its records, the
        exception its attempt-0 try raised in a pool worker, or ``None``
        for a task not tried yet.  A task whose series is quarantined is
        skipped; a failed or untried task goes to
        :meth:`_run_task_healed`; records are kept as they are.
        ``run_group``, ``run_all`` (serial and pooled) and the sweep
        service all end here, so every tier heals alike.
        """
        machines = {name: tb.machine for name, tb in self.testbeds.items()}
        out = ResultSet()
        quarantine: dict[str, str] = {}
        for task, outcome in zip(tasks, outcomes):
            group, series, kernel = task
            if series.key in quarantine:
                obs.inc("sweep.quarantine_skips")
                _log.warning("skipping quarantined series",
                             extra=obs.kv(series=series.key, kernel=kernel))
                out.add_failure(FailureRecord(
                    group=group.group_id, series=series.key, kernel=kernel,
                    testbed=series.testbed, error_type="SeriesQuarantined",
                    message=f"series benched after {quarantine[series.key]}",
                    attempts=0, quarantined=True))
            elif isinstance(outcome, list):
                obs.inc("sweep.series_runs")
                out.extend(outcome)
            else:
                self._run_task_healed(machines, task, max_retries, out,
                                      quarantine, outcome)
        return out

    def _run_task_healed(self, machines: Mapping[str, Machine],
                         task: Task, max_retries: int, out: ResultSet,
                         quarantine: dict[str, str],
                         prior_exc: BaseException | None) -> None:
        """Run one sweep task with bounded retries and quarantine.

        On success the records land in ``out``; when every attempt fails
        (or the failure is known-deterministic) a :class:`FailureRecord`
        is appended instead and the series is quarantined so later tasks
        on it are skipped rather than re-failed.  ``prior_exc`` is the
        failure of an attempt 0 already tried in a pool worker; the
        retries then start at attempt 1.
        """
        group, series, kernel = task
        last_exc = prior_exc
        tries = 0 if prior_exc is None else 1
        if not getattr(prior_exc, "deterministic", False):
            for attempt in range(tries, max_retries + 1):
                if attempt > 0:
                    obs.inc("sweep.retries")
                    time.sleep(self.RETRY_BACKOFF_S * (2 ** (attempt - 1)))
                try:
                    records = run_task(machines, self.config, task, attempt)
                except faults.SweepFaultInjected as exc:
                    last_exc, tries = exc, attempt + 1
                    if exc.deterministic:
                        break   # retrying a fail-every-attempt spec is futile
                except Exception as exc:          # noqa: BLE001 — heal all
                    last_exc, tries = exc, attempt + 1
                else:
                    obs.inc("sweep.series_runs")
                    out.extend(records)
                    return
        quarantine[series.key] = type(last_exc).__name__
        obs.inc("sweep.failures")
        obs.inc("sweep.quarantined")
        _log.warning("sweep task failed; series quarantined",
                     extra=obs.kv(series=series.key, kernel=kernel,
                                  error=type(last_exc).__name__,
                                  attempts=tries))
        out.add_failure(FailureRecord(
            group=group.group_id, series=series.key, kernel=kernel,
            testbed=series.testbed, error_type=type(last_exc).__name__,
            message=str(last_exc), attempts=tries, quarantined=True))

    def run_all(self, kernels: Iterable[str] = traffic.KERNEL_ORDER,
                parallel: int | bool | None = None,
                use_cache: bool = True,
                max_retries: int = 2,
                worker_timeout: float | None = None) -> ResultSet:
        """The full evaluation: every group, every kernel.

        Args:
            kernels: STREAM kernels to sweep, in any letter case; each
                is keyed and recorded by its canonical name, and an
                unknown one raises :class:`BenchmarkError` before any
                task runs.
            parallel: ``None``/``False`` runs serially; ``True`` uses one
                process per CPU; an integer pins the worker count.
                Record order is identical in every mode.
            use_cache: consult/populate the on-disk cache (only if the
                runner was built with a ``cache_dir``).  A run that lost
                tasks to failures is never cached.
            max_retries: extra attempts per sweep task after its first
                failure; a task that still fails is recorded in the
                :class:`ResultSet` ``failures`` section and its series
                quarantined for the rest of the run.
            worker_timeout: seconds to wait for each parallel worker
                result before retrying the task in the parent process
                (``None`` waits forever).
        """
        kernels = canonical_kernels(kernels)
        _check_max_retries(max_retries)
        cache_key = None
        if self.cache_dir is not None and use_cache:
            cache_key = self.sweep_cache_key(kernels)
            cached = self._cache_load(cache_key)
            if cached is not None:
                obs.inc("sweep.cache.hits")
                _log.debug("sweep cache hit", extra=obs.kv(key=cache_key[:12]))
                return cached
            obs.inc("sweep.cache.misses")
            _log.debug("sweep cache miss", extra=obs.kv(key=cache_key[:12]))

        # a live warm pool makes pooled execution the default — the whole
        # point of keeping it around is not respawning workers; only an
        # explicit parallel=False forces the serial path past it
        warm = (self._pool is not None and self._pool.alive
                and parallel is not False)
        if parallel is None and warm:
            jobs = self._pool.workers
        else:
            jobs = self._n_jobs(parallel)
        tasks = self._tasks(kernels)
        with obs.span("sweep.run_all",
                      meta={"kernels": list(kernels), "jobs": jobs,
                            "tasks": len(tasks)}):
            if (jobs <= 1 and not warm) or len(tasks) <= 1:
                out = self._collect(tasks, itertools.repeat(None),
                                    max_retries)
            else:
                out = self._run_pool(tasks, max_retries, worker_timeout,
                                     jobs)

        if cache_key is not None and out.complete:
            self._cache_store(cache_key, out)
        return out

    def _run_pool(self, tasks: Sequence[Task], max_retries: int,
                  worker_timeout: float | None, jobs: int) -> ResultSet:
        from repro.serve.pool import WarmWorkerPool, run_shard
        attached = self._pool is not None and self._pool.alive
        if attached:
            pool = self._pool
            workers = pool.workers
        else:
            # no resident pool: spawn one for this call (the historical
            # one-shot behaviour), shut it down in the finally below
            workers = min(jobs, len(tasks))
            pool = WarmWorkerPool(
                workers, fault_plan_json=faults.export_active()).start()
        obs.gauge("sweep.pool.workers", workers)
        _log.info("starting sweep pool",
                  extra=obs.kv(workers=workers, tasks=len(tasks),
                               warm=attached))
        state_key, state_blob = self._pool_state()
        timed_out = False

        def outcomes(futures):
            # waited in submission order, so the collector sees them in
            # serial order
            nonlocal timed_out
            for (_, series, kernel), fut in zip(tasks, futures):
                try:
                    [outcome] = fut.result(timeout=worker_timeout)
                except FutureTimeoutError:
                    timed_out = True
                    obs.inc("sweep.worker_timeouts")
                    _log.warning("sweep worker timed out",
                                 extra=obs.kv(series=series.key,
                                              kernel=kernel,
                                              timeout_s=worker_timeout))
                    outcome = BenchmarkError(
                        f"worker exceeded {worker_timeout}s budget")
                except Exception as exc:      # noqa: BLE001 — heal all
                    outcome = exc               # the worker itself failed
                yield outcome

        try:
            # one-task shards, so worker_timeout bounds every task
            futures = [pool.submit(run_shard, state_key, state_blob, (t,))
                       for t in tasks]
            with obs.span("sweep.pool",
                          meta={"workers": workers, "tasks": len(tasks)}):
                out = self._collect(tasks, outcomes(futures), max_retries)
        finally:
            if attached:
                if timed_out:
                    # wedged worker in a resident pool: respawn warm
                    # workers instead of abandoning the pool for good
                    pool.recycle()
            else:
                # a wedged worker must not hang shutdown; abandon it
                pool.shutdown(wait=not timed_out, cancel_futures=timed_out)
        _log.info("sweep pool drained", extra=obs.kv(tasks=len(tasks)))
        return out

    def run_figure(self, figure: int, parallel: int | bool | None = None,
                   use_cache: bool = True, max_retries: int = 2,
                   worker_timeout: float | None = None) -> ResultSet:
        """Regenerate one of Figures 5–8 (all five groups, one kernel)."""
        try:
            kernel = FIGURE_KERNELS[figure]
        except KeyError:
            raise BenchmarkError(
                f"figure must be one of {sorted(FIGURE_KERNELS)}, got {figure}"
            ) from None
        return self.run_all(kernels=(kernel,), parallel=parallel,
                            use_cache=use_cache, max_retries=max_retries,
                            worker_timeout=worker_timeout)

    # ------------------------------------------------------------------
    # on-disk result cache
    # ------------------------------------------------------------------

    def sweep_cache_key(self, kernels: Sequence[str]) -> str:
        """Content hash identifying one ``run_all`` invocation.

        Covers: the cache schema version, the STREAM configuration, the
        kernel list, every testbed machine's :meth:`~repro.machine.topology.Machine.fingerprint`
        (capacities, latencies, node wiring, calibration profile) and the
        full group specs (series, policies, modes, thread counts).  Any
        change to any of these produces a different key.
        """
        doc = {
            "schema": SWEEP_CACHE_SCHEMA,
            "config": asdict(self.config),
            "kernels": list(kernels),
            "testbeds": {
                name: tb.machine.fingerprint()
                for name, tb in sorted(self.testbeds.items())
            },
            "groups": {
                gid: asdict(self.groups[gid]) for gid in sorted(self.groups)
            },
        }
        blob = json.dumps(doc, sort_keys=True, default=_jsonify)
        return hashlib.sha256(blob.encode()).hexdigest()

    def _cache_path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"sweep-{key[:40]}.json")

    def _cache_load(self, key: str) -> ResultSet | None:
        path = self._cache_path(key)
        try:
            with open(path) as fh:
                return ResultSet.from_json(fh.read())
        except FileNotFoundError:
            return None
        except (OSError, BenchmarkError):
            # Corrupt or unreadable cache entry: recompute (and rewrite).
            return None

    def _cache_store(self, key: str, results: ResultSet) -> None:
        """Write one cache entry atomically.

        The tmp file comes from ``tempfile.mkstemp`` — unique per call,
        not just per process — so concurrent writers of the same key
        (the resident service races exactly like this) each write their
        own tmp and the final ``os.replace`` is the only visible step.
        A reader can therefore never observe a torn entry; last replace
        wins, and every writer's content is identical by construction
        (same key ⇒ same sweep output).
        """
        os.makedirs(self.cache_dir, exist_ok=True)
        path = self._cache_path(key)
        fd, tmp = tempfile.mkstemp(
            dir=self.cache_dir, prefix=f"sweep-{key[:8]}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(results.to_json())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
