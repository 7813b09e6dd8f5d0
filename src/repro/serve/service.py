"""The resident sweep service: coalescing, admission control, warm pool.

One :class:`SweepService` turns the one-shot sweep engine into a
long-lived front-end that serves concurrent callers:

* **warm execution** — every request runs on one shared
  :class:`~repro.serve.pool.WarmWorkerPool`; nothing spawns processes or
  re-JITs kernels per request;
* **coalescing** — requests are keyed by
  :meth:`~repro.streamer.runner.StreamerRunner.sweep_cache_key`;
  identical in-flight requests attach to the one running execution, and
  completed keys land in an in-memory LRU in front of the on-disk
  ``ResultSet`` cache.  Failures propagate to every attached waiter and
  are never cached;
* **batching and sharding** — a request's (group, series, kernel) tasks
  are packed into contiguous shards, each one pool submission, so
  concurrent requests interleave at shard granularity across the
  workers.  The shards' per-task outcomes go to the runner's collector,
  which heals a failed task in the parent exactly as ``run_all()``
  does, so the served output stays byte-identical to it; a request
  whose sweep is still incomplete after healing fails with a
  :class:`~repro.errors.BenchmarkError`;
* **admission control** — a bounded queue sheds load with a typed
  :class:`~repro.errors.ServiceOverloadError`, per-tenant in-flight
  quotas shed with :class:`~repro.errors.ServiceQuotaError`, and
  per-request deadlines reuse the wedged-worker-timeout machinery
  (deadline miss inside execution ⇒ pool recycle, exactly like the
  runner's ``--worker-timeout``);
* **observability** — ``serve.*`` counters/gauges, a fine-bucket
  latency histogram (p50/p99 via
  :meth:`~repro.obs.metrics.Histogram.percentile`) and one
  ``serve.request`` span per executed request.

The service is single-event-loop asyncio; the admission path (LRU probe
→ coalesce probe → disk probe → quota/queue check → enqueue) contains
no ``await``, so two identical requests can never both miss the
coalescing map and execute twice.
"""

from __future__ import annotations

import asyncio
import math
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Sequence

from repro import faults, obs
from repro.errors import (
    BenchmarkError,
    ServiceClosedError,
    ServiceDeadlineError,
    ServiceOverloadError,
    ServiceQuotaError,
)
from repro.machine.presets import Testbed, setup1, setup2
from repro.memsim.traffic import KERNEL_ORDER
from repro.obs.metrics import Histogram
from repro.serve.pool import WarmWorkerPool, run_shard
from repro.stream.config import StreamConfig
from repro.streamer.results import ResultSet
from repro.streamer.runner import StreamerRunner, canonical_kernels

__all__ = ["SweepRequest", "ServeResult", "SweepService",
           "SERVE_LATENCY_BUCKETS"]

_log = obs.get_logger("serve.service")

#: finer-than-default buckets so tail (p99) latency estimates stay sharp
SERVE_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 120.0,
)


@dataclass(frozen=True)
class SweepRequest:
    """One client request: which sweep, for whom, under what budget.

    ``array_size=None`` means the paper's 100M-element configuration.
    ``use_cache=False`` bypasses the LRU/disk caches *and* opts out of
    coalescing — the request always executes (benchmarks measuring warm
    execution use exactly this).
    """

    kernels: tuple[str, ...] = KERNEL_ORDER
    array_size: int | None = None
    tenant: str = "default"
    deadline_s: float | None = None
    use_cache: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernels", canonical_kernels(self.kernels))
        if not self.kernels:
            raise BenchmarkError("sweep request needs >= 1 kernel")
        if self.array_size is not None and self.array_size < 1:
            raise BenchmarkError(
                f"array_size must be >= 1, got {self.array_size}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise BenchmarkError(
                f"deadline_s must be > 0, got {self.deadline_s}")
        if not self.tenant:
            raise BenchmarkError("tenant must be non-empty")

    @classmethod
    def from_doc(cls, doc: dict) -> "SweepRequest":
        """Build from a wire-protocol JSON object (unknown keys fail)."""
        if not isinstance(doc, dict):
            raise BenchmarkError("sweep request must be a JSON object")
        known = {"kernels", "array_size", "tenant", "deadline_s",
                 "use_cache"}
        unknown = set(doc) - known
        if unknown:
            raise BenchmarkError(
                f"unknown request fields {sorted(unknown)}")
        kwargs: dict = {}
        if "kernels" in doc:
            kernels = doc["kernels"]
            if isinstance(kernels, str):
                kernels = (kernels,)
            if not isinstance(kernels, (list, tuple)):
                raise BenchmarkError("kernels must be a list")
            kwargs["kernels"] = tuple(str(k) for k in kernels)
        # each field as sent: nothing is coerced, a JSON boolean is not a
        # number, and null keeps the default where the default is null
        for name, types, what, nullable in (
                ("array_size", int, "an integer", True),
                ("deadline_s", (int, float), "a number", True),
                ("tenant", str, "a string", False),
                ("use_cache", bool, "a boolean", False)):
            if name not in doc or (nullable and doc[name] is None):
                continue
            value = doc[name]
            if (isinstance(value, bool) and types is not bool) \
                    or not isinstance(value, types):
                raise BenchmarkError(
                    f"{name} must be {what}, got {value!r}")
            kwargs[name] = value
        return cls(**kwargs)


class ServeResult:
    """One served sweep: canonical JSON plus provenance.

    ``source`` is where the bytes came from: ``"executed"`` (this
    request ran the sweep), ``"coalesced"`` (attached to another
    request's execution), ``"lru"`` or ``"disk"`` (cache hits).  Every
    source returns the same canonical ``ResultSet.to_json()`` bytes, so
    callers are byte-compatible regardless of path.
    """

    __slots__ = ("key", "source", "wall_s", "json", "_results")

    def __init__(self, key: str, source: str, wall_s: float,
                 json_text: str) -> None:
        self.key = key
        self.source = source
        self.wall_s = wall_s
        self.json = json_text
        self._results: ResultSet | None = None

    @property
    def results(self) -> ResultSet:
        """The records, parsed lazily from the canonical JSON."""
        if self._results is None:
            self._results = ResultSet.from_json(self.json)
        return self._results


@dataclass
class _Job:
    """One queued execution (the coalescing target for its key)."""

    key: str
    runner: StreamerRunner
    request: SweepRequest
    future: asyncio.Future
    deadline_at: float | None           # loop.time() deadline, or None
    enqueued: float = field(default_factory=time.perf_counter)


class SweepService:
    """Long-lived asyncio front-end over :class:`StreamerRunner`.

    Args:
        jobs: warm-pool worker count (default: one per CPU).
        max_queue: bounded request queue depth; a full queue sheds.
        lru_entries: in-memory result cache capacity (keys).
        tenant_quota: max queued+running executions per tenant
            (``None`` = unlimited).  Coalesced attachers and cache hits
            do not consume quota — they add no work.
        default_deadline_s: applied when a request carries none.
        dispatchers: concurrent executions (each shards one request
            across the pool).
        shard_tasks: target tasks per shard; shards never drop below
            one per worker while there is work to spread.
        cache_dir: on-disk ``ResultSet`` cache directory (``None``
            disables the disk layer).
        testbeds: shared testbed mapping (default: the paper's two).
        pool: adopt an existing :class:`WarmWorkerPool` instead of
            owning one (the adopted pool is not shut down by
            :meth:`stop`).
    """

    def __init__(self, *, jobs: int | None = None, max_queue: int = 64,
                 lru_entries: int = 128, tenant_quota: int | None = None,
                 default_deadline_s: float | None = None,
                 dispatchers: int = 4, shard_tasks: int = 4,
                 cache_dir: str | None = None,
                 testbeds: dict[str, Testbed] | None = None,
                 pool: WarmWorkerPool | None = None) -> None:
        if max_queue < 1:
            raise BenchmarkError(f"max_queue must be >= 1, got {max_queue}")
        if lru_entries < 0:
            raise BenchmarkError(
                f"lru_entries must be >= 0, got {lru_entries}")
        if tenant_quota is not None and tenant_quota < 1:
            raise BenchmarkError(
                f"tenant_quota must be >= 1, got {tenant_quota}")
        if dispatchers < 1:
            raise BenchmarkError(
                f"dispatchers must be >= 1, got {dispatchers}")
        if shard_tasks < 1:
            raise BenchmarkError(
                f"shard_tasks must be >= 1, got {shard_tasks}")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.max_queue = max_queue
        self.lru_entries = lru_entries
        self.tenant_quota = tenant_quota
        self.default_deadline_s = default_deadline_s
        self.dispatchers = dispatchers
        self.shard_tasks = shard_tasks
        self.cache_dir = cache_dir
        self._testbeds = testbeds
        self._pool = pool
        self._pool_owned = pool is None
        self._runners: "OrderedDict[int | None, StreamerRunner]" = \
            OrderedDict()
        self._lru: "OrderedDict[str, str]" = OrderedDict()
        # memoized sweep_cache_key per (array_size, kernels): the key is
        # deterministic for this service's fixed testbeds/config, and
        # recomputing it (~ms of testbed hashing) would tax every request
        self._keys: "OrderedDict[tuple, str]" = OrderedDict()
        self._inflight: dict[str, asyncio.Future] = {}
        self._tenant_load: dict[str, int] = {}
        self._queue: asyncio.Queue[_Job] | None = None
        self._dispatch_tasks: list[asyncio.Task] = []
        self._running = False
        #: always-on service counters (mirrored into obs when enabled)
        self.counters: dict[str, int] = {
            k: 0 for k in (
                "requests", "executed", "coalesced", "lru_hits",
                "disk_hits", "shed_queue", "shed_quota", "failures",
                "deadline_misses", "worker_timeouts")}
        #: always-on latency histogram (p50/p99 for :meth:`stats`)
        self.latency = Histogram("serve.latency_s", SERVE_LATENCY_BUCKETS)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def pool(self) -> WarmWorkerPool | None:
        return self._pool

    @property
    def running(self) -> bool:
        return self._running

    async def start(self) -> "SweepService":
        """Spawn the warm pool and the dispatcher tasks (idempotent)."""
        if self._running:
            return self
        if self._pool is None:
            self._pool = WarmWorkerPool(
                self.jobs, fault_plan_json=faults.export_active())
        self._pool.start()
        if self._testbeds is None:
            self._testbeds = {"setup1": setup1(), "setup2": setup2()}
        self._queue = asyncio.Queue(maxsize=self.max_queue)
        self._running = True
        self._dispatch_tasks = [
            asyncio.ensure_future(self._dispatch_loop())
            for _ in range(self.dispatchers)]
        _log.info("sweep service started",
                  extra=obs.kv(jobs=self._pool.workers,
                               max_queue=self.max_queue,
                               dispatchers=self.dispatchers))
        return self

    async def stop(self) -> None:
        """Drain-stop: fail queued work, stop dispatchers and the pool.

        Jobs still queued fail with
        :class:`~repro.errors.ServiceClosedError`, and so do the ones a
        dispatcher is running — they are cancelled.  Idempotent.
        """
        await self._shutdown(graceful=False)

    async def close(self) -> None:
        """Graceful drain: in-flight requests finish, queued ones fail.

        The complement of :meth:`stop` (which cancels dispatchers
        mid-request): new submissions are rejected immediately with
        :class:`~repro.errors.ServiceClosedError`, every job still
        sitting in the queue fails with the same error, and every job a
        dispatcher has already picked up runs to completion — its
        waiters get their result.  Idempotent; safe to call while
        requests are in flight.
        """
        await self._shutdown(graceful=True)

    async def _shutdown(self, graceful: bool) -> None:
        if not self._running:
            return
        verb = "closed" if graceful else "stopped"
        self._running = False       # submit() now sheds before queueing
        # no await while draining: dispatchers (parked in queue.get())
        # cannot race us for queued jobs
        drained = 0
        while not self._queue.empty():
            self._release(self._queue.get_nowait(), ServiceClosedError(
                f"service {verb} before execution"))
            drained += 1
        if graceful:
            await self._queue.join()    # dispatcher-held jobs complete
        for task in self._dispatch_tasks:
            task.cancel()
        await asyncio.gather(*self._dispatch_tasks, return_exceptions=True)
        self._dispatch_tasks = []
        if self._pool is not None and self._pool_owned:
            self._pool.shutdown(wait=True, cancel_futures=True)
        _log.info(f"sweep service {verb}",
                  extra=obs.kv(drained_queued=drained))

    async def __aenter__(self) -> "SweepService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def _release(self, job: _Job, error: Exception | None = None) -> None:
        """Finish with a dequeued job: fail its waiters with ``error``
        (if given and still waiting), return its tenant slot, drop its
        coalescing entry and mark the queue item done."""
        if error is not None and not job.future.done():
            job.future.set_exception(error)
        load = self._tenant_load.get(job.request.tenant, 1) - 1
        if load > 0:
            self._tenant_load[job.request.tenant] = load
        else:
            self._tenant_load.pop(job.request.tenant, None)
        if self._inflight.get(job.key) is job.future:
            del self._inflight[job.key]
        self._queue.task_done()

    def _count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n
        obs.inc(f"serve.{name}", n)

    def _observe_latency(self, start: float) -> float:
        wall = time.perf_counter() - start
        self.latency.observe(wall)
        obs.observe("serve.latency_s", wall, SERVE_LATENCY_BUCKETS)
        return wall

    def _runner_for(self, array_size: int | None) -> StreamerRunner:
        runner = self._runners.get(array_size)
        if runner is None:
            config = (StreamConfig.paper() if array_size is None
                      else StreamConfig(array_size=array_size))
            runner = StreamerRunner(testbeds=self._testbeds, config=config,
                                    cache_dir=self.cache_dir)
            runner.attach_pool(self._pool)
            self._runners[array_size] = runner
            while len(self._runners) > 16:     # bound per-config state
                self._runners.popitem(last=False)
        else:
            self._runners.move_to_end(array_size)
        return runner

    def _sweep_key(self, runner: StreamerRunner,
                   request: SweepRequest) -> str:
        memo = (request.array_size, request.kernels)
        key = self._keys.get(memo)
        if key is None:
            key = runner.sweep_cache_key(request.kernels)
            self._keys[memo] = key
            while len(self._keys) > 128:
                self._keys.popitem(last=False)
        return key

    def _lru_get(self, key: str) -> str | None:
        text = self._lru.get(key)
        if text is not None:
            self._lru.move_to_end(key)
        return text

    def _lru_put(self, key: str, json_text: str) -> None:
        if not self.lru_entries:
            return
        self._lru[key] = json_text
        self._lru.move_to_end(key)
        while len(self._lru) > self.lru_entries:
            self._lru.popitem(last=False)
        obs.gauge("serve.lru.size", len(self._lru))

    def stats(self) -> dict:
        """Point-in-time service statistics (always available)."""
        doc = dict(self.counters)
        doc.update({
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "inflight": len(self._inflight),
            "lru_size": len(self._lru),
            "pool_workers": self._pool.workers if self._pool else 0,
            "pool_restarts": self._pool.restarts if self._pool else 0,
            "latency_count": self.latency.count,
            "latency_p50_s": self.latency.percentile(50),
            "latency_p99_s": self.latency.percentile(99),
        })
        return doc

    # ------------------------------------------------------------------
    # submission path
    # ------------------------------------------------------------------

    async def submit(self, request: SweepRequest) -> ServeResult:
        """Serve one request (LRU → coalesce → disk → execute).

        Raises:
            ServiceClosedError: the service is not running.
            ServiceOverloadError: the bounded queue is full (or a chaos
                ``serve_shed`` spec fired).
            ServiceQuotaError: the tenant's in-flight quota is spent.
            ServiceDeadlineError: the deadline expired first.
        """
        if not self._running:
            raise ServiceClosedError("sweep service is not running")
        start = time.perf_counter()
        self._count("requests")
        faults.on_serve_request(request.tenant)
        runner = self._runner_for(request.array_size)
        key = self._sweep_key(runner, request)
        deadline = (request.deadline_s if request.deadline_s is not None
                    else self.default_deadline_s)

        # NOTE: no await between here and queue.put_nowait — the probe/
        # register sequence is atomic on the event loop, so identical
        # concurrent requests cannot both register an execution.
        if request.use_cache:
            hit = self._lru_get(key)
            if hit is not None:
                self._count("lru_hits")
                return ServeResult(key, "lru",
                                   self._observe_latency(start), hit)
            shared = self._inflight.get(key)
            if shared is not None:
                self._count("coalesced")
                text = await self._await_result(shared, deadline)
                return ServeResult(key, "coalesced",
                                   self._observe_latency(start), text)
            disk = runner._cache_load(key) if runner.cache_dir else None
            if disk is not None:
                text = disk.to_json()
                self._count("disk_hits")
                self._lru_put(key, text)
                return ServeResult(key, "disk",
                                   self._observe_latency(start), text)

        # admission control
        load = self._tenant_load.get(request.tenant, 0)
        if self.tenant_quota is not None and load >= self.tenant_quota:
            self._count("shed_quota")
            raise ServiceQuotaError(
                f"tenant {request.tenant!r} has {load} in-flight "
                f"requests (quota {self.tenant_quota})",
                tenant=request.tenant, queue_depth=self._queue.qsize(),
                limit=self.tenant_quota)
        if self._queue.full():
            self._count("shed_queue")
            raise ServiceOverloadError(
                f"request queue full ({self.max_queue}); shedding",
                queue_depth=self._queue.qsize(), limit=self.max_queue)

        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        # a waiter may abandon the future (deadline); never let its
        # failure go unretrieved
        fut.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None)
        job = _Job(key=key, runner=runner, request=request, future=fut,
                   deadline_at=(loop.time() + deadline
                                if deadline is not None else None))
        if request.use_cache:
            self._inflight[key] = fut
        self._tenant_load[request.tenant] = load + 1
        self._queue.put_nowait(job)
        obs.gauge("serve.queue.depth", self._queue.qsize())
        text = await self._await_result(fut, deadline)
        return ServeResult(key, "executed",
                           self._observe_latency(start), text)

    async def _await_result(self, fut: asyncio.Future,
                            deadline: float | None) -> str:
        try:
            return await asyncio.wait_for(asyncio.shield(fut), deadline)
        except asyncio.TimeoutError:
            self._count("deadline_misses")
            raise ServiceDeadlineError(
                f"request deadline of {deadline}s expired",
                deadline_s=deadline) from None

    # ------------------------------------------------------------------
    # execution (dispatchers)
    # ------------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            job = await self._queue.get()
            obs.gauge("serve.queue.depth", self._queue.qsize())
            error = None
            try:
                await self._execute(job)
            except asyncio.CancelledError:
                error = ServiceClosedError("service stopped mid-request")
                raise
            finally:
                self._release(job, error)

    async def _execute(self, job: _Job) -> None:
        loop = asyncio.get_running_loop()
        if job.deadline_at is not None and loop.time() >= job.deadline_at:
            # budget burned while queued: fail without starting
            self._count("deadline_misses")
            if not job.future.done():
                job.future.set_exception(ServiceDeadlineError(
                    "deadline expired while queued",
                    deadline_s=job.request.deadline_s))
            return
        self._count("executed")
        obs.gauge("serve.inflight", len(self._inflight))
        with obs.span("serve.request",
                      meta={"key": job.key[:12],
                            "tenant": job.request.tenant,
                            "kernels": list(job.request.kernels)}):
            try:
                results = await self._run_sharded(job)
            except Exception as exc:        # noqa: BLE001 — typed reply
                # propagate to every attached waiter; never cache
                self._count("failures")
                _log.warning("sweep request failed",
                             extra=obs.kv(key=job.key[:12],
                                          error=type(exc).__name__))
                if not job.future.done():
                    job.future.set_exception(exc)
                return
        text = results.to_json()
        if job.request.use_cache:
            self._lru_put(job.key, text)
            if job.runner.cache_dir:
                job.runner._cache_store(job.key, results)
        if not job.future.done():
            job.future.set_result(text)

    def _shards(self, tasks: Sequence[tuple]) -> list[Sequence[tuple]]:
        """Contiguous chunks: ≥ one per worker (when there is work to
        spread), ≤ ``shard_tasks`` tasks each."""
        n_shards = min(len(tasks),
                       max(self._pool.workers,
                           math.ceil(len(tasks) / self.shard_tasks)))
        base, extra = divmod(len(tasks), n_shards)
        shards, pos = [], 0
        for i in range(n_shards):
            size = base + (1 if i < extra else 0)
            shards.append(tasks[pos:pos + size])
            pos += size
        return shards

    async def _run_sharded(self, job: _Job) -> ResultSet:
        """Fan one request across the warm pool as shard submissions,
        then heal and assemble the per-task outcomes in the runner's
        collector.

        A task that failed in a worker is retried here, on the event
        loop thread, with ``run_all``'s retries and quarantine; that
        stalls the loop for the retried series' simulation and backoff.

        Raises:
            ServiceDeadlineError: the deadline expired mid-execution
                (the pool is recycled).
            BenchmarkError: a task still failed after healing.
        """
        loop = asyncio.get_running_loop()
        runner = job.runner
        tasks = runner._tasks(job.request.kernels)
        state_key, state_blob = runner._pool_state()
        shards = self._shards(tasks)
        obs.inc("serve.shards", len(shards))
        pool_futs = [self._pool.submit(run_shard, state_key, state_blob,
                                       shard)
                     for shard in shards]
        outcomes: list = []
        try:
            for fut in pool_futs:
                timeout = None
                if job.deadline_at is not None:
                    timeout = max(0.0, job.deadline_at - loop.time())
                try:
                    outcomes += await asyncio.wait_for(
                        asyncio.wrap_future(fut), timeout)
                except asyncio.TimeoutError:
                    # the fault plane's wedged-worker machinery: abandon
                    # the workers, respawn warm ones, fail the request
                    self._count("worker_timeouts")
                    self._pool.recycle()
                    raise ServiceDeadlineError(
                        f"deadline of {job.request.deadline_s}s expired "
                        f"mid-execution; pool recycled",
                        deadline_s=job.request.deadline_s) from None
        finally:
            for fut in pool_futs:
                fut.cancel()
        results = runner._collect(tasks, outcomes)
        if not results.complete:
            first = results.failures[0]
            raise BenchmarkError(
                f"sweep incomplete: {first.series}/{first.kernel} failed "
                f"with {first.error_type}: {first.message}")
        return results
