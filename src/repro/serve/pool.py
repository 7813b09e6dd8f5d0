"""Persistent warm worker pool for the sweep engine.

The one-shot CLI paid three avoidable costs on every parallel
``run_all()``: spawning a fresh ``ProcessPoolExecutor``, re-shipping the
testbed machines through the pool initializer, and re-JITing the
compiled kernel tier inside each cold worker.  A :class:`WarmWorkerPool`
is created once and reused across requests:

* workers run :func:`compiled.warmup` in their initializer, so the JIT
  tier (the DES event loop) is hot **before** the first task;
* sweep state (machines + STREAM config) ships as a content-keyed
  pickle blob that each worker caches — the first task per worker pays
  one unpickle, every later task (and every later *request* with the
  same state) pays a dict lookup;
* a wedged worker is handled by :meth:`WarmWorkerPool.recycle`, which
  abandons the old executor and respawns warm workers, so one stuck
  task cannot take the resident service down.

Task functions (:func:`run_series_task`, :func:`run_shard`) live at
module level so they pickle cleanly into the pool; both preserve the
exact record construction of the serial path, which is what keeps
pooled, sharded and serial sweeps byte-identical.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import os
import pickle
import threading
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Sequence

from repro import compiled, faults, obs
from repro.errors import BenchmarkError
from repro.faults.plan import FaultPlan
from repro.stream.simulated import simulate_sweep
from repro.streamer.results import ResultRecord

__all__ = [
    "WarmWorkerPool", "pack_state", "run_series_task", "run_shard",
    "shared_pool", "shutdown_shared_pool", "MAX_WORKER_STATES",
]

#: worker-side cap on cached sweep states (machines + config pairs);
#: one resident service rarely juggles more than a handful of configs
MAX_WORKER_STATES = 8

#: process-local state cache, keyed by the blob's content hash
_WORKER_STATES: "OrderedDict[str, tuple]" = OrderedDict()


def _warm_init(fault_plan_json: str | None = None) -> None:
    """Worker initializer: pre-warm the compiled tier, install faults.

    :func:`repro.compiled.warmup` builds (or loads) and self-checks every
    kernel family now, falling back to pure Python, so the first real
    task never pays build latency.  A forwarded fault plan is installed with fresh
    counters — workers consult it at attempt 0; parent-side retries use
    the parent's own plan state (same contract as the one-shot pool).
    """
    compiled.warmup()
    if fault_plan_json is not None:
        faults.install(FaultPlan.from_json(fault_plan_json))


def pack_state(machines: dict, config) -> tuple[str, bytes]:
    """Pickle one sweep state → ``(content_key, blob)``.

    The parent pickles once per runner; the same bytes object is reused
    for every submission, so the per-task cost is shipping (not
    building) the blob.
    """
    blob = pickle.dumps((machines, config),
                        protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(blob).hexdigest(), blob


def _ensure_state(key: str, blob: bytes) -> tuple:
    state = _WORKER_STATES.get(key)
    if state is None:
        state = pickle.loads(blob)
        _WORKER_STATES[key] = state
        while len(_WORKER_STATES) > MAX_WORKER_STATES:
            _WORKER_STATES.popitem(last=False)
    else:
        _WORKER_STATES.move_to_end(key)
    return state


def run_series_task(state_key: str, state_blob: bytes,
                    task: tuple) -> list[ResultRecord]:
    """Execute one (group, series, kernel) sweep in a pool worker."""
    from repro.streamer.runner import _series_records

    group, series, kernel = task
    faults.on_sweep_task(series.key, kernel, 0)
    machines, config = _ensure_state(state_key, state_blob)
    results = simulate_sweep(machines[series.testbed], kernel, series.spec,
                             group.thread_counts, config)
    return _series_records(group, series, kernel, results)


def run_shard(state_key: str, state_blob: bytes,
              tasks: Sequence[tuple]) -> list[list[ResultRecord]]:
    """Execute a contiguous chunk of tasks as **one** pool submission.

    The sweep service packs queued tasks into shards so a request costs
    ``n_shards`` round trips instead of ``n_tasks``; per-task record
    order inside the shard matches the serial path exactly.
    """
    return [run_series_task(state_key, state_blob, t) for t in tasks]


def worker_ident(_state_key: str = "", _state_blob: bytes = b"",
                 _task: object = None) -> int:
    """Return the worker's PID (pool-reuse probes in tests/benches)."""
    return os.getpid()


class WarmWorkerPool:
    """A long-lived, pre-warmed process pool shared across requests.

    Wraps one ``ProcessPoolExecutor`` whose workers ran
    :func:`_warm_init`.  Unlike the executor it replaces, the pool
    survives the request that created it — ``submit`` keeps handing
    tasks to the same warm workers until :meth:`shutdown` — and it can
    :meth:`recycle` itself after a wedged-worker timeout instead of
    dying with the request.

    Args:
        jobs: worker-process count (>= 1).
        fault_plan_json: plan forwarded into every worker (and into
            respawned workers after a recycle); ``None`` = no plan.
    """

    def __init__(self, jobs: int,
                 fault_plan_json: str | None = None) -> None:
        jobs = int(jobs)
        if jobs < 1:
            raise BenchmarkError(
                f"warm pool needs >= 1 worker, got {jobs}")
        self.jobs = jobs
        self._plan_json = fault_plan_json
        self._executor: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()
        #: times the pool respawned after a wedged worker
        self.restarts = 0
        #: total submissions over the pool's lifetime
        self.submitted = 0

    # -- lifecycle ------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._executor is not None

    @property
    def workers(self) -> int:
        return self.jobs

    def _make_executor(self) -> ProcessPoolExecutor:
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        return ProcessPoolExecutor(
            max_workers=self.jobs, mp_context=ctx,
            initializer=_warm_init, initargs=(self._plan_json,))

    def start(self) -> "WarmWorkerPool":
        """Spawn the workers now (idempotent).  Returns ``self``."""
        with self._lock:
            if self._executor is None:
                self._executor = self._make_executor()
                obs.gauge("serve.pool.workers", self.jobs)
        return self

    def recycle(self) -> None:
        """Abandon the (possibly wedged) workers and respawn warm ones.

        Pending submissions are cancelled and running ones orphaned —
        their futures fail — so callers holding futures across a
        recycle must treat them as lost work.
        """
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
            self.restarts += 1
            obs.inc("serve.pool.restarts")
        self.start()

    def shutdown(self, wait: bool = True,
                 cancel_futures: bool = False) -> None:
        """Stop the workers.  Safe to call repeatedly."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=cancel_futures)

    def __enter__(self) -> "WarmWorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- work -----------------------------------------------------------

    def submit(self, fn, *args) -> Future:
        """Submit ``fn(*args)`` to the warm workers (auto-starts)."""
        with self._lock:
            if self._executor is None:
                self._executor = self._make_executor()
                obs.gauge("serve.pool.workers", self.jobs)
            self.submitted += 1
            return self._executor.submit(fn, *args)


# ---------------------------------------------------------------------------
# module-level shared pool (the resident service's default)
# ---------------------------------------------------------------------------

_shared: WarmWorkerPool | None = None
_shared_lock = threading.Lock()


def shared_pool(jobs: int | None = None) -> WarmWorkerPool:
    """The process-wide warm pool, created (and started) on first use.

    ``jobs`` pins the worker count on creation; a later call with a
    *different* count recycles the pool at the new size.  Omitting it
    accepts whatever is already running (default: one worker per CPU).
    """
    global _shared
    with _shared_lock:
        if _shared is not None and jobs is not None \
                and _shared.jobs != jobs:
            _shared.shutdown(wait=False, cancel_futures=True)
            _shared = None
        if _shared is None:
            _shared = WarmWorkerPool(
                jobs if jobs is not None else (os.cpu_count() or 1),
                fault_plan_json=faults.export_active())
        return _shared.start()


def shutdown_shared_pool(wait: bool = True) -> None:
    """Stop and drop the module-level pool (no-op when absent)."""
    global _shared
    with _shared_lock:
        pool, _shared = _shared, None
    if pool is not None:
        pool.shutdown(wait=wait)
