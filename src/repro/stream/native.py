"""Native STREAM runners — measure the machine this code runs on.

Two modes, mirroring the original's serial and OpenMP builds:

* :func:`run_single` — one process, NumPy-vectorized kernels;
* :func:`run_parallel` — N worker processes over ``multiprocessing``
  shared memory, each owning a contiguous slice of the arrays (the
  OpenMP static-chunking analogue), synchronized per kernel invocation
  with barriers.

Rates follow STREAM's reporting exactly: the *best* time over
``ntimes - 1`` timed repetitions (the first is a warm-up), with the
counted-bytes formula from :class:`repro.stream.config.StreamConfig`.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Callable

import numpy as np

from repro.errors import BenchmarkError
from repro.memsim.traffic import KERNEL_ORDER
from repro.stream.config import StreamConfig
from repro.stream.kernels import KERNELS, init_arrays
from repro.stream.validation import check_stream_results

#: Default seconds a worker (or the parent) waits on a kernel barrier
#: before declaring the run dead.  A crashed sibling worker breaks the
#: barrier after this long instead of hanging silently until the join.
BARRIER_TIMEOUT_S = 60.0


@dataclass
class NativeResult:
    """Per-kernel timing like STREAM's output table."""

    config: StreamConfig
    n_threads: int
    times: dict[str, list[float]] = field(
        default_factory=lambda: {k: [] for k in KERNEL_ORDER})

    def _timed(self, kernel: str) -> list[float]:
        """The iterations that count toward the reported rates.

        STREAM discards the first (warm-up) repetition.  With a single
        recorded repetition there is nothing to discard, so that one
        iteration counts; with none at all the result is unusable.

        Raises:
            BenchmarkError: no timings recorded for ``kernel``.
        """
        try:
            times = self.times[kernel]
        except KeyError:
            raise BenchmarkError(
                f"no timings recorded for kernel {kernel!r}"
            ) from None
        if not times:
            raise BenchmarkError(
                f"no timings recorded for kernel {kernel!r}"
            )
        return times[1:] if len(times) > 1 else times

    def best_rate_gbps(self, kernel: str) -> float:
        """Best rate over the timed iterations (STREAM's headline number)."""
        timed = self._timed(kernel)
        return self.config.counted_bytes(kernel) / min(timed) / 1e9

    def avg_time(self, kernel: str) -> float:
        timed = self._timed(kernel)
        return sum(timed) / len(timed)

    def table(self) -> str:
        lines = [f"{'Function':<10}{'BestRate GB/s':>14}{'AvgTime':>10}"
                 f"{'MinTime':>10}{'MaxTime':>10}"]
        for k in KERNEL_ORDER:
            timed = self._timed(k)
            lines.append(
                f"{k.capitalize():<10}{self.best_rate_gbps(k):>14.2f}"
                f"{self.avg_time(k):>10.6f}{min(timed):>10.6f}"
                f"{max(timed):>10.6f}"
            )
        return "\n".join(lines)


def run_single(config: StreamConfig,
               arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
               validate: bool = True) -> NativeResult:
    """Single-threaded STREAM over (optionally caller-provided) arrays.

    Passing ``arrays`` lets STREAM-PMem run the identical timing loop over
    pool-backed views — the Listing-2 substitution.
    """
    if arrays is None:
        a = np.empty(config.array_size, dtype=config.np_dtype)
        b = np.empty_like(a)
        c = np.empty_like(a)
    else:
        a, b, c = arrays
        for name, arr in (("a", a), ("b", b), ("c", c)):
            if arr.size != config.array_size:
                raise BenchmarkError(
                    f"array {name} has {arr.size} elements, expected "
                    f"{config.array_size}"
                )

    return _run_loop(config, a, b, c, validate, lambda k: nullcontext())


def _run_loop(config: StreamConfig, a: np.ndarray, b: np.ndarray,
              c: np.ndarray, validate: bool,
              scope: Callable[[str], AbstractContextManager]) -> NativeResult:
    """STREAM's one timing loop: init, ``ntimes`` passes of the kernels,
    each timed with the ``scope(kernel)`` it runs in (STREAM-PMem's
    transactional mode passes a transaction), then the validation."""
    init_arrays(a, b, c)
    result = NativeResult(config, n_threads=1)
    for _ in range(config.ntimes):
        for k in KERNEL_ORDER:
            t0 = time.perf_counter()
            with scope(k):
                KERNELS[k](a, b, c, config.scalar)
            result.times[k].append(time.perf_counter() - t0)
    if validate:
        check_stream_results(a, b, c, config)
    return result


# ---------------------------------------------------------------------------
# parallel runner
# ---------------------------------------------------------------------------

def _worker(names: tuple[str, str, str], dtype: str, n: int,
            lo: int, hi: int, ntimes: int, scalar: float,
            start_barrier, end_barrier, barrier_timeout: float) -> None:
    shms = [shared_memory.SharedMemory(name=nm) for nm in names]
    try:
        dt = np.dtype(dtype)
        a, b, c = (np.frombuffer(s.buf, dtype=dt, count=n) for s in shms)
        av, bv, cv = a[lo:hi], b[lo:hi], c[lo:hi]
        try:
            for _ in range(ntimes):
                for k in KERNEL_ORDER:
                    start_barrier.wait(timeout=barrier_timeout)
                    KERNELS[k](av, bv, cv, scalar)
                    end_barrier.wait(timeout=barrier_timeout)
        except threading.BrokenBarrierError:
            # A sibling (or the parent) died or stalled; bail out so the
            # parent's own broken barrier surfaces the error.
            return
        del a, b, c, av, bv, cv
    finally:
        for s in shms:
            s.close()


def run_parallel(config: StreamConfig, n_workers: int,
                 validate: bool = True,
                 barrier_timeout: float = BARRIER_TIMEOUT_S) -> NativeResult:
    """Multiprocess STREAM over shared memory.

    Workers split the arrays into contiguous slices (first-touch style);
    the parent times each kernel between the start and end barriers.
    Both sides wait on the barriers with ``barrier_timeout`` seconds, so
    a crashed worker breaks the barrier and the run fails fast with a
    :class:`BenchmarkError` instead of hanging until the final join.

    Raises:
        BenchmarkError: fewer elements than workers, or a worker crashed
            or stalled past ``barrier_timeout``.
    """
    if barrier_timeout <= 0:
        raise BenchmarkError("barrier_timeout must be positive")
    if n_workers < 1:
        raise BenchmarkError("need at least one worker")
    if config.array_size < n_workers:
        raise BenchmarkError(
            f"{config.array_size} elements cannot be split across "
            f"{n_workers} workers"
        )

    ctx = mp.get_context("fork")
    nbytes = config.array_bytes
    shms = [shared_memory.SharedMemory(create=True, size=nbytes)
            for _ in range(3)]
    procs: list = []
    a = b = c = None
    try:
        dt = config.np_dtype
        a, b, c = (np.frombuffer(s.buf, dtype=dt, count=config.array_size)
                   for s in shms)
        init_arrays(a, b, c)

        start_barrier = ctx.Barrier(n_workers + 1)
        end_barrier = ctx.Barrier(n_workers + 1)
        bounds = np.linspace(0, config.array_size, n_workers + 1,
                             dtype=np.int64)
        names = tuple(s.name for s in shms)
        for w in range(n_workers):
            p = ctx.Process(
                target=_worker,
                args=(names, config.dtype, config.array_size,
                      int(bounds[w]), int(bounds[w + 1]), config.ntimes,
                      config.scalar, start_barrier, end_barrier,
                      barrier_timeout),
            )
            p.daemon = True
            p.start()
            procs.append(p)

        result = NativeResult(config, n_threads=n_workers)
        try:
            for _ in range(config.ntimes):
                for k in KERNEL_ORDER:
                    start_barrier.wait(timeout=barrier_timeout)
                    t0 = time.perf_counter()
                    end_barrier.wait(timeout=barrier_timeout)
                    result.times[k].append(time.perf_counter() - t0)
        except threading.BrokenBarrierError:
            dead = [i for i, p in enumerate(procs) if not p.is_alive()]
            raise BenchmarkError(
                "parallel STREAM worker crashed or stalled past "
                f"{barrier_timeout:.0f}s barrier timeout"
                + (f" (dead workers: {dead})" if dead else "")
            ) from None

        for p in procs:
            p.join(timeout=60)
            if p.is_alive():  # pragma: no cover - hang safety
                p.terminate()
                raise BenchmarkError("parallel STREAM worker hung")
        if validate:
            check_stream_results(a, b, c, config)
        return result
    finally:
        # Drop the array views before closing: an exported buffer makes
        # SharedMemory.close() raise BufferError, masking the real error.
        a = b = c = None
        for p in procs:
            if p.is_alive():   # pragma: no cover - error paths
                p.terminate()
                p.join(timeout=5)
        for s in shms:
            s.close()
            try:
                s.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
