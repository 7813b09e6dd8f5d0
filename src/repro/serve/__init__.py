"""Resident serving layer over the sweep engine.

The one-shot CLI pays process-pool spawn, state shipping and compiled-
tier JIT on every invocation; this package keeps all three warm:

* :mod:`repro.serve.pool` — :class:`~repro.serve.pool.WarmWorkerPool`,
  a persistent pre-warmed process pool, and
  :func:`~repro.serve.pool.run_shard`, the one task function it runs;
* :mod:`repro.serve.service` — :class:`~repro.serve.service.SweepService`,
  the asyncio front-end with request coalescing, an in-memory result
  LRU, per-tenant quotas, bounded-queue admission control and deadline
  enforcement; its pooled outcomes heal through the same collector as
  ``StreamerRunner.run_all``;
* :mod:`repro.serve.server` — :class:`~repro.serve.server.SweepServer`,
  the newline-delimited-JSON TCP front door
  (``python -m repro.streamer serve``).

``benchmarks/bench_serve.py`` gates the whole stack: warm-vs-cold
speedup, dedup hit ratio, and open-loop p50/p99 into
``results/BENCH_serve.json``.
"""

from repro.serve.pool import WarmWorkerPool
from repro.serve.server import SweepServer, request
from repro.serve.service import ServeResult, SweepRequest, SweepService

__all__ = [
    "WarmWorkerPool",
    "SweepService", "SweepRequest", "ServeResult",
    "SweepServer", "request",
]
