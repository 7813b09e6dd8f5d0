"""Measurement primitives of the perf ledger (no ``repro`` import).

Everything here is independent of the system under test, so the unit
tests and the parent orchestrator run without importing it:

* :func:`percentile` — nearest-rank percentile that refuses to report a
  tail it has too few samples for;
* :func:`run_round` — one single-client closed loop of a fixed number of
  ops, with per-op error accounting, each op bracketed by a host-speed
  probe and its time host-adjusted by it;
* :class:`LayerTracer` — outside-in tracing: wraps public functions at
  their lookup sites, keeps spans in memory, restores every original on
  exit;
* :func:`fold_self_time` — spans → exclusive (self) time per layer.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import os
import time
import traceback
from array import array
from dataclasses import dataclass, field

#: a percentile is reported only with at least this many samples beyond it
MIN_TAIL_SAMPLES = 10

#: name of the root span around each traced op; its self time is the
#: part of the op that no wrapped layer accounts for
ROOT = "bench.op"


def _rank(q: int, n: int) -> int:
    """1-based nearest rank of the ``q``-th percentile of ``n`` samples."""
    return max(1, (q * n + 99) // 100)


def percentile(samples, q: int) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Raises:
        ValueError: fewer than :data:`MIN_TAIL_SAMPLES` samples lie
            beyond the percentile, so it would not be repeatable.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = _rank(q, n)
    if n - rank < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q} needs {MIN_TAIL_SAMPLES} samples beyond it; "
            f"{n} samples leave {n - rank}")
    return ordered[rank - 1]


def min_samples(q: int) -> int:
    """Smallest sample count for which :func:`percentile` reports ``q``."""
    n = 1
    while n - _rank(q, n) < MIN_TAIL_SAMPLES:
        n += 1
    return n


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

#: probe time, in ms, of the reference host that op times are scaled to
#: (about the quiet speed of the 2-vCPU VM the ledger was sized on)
PROBE_REF_MS = 0.64

#: the 16 KiB block each probe pass hashes
_PROBE_BLOB = bytes(range(256)) * 64


def _probe_pass() -> None:
    rows = [{"k": (i * 7919) % 1000, "v": str(i)} for i in range(1500)]
    rows.sort(key=lambda row: row["k"])
    hashlib.sha256(_PROBE_BLOB).digest()
    json.dumps(rows[:300])


def host_probe() -> float:
    """Milliseconds for a fixed piece of ordinary interpreter work that
    touches nothing in the system under test: build 1,500 small dicts,
    sort them, hash 16 KiB and JSON-encode 300 of them.

    Shared hosts drift and flip between speeds up to 1.5x apart within
    seconds; the probe slows with them, so an op's wall time divided by
    the probe time around it repeats where the wall time alone does not.
    Allocation, dicts and hashing slow with the host the way the
    workloads do; a bare arithmetic loop slows less than kvserve and des.
    The pass runs twice and only the second is timed, with the cyclic
    collector paused, so the probe does not depend on the caches, free
    lists and heap the op left behind.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _probe_pass()
        t0 = time.perf_counter()
        _probe_pass()
        return (time.perf_counter() - t0) * 1e3
    finally:
        if enabled:
            gc.enable()


@dataclass
class RoundResult:
    """One round's timed ops, host-adjusted.

    Each op's wall time is scaled by ``PROBE_REF_MS / probe``, where
    ``probe`` is the mean of the probes right before and right after it.
    ``adj_ms`` holds the scaled time of each passing op; ``adj_window_s``
    sums the scaled op+check time of every attempted op (the probes
    themselves excluded).
    """

    attempted: int = 0
    failed: int = 0
    adj_window_s: float = 0.0
    adj_ms: list[float] = field(default_factory=list)
    probes_ms: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def ops_per_s(self) -> float:
        """Completed ops per host-adjusted second of the closed loop."""
        return (self.completed / self.adj_window_s
                if self.adj_window_s else 0.0)


#: distinct error messages kept per round (the count is always exact)
_MAX_ERRORS = 5


def run_round(op, check, *, ops: int, after=None,
              probe=host_probe) -> RoundResult:
    """Run ``op(i)`` for ``i`` in ``range(ops)``, back to back: one client,
    no think time.

    Each op is timed alone; ``check(output)`` runs outside that time but
    inside the window, like a client verifying each reply.  An op that
    raises or fails its check counts as failed and the loop goes on.
    ``probe()`` runs before the first op and after every op;
    ``after(i, output)`` (traced rounds) runs outside the window after a
    passing check.
    """
    res = RoundResult(attempted=ops)
    clock = time.perf_counter
    res.probes_ms.append(probe())
    for i in range(ops):
        ok = False
        t0 = clock()
        try:
            out = op(i)
            t1 = clock()
            check(out)
            ok = True
        except Exception as exc:           # noqa: BLE001 - count, go on
            res.failed += 1
            if len(res.errors) < _MAX_ERRORS:
                reason = "".join(traceback.format_exception_only(exc))
                res.errors.append(f"op {i}: {reason.strip()}")
        t2 = clock()
        res.probes_ms.append(probe())
        scale = 2 * PROBE_REF_MS / (res.probes_ms[-2] + res.probes_ms[-1])
        res.adj_window_s += (t2 - t0) * scale
        if ok:
            res.adj_ms.append((t1 - t0) * 1e3 * scale)
            if after is not None:
                after(i, out)
    return res


# ---------------------------------------------------------------------------
# outside-in layer tracing
# ---------------------------------------------------------------------------

class LayerTracer:
    """Wraps layer boundaries for the duration of a ``with`` block.

    ``boundaries`` is a sequence of ``(layer, owner, attr)``: ``owner`` is
    a module, a class (``attr`` must be defined on that class itself, so
    the original can be put back by identity) or a dict (``attr`` is a
    key).  Each call through a wrapped boundary appends one span
    ``(layer, name, start_ns, end_ns)`` to :attr:`spans`, raising or not.
    """

    def __init__(self, boundaries) -> None:
        self.boundaries = list(boundaries)
        self._saved: list[tuple[object, str, object]] = []
        # spans as flat (wrapper id, start_ns, end_ns) machine integers:
        # a quarter-million tuples would slow every garbage collection
        # in the traced round, which is tracing overhead the ops then pay
        self._ids: list[tuple[str, str]] = []
        self._flat = array("q")

    @property
    def spans(self) -> list[tuple[str, str, int, int]]:
        """Recorded ``(layer, name, start_ns, end_ns)``, in completion
        order."""
        ids, flat = self._ids, self._flat
        return [(*ids[flat[i]], flat[i + 1], flat[i + 2])
                for i in range(0, len(flat), 3)]

    def wrap(self, layer: str, name: str, fn):
        """``fn`` wrapped to record one span per call."""
        wrapper_id = len(self._ids)
        self._ids.append((layer, name))
        record = self._flat.extend
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record((wrapper_id, start, clock()))

        return traced

    def __enter__(self) -> "LayerTracer":
        try:
            for layer, owner, attr in self.boundaries:
                original = _get(owner, attr)
                name = f"{getattr(owner, '__name__', 'dict')}.{attr}"
                _set(owner, attr, self.wrap(layer, name, original))
                self._saved.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            _set(owner, attr, original)


def _get(owner, attr):
    if isinstance(owner, dict):
        return owner[attr]
    if isinstance(owner, type):
        if attr not in vars(owner):
            raise AttributeError(
                f"{owner.__name__}.{attr} is inherited; wrap it on the "
                "class that defines it")
        return vars(owner)[attr]
    return getattr(owner, attr)


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def fold_self_time(spans) -> tuple[dict[str, int], dict[str, int]]:
    """Exclusive time and call count per layer, from nested spans.

    A span's self time is its duration minus the time its direct child
    spans cover; children of the same layer (a layer calling itself)
    therefore count once.  Returns ``(self_ns, calls)`` keyed by layer.

    Raises:
        ValueError: two spans overlap without nesting.
    """
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    stack: list[list] = []          # [layer, end, child_ns, duration]

    def close(frame) -> None:
        layer, _, child_ns, dur = frame
        self_ns[layer] = self_ns.get(layer, 0) + dur - child_ns

    for layer, _, start, end in sorted(spans, key=lambda s: (s[2], -s[3])):
        while stack and stack[-1][1] <= start:
            close(stack.pop())
        if stack:
            parent = stack[-1]
            if end > parent[1]:
                raise ValueError(
                    f"span {layer} [{start}, {end}] overlaps its parent "
                    f"{parent[0]} without nesting")
            parent[2] += end - start
        stack.append([layer, end, 0, end - start])
        calls[layer] = calls.get(layer, 0) + 1
    while stack:
        close(stack.pop())
    return self_ns, calls


#: most span events written to one trace file (a sweep op alone makes
#: ~15k); the file holds the leading whole ops that fit
TRACE_EVENT_CAP = 100_000


def chrome_trace(spans, process_name: str,
                 cap: int = TRACE_EVENT_CAP) -> dict:
    """The leading whole ops of ``spans`` (in completion order, so each
    op ends with its :data:`ROOT` span) as a Chrome trace-event document
    that opens in Perfetto: at most ``cap`` events, but at least one op."""
    keep = 0
    ops = 0
    for i, span in enumerate(spans):
        if span[0] == ROOT:
            if ops and i >= cap:
                break
            keep, ops = i + 1, ops + 1
    kept = sorted(spans[:keep], key=lambda s: (s[2], -s[3]))
    pid = os.getpid()
    epoch = kept[0][2] if kept else 0
    events: list[dict] = [{"name": "process_name", "ph": "M", "pid": pid,
                           "tid": 0, "args": {"name": process_name}}]
    for layer, name, start, end in kept:
        events.append({"name": name, "cat": layer, "ph": "X",
                       "ts": (start - epoch) / 1000.0,
                       "dur": (end - start) / 1000.0, "pid": pid, "tid": 0})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"generator": "bench", "ops": ops,
                          "ops_traced": sum(s[0] == ROOT for s in spans)}}


def dumps(doc) -> str:
    """Strict one-line JSON (NaN and infinity refused)."""
    return json.dumps(doc, sort_keys=True, allow_nan=False)
