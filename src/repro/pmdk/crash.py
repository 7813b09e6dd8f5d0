"""Crash injection: a store-buffer region wrapper + a crash controller.

Real persistent memory loses whatever sits in CPU store buffers / caches
when power fails; only cachelines that were explicitly flushed (and
fenced) are guaranteed durable.  :class:`CrashRegion` reproduces exactly
that failure model at cacheline granularity:

* writes land in a volatile *shadow* (the "caches");
* ``persist`` moves the covered lines to the backing region (the
  "persistence domain");
* :meth:`CrashRegion.crash` drops the shadow — optionally letting a random
  subset of dirty lines survive, modelling the arbitrary write-back order
  of real caches (this is what makes the hypothesis crash sweeps sharp).

:class:`CrashController` injects a crash at the N-th persist/write, which
lets tests enumerate *every* crash point of an algorithm and assert that
pool recovery restores consistency from each one.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.errors import CrashInjected, PmemError
from repro.pmdk.pmem import FLUSH_LINE, PmemRegion


class CrashController:
    """Counts persistence-relevant operations and triggers a crash.

    Args:
        crash_at: operation index (1-based) at which to crash; ``None``
            records only.
        ops: which operation kinds count ("persist", "write").
        survivor_prob: probability that a dirty line nevertheless reaches
            media during the crash (cache write-back racing power loss).
        seed: RNG seed for survivor selection (deterministic tests).
    """

    def __init__(self, crash_at: int | None = None,
                 ops: Iterable[str] = ("persist",),
                 survivor_prob: float = 0.0,
                 seed: int | None = None) -> None:
        if crash_at is not None and crash_at < 1:
            raise PmemError("crash_at is 1-based")
        if not 0.0 <= survivor_prob <= 1.0:
            raise PmemError("survivor_prob must be in [0, 1]")
        self.crash_at = crash_at
        self.ops = frozenset(ops)
        self.survivor_prob = survivor_prob
        self.rng = random.Random(seed)
        self.op_count = 0
        self._region: "CrashRegion | None" = None

    def attach(self, region: "CrashRegion") -> None:
        self._region = region

    def note(self, kind: str) -> None:
        if kind not in self.ops:
            return
        self.op_count += 1
        if self.crash_at is not None and self.op_count == self.crash_at:
            if self._region is not None:
                self._region.crash(self.survivor_prob, self.rng)
            raise CrashInjected(
                f"injected crash at {kind} #{self.op_count}"
            )


class CrashRegion(PmemRegion):
    """Store-buffer wrapper around a backing region.

    The backing region holds the durable state.  After :meth:`crash`, this
    wrapper refuses further use — reopen the *backing* region, exactly as a
    restarted process would.

    Zero-copy views are unsupported by design: every store must be visible
    to the shadow so the crash model stays sound.
    """

    backend = "crash"

    def __init__(self, inner: PmemRegion,
                 controller: CrashController | None = None) -> None:
        self.inner = inner
        self._shadow: dict[int, bytearray] = {}    # line index -> 64B
        self._crashed = False
        self.controller = controller
        if controller is not None:
            controller.attach(self)

    @property
    def size(self) -> int:
        return self.inner.size

    @property
    def persistent(self) -> bool:
        return self.inner.persistent

    @property
    def dirty_lines(self) -> int:
        return len(self._shadow)

    def _alive(self) -> None:
        if self._crashed:
            raise PmemError(
                "region crashed; reopen the backing region to recover"
            )

    def view(self, offset: int, length: int) -> memoryview:
        raise PmemError("crash-injected regions do not support raw views")

    def _lines(self, offset: int, length: int) -> range:
        first = offset // FLUSH_LINE
        last = (offset + length - 1) // FLUSH_LINE
        return range(first, last + 1)

    def _load_line(self, line: int) -> bytearray:
        buf = self._shadow.get(line)
        if buf is None:
            start = line * FLUSH_LINE
            n = min(FLUSH_LINE, self.size - start)
            buf = bytearray(self.inner.read(start, n))
            if n < FLUSH_LINE:
                buf.extend(b"\x00" * (FLUSH_LINE - n))
        return buf

    def read(self, offset: int, length: int) -> bytes:
        self._alive()
        self._check(offset, length)
        out = bytearray(length)
        pos = offset
        end = offset + length
        while pos < end:
            line = pos // FLUSH_LINE
            within = pos % FLUSH_LINE
            take = min(end - pos, FLUSH_LINE - within)
            src = self._shadow.get(line)
            if src is not None:
                out[pos - offset:pos - offset + take] = src[within:within + take]
            else:
                out[pos - offset:pos - offset + take] = self.inner.read(pos, take)
            pos += take
        return bytes(out)

    def write(self, offset: int, data: bytes | bytearray | memoryview) -> None:
        self._alive()
        data = bytes(data)
        self._check(offset, len(data))
        pos = offset
        end = offset + len(data)
        while pos < end:
            line = pos // FLUSH_LINE
            within = pos % FLUSH_LINE
            take = min(end - pos, FLUSH_LINE - within)
            buf = self._load_line(line)
            buf[within:within + take] = data[pos - offset:pos - offset + take]
            self._shadow[line] = buf
            pos += take
        self._mark_dirty(offset, len(data))
        if self.controller is not None:
            self.controller.note("write")

    def _persist_hook(self) -> None:
        if self.controller is not None:
            # injection happens BEFORE the flush takes effect — the crash
            # beats the CLWB to the persistence domain
            self.controller.note("persist")

    def _flush_ranges(self, ranges: list[tuple[int, int]]) -> None:
        # A no-argument persist() flushes many coalesced spans in one
        # call, but _persist_hook fires only once per call — which would
        # collapse a K-span batched flush into a single crash point and
        # hide every mid-batch crash state from enumeration sweeps.  Count
        # each span after the first as its own persist op: a crash then
        # lands *between* spans, with earlier spans durable and later ones
        # dropped, exactly like a power loss between two CLWB trains.  A
        # ranged persist is one span, so it stays one op.
        first = True
        for off, n in ranges:
            if not n:
                continue
            if not first and self.controller is not None:
                self.controller.note("persist")
            first = False
            self._flush(off, n)

    def _flush(self, offset: int, length: int) -> None:
        for line in self._lines(offset, length):
            buf = self._shadow.pop(line, None)
            if buf is None:
                continue
            start = line * FLUSH_LINE
            n = min(FLUSH_LINE, self.size - start)
            self.inner.write(start, bytes(buf[:n]))
            self.inner.persist(start, n)

    def flush_all(self) -> None:
        """Drain the entire shadow (clean shutdown).

        Bypasses the controller on purpose: a clean shutdown is not a
        persistence-protocol step, so it must never trigger injection.
        """
        self._alive()
        self._flush_count += len(self._shadow)
        for line in sorted(self._shadow):
            start = line * FLUSH_LINE
            n = min(FLUSH_LINE, self.size - start)
            buf = self._shadow[line]
            self.inner.write(start, bytes(buf[:n]))
            self.inner.persist(start, n)
        self._shadow.clear()
        self.dirty.discard(0, self.size)

    def crash(self, survivor_prob: float = 0.0,
              rng: random.Random | None = None) -> int:
        """Power loss: drop dirty lines (each surviving with
        ``survivor_prob``).  Returns the number of lines lost."""
        self._alive()
        rng = rng or random.Random()
        lost = 0
        for line, buf in sorted(self._shadow.items()):
            if survivor_prob > 0.0 and rng.random() < survivor_prob:
                start = line * FLUSH_LINE
                n = min(FLUSH_LINE, self.size - start)
                self.inner.write(start, bytes(buf[:n]))
                self.inner.persist(start, n)
            else:
                lost += 1
        self._shadow.clear()
        self._crashed = True
        return lost

    def close(self) -> None:
        """Clean shutdown: drain the shadow.  The backing region is *not*
        closed — it models durable media that outlives this "process"."""
        if not self._crashed:
            self.flush_all()
            self._crashed = True
