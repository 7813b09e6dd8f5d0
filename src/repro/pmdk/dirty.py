"""Dirty-line tracking for persistent regions.

Real PMem code flushes at cacheline granularity (CLWB); flushing clean
lines wastes bandwidth, and flushing a whole pool on close is the
emulation-era shortcut this module removes.  A :class:`DirtyTracker`
records the 64-byte-aligned lines a region has mutated as *coalesced,
sorted, disjoint intervals*, so ``region.persist()`` with no arguments
can flush exactly the dirty working set.

Two interval classes are kept:

* **transient** intervals — recorded by ``write()``; consumed (cleared)
  by the flush that covers them;
* **pinned** intervals — recorded when a writable zero-copy ``view()``
  is handed out.  Stores through a view are invisible to the region
  object, so the viewed range must be *conservatively* re-flushed by
  every no-argument ``persist()`` for as long as the region lives.  Pins
  are never discarded by a ranged flush.  Read-only ``peek()`` slices
  (undo snapshots) cannot store, so they pin nothing.

The interval set is a flat sorted boundary list (``[s0, e0, s1, e1,
...]``) manipulated with :mod:`bisect` — O(log n) lookups, O(n) splice
worst case, and adjacency-merging by construction.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

#: default flush granularity (one CPU cacheline), kept in sync with
#: :data:`repro.pmdk.pmem.FLUSH_LINE` (redefined here to avoid an
#: import cycle — pmem imports this module).
DEFAULT_LINE = 64

def line_count(offset: int, length: int, line: int = DEFAULT_LINE) -> int:
    """Number of cachelines the range ``[offset, offset+length)`` touches."""
    if length <= 0:
        return 0
    return (offset + length - 1) // line - offset // line + 1


class _IntervalSet:
    """Sorted disjoint half-open intervals over the integers.

    Stored as a flat boundary list ``[s0, e0, s1, e1, ...]`` with
    ``s0 < e0 < s1 < e1 < ...``; adjacent intervals are merged (an add
    ending where another starts produces one interval).
    """

    __slots__ = ("_b",)

    def __init__(self) -> None:
        self._b: list[int] = []

    def __bool__(self) -> bool:
        return bool(self._b)

    def add(self, start: int, end: int) -> None:
        if start >= end:
            return
        b = self._b
        i = bisect_left(b, start)
        j = bisect_right(b, end)
        new: list[int] = []
        if i % 2 == 0:          # start falls outside every interval
            new.append(start)
        if j % 2 == 0:          # end falls outside every interval
            new.append(end)
        b[i:j] = new

    def remove(self, start: int, end: int) -> None:
        if start >= end:
            return
        b = self._b
        i = bisect_left(b, start)
        j = bisect_right(b, end)
        new: list[int] = []
        if i % 2 == 1:          # an interval straddles start — keep its left
            new.append(start)
        if j % 2 == 1:          # an interval straddles end — keep its right
            new.append(end)
        b[i:j] = new

    def clear(self) -> None:
        self._b.clear()

    def spans(self) -> list[tuple[int, int]]:
        """All intervals as ``(offset, length)`` pairs, sorted."""
        b = self._b
        return [(b[k], b[k + 1] - b[k]) for k in range(0, len(b), 2)]

    def union_spans(self, other: "_IntervalSet") -> list[tuple[int, int]]:
        """Merged ``(offset, length)`` spans of ``self | other``."""
        if not other._b:
            return self.spans()
        if not self._b:
            return other.spans()
        merged = _IntervalSet()
        merged._b = list(self._b)
        b = other._b
        for k in range(0, len(b), 2):
            merged.add(b[k], b[k + 1])
        return merged.spans()

    @property
    def total(self) -> int:
        b = self._b
        return sum(b[k + 1] - b[k] for k in range(0, len(b), 2))


class DirtyTracker:
    """Coalesced dirty-line bookkeeping for one region of ``size`` bytes.

    All recorded ranges are aligned outward to ``line`` boundaries and
    clamped to ``[0, size)`` — flushing a tracked span is always a valid,
    superset-of-mutation region flush.
    """

    __slots__ = ("size", "line", "_transient", "_pinned")

    def __init__(self, size: int, line: int = DEFAULT_LINE) -> None:
        if size <= 0:
            raise ValueError("tracker size must be positive")
        if line <= 0:
            raise ValueError("line must be positive")
        self.size = size
        self.line = line
        self._transient = _IntervalSet()
        self._pinned = _IntervalSet()

    # -- alignment -------------------------------------------------------

    def _aligned(self, offset: int, length: int) -> tuple[int, int]:
        start = max(offset, 0)
        end = min(offset + length, self.size)
        if start >= end:
            return 0, 0
        line = self.line
        start = (start // line) * line
        end = min(((end + line - 1) // line) * line, self.size)
        return start, end

    # -- recording -------------------------------------------------------

    def mark(self, offset: int, length: int) -> None:
        """Record a mutated range (cleared by the flush that covers it)."""
        start, end = self._aligned(offset, length)
        self._transient.add(start, end)

    def pin(self, offset: int, length: int) -> None:
        """Record a range reachable through a zero-copy view: always
        included in :meth:`take`, never discarded by ranged flushes."""
        start, end = self._aligned(offset, length)
        self._pinned.add(start, end)

    def discard(self, offset: int, length: int) -> None:
        """Drop transient dirt covered by an explicit ranged flush.

        Only whole lines strictly inside the flushed range are dropped —
        a partial-line flush leaves its boundary lines tracked (they may
        hold unflushed neighbouring bytes).  Pins are untouched.
        """
        start = max(offset, 0)
        end = min(offset + length, self.size)
        if start >= end:
            return
        line = self.line
        # shrink inward to whole lines fully covered by the flush
        in_start = ((start + line - 1) // line) * line
        in_end = (end // line) * line
        if end == self.size:            # region tail counts as a full line
            in_end = self.size
        self._transient.remove(in_start, in_end)

    # -- consuming -------------------------------------------------------

    def take(self) -> list[tuple[int, int]]:
        """Merged ``(offset, length)`` spans to flush now: transient ∪
        pinned.  Transient dirt is cleared; pins persist."""
        spans = self._transient.union_spans(self._pinned)
        self._transient.clear()
        return spans

    def spans(self) -> list[tuple[int, int]]:
        """Peek at the spans :meth:`take` would return, without clearing."""
        return self._transient.union_spans(self._pinned)

    def transient_spans(self) -> list[tuple[int, int]]:
        return self._transient.spans()

    def pinned_spans(self) -> list[tuple[int, int]]:
        return self._pinned.spans()

    def clear(self) -> None:
        """Forget everything — transient dirt *and* pins."""
        self._transient.clear()
        self._pinned.clear()

    # -- accounting ------------------------------------------------------

    @property
    def dirty_bytes(self) -> int:
        """Bytes a no-arg flush would cover right now."""
        return sum(n for _, n in self.spans())

    @property
    def dirty_lines(self) -> int:
        return sum(line_count(o, n, self.line) for o, n in self.spans())


def coalesce_ranges(ranges, line: int = DEFAULT_LINE,
                    bound: int | None = None) -> list[tuple[int, int]]:
    """Merge arbitrary byte ranges into sorted disjoint line-aligned
    ``(offset, length)`` spans (clamped to ``[0, bound)`` when given).

    Used by transaction commit to turn the modified/snapshot range lists
    into a minimal flush sequence.
    """
    acc = _IntervalSet()
    for offset, length in ranges:
        if length <= 0:
            continue
        start = (offset // line) * line
        end = ((offset + length + line - 1) // line) * line
        if bound is not None:
            start = max(start, 0)
            end = min(end, bound)
        if start < end:
            acc.add(start, end)
    return acc.spans()
