"""Undo-log transactions — the libpmemobj ``TX_BEGIN`` machinery.

The paper leans on pmemobj transactions for STREAM-PMem: "*it offers a
transaction function that can encompass various modifications made to
persistent objects.  This function ensures that either all of the
modifications are successfully applied or none of them take effect.*"

Design (mirrors libpmemobj's undo log):

* ``tx.add_range(offset, len)`` snapshots the *old* contents into the
  pool's log area **before** the caller modifies the range;
* commit persists the modified ranges, marks the log ``COMMITTED``,
  applies deferred frees, then truncates the log;
* abort — explicit, by exception, or by crash — restores every snapshot
  (newest first), releases transaction-time allocations, and truncates.

The log's control word (tail + state + CRC) lives in a single cacheline,
so each step of the protocol is failure-atomic under the cacheline-granular
crash model of :mod:`repro.pmdk.crash`.

Every entry carries zlib's CRC-32 of its header fields and data, as
libpmemobj checksums each undo-log entry, snapshot included, and recovery
refuses an entry that fails it.  The data's share goes through
:mod:`repro.pmdk.crc_jit` (the compiled tier's ``crc`` family) when that
kernel is available; the integer is zlib's either way, so the log's bytes
do not depend on it.

Allocation/free atomicity:

* ``tx.alloc`` performs the heap allocation immediately but records an
  ``ALLOC`` entry — abort/recovery of an uncommitted transaction frees it;
* ``tx.free`` only records a ``FREE`` intent — the heap free is applied
  during commit (and re-applied idempotently by recovery if the crash
  lands between the commit record and the truncation).
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import CrashInjected, TransactionAborted, TransactionError
from repro.pmdk import crc_jit
from repro.pmdk.alloc import HEADER_SIZE as _HEAP_HEADER_SIZE, PersistentHeap
from repro.pmdk.dirty import coalesce_ranges
from repro import obs

if TYPE_CHECKING:  # pragma: no cover
    from repro.pmdk.pmem import PmemRegion

# control block (one cacheline)
_CTRL_FMT = "<QII"
_CTRL_LEN = struct.calcsize(_CTRL_FMT)
CTRL_SIZE = 64

STATE_CLEAN = 0
STATE_ACTIVE = 1
STATE_COMMITTED = 2

# entry header: type u32, pad u32, target u64, length u64, crc u32 → pad to 32
_ENTRY_FMT = "<IIQQI"
_ENTRY_LEN = struct.calcsize(_ENTRY_FMT)
ENTRY_HEADER = 32

ENTRY_DATA = 1
ENTRY_ALLOC = 2
ENTRY_FREE = 3

#: max payload bytes one undo-log DATA entry holds; larger snapshots
#: are split into consecutive chunk entries (module attribute so tests
#: can shrink it)
LOG_CHUNK = 1 << 20


def _ctrl_crc(tail: int, state: int) -> int:
    return zlib.crc32(struct.pack("<QI", tail, state))


def _entry_crc(etype: int, target: int, length: int,
               data: bytes | memoryview) -> int:
    """zlib's CRC-32 of the entry's header fields followed by its data.

    Streaming: crc32(hdr+data) == crc32(data, crc32(hdr)), so the CRC
    covers both without joining them.  The 20 header bytes go through
    :func:`zlib.crc32`, the data through :func:`crc_jit.crc32
    <repro.pmdk.crc_jit.crc32>`, which returns the same integer.
    """
    return crc_jit.crc32(
        data, zlib.crc32(struct.pack("<IQQ", etype, target, length)))


def undo_bytes_needed(length: int) -> int:
    """Worst-case undo-log bytes ``add_range(_, length)`` consumes,
    including per-chunk entry headers and 8-byte data padding."""
    if length <= 0:
        return 0
    full, rem = divmod(length, LOG_CHUNK)
    need = full * (ENTRY_HEADER + ((LOG_CHUNK + 7) // 8) * 8)
    if rem:
        need += ENTRY_HEADER + ((rem + 7) // 8) * 8
    return need


class UndoLog:
    """The persistent log area of one pool."""

    def __init__(self, region: "PmemRegion", log_offset: int,
                 log_size: int) -> None:
        if log_size < CTRL_SIZE + ENTRY_HEADER:
            raise TransactionError(f"log area of {log_size} bytes is too small")
        self.region = region
        self.log_offset = log_offset
        self.log_size = log_size
        self._entries_base = log_offset + CTRL_SIZE
        self._capacity = log_size - CTRL_SIZE

    @property
    def capacity(self) -> int:
        """Entry bytes the log can hold."""
        return self._capacity

    # -- control block --------------------------------------------------

    def read_ctrl(self) -> tuple[int, int]:
        raw = self.region.read(self.log_offset, _CTRL_LEN)
        tail, state, crc = struct.unpack(_CTRL_FMT, raw)
        if crc != _ctrl_crc(tail, state):
            raise TransactionError("transaction log control block corrupted")
        return tail, state

    def write_ctrl(self, tail: int, state: int) -> None:
        raw = struct.pack(_CTRL_FMT, tail, state, _ctrl_crc(tail, state))
        self.region.write(self.log_offset, raw)
        self.region.persist(self.log_offset, CTRL_SIZE)

    def format(self) -> None:
        self.write_ctrl(0, STATE_CLEAN)

    # -- entries ---------------------------------------------------------

    def append(self, tail: int, etype: int, target: int,
               data: bytes | memoryview, persist: bool = True) -> int:
        """Write one entry at ``tail``; returns the new tail.

        The control block is *not* updated here — the caller persists the
        entry (inline with ``persist=True``, or later via
        :meth:`persist_span` for a batch), then bumps the tail,
        preserving the entry-before-visibility ordering.
        """
        length = len(data)
        total = ENTRY_HEADER + ((length + 7) // 8) * 8
        if tail + total > self._capacity:
            raise TransactionError(
                f"transaction log full: need {total} bytes, "
                f"{self._capacity - tail} remain (log_size={self.log_size})"
            )
        pos = self._entries_base + tail
        hdr = struct.pack(_ENTRY_FMT, etype, 0, target, length,
                          _entry_crc(etype, target, length, data))
        self.region.write(pos, hdr + b"\x00" * (ENTRY_HEADER - _ENTRY_LEN))
        if length:
            self.region.write(pos + ENTRY_HEADER, data)
        if persist:
            self.region.persist(pos, total)
        return tail + total

    def persist_span(self, start_tail: int, end_tail: int) -> None:
        """Persist every entry appended between two tails in one flush."""
        if end_tail > start_tail:
            self.region.persist(self._entries_base + start_tail,
                                end_tail - start_tail)

    def entries(self, tail: int) -> list[tuple[int, int, bytes]]:
        """Decode entries up to ``tail`` → ``[(type, target, data), ...]``.

        Raises:
            TransactionError: an entry ends past ``tail`` or the log, or
                fails its CRC.
        """
        out: list[tuple[int, int, bytes]] = []
        end = min(tail, self._capacity)
        pos = 0
        while pos < tail:
            raw = self.region.read(self._entries_base + pos, _ENTRY_LEN)
            etype, _, target, length, crc = struct.unpack(_ENTRY_FMT, raw)
            size = ENTRY_HEADER + ((length + 7) // 8) * 8
            if pos + size > end:
                raise TransactionError(
                    f"undo log entry at {pos:#x} overruns the log")
            data = self.region.read(
                self._entries_base + pos + ENTRY_HEADER, length
            ) if length else b""
            if crc != _entry_crc(etype, target, length, data):
                raise TransactionError(
                    f"undo log entry at {pos:#x} failed its CRC"
                )
            out.append((etype, target, data))
            pos += size
        return out


class Transaction:
    """One (possibly nested) transaction against a pool.

    Use as a context manager::

        with pool.transaction() as tx:
            tx.add_range(off, 8)
            pool.write(off, new_bytes)
    """

    def __init__(self, log: UndoLog, heap: PersistentHeap) -> None:
        self._log = log
        self._heap = heap
        self._tail = 0
        self._depth = 0
        self._aborted = False
        self._snapshots: list[tuple[int, int]] = []
        # the index of _covered: the snapshots no other snapshot
        # contains, by start; their ends then rise with their starts
        self._snap_starts: list[int] = []
        self._snap_ends: list[int] = []
        self._tx_allocs: list[int] = []
        self._deferred_frees: list[int] = []
        self._modified: list[tuple[int, int]] = []

    # -- lifecycle --------------------------------------------------------

    @property
    def active(self) -> bool:
        return self._depth > 0

    @property
    def depth(self) -> int:
        return self._depth

    def begin(self) -> "Transaction":
        if self._aborted:
            raise TransactionError("transaction already aborted")
        if self._depth == 0:
            tail, state = self._log.read_ctrl()
            if state != STATE_CLEAN or tail != 0:
                raise TransactionError(
                    "pool has an unrecovered transaction log; reopen the pool"
                )
        self._depth += 1
        return self

    def commit(self) -> None:
        if not self.active:
            raise TransactionError("commit outside an active transaction")
        if self._aborted:
            raise TransactionError("cannot commit an aborted transaction")
        self._depth -= 1
        if self._depth > 0:
            return
        # 1. make every modified range durable, as coalesced line-aligned
        #    superset spans: adjacent/overlapping ranges flush once
        region = self._log.region
        spans = coalesce_ranges(
            self._modified + self._snapshots, bound=region.size)
        if obs.metrics_enabled():
            obs.inc("pmdk.tx.coalesce_ranges_in",
                    len(self._modified) + len(self._snapshots))
            obs.inc("pmdk.tx.coalesce_spans_out", len(spans))
        for off, length in spans:
            region.persist(off, length)
        # 2. commit record
        if self._tail:
            self._log.write_ctrl(self._tail, STATE_COMMITTED)
        # 3. apply deferred frees (idempotent wrt recovery replay)
        for off in self._deferred_frees:
            if self._heap.is_allocated(off):
                self._heap.free(off)
        # 4. truncate
        if self._tail:
            self._log.write_ctrl(0, STATE_CLEAN)
        obs.inc("pmdk.tx.commits")
        self._reset()

    def abort(self) -> None:
        """Roll back and raise :class:`TransactionAborted`."""
        if not self.active:
            raise TransactionError("abort outside an active transaction")
        self._rollback()
        self._depth = 0
        self._aborted = True
        raise TransactionAborted("transaction aborted by user")

    def _rollback(self) -> None:
        _roll_back(self._log, self._heap, self._tail)
        obs.inc("pmdk.tx.aborts")
        self._reset()

    def _reset(self) -> None:
        self._tail = 0
        self._snapshots.clear()
        self._snap_starts.clear()
        self._snap_ends.clear()
        self._tx_allocs.clear()
        self._deferred_frees.clear()
        self._modified.clear()

    # -- operations --------------------------------------------------------

    def _require_active(self) -> None:
        if not self.active:
            raise TransactionError("operation outside an active transaction")
        if self._aborted:
            raise TransactionError("transaction already aborted")

    def _covered(self, offset: int, length: int) -> bool:
        """Whether one earlier snapshot holds all of the range."""
        # the last snapshot starting at or before offset reaches furthest
        i = bisect_right(self._snap_starts, offset)
        return i > 0 and self._snap_ends[i - 1] >= offset + length

    def _index_snapshot(self, offset: int, length: int) -> None:
        starts, ends = self._snap_starts, self._snap_ends
        end = offset + length
        i = bisect_right(starts, offset)
        if i and ends[i - 1] >= end:
            return                  # inside an indexed snapshot
        # drop the indexed snapshots inside this one: a run from i on
        i = k = bisect_left(starts, offset)
        while k < len(ends) and ends[k] <= end:
            k += 1
        starts[i:k] = [offset]
        ends[i:k] = [end]

    def add_range(self, offset: int, length: int) -> None:
        """Snapshot ``[offset, offset+length)`` before the caller modifies it."""
        self.add_ranges(((offset, length),))

    def add_ranges(self, ranges) -> None:
        """Snapshot several ranges with a single log-visibility update.

        Large ranges are split into :data:`LOG_CHUNK`-sized entries read
        through :meth:`~repro.pmdk.pmem.PmemRegion.peek` — zero-copy on
        the buffer backends, and never pinned, so a snapshot adds no
        lines to later no-argument persists.  All chunk entries are
        persisted in one span flush, then the control block is bumped
        once: entries stay invisible until every byte of every snapshot
        is durable, exactly as with one entry per range.
        """
        self._require_active()
        fresh: list[tuple[int, int]] = []
        for offset, length in ranges:
            if length <= 0:
                raise TransactionError("add_range length must be positive")
            if not self._covered(offset, length):
                fresh.append((offset, length))
        if not fresh:
            return
        region = self._log.region
        start_tail = tail = self._tail
        for offset, length in fresh:
            for pos in range(0, length, LOG_CHUNK):
                n = min(LOG_CHUNK, length - pos)
                tail = self._log.append(tail, ENTRY_DATA, offset + pos,
                                        region.peek(offset + pos, n),
                                        persist=False)
        self._log.persist_span(start_tail, tail)
        self._log.write_ctrl(tail, STATE_ACTIVE)
        obs.inc("pmdk.tx.undo_bytes", tail - start_tail)
        self._tail = tail
        self._snapshots.extend(fresh)
        for offset, length in fresh:
            self._index_snapshot(offset, length)

    def log_modified(self, offset: int, length: int) -> None:
        """Note a range modified without snapshotting (freshly allocated
        memory needs no undo, but must still be persisted at commit)."""
        self._require_active()
        self._modified.append((offset, length))

    def alloc(self, size: int) -> int:
        """Transactional allocation; freed automatically on abort/crash.

        The ALLOC intent is journaled *before* the heap mutation becomes
        persistent (reserve → journal → complete), so a crash at any point
        either leaves the chunk free or leaves it allocated-and-journaled —
        never allocated-and-forgotten.
        """
        self._require_active()
        reservation = self._heap.reserve(size)
        payload = reservation[0] + _HEAP_HEADER_SIZE
        try:
            new_tail = self._log.append(self._tail, ENTRY_ALLOC, payload, b"")
            self._log.write_ctrl(new_tail, STATE_ACTIVE)
        except TransactionError:
            self._heap.cancel(reservation)
            raise
        self._tail = new_tail
        self._heap.complete(reservation)
        self._tx_allocs.append(payload)
        return payload

    def free(self, payload_offset: int) -> None:
        """Transactional free; applied only if the transaction commits."""
        self._require_active()
        if not self._heap.is_allocated(payload_offset):
            raise TransactionError(
                f"tx.free of unallocated offset {payload_offset:#x}"
            )
        new_tail = self._log.append(self._tail, ENTRY_FREE, payload_offset, b"")
        self._log.write_ctrl(new_tail, STATE_ACTIVE)
        self._tail = new_tail
        self._deferred_frees.append(payload_offset)

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "Transaction":
        return self.begin()

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.commit()
            return False
        if exc_type is TransactionAborted:
            # abort() already rolled back; let the exception propagate so
            # callers can observe the abort explicitly
            return False
        if issubclass(exc_type, CrashInjected):
            # the "machine" lost power mid-transaction: no rollback is
            # possible now — recovery happens when the pool is reopened
            self._depth = 0
            self._aborted = True
            return False
        if self.active:
            try:
                self._rollback()
            finally:
                self._depth = 0
                self._aborted = True
        return False


@dataclass
class RecoveryReport:
    """What the pool-open recovery pass found and did.

    ``action`` is one of ``"clean"`` (no interrupted transaction),
    ``"rolled_back"`` (an active transaction's undo log was replayed
    backwards) or ``"completed"`` (a committed transaction's deferred
    frees were finished).
    """

    action: str
    log_entries: int = 0
    data_bytes_restored: int = 0
    allocs_released: int = 0
    frees_completed: int = 0
    #: the header copy open rewrote, e.g. ``"backup header restored
    #: from primary"``; ``None`` when both copies were intact and equal
    header_repair: str | None = None
    #: chunk headers the heap's recovery walk rewrote
    heap_headers_rewritten: int = 0


def _roll_back(log: UndoLog, heap: PersistentHeap,
               tail: int) -> RecoveryReport:
    """Replay the undo log up to ``tail`` backwards, then truncate it:
    restore every snapshot (newest first) and release every
    transaction-time allocation.  Abort and crash recovery both undo a
    transaction through here."""
    report = RecoveryReport("rolled_back")
    for etype, target, data in reversed(log.entries(tail)):
        report.log_entries += 1
        if etype == ENTRY_DATA:
            log.region.write(target, data)
            log.region.persist(target, len(data))
            report.data_bytes_restored += len(data)
        elif etype == ENTRY_ALLOC and heap.is_allocated(target):
            heap.free(target)
            report.allocs_released += 1
    log.write_ctrl(0, STATE_CLEAN)
    return report


def recover(log: UndoLog, heap: PersistentHeap) -> RecoveryReport:
    """Pool-open recovery of an interrupted transaction.

    Returns a :class:`RecoveryReport`; its ``action`` is ``"clean"``,
    ``"rolled_back"`` or ``"completed"``.
    """
    tail, state = log.read_ctrl()
    if state == STATE_CLEAN and tail == 0:
        return RecoveryReport("clean")
    if state == STATE_COMMITTED:
        # finish the commit: replay deferred frees, truncate
        report = RecoveryReport("completed")
        for etype, target, _ in log.entries(tail):
            report.log_entries += 1
            if etype == ENTRY_FREE and heap.is_allocated(target):
                heap.free(target)
                report.frees_completed += 1
        log.write_ctrl(0, STATE_CLEAN)
        obs.inc("pmdk.recovery.completed")
        return report
    # ACTIVE (or CLEAN with nonzero tail — treat as active): roll back
    report = _roll_back(log, heap, tail)
    obs.inc("pmdk.recovery.rolled_back")
    return report
