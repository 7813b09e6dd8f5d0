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
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import CrashInjected, TransactionAborted, TransactionError
from repro.pmdk.alloc import HEADER_SIZE as _HEAP_HEADER_SIZE, PersistentHeap
from repro.pmdk.dirty import coalesce_ranges, fast_persist_enabled
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

#: max payload bytes one undo-log DATA entry holds on the fast path;
#: larger snapshots are split into consecutive chunk entries (module
#: attribute so tests can shrink it)
LOG_CHUNK = 1 << 20


def _ctrl_crc(tail: int, state: int) -> int:
    return zlib.crc32(struct.pack("<QI", tail, state))


def _entry_crc(etype: int, target: int, length: int,
               data: bytes | memoryview) -> int:
    # streaming CRC: crc32(hdr+data) == crc32(data, crc32(hdr)), so the
    # on-media entry format is byte-identical to the concatenating form
    # while never materializing hdr+data
    if fast_persist_enabled():
        return zlib.crc32(
            data, zlib.crc32(struct.pack("<IQQ", etype, target, length)))
    return zlib.crc32(
        struct.pack("<IQQ", etype, target, length) + bytes(data))


def undo_bytes_needed(length: int) -> int:
    """Worst-case undo-log bytes ``add_range(_, length)`` consumes,
    including per-chunk entry headers and 8-byte data padding."""
    if length <= 0:
        return 0
    chunk = LOG_CHUNK if fast_persist_enabled() else length
    full, rem = divmod(length, chunk)
    need = full * (ENTRY_HEADER + ((chunk + 7) // 8) * 8)
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
        """Decode entries up to ``tail`` → ``[(type, target, data), ...]``."""
        out: list[tuple[int, int, bytes]] = []
        pos = 0
        while pos < tail:
            raw = self.region.read(self._entries_base + pos, _ENTRY_LEN)
            etype, _, target, length, crc = struct.unpack(_ENTRY_FMT, raw)
            data = self.region.read(
                self._entries_base + pos + ENTRY_HEADER, length
            ) if length else b""
            if crc != _entry_crc(etype, target, length, data):
                raise TransactionError(
                    f"undo log entry at {pos:#x} failed its CRC"
                )
            out.append((etype, target, data))
            pos += ENTRY_HEADER + ((length + 7) // 8) * 8
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
        # 1. make every modified range durable
        region = self._log.region
        if fast_persist_enabled():
            # coalesced line-aligned superset spans via the dirty-interval
            # machinery: adjacent/overlapping ranges flush once
            spans = coalesce_ranges(
                self._modified + self._snapshots, bound=region.size)
            if obs.metrics_enabled():
                obs.inc("pmdk.tx.coalesce_ranges_in",
                        len(self._modified) + len(self._snapshots))
                obs.inc("pmdk.tx.coalesce_spans_out", len(spans))
            for off, length in spans:
                region.persist(off, length)
        else:
            for off, length in self._modified:
                region.persist(off, length)
            for off, length in self._snapshots:
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
        for etype, target, data in reversed(self._log.entries(self._tail)):
            if etype == ENTRY_DATA:
                self._log.region.write(target, data)
                self._log.region.persist(target, len(data))
            elif etype == ENTRY_ALLOC and self._heap.is_allocated(target):
                self._heap.free(target)
        self._log.write_ctrl(0, STATE_CLEAN)
        obs.inc("pmdk.tx.aborts")
        self._reset()

    def _reset(self) -> None:
        self._tail = 0
        self._snapshots.clear()
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
        return any(o <= offset and offset + length <= o + n
                   for o, n in self._snapshots)

    def add_range(self, offset: int, length: int) -> None:
        """Snapshot ``[offset, offset+length)`` before the caller modifies it."""
        self.add_ranges(((offset, length),))

    def add_ranges(self, ranges) -> None:
        """Snapshot several ranges with a single log-visibility update.

        Large ranges are split into :data:`LOG_CHUNK`-sized entries read
        through zero-copy views (where the backend supports them) — the
        whole range never materializes as one ``bytes`` object.  All
        chunk entries are persisted in one span flush, then the control
        block is bumped once: entries stay invisible until every byte of
        every snapshot is durable, exactly as with one entry per range.
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
        fast = fast_persist_enabled()
        use_views = fast and region.supports_views
        start_tail = tail = self._tail
        for offset, length in fresh:
            pos = 0
            while pos < length:
                n = min(LOG_CHUNK, length - pos) if fast else length
                if use_views:
                    old = region.view(offset + pos, n)
                else:
                    old = region.read(offset + pos, n)
                tail = self._log.append(tail, ENTRY_DATA, offset + pos, old,
                                        persist=not fast)
                pos += n
        if fast:
            self._log.persist_span(start_tail, tail)
        self._log.write_ctrl(tail, STATE_ACTIVE)
        obs.inc("pmdk.tx.undo_bytes", tail - start_tail)
        self._tail = tail
        self._snapshots.extend(fresh)

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


@dataclass(eq=False)
class RecoveryReport:
    """What the pool-open recovery pass found and did.

    ``action`` is one of ``"clean"`` (no interrupted transaction),
    ``"rolled_back"`` (an active transaction's undo log was replayed
    backwards) or ``"completed"`` (a committed transaction's deferred
    frees were finished).  For source compatibility the report compares
    equal to — and prints as — its action string.
    """

    action: str
    log_entries: int = 0
    data_bytes_restored: int = 0
    allocs_released: int = 0
    frees_completed: int = 0
    header_repaired: bool = False       # filled in by PmemObjPool.open

    def __str__(self) -> str:
        return self.action

    def __eq__(self, other: object) -> bool:
        if isinstance(other, str):
            return self.action == other
        if isinstance(other, RecoveryReport):
            return (self.action, self.log_entries, self.data_bytes_restored,
                    self.allocs_released, self.frees_completed,
                    self.header_repaired) == (
                    other.action, other.log_entries,
                    other.data_bytes_restored, other.allocs_released,
                    other.frees_completed, other.header_repaired)
        return NotImplemented

    __hash__ = None     # type: ignore[assignment]  # mutable, str-comparable


def recover(log: UndoLog, heap: PersistentHeap) -> RecoveryReport:
    """Pool-open recovery of an interrupted transaction.

    Returns a :class:`RecoveryReport`; its ``action`` is ``"clean"``,
    ``"rolled_back"`` or ``"completed"`` (and the report compares equal
    to those strings).
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
    obs.inc("pmdk.recovery.rolled_back")
    return report
