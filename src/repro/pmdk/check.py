"""Pool consistency checking — the ``pmempool check`` equivalent.

:func:`check_pool` inspects a region without writing to it and reports
every inconsistency it finds.  With ``repair=True`` it first opens the
pool: :meth:`repro.pmdk.pool.PmemObjPool.open` is the one path that
repairs a pool, and the check reports what that open did before it
inspects the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import (
    AllocError,
    PoolCorruptionError,
    ReproError,
    TransactionError,
)
from repro.pmdk.alloc import (
    HEADER_SIZE,
    STATE_ALLOCATED,
    PersistentHeap,
    recovery_walk,
)
from repro.pmdk.pmem import PmemRegion
from repro.pmdk.pool import PmemObjPool, _Header
from repro.pmdk.tx import STATE_CLEAN, UndoLog


@dataclass
class CheckReport:
    """Outcome of a pool check."""

    issues: list[str] = field(default_factory=list)
    repairs: list[str] = field(default_factory=list)
    n_chunks: int = 0
    allocated_bytes: int = 0
    free_bytes: int = 0
    pending_tx: bool = False
    root_present: bool = False
    #: the header in force (the primary copy unless it is torn), or
    #: ``None`` when neither copy is usable
    header: _Header | None = None

    @property
    def ok(self) -> bool:
        """Whether the inspection found nothing to repair."""
        return not self.issues

    def summary(self) -> str:
        status = "consistent" if self.ok else "INCONSISTENT"
        lines = [f"pool check: {status}; {self.n_chunks} chunks, "
                 f"{self.allocated_bytes} B allocated, "
                 f"{self.free_bytes} B free"]
        lines += [f"  issue: {i}" for i in self.issues]
        lines += [f"  repaired: {r}" for r in self.repairs]
        return "\n".join(lines)


def check_pool(region: PmemRegion, repair: bool = False) -> CheckReport:
    """Inspect the pool inside ``region``; with ``repair`` open it first.

    Without ``repair`` nothing is written.  With it,
    :meth:`PmemObjPool.open` repairs what it can and ``repairs`` lists
    what it did; if the pool cannot be opened, the inspection says why.
    """
    report = CheckReport()
    if repair:
        try:
            rec = PmemObjPool.open(region).last_recovery
        except ReproError:
            pass            # open wrote nothing; the inspection says why
        else:
            if rec.header_repair:
                report.repairs.append(rec.header_repair)
            if rec.heap_headers_rewritten:
                n = rec.heap_headers_rewritten
                report.repairs.append(
                    f"{n} chunk header{'s' if n != 1 else ''} rewritten")
            if rec.action != "clean":
                report.repairs.append(f"transaction {rec.action}")
    _inspect(region, report)
    return report


def _inspect(region: PmemRegion, report: CheckReport) -> None:
    issues = report.issues
    primary, backup, faults = _Header.read_copies(region)
    issues += faults
    if primary and backup and primary.pack() != backup.pack():
        issues.append("header copies disagree")
    header = report.header = primary or backup
    if header is None:
        issues.append("no usable pool header")
        return
    try:
        header.check_geometry(region.size)
    except PoolCorruptionError as exc:
        issues.append(str(exc))
        return

    try:
        log = UndoLog(region, header.log_offset, header.log_size)
        tail, state = log.read_ctrl()
        if tail != 0 or state != STATE_CLEAN:
            report.pending_tx = True
            issues.append(
                f"interrupted transaction (tail={tail}, state={state})")
            log.entries(tail)   # validates entry bounds and CRCs
    except TransactionError as exc:
        issues.append(f"transaction log: {exc}")
        return

    try:
        chunks = list(PersistentHeap(region, header.heap_offset,
                                     header.heap_size).chunks())
    except (AllocError, PoolCorruptionError) as exc:
        issues.append(f"heap: {exc}")
        return
    report.n_chunks = len(chunks)
    report.allocated_bytes = sum(c.size for c in chunks
                                 if c.state == STATE_ALLOCATED)
    report.free_bytes = sum(c.size for c in chunks if c.is_free)
    issues += [f"chunk header at {new.offset:#x} reads {old}; recovery "
               f"writes {new}" for old, new in recovery_walk(chunks)[0]]

    if header.root_offset:
        report.root_present = True
        if not (header.heap_offset + HEADER_SIZE <= header.root_offset
                < header.heap_offset + header.heap_size):
            issues.append(
                f"root offset {header.root_offset:#x} outside the heap")
