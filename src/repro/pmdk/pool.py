"""libpmemobj pools: the transactional object store.

A pool lives inside any :class:`repro.pmdk.pmem.PmemRegion` — a DAX-style
file, the volatile remote-socket emulation, or a CXL Type-3 namespace via
:mod:`repro.core.provider` (this last combination is the paper's thesis).

On-media layout::

    [0x0000]  primary header  (magic, uuid, layout, geometry, CRC)
    [0x0800]  backup header   (for failure-atomic header updates)
    [0x1000]  transaction log (control block + undo entries)
    [ ... ]   persistent heap (chunked allocator)

Every metadata mutation follows write-backup → persist → write-primary →
persist, so a torn header is always repairable from the other copy.
"""

from __future__ import annotations

import contextlib
import os
import struct
import zlib

import numpy as np

from repro.errors import PmemError, PoolCorruptionError, PoolError
from repro.pmdk.alloc import PersistentHeap, align_up
from repro.pmdk.dirty import coalesce_ranges
from repro.pmdk.oid import OID_NULL, PMEMoid
from repro.pmdk.pmem import FileRegion, PmemRegion, map_file
from repro.pmdk.tx import (
    RecoveryReport,
    Transaction,
    UndoLog,
    recover as tx_recover,
)
from repro import obs

POOL_MAGIC = b"REPROPMO"
POOL_VERSION = 1

_HDR_FMT = "<8sI16s64sQQQQQQQI"
_HDR_LEN = struct.calcsize(_HDR_FMT)
HEADER_COPY_SIZE = 2048
PRIMARY_HEADER_OFF = 0
BACKUP_HEADER_OFF = HEADER_COPY_SIZE
METADATA_SIZE = 4096                      # both headers
DEFAULT_LOG_SIZE = 256 * 1024
MIN_POOL_SIZE = METADATA_SIZE + DEFAULT_LOG_SIZE + 64 * 1024


class _Header:
    """Decoded pool header."""

    __slots__ = ("uuid", "layout", "pool_size", "log_offset", "log_size",
                 "heap_offset", "heap_size", "root_offset", "root_size")

    def __init__(self, uuid: bytes, layout: str, pool_size: int,
                 log_offset: int, log_size: int, heap_offset: int,
                 heap_size: int, root_offset: int, root_size: int) -> None:
        self.uuid = uuid
        self.layout = layout
        self.pool_size = pool_size
        self.log_offset = log_offset
        self.log_size = log_size
        self.heap_offset = heap_offset
        self.heap_size = heap_size
        self.root_offset = root_offset
        self.root_size = root_size

    def pack(self) -> bytes:
        body = struct.pack(
            "<8sI16s64sQQQQQQQ", POOL_MAGIC, POOL_VERSION, self.uuid,
            self.layout.encode(), self.pool_size, self.log_offset,
            self.log_size, self.heap_offset, self.heap_size,
            self.root_offset, self.root_size,
        )
        return body + struct.pack("<I", zlib.crc32(body))

    @classmethod
    def unpack(cls, raw: bytes) -> "_Header":
        if len(raw) < _HDR_LEN:
            raise PoolCorruptionError("short pool header")
        (magic, version, uuid, layout_b, pool_size, log_off, log_size,
         heap_off, heap_size, root_off, root_size, crc) = struct.unpack(
            _HDR_FMT, raw[:_HDR_LEN])
        body = raw[:_HDR_LEN - 4]
        if magic != POOL_MAGIC:
            raise PoolCorruptionError(f"bad pool magic {magic!r}")
        if version != POOL_VERSION:
            raise PoolCorruptionError(f"unsupported pool version {version}")
        if crc != zlib.crc32(body):
            raise PoolCorruptionError("pool header CRC mismatch")
        try:
            layout = layout_b.rstrip(b"\x00").decode()
        except UnicodeDecodeError:
            raise PoolCorruptionError(
                "pool layout is not valid UTF-8") from None
        return cls(uuid, layout, pool_size, log_off, log_size, heap_off,
                   heap_size, root_off, root_size)

    @classmethod
    def read_copies(cls, region: PmemRegion
                    ) -> tuple[_Header | None, _Header | None, list[str]]:
        """Decode both copies: ``(primary, backup, faults)``, where a torn
        copy is ``None`` and ``faults`` names each torn copy and why."""
        copies: list[_Header | None] = []
        faults: list[str] = []
        for name, off in (("primary", PRIMARY_HEADER_OFF),
                          ("backup", BACKUP_HEADER_OFF)):
            try:
                copies.append(cls.unpack(region.read(off, _HDR_LEN)))
            except PoolCorruptionError as exc:
                copies.append(None)
                faults.append(f"{name} header: {exc}")
        return copies[0], copies[1], faults

    def write(self, region: PmemRegion) -> None:
        """Store both copies, backup first, each persisted in turn."""
        raw = self.pack()
        for off in (BACKUP_HEADER_OFF, PRIMARY_HEADER_OFF):
            region.write(off, raw)
            region.persist(off, len(raw))

    def check_geometry(self, region_size: int) -> None:
        """Raise :class:`PoolCorruptionError` unless the pool fits its
        region and the log and heap lie in order inside the pool."""
        if self.pool_size > region_size:
            raise PoolCorruptionError(
                f"header claims {self.pool_size} bytes, region has "
                f"{region_size}")
        if not (METADATA_SIZE <= self.log_offset
                and self.log_offset + self.log_size <= self.heap_offset):
            raise PoolCorruptionError(
                "log geometry overlaps the header copies or the heap")
        if self.heap_offset + self.heap_size > self.pool_size:
            raise PoolCorruptionError("heap geometry exceeds the pool")


def _refuse_pool(region: PmemRegion, where: str) -> None:
    """Raise :class:`PoolError` if either header copy in ``region``
    decodes: ``create`` never formats over a pool."""
    if region.size < METADATA_SIZE:
        return
    primary, backup, _ = _Header.read_copies(region)
    existing = primary or backup
    if existing is not None:
        raise PoolError(
            f"{where} already contains a pool (layout={existing.layout!r}); "
            "open it instead")


class PmemObjPool:
    """A transactional persistent object pool (``pmemobj`` equivalent)."""

    def __init__(self, region: PmemRegion, header: _Header,
                 heap: PersistentHeap, owns_region: bool) -> None:
        self.region = region
        self._hdr = header
        self._heap = heap
        self._log = UndoLog(region, header.log_offset, header.log_size)
        self._owns_region = owns_region
        self._tx: Transaction | None = None
        self._closed = False
        #: the :class:`~repro.pmdk.tx.RecoveryReport` from the last
        #: :meth:`open` of this pool (``None`` for a freshly created one)
        self.last_recovery: "RecoveryReport | None" = None

    # ------------------------------------------------------------------
    # create / open
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, target: str | PmemRegion, layout: str = "",
               size: int | None = None,
               log_size: int = DEFAULT_LOG_SIZE) -> "PmemObjPool":
        """``pmemobj_create``: format a new pool.

        ``target`` is a path (a file region is created, like
        ``pmemobj_create(path, ...)``) or an existing region.

        Like ``pmemobj_create`` given a size, it never creates over an
        existing file: a path to a file that is not empty is refused
        before anything is resized or written.

        Raises:
            PoolError: layout longer than 64 UTF-8 bytes, target too
                small, or either header copy already decodes.
            PmemError: ``target`` names a file that is not empty.
        """
        if len(layout.encode()) > 64:
            raise PoolError(f"pool layout {layout!r} is longer than the "
                            "64-byte limit (UTF-8)")
        owns = isinstance(target, str)
        if owns:
            if size is None:
                raise PoolError("creating a pool file requires a size")
            if os.path.isfile(target) and os.path.getsize(target):
                # say whether it holds a pool; mapping it writes nothing
                with contextlib.closing(map_file(target)) as existing:
                    _refuse_pool(existing, repr(target))
            region = map_file(target, size, create=True)
        else:
            region = target
        try:
            return cls._format(region, layout, log_size, owns)
        except Exception:
            # best-effort cleanup: a failing close() must not mask the
            # formatting error that got us here
            if owns:
                with contextlib.suppress(Exception):
                    region.close()
            raise

    @classmethod
    def _format(cls, region: PmemRegion, layout: str, log_size: int,
                owns: bool) -> "PmemObjPool":
        if region.size < METADATA_SIZE + log_size + 64 * 1024:
            raise PoolError(
                f"region of {region.size} bytes too small for a pool "
                f"(need >= {METADATA_SIZE + log_size + 64 * 1024})"
            )
        _refuse_pool(region, "region")
        log_size = align_up(log_size)
        heap_offset = METADATA_SIZE + log_size
        heap_size = (region.size - heap_offset) // 64 * 64
        header = _Header(
            uuid=os.urandom(16),
            layout=layout,
            pool_size=region.size,
            log_offset=METADATA_SIZE,
            log_size=log_size,
            heap_offset=heap_offset,
            heap_size=heap_size,
            root_offset=0,
            root_size=0,
        )
        heap = PersistentHeap.format(region, heap_offset, heap_size)
        log = UndoLog(region, header.log_offset, header.log_size)
        log.format()
        header.write(region)
        return cls(region, header, heap, owns)

    @classmethod
    def open(cls, target: str | PmemRegion, layout: str | None = None
             ) -> "PmemObjPool":
        """``pmemobj_open``: open + recover an existing pool.

        The one path that writes to a damaged pool.  All that recovery
        reads is validated before the first write, so a refused pool is
        left byte-identical.  Then it rewrites a stale header copy,
        recovers the heap (one walk over the chunk list it validated,
        which also builds the heap index) and rolls back or completes the
        interrupted transaction.

        Raises:
            PoolError: layout mismatch.
            PoolCorruptionError: both header copies, the geometry or a
                chunk header are damaged.
            TransactionError: the undo log is damaged.
        """
        owns = isinstance(target, str)
        region = map_file(target) if owns else target
        try:
            header, repair = cls._read_header(region)
            if layout is not None and header.layout != layout:
                raise PoolError(
                    f"pool layout is {header.layout!r}, expected {layout!r}"
                )
            # validate all that recovery reads before the first write
            header.check_geometry(region.size)
            log = UndoLog(region, header.log_offset, header.log_size)
            log.entries(log.read_ctrl()[0])
            heap = PersistentHeap(region, header.heap_offset,
                                  header.heap_size)
            chunks = list(heap.chunks())
            if repair:
                header.write(region)
                obs.inc("pmdk.recovery.header_repairs")
            rewritten = heap.recover(chunks)
            with obs.span("pmdk.recovery"):
                report = tx_recover(log, heap)
            report.header_repair = repair
            report.heap_headers_rewritten = rewritten
            pool = cls(region, header, heap, owns)
            pool.last_recovery = report
            return pool
        except Exception:
            if owns:
                with contextlib.suppress(Exception):
                    region.close()
            raise

    @staticmethod
    def _read_header(region: PmemRegion) -> tuple[_Header, str | None]:
        """Returns the header in force (the primary unless it is torn)
        and, when a copy is stale, its repair as
        :attr:`RecoveryReport.header_repair` words it."""
        primary, backup, faults = _Header.read_copies(region)
        if primary is None and backup is None:
            raise PoolCorruptionError(
                f"both pool header copies are corrupt ({'; '.join(faults)})")
        if primary is None:
            return backup, "primary header restored from backup"
        if backup is None:
            return primary, "backup header restored from primary"
        if backup.pack() != primary.pack():
            return primary, "backup header rewritten from primary"
        return primary, None

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------

    @property
    def uuid(self) -> bytes:
        return self._hdr.uuid

    @property
    def layout(self) -> str:
        return self._hdr.layout

    @property
    def persistent(self) -> bool:
        return self.region.persistent

    @property
    def free_bytes(self) -> int:
        return self._heap.free_bytes

    @property
    def used_bytes(self) -> int:
        return self._heap.used_bytes

    @property
    def heap(self) -> PersistentHeap:
        return self._heap

    @property
    def log_capacity(self) -> int:
        """Bytes of undo-log space available to one transaction."""
        return self._hdr.log_size - 64

    def _alive(self) -> None:
        if self._closed:
            raise PoolError("pool is closed")

    # ------------------------------------------------------------------
    # object management
    # ------------------------------------------------------------------

    def alloc(self, size: int, zero: bool = True) -> PMEMoid:
        """Atomic (non-transactional) allocation, ``pmemobj_alloc``."""
        return self.alloc_many(1, size, zero)[0]

    def alloc_many(self, count: int, size: int,
                   zero: bool = True) -> list[PMEMoid]:
        """Vectorized ``pmemobj_alloc`` of ``count`` same-size objects.

        Allocations are sequential first-fit (so the payloads are
        typically contiguous); zero-fill flushes once over coalesced
        spans instead of once per object.  Partial failure rolls back the
        objects already allocated.
        """
        self._alive()
        if count < 0:
            raise PoolError(f"alloc_many count must be >= 0, got {count}")
        offs: list[int] = []
        try:
            for _ in range(count):
                offs.append(self._heap.alloc(size))
        except Exception:
            # roll back the objects already carved out; a failing free()
            # (e.g. a heap left inconsistent by the alloc fault itself)
            # must not shadow the allocation error — the root cause
            for off in offs:
                with contextlib.suppress(Exception):
                    self._heap.free(off)
            raise
        if zero:
            spans = []
            for off in offs:
                payload = self._heap.payload_size(off)
                self.region.zero(off, payload)
                spans.append((off, payload))
            for off, length in coalesce_ranges(spans,
                                               bound=self.region.size):
                self.region.persist(off, length)
        return [PMEMoid(self.uuid, off) for off in offs]

    def free(self, oid: PMEMoid) -> None:
        """Atomic free, ``pmemobj_free``."""
        self._alive()
        self._check_oid(oid)
        self._heap.free(oid.offset)

    def root(self, size: int) -> PMEMoid:
        """``pmemobj_root``: allocate-once root object of >= ``size`` bytes."""
        self._alive()
        if size <= 0:
            raise PoolError("root size must be positive")
        if self._hdr.root_offset:
            if size > self._hdr.root_size:
                raise PoolError(
                    f"root object is {self._hdr.root_size} bytes; "
                    f"cannot grow to {size}"
                )
            return PMEMoid(self.uuid, self._hdr.root_offset)
        oid = self.alloc(size, zero=True)
        self._hdr.root_offset = oid.offset
        self._hdr.root_size = self._heap.payload_size(oid.offset)
        self._hdr.write(self.region)
        return oid

    @property
    def root_oid(self) -> PMEMoid:
        if not self._hdr.root_offset:
            return OID_NULL
        return PMEMoid(self.uuid, self._hdr.root_offset)

    def _check_oid(self, oid: PMEMoid) -> int:
        if oid.is_null:
            raise PmemError("null PMEMoid dereferenced")
        if oid.pool_uuid != self.uuid:
            raise PmemError(
                "PMEMoid belongs to a different pool "
                f"({oid.pool_uuid.hex()} != {self.uuid.hex()})"
            )
        return oid.offset

    def size_of(self, oid: PMEMoid) -> int:
        """Allocated size of an object."""
        return self._heap.payload_size(self._check_oid(oid))

    # ------------------------------------------------------------------
    # data access
    # ------------------------------------------------------------------

    def direct(self, oid: PMEMoid, length: int | None = None) -> memoryview:
        """``pmemobj_direct``: zero-copy view of an object's payload."""
        self._alive()
        off = self._check_oid(oid)
        if length is None:
            length = self._heap.payload_size(off)
        return self.region.view(off, length)

    def np_view(self, oid: PMEMoid, dtype, count: int,
                byte_offset: int = 0) -> np.ndarray:
        """NumPy array aliasing an object's payload (STREAM-PMem's view)."""
        self._alive()
        off = self._check_oid(oid)
        dt = np.dtype(dtype)
        need = byte_offset + count * dt.itemsize
        avail = self._heap.payload_size(off)
        if need > avail:
            raise PmemError(
                f"view of {need} bytes exceeds object payload {avail}"
            )
        mv = self.region.view(off + byte_offset, count * dt.itemsize)
        return np.frombuffer(mv, dtype=dt, count=count)

    def read(self, oid: PMEMoid, length: int | None = None,
             offset: int = 0) -> bytes:
        off = self._check_oid(oid)
        if length is None:
            length = self._heap.payload_size(off) - offset
        self._bounds(off, offset, length)
        return self.region.read(off + offset, length)

    def write(self, oid: PMEMoid, data: bytes | bytearray | memoryview,
              offset: int = 0, persist: bool = True) -> None:
        """Store into an object (non-transactional unless wrapped by the
        caller with :meth:`Transaction.add_range`)."""
        off = self._check_oid(oid)
        self._bounds(off, offset, len(data))
        self.region.write(off + offset, data)
        if persist:
            self.region.persist(off + offset, len(data))

    def persist(self, oid: PMEMoid, length: int | None = None,
                offset: int = 0) -> None:
        off = self._check_oid(oid)
        if length is None:
            length = self._heap.payload_size(off) - offset
        self._bounds(off, offset, length)
        self.region.persist(off + offset, length)

    def _bounds(self, payload_off: int, offset: int, length: int) -> None:
        size = self._heap.payload_size(payload_off)
        if offset < 0 or length < 0 or offset + length > size:
            raise PmemError(
                f"access [{offset}, {offset + length}) outside object of "
                f"{size} bytes"
            )

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    def transaction(self) -> Transaction:
        """Begin (or nest into) a transaction; use as a context manager."""
        self._alive()
        if self._tx is None or not self._tx.active:
            self._tx = Transaction(self._log, self._heap)
        return self._tx

    def tx_add(self, tx: Transaction, oid: PMEMoid, offset: int = 0,
               length: int | None = None) -> None:
        """Snapshot part of an object into the transaction's undo log."""
        off = self._check_oid(oid)
        if length is None:
            length = self._heap.payload_size(off) - offset
        self._bounds(off, offset, length)
        tx.add_range(off + offset, length)

    def tx_write(self, tx: Transaction, oid: PMEMoid,
                 data: bytes | bytearray | memoryview,
                 offset: int = 0) -> None:
        """Snapshot + store in one call."""
        self.tx_write_many(tx, [(oid, data, offset)])

    def tx_write_many(self, tx: Transaction, writes) -> None:
        """Batched :meth:`tx_write`: snapshot every target with a single
        undo-log visibility update, then store.

        ``writes`` is an iterable of ``(oid, data)`` or
        ``(oid, data, offset)`` tuples.  All old contents become durable
        in the log before any store lands, so crash atomicity covers the
        whole batch exactly as it covers one ``tx_write``.
        """
        resolved: list[tuple[int, object]] = []
        for w in writes:
            oid, data = w[0], w[1]
            offset = w[2] if len(w) > 2 else 0
            off = self._check_oid(oid)
            self._bounds(off, offset, len(data))
            resolved.append((off + offset, data))
        tx.add_ranges([(o, len(d)) for o, d in resolved])
        for o, d in resolved:
            self.region.write(o, d)

    def tx_alloc(self, tx: Transaction, size: int,
                 zero: bool = True) -> PMEMoid:
        """Transactional allocation returning a PMEMoid."""
        return self.tx_alloc_many(tx, 1, size, zero)[0]

    def tx_alloc_many(self, tx: Transaction, count: int, size: int,
                      zero: bool = True) -> list[PMEMoid]:
        """Vectorized :meth:`tx_alloc`.

        The per-object journal protocol (reserve → journal ALLOC →
        complete) is kept intact — it is what makes transactional
        allocation leak-free across crashes — while the expensive parts
        (zero-fill, commit-time flushing of the payloads) are batched.
        """
        self._alive()
        if count < 0:
            raise PoolError(f"tx_alloc_many count must be >= 0, got {count}")
        oids: list[PMEMoid] = []
        for _ in range(count):
            off = tx.alloc(size)
            payload = self._heap.payload_size(off)
            if zero:
                self.region.zero(off, payload)
            tx.log_modified(off, payload)
            oids.append(PMEMoid(self.uuid, off))
        return oids

    def tx_free(self, tx: Transaction, oid: PMEMoid) -> None:
        tx.free(self._check_oid(oid))

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------

    def persist_dirty(self) -> int:
        """Flush every tracked dirty/pinned line (coalesced); returns the
        number of cachelines flushed."""
        self._alive()
        before = self.region.flush_count
        self.region.persist()
        return self.region.flush_count - before

    def close(self) -> None:
        """``pmemobj_close``; flushes everything owned by the pool."""
        if self._closed:
            return
        if self._tx is not None and self._tx.active:
            raise PoolError("cannot close a pool with an active transaction")
        self.region.persist()       # dirty + pinned lines, not the pool
        if self._owns_region:
            self.region.close()
        self._closed = True

    def __enter__(self) -> "PmemObjPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
