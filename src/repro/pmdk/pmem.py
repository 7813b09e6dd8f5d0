"""The libpmem layer: byte-addressable regions with persist semantics.

A :class:`PmemRegion` is what ``pmem_map_file`` returns in PMDK: a flat
byte range plus ``persist`` (flush stores to the persistence domain) and
``drain`` (wait for completion).  Three concrete backends share one
:class:`BufferRegion` body — ``view``/``peek``/``read``/``write`` over
a single writable memoryview — and differ only in what backs it:

* :class:`FileRegion` — an mmap, durable across processes (the classic
  DAX-file model);
* :class:`VolatileRegion` — RAM, for PMem *emulation* on a remote NUMA
  socket exactly as the paper does ("emulation of remote sockets … as a
  direct access device");
* :class:`repro.core.namespace.CxlRegion` — a CXL Type-3 device's media
  (defined in :mod:`repro.core` to keep the dependency direction clean).

Pools (:mod:`repro.pmdk.pool`) perform all *metadata* accesses through the
``read``/``write`` API so the crash-injection wrapper can interpose;
bulk array data additionally gets zero-copy views from the buffer
backends, and undo snapshots read old data through ``peek``.

Persist orchestration lives in the base class (template method): every
``write`` records coalesced dirty lines in a :class:`~repro.pmdk.dirty.
DirtyTracker`, every ``view`` *pins* its range (stores through a view
are invisible, so the range is conservatively re-flushed), and
``persist()`` — with an explicit range or, with no arguments, over
exactly the tracked dirty lines — dispatches to the backend's
``_flush``.  ``flush_count`` therefore counts *flushed cachelines*
uniformly on every backend.
"""

from __future__ import annotations

import mmap
import os
from abc import ABC, abstractmethod

from repro.errors import PmemError
from repro.pmdk.dirty import DirtyTracker, line_count
from repro import faults, obs

#: flush granularity — one CPU cacheline
FLUSH_LINE = 64

_ZERO_BLOCK = bytes(1 << 20)


def _byteslike(data) -> bytes | bytearray | memoryview:
    """A length-in-bytes, slice-assignable form of ``data`` — without
    copying when the input is already byte-shaped."""
    if isinstance(data, (bytes, bytearray)):
        return data
    mv = data if isinstance(data, memoryview) else memoryview(data)
    if mv.format == "B" and mv.contiguous:
        return mv
    try:
        return mv.cast("B")
    except TypeError:
        return bytes(mv)


class PmemRegion(ABC):
    """A byte-addressable, optionally persistent memory region."""

    #: human-readable backend tag ("file", "volatile", "cxl", "crash")
    backend: str = "abstract"

    _flush_count: int = 0
    _dirty: DirtyTracker | None = None

    @property
    @abstractmethod
    def size(self) -> int:
        """Region length in bytes."""

    @property
    @abstractmethod
    def persistent(self) -> bool:
        """Whether persisted data survives power loss / process exit."""

    # -- dirty-line bookkeeping -----------------------------------------

    @property
    def dirty(self) -> DirtyTracker:
        """The region's dirty-line tracker (created lazily)."""
        d = self._dirty
        if d is None:
            d = self._dirty = DirtyTracker(self.size, FLUSH_LINE)
        return d

    @property
    def flush_count(self) -> int:
        """Cachelines flushed to the persistence domain so far.

        Maintained by the base-class persist orchestration, so every
        backend reports it — no ``getattr(..., 0)`` fallbacks.
        """
        return self._flush_count

    @property
    def dirty_bytes(self) -> int:
        """Bytes a no-argument :meth:`persist` would flush right now."""
        return 0 if self._dirty is None else self._dirty.dirty_bytes

    def _mark_dirty(self, offset: int, length: int) -> None:
        self.dirty.mark(offset, length)

    def _pin(self, offset: int, length: int) -> None:
        self.dirty.pin(offset, length)

    # -- bounds / lifecycle ---------------------------------------------

    def _check(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise PmemError(
                f"range [{offset:#x}, {offset + length:#x}) outside region "
                f"of {self.size:#x} bytes"
            )

    def _alive(self) -> None:
        """Raise when the region is unusable (closed, crashed, ...)."""

    # -- data access -----------------------------------------------------

    @abstractmethod
    def view(self, offset: int, length: int) -> memoryview:
        """Writable zero-copy view (raises when unsupported).

        Implementations must :meth:`_pin` the range: mutations through
        the view bypass dirty tracking, so the range stays in every
        no-argument persist for the life of the region.
        """

    def peek(self, offset: int, length: int) -> bytes | memoryview:
        """Read-only bytes for an undo snapshot: never pins the range.

        The buffer backends return a zero-copy slice; others copy via
        :meth:`read`.
        """
        return self.read(offset, length)

    @abstractmethod
    def read(self, offset: int, length: int) -> bytes:
        """Copy bytes out."""

    @abstractmethod
    def write(self, offset: int, data: bytes | bytearray | memoryview) -> None:
        """Copy bytes in (not yet durable — call :meth:`persist`)."""

    def zero(self, offset: int, length: int) -> None:
        """Zero-fill a range without materializing ``length`` bytes."""
        self._check(offset, length)
        end = offset + length
        pos = offset
        block = _ZERO_BLOCK
        while pos < end:
            n = min(len(block), end - pos)
            self.write(pos, block if n == len(block)
                       else memoryview(block)[:n])
            pos += n

    # -- persistence ------------------------------------------------------

    def persist(self, offset: int | None = None,
                length: int | None = None) -> None:
        """Flush to the persistence domain (CLWB+fence moral equivalent).

        With ``(offset, length)``: flush that range, as always.  With no
        arguments: flush exactly the tracked dirty lines — every range
        written since the last flush plus every range pinned by a
        zero-copy view — as coalesced, sorted spans.
        """
        self._alive()
        if offset is None:
            if length is not None:
                raise PmemError(
                    "persist() takes (offset, length) or no arguments")
            ranges = self.dirty.take()
        else:
            if length is None:
                raise PmemError(
                    "persist() takes (offset, length) or no arguments")
            self._check(offset, length)
            self.dirty.discard(offset, length)
            ranges = [(offset, length)]
        self._persist_hook()
        if faults.enabled():
            # the fault plane injects power loss / tx crashes here —
            # after the crash wrapper's own hook, before any flushing
            faults.on_persist(self)
        self._flush_ranges(ranges)
        lines = sum(line_count(o, n, FLUSH_LINE) for o, n in ranges)
        self._flush_count += lines
        if obs.metrics_enabled():
            obs.inc("pmdk.persist_calls")
            obs.inc(f"pmdk.flush_lines.{self.backend}", lines)
            obs.inc("pmdk.flush_lines", lines)

    def _persist_hook(self) -> None:
        """Called once per :meth:`persist`, before any flushing (the
        crash wrapper injects failures here)."""

    def _flush_ranges(self, ranges: list[tuple[int, int]]) -> None:
        for off, n in ranges:
            if n:
                self._flush(off, n)

    @abstractmethod
    def _flush(self, offset: int, length: int) -> None:
        """Backend flush of one non-empty, validated range."""

    def drain(self) -> None:
        """Wait for outstanding flushes (SFENCE equivalent)."""

    def persist_all(self) -> None:
        self.persist(0, self.size)

    def close(self) -> None:
        """Release resources; the region must not be used afterwards."""


class BufferRegion(PmemRegion):
    """A region whose bytes live in one writable buffer.

    The shared body of the volatile, file and CXL backends: ``view``
    hands out zero-copy slices (and pins them), ``peek`` a read-only
    slice (unpinned), and ``read``/``write`` copy through the same
    memoryview.  Subclasses supply the buffer, ``persistent``,
    ``_flush`` and ``close``.
    """

    def __init__(self, buf) -> None:
        self._mv = memoryview(buf)
        self._size = len(self._mv)
        self._closed = False

    @property
    def size(self) -> int:
        return self._size

    def _alive(self) -> None:
        if self._closed:
            raise PmemError("region is closed")

    def view(self, offset: int, length: int) -> memoryview:
        self._alive()
        self._check(offset, length)
        self._pin(offset, length)
        return self._mv[offset:offset + length]

    def peek(self, offset: int, length: int) -> memoryview:
        """Read-only zero-copy slice; the range is not pinned."""
        self._alive()
        self._check(offset, length)
        return self._mv[offset:offset + length].toreadonly()

    def read(self, offset: int, length: int) -> bytes:
        self._alive()
        self._check(offset, length)
        return bytes(self._mv[offset:offset + length])

    def write(self, offset: int, data: bytes | bytearray | memoryview) -> None:
        self._alive()
        data = _byteslike(data)
        self._check(offset, len(data))
        self._mv[offset:offset + len(data)] = data
        self._mark_dirty(offset, len(data))


class VolatileRegion(BufferRegion):
    """RAM-backed region — the paper's remote-socket PMem *emulation*.

    ``persist`` is accepted (programs written for real PMem run unchanged)
    but :attr:`persistent` is ``False``: nothing survives the process.
    """

    backend = "volatile"

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise PmemError("region size must be positive")
        super().__init__(bytearray(size))

    @property
    def persistent(self) -> bool:
        return False

    def _flush(self, offset: int, length: int) -> None:
        pass   # RAM: a flush orders nothing

    def close(self) -> None:
        if self._closed:
            return
        try:
            self._mv.release()
        except BufferError:
            pass   # outstanding views keep the buffer alive until GC
        self._closed = True


class FileRegion(BufferRegion):
    """mmap-backed region; durable across processes.

    ``persist`` msyncs the containing pages — on a DAX filesystem this
    would be CLWB; on a regular file it is a page write-back.  Either way
    the durability contract presented to the pool layer is identical.
    """

    backend = "file"

    def __init__(self, path: str, size: int | None = None,
                 create: bool = False) -> None:
        if create:
            if size is None or size <= 0:
                raise PmemError("creating a file region requires a size")
            fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
            existing = os.fstat(fd).st_size
            if existing:
                os.close(fd)
                raise PmemError(
                    f"pmem file {path!r} already exists ({existing} bytes); "
                    "create neither resizes nor overwrites a file")
            try:
                os.ftruncate(fd, size)
            except OSError:
                os.close(fd)
                raise
        else:
            if not os.path.exists(path):
                raise PmemError(f"pmem file {path!r} does not exist")
            fd = os.open(path, os.O_RDWR)
            actual = os.fstat(fd).st_size
            if size is None:
                size = actual
            elif size != actual:
                os.close(fd)
                raise PmemError(
                    f"pmem file {path!r} is {actual} bytes, expected {size}"
                )
        if size == 0:
            os.close(fd)
            raise PmemError(f"pmem file {path!r} is empty")
        self.path = path
        self._fd = fd
        self._mm = mmap.mmap(fd, size)
        super().__init__(self._mm)

    @property
    def persistent(self) -> bool:
        return True

    def _flush(self, offset: int, length: int) -> None:
        page = mmap.PAGESIZE
        start = (offset // page) * page
        end = offset + length
        self._mm.flush(start, min(end, self.size) - start)

    def close(self) -> None:
        if self._closed:
            return
        self.persist()          # dirty + pinned lines only
        try:
            self._mv.release()
            self._mm.close()
        except BufferError:
            # NumPy views over the mapping are still alive; the data is
            # flushed and the mapping is reclaimed at process exit.  This
            # mirrors pmem_unmap semantics with outstanding pointers.
            pass
        else:
            os.close(self._fd)
        self._closed = True


def map_file(path: str, size: int | None = None,
             create: bool = False) -> FileRegion:
    """``pmem_map_file`` equivalent."""
    return FileRegion(path, size, create)


def memcpy_persist(region: PmemRegion, offset: int,
                   data: bytes | bytearray | memoryview) -> None:
    """``pmem_memcpy_persist``: store + flush in one call."""
    region.write(offset, data)
    region.persist(offset, len(data))
