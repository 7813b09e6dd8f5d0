"""Crash-consistent persistent heap.

The pool's object space is a run of *chunks*, each led by one 64-byte
(cacheline-aligned, hence atomically flushable) header carrying a state
machine::

    FREE -> ALLOCATING -> ALLOCATED -> FREEING -> FREE

The heap keeps one invariant: no two adjacent chunks are both free.
Every transition is persisted before the operation proceeds, so a crash at
any point leaves a header whose state names exactly what recovery must do:

* ``ALLOCATING`` — the allocation never completed; revert to ``FREE`` with
  the pre-split size (a half-written split remainder becomes unreachable
  and is later overwritten);
* ``FREEING``    — the free never completed; finish it.

``prev_size`` is exact outside recovery, which is one walk
(:func:`recovery_walk`) that also folds each run of free chunks into its
first chunk with one header write.

The free-chunk index is volatile and rebuilt on open, as in PMDK's heap.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, replace
from typing import Iterator

from repro.errors import AllocError, PoolCorruptionError
from repro.pmdk.pmem import PmemRegion

HEADER_SIZE = 64
#: allocation granularity — payloads are multiples of one cacheline
ALIGN = 64
MIN_PAYLOAD = 64

MAGIC = 0x4B4E4843  # "CHNK"

STATE_FREE = 1
STATE_ALLOCATED = 2
STATE_ALLOCATING = 3
STATE_FREEING = 4

_STATE_NAMES = {STATE_FREE: "free", STATE_ALLOCATED: "allocated",
                STATE_ALLOCATING: "allocating", STATE_FREEING: "freeing"}

_HDR_FMT = "<IIQQI"
_HDR_LEN = struct.calcsize(_HDR_FMT)      # 28 bytes, padded to 64


def _crc(state: int, size: int, prev_size: int) -> int:
    return zlib.crc32(struct.pack("<IQQ", state, size, prev_size))


def _pack_header(state: int, size: int, prev_size: int) -> bytes:
    raw = struct.pack(_HDR_FMT, MAGIC, state, size, prev_size,
                      _crc(state, size, prev_size))
    return raw + b"\x00" * (HEADER_SIZE - _HDR_LEN)


@dataclass(frozen=True)
class ChunkInfo:
    """Decoded chunk header plus its location."""

    offset: int          # header offset in the region
    state: int
    size: int            # payload bytes
    prev_size: int

    @property
    def payload_offset(self) -> int:
        return self.offset + HEADER_SIZE

    @property
    def next_offset(self) -> int:
        return self.offset + HEADER_SIZE + self.size

    @property
    def is_free(self) -> bool:
        return self.state == STATE_FREE

    def __str__(self) -> str:
        return (f"{_STATE_NAMES[self.state]} {self.size} B "
                f"(prev {self.prev_size} B)")


def recovery_walk(chunks: list[ChunkInfo]
                  ) -> tuple[list[tuple[ChunkInfo, ChunkInfo]], dict[int, int]]:
    """Recovery's one walk over a heap's chunk list, front to back.

    Frees each transient chunk, folds each run of free chunks into its
    first chunk and makes every ``prev_size`` exact.  Returns the header
    rewrites as ``(on media, recovered)`` pairs in address order, and the
    recovered heap's free index (header offset -> payload size).
    """
    recovered: list[ChunkInfo] = []
    for c in chunks:
        free = c.state != STATE_ALLOCATED
        if free and recovered and recovered[-1].is_free:
            run = recovered[-1]
            recovered[-1] = replace(
                run, size=c.next_offset - run.payload_offset)
        else:
            recovered.append(ChunkInfo(
                c.offset, STATE_FREE if free else STATE_ALLOCATED, c.size,
                recovered[-1].size if recovered else 0))
    on_media = {c.offset: c for c in chunks}
    return ([(on_media[c.offset], c) for c in recovered
             if c != on_media[c.offset]],
            {c.offset: c.size for c in recovered if c.is_free})


def align_up(n: int, align: int = ALIGN) -> int:
    return (n + align - 1) // align * align


class PersistentHeap:
    """First-fit allocator over ``region[heap_offset : heap_offset+heap_size)``."""

    def __init__(self, region: PmemRegion, heap_offset: int,
                 heap_size: int) -> None:
        if heap_offset % ALIGN:
            raise AllocError(f"heap offset {heap_offset:#x} not {ALIGN}-aligned")
        if heap_size < HEADER_SIZE + MIN_PAYLOAD:
            raise AllocError(f"heap of {heap_size} bytes is too small")
        if heap_size % ALIGN:
            raise AllocError(f"heap size {heap_size:#x} not {ALIGN}-aligned")
        self.region = region
        self.heap_offset = heap_offset
        self.heap_size = heap_size
        self._free: dict[int, int] = {}       # header offset -> payload size

    # ------------------------------------------------------------------
    # formatting / opening
    # ------------------------------------------------------------------

    @classmethod
    def format(cls, region: PmemRegion, heap_offset: int,
               heap_size: int) -> "PersistentHeap":
        """Initialize the heap as one giant free chunk."""
        heap = cls(region, heap_offset, heap_size)
        payload = heap_size - HEADER_SIZE
        heap._write_header(heap_offset, STATE_FREE, payload, 0)
        heap._free = {heap_offset: payload}
        return heap

    @classmethod
    def open(cls, region: PmemRegion, heap_offset: int,
             heap_size: int) -> "PersistentHeap":
        """Open an existing heap: recover interrupted operations and
        rebuild the volatile free index."""
        heap = cls(region, heap_offset, heap_size)
        heap.recover(list(heap.chunks()))
        return heap

    # ------------------------------------------------------------------
    # header I/O
    # ------------------------------------------------------------------

    def _write_header(self, offset: int, state: int, size: int,
                      prev_size: int) -> None:
        self.region.write(offset, _pack_header(state, size, prev_size))
        self.region.persist(offset, HEADER_SIZE)

    def _read_header(self, offset: int) -> ChunkInfo:
        raw = self.region.read(offset, _HDR_LEN)
        magic, state, size, prev_size, crc = struct.unpack(_HDR_FMT, raw)
        if magic != MAGIC:
            raise PoolCorruptionError(
                f"bad chunk magic {magic:#x} at {offset:#x}"
            )
        if state not in _STATE_NAMES:
            raise PoolCorruptionError(
                f"bad chunk state {state} at {offset:#x}"
            )
        if crc != _crc(state, size, prev_size):
            raise PoolCorruptionError(f"chunk header CRC mismatch at {offset:#x}")
        if size % ALIGN or size < MIN_PAYLOAD:
            raise PoolCorruptionError(
                f"bad chunk size {size:#x} at {offset:#x}"
            )
        if offset + HEADER_SIZE + size > self.heap_offset + self.heap_size:
            raise PoolCorruptionError(
                f"chunk at {offset:#x} overruns the heap"
            )
        return ChunkInfo(offset, state, size, prev_size)

    # ------------------------------------------------------------------
    # walking / recovery
    # ------------------------------------------------------------------

    def chunks(self) -> Iterator[ChunkInfo]:
        """Walk every chunk front to back."""
        pos = self.heap_offset
        end = self.heap_offset + self.heap_size
        while pos < end:
            info = self._read_header(pos)
            yield info
            pos = info.next_offset
        if pos != end:
            raise PoolCorruptionError(
                f"heap walk ended at {pos:#x}, expected {end:#x}"
            )  # pragma: no cover - _read_header catches overruns first

    def recover(self, chunks: list[ChunkInfo]) -> int:
        """Recover the heap from its chunk list (as :meth:`chunks` read
        it): write the headers :func:`recovery_walk` rewrites and rebuild
        the free index.  Returns the number of headers rewritten."""
        rewrites, self._free = recovery_walk(chunks)
        for _, c in rewrites:
            self._write_header(c.offset, c.state, c.size, c.prev_size)
        return len(rewrites)

    # ------------------------------------------------------------------
    # alloc / free
    # ------------------------------------------------------------------

    def reserve(self, size: int) -> tuple[int, int]:
        """Pick a free chunk for ``size`` bytes without touching media.

        Returns ``(header_offset, aligned_size)``; the chunk leaves the
        volatile free index so no concurrent reservation can take it, but
        nothing is persistent yet.  Callers journal the intended payload
        offset (``header_offset + HEADER_SIZE``) *before* calling
        :meth:`complete` — this ordering is what makes transactional
        allocation leak-free across crashes.

        Raises:
            AllocError: no free chunk is large enough.
        """
        if size <= 0:
            raise AllocError(f"allocation size must be positive, got {size}")
        need = max(align_up(size), MIN_PAYLOAD)

        chosen = None
        for off in sorted(self._free):
            if self._free[off] >= need:
                chosen = off
                break
        if chosen is None:
            raise AllocError(
                f"out of persistent memory: need {need} bytes, largest free "
                f"chunk is {max(self._free.values(), default=0)}"
            )
        del self._free[chosen]
        return chosen, need

    def cancel(self, reservation: tuple[int, int]) -> None:
        """Return a reservation to the free index (nothing was persisted)."""
        chosen, _ = reservation
        info = self._read_header(chosen)
        if not info.is_free:
            raise AllocError(
                f"cancelling a reservation whose chunk at {chosen:#x} is "
                "no longer free"
            )
        self._free[chosen] = info.size

    def complete(self, reservation: tuple[int, int]) -> int:
        """Perform the persistent allocation of a reservation."""
        chosen, need = reservation
        info = self._read_header(chosen)
        if not info.is_free:
            raise AllocError(
                f"completing a reservation whose chunk at {chosen:#x} is "
                "not free"
            )

        # 1. mark in-progress
        self._write_header(chosen, STATE_ALLOCATING, info.size, info.prev_size)

        remainder = info.size - need
        if remainder >= HEADER_SIZE + MIN_PAYLOAD:
            rem_off = chosen + HEADER_SIZE + need
            rem_payload = remainder - HEADER_SIZE
            # 2. write the split remainder (unreachable until step 4)
            self._write_header(rem_off, STATE_FREE, rem_payload, need)
            # 3. fix the following chunk's prev link
            self._link(info.next_offset, rem_payload)
            # 4. commit: shrink + ALLOCATED in one atomic header write
            self._write_header(chosen, STATE_ALLOCATED, need, info.prev_size)
            self._free[rem_off] = rem_payload
        else:
            need = info.size   # no split: hand out the whole chunk
            self._write_header(chosen, STATE_ALLOCATED, need, info.prev_size)

        return chosen + HEADER_SIZE

    def alloc(self, size: int) -> int:
        """Allocate ``size`` payload bytes; returns the payload offset.

        Non-transactional path: reserve + complete back to back.

        Raises:
            AllocError: no free chunk is large enough.
        """
        return self.complete(self.reserve(size))

    def free(self, payload_offset: int) -> None:
        """Free a previously allocated payload, merging it with a free
        successor and a free predecessor.

        FREEING is persisted first, so no stale header left inside a free
        chunk reads ALLOCATED.  The one header write at the merged chunk's
        start commits the free; the next chunk's ``prev_size`` follows.

        Raises:
            AllocError: the offset does not name an allocated object.
        """
        info = self._object(payload_offset)
        self._write_header(info.offset, STATE_FREEING, info.size,
                           info.prev_size)
        start, prev_size, end = info.offset, info.prev_size, info.next_offset
        if end in self._free:           # free and not reserved
            end += HEADER_SIZE + self._free.pop(end)
        pred = info.offset - HEADER_SIZE - info.prev_size
        if pred in self._free:
            del self._free[pred]
            start, prev_size = pred, self._read_header(pred).prev_size
        size = end - start - HEADER_SIZE
        self._write_header(start, STATE_FREE, size, prev_size)
        self._free[start] = size
        if size != info.size:
            self._link(end, size)

    def _link(self, offset: int, prev_size: int) -> None:
        """Point the chunk at ``offset``, unless it is the heap's end, at
        a predecessor of ``prev_size`` payload bytes."""
        if offset < self.heap_offset + self.heap_size:
            n = self._read_header(offset)
            self._write_header(offset, n.state, n.size, prev_size)

    def _object(self, payload_offset: int) -> ChunkInfo:
        """The header of the allocated object at ``payload_offset``.

        Raises:
            AllocError: the offset does not name an allocated object.
        """
        offset = payload_offset - HEADER_SIZE
        try:
            if not (self.heap_offset <= offset
                    <= self.heap_offset + self.heap_size - HEADER_SIZE):
                raise AllocError("outside the heap")
            info = self._read_header(offset)
            if info.state != STATE_ALLOCATED:
                raise AllocError(f"its chunk is {info}")
        except (AllocError, PoolCorruptionError) as exc:
            raise AllocError(f"{payload_offset:#x} does not name an "
                             f"allocated object: {exc}") from None
        return info

    def payload_size(self, payload_offset: int) -> int:
        """Allocated payload size at ``payload_offset``.

        Raises:
            AllocError: the offset does not name an allocated object.
        """
        return self._object(payload_offset).size

    def is_allocated(self, payload_offset: int) -> bool:
        try:
            self._object(payload_offset)
            return True
        except AllocError:
            return False

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------

    @property
    def free_bytes(self) -> int:
        return sum(self._free.values())

    @property
    def largest_free(self) -> int:
        return max(self._free.values(), default=0)

    @property
    def used_bytes(self) -> int:
        return sum(c.size for c in self.chunks()
                   if c.state == STATE_ALLOCATED)
