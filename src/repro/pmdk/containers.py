"""Persistent containers: typed arrays and a linked list.

:class:`PersistentArray` is the structure STREAM-PMem needs — the paper's
Listing 2 replaces STREAM's three static C arrays with pmemobj-allocated
ones; here they become NumPy arrays aliasing pool memory.

:class:`PersistentList` is a pmemobj-style ``POBJ_LIST``: a singly-linked
list whose links are PMEMoids, updated transactionally.  The checkpoint
manager uses it as its catalog.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator

import numpy as np

from repro.errors import PmemError
from repro.pmdk.dirty import coalesce_ranges
from repro.pmdk.oid import OID_NULL, PMEMoid, SERIALIZED_SIZE
from repro.pmdk.pool import PmemObjPool
from repro.pmdk.tx import Transaction

_ARR_MAGIC = 0x52524150   # "PARR"
_ARR_FMT = "<I16sIQQQQI"  # magic, dtype, ndim, shape[4], crc
_ARR_HDR = 64
_MAX_DIMS = 4


def _arr_crc(dtype_b: bytes, ndim: int, shape: tuple[int, ...]) -> int:
    padded = tuple(shape) + (0,) * (_MAX_DIMS - len(shape))
    return zlib.crc32(struct.pack("<16sIQQQQ", dtype_b, ndim, *padded))


class PersistentArray:
    """A typed n-dimensional array stored in a pmemobj pool."""

    def __init__(self, pool: PmemObjPool, oid: PMEMoid,
                 shape: tuple[int, ...], dtype: np.dtype) -> None:
        self.pool = pool
        self.oid = oid
        self.shape = shape
        self.dtype = dtype

    # -- construction -----------------------------------------------------

    @classmethod
    def create(cls, pool: PmemObjPool, shape: tuple[int, ...] | int,
               dtype="float64", tx: Transaction | None = None,
               zero: bool = True) -> "PersistentArray":
        """Allocate and header-initialize a new array.

        Inside a transaction the allocation rolls back on abort.  Pass
        ``zero=False`` when the caller initializes every element anyway
        (skips a full zero-fill pass over the payload).
        """
        return cls.create_many(pool, 1, shape, dtype, tx=tx, zero=zero)[0]

    @classmethod
    def create_many(cls, pool: PmemObjPool, count: int,
                    shape: tuple[int, ...] | int, dtype="float64",
                    tx: Transaction | None = None,
                    zero: bool = True) -> list["PersistentArray"]:
        """Allocate ``count`` identically-shaped arrays via the pool's
        vectorized allocation; headers are flushed in coalesced spans
        (or at transaction commit)."""
        if isinstance(shape, int):
            shape = (shape,)
        if not shape or len(shape) > _MAX_DIMS:
            raise PmemError(f"shape must have 1..{_MAX_DIMS} dims, got {shape}")
        if any(s <= 0 for s in shape):
            raise PmemError(f"shape dims must be positive, got {shape}")
        dt = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dt.itemsize
        total = _ARR_HDR + nbytes
        shape = tuple(shape)

        if tx is not None:
            oids = pool.tx_alloc_many(tx, count, total, zero=zero)
        else:
            oids = pool.alloc_many(count, total, zero=zero)
        arrays = [cls(pool, oid, shape, dt) for oid in oids]
        for arr in arrays:
            # commit flushes tx-allocated payloads (log_modified covers
            # the header); non-tx headers get one coalesced flush below
            arr._write_header(persist=False)
        if tx is None:
            spans = [(arr.oid.offset, _ARR_HDR) for arr in arrays]
            for off, length in coalesce_ranges(spans,
                                               bound=pool.region.size):
                pool.region.persist(off, length)
        return arrays

    def _write_header(self, persist: bool = True) -> None:
        dtype_b = self.dtype.str.encode().ljust(16, b"\x00")
        padded = self.shape + (0,) * (_MAX_DIMS - len(self.shape))
        hdr = struct.pack(_ARR_FMT, _ARR_MAGIC, dtype_b, len(self.shape),
                          *padded, _arr_crc(dtype_b, len(self.shape),
                                            self.shape))
        self.pool.write(self.oid, hdr.ljust(_ARR_HDR, b"\x00"), offset=0,
                        persist=persist)

    @classmethod
    def from_oid(cls, pool: PmemObjPool, oid: PMEMoid) -> "PersistentArray":
        """Reattach to an existing array (after pool reopen)."""
        raw = pool.read(oid, struct.calcsize(_ARR_FMT), offset=0)
        magic, dtype_b, ndim, *rest = struct.unpack(_ARR_FMT, raw)
        shape4, crc = tuple(rest[:_MAX_DIMS]), rest[_MAX_DIMS]
        if magic != _ARR_MAGIC:
            raise PmemError(f"object at {oid.offset:#x} is not a PersistentArray")
        if not 1 <= ndim <= _MAX_DIMS:
            raise PmemError(f"bad array ndim {ndim}")
        if crc != _arr_crc(dtype_b, ndim, shape4[:ndim]):
            raise PmemError("persistent array header CRC mismatch")
        dt = np.dtype(dtype_b.rstrip(b"\x00").decode())
        shape = shape4[:ndim]
        need = _ARR_HDR + int(np.prod(shape)) * dt.itemsize
        if pool.size_of(oid) < need:
            raise PmemError("array payload smaller than its header claims")
        return cls(pool, oid, shape, dt)

    # -- data access ------------------------------------------------------

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape)) * self.dtype.itemsize

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def as_ndarray(self) -> np.ndarray:
        """Zero-copy view (requires a view-capable backend)."""
        flat = self.pool.np_view(self.oid, self.dtype, self.size,
                                 byte_offset=_ARR_HDR)
        return flat.reshape(self.shape)

    def read(self) -> np.ndarray:
        """Copy out (works on every backend, including crash regions)."""
        raw = self.pool.read(self.oid, self.nbytes, offset=_ARR_HDR)
        return np.frombuffer(raw, dtype=self.dtype).reshape(self.shape).copy()

    def write(self, values: np.ndarray, persist: bool = True,
              tx: Transaction | None = None) -> None:
        """Store ``values`` into the array (optionally transactionally)."""
        values = np.ascontiguousarray(values, dtype=self.dtype)
        if values.shape != self.shape:
            raise PmemError(
                f"shape mismatch: array is {self.shape}, values {values.shape}"
            )
        if tx is not None:
            self.pool.tx_add(tx, self.oid, _ARR_HDR, self.nbytes)
        self.pool.write(self.oid, values.tobytes(), offset=_ARR_HDR,
                        persist=persist and tx is None)

    def persist(self) -> None:
        """Flush the data range."""
        self.pool.persist(self.oid, self.nbytes, offset=_ARR_HDR)

    def snapshot(self, tx: Transaction) -> None:
        """Undo-log the whole data range before in-place mutation."""
        self.pool.tx_add(tx, self.oid, _ARR_HDR, self.nbytes)

    def free(self, tx: Transaction | None = None) -> None:
        if tx is not None:
            self.pool.tx_free(tx, self.oid)
        else:
            self.pool.free(self.oid)


# ---------------------------------------------------------------------------
# linked list
# ---------------------------------------------------------------------------

_NODE_FMT = "<I"          # value length; next-oid packed separately
_NODE_HDR = SERIALIZED_SIZE + 8   # next oid (24) + length (4) + pad (4)


class PersistentList:
    """A transactional singly-linked list of byte-string values.

    The list head is one PMEMoid stored in an *anchor* object; nodes hold
    ``[next PMEMoid][length][value]``.  All mutations run inside
    transactions so a crash never tears a link.
    """

    def __init__(self, pool: PmemObjPool, anchor: PMEMoid) -> None:
        self.pool = pool
        self.anchor = anchor

    @classmethod
    def create(cls, pool: PmemObjPool,
               tx: Transaction | None = None) -> "PersistentList":
        """Allocate a new empty list anchor."""
        if tx is not None:
            anchor = pool.tx_alloc(tx, SERIALIZED_SIZE)
        else:
            anchor = pool.alloc(SERIALIZED_SIZE, zero=True)
        pool.write(anchor, OID_NULL.pack(), offset=0, persist=tx is None)
        return cls(pool, anchor)

    def _head(self) -> PMEMoid:
        return PMEMoid.unpack(self.pool.read(self.anchor, SERIALIZED_SIZE))

    def _node_next(self, node: PMEMoid) -> PMEMoid:
        return PMEMoid.unpack(self.pool.read(node, SERIALIZED_SIZE))

    def _node_value(self, node: PMEMoid) -> bytes:
        ln = struct.unpack(
            _NODE_FMT,
            self.pool.read(node, 4, offset=SERIALIZED_SIZE))[0]
        return self.pool.read(node, ln, offset=_NODE_HDR)

    def push_front(self, value: bytes) -> PMEMoid:
        """Prepend ``value``; atomic under crash."""
        with self.pool.transaction() as tx:
            node = self.pool.tx_alloc(tx, _NODE_HDR + max(len(value), 1))
            head = self._head()
            payload = head.pack() + struct.pack(_NODE_FMT, len(value))
            payload = payload.ljust(_NODE_HDR, b"\x00") + value
            self.pool.write(node, payload, persist=False)
            tx.log_modified(node.offset, len(payload))
            self.pool.tx_write(tx, self.anchor, node.pack(), offset=0)
        return node

    def pop_front(self) -> bytes:
        """Remove and return the first value.

        Raises:
            PmemError: list is empty.
        """
        head = self._head()
        if head.is_null:
            raise PmemError("pop from empty PersistentList")
        value = self._node_value(head)
        nxt = self._node_next(head)
        with self.pool.transaction() as tx:
            self.pool.tx_write(tx, self.anchor, nxt.pack(), offset=0)
            self.pool.tx_free(tx, head)
        return value

    def __iter__(self) -> Iterator[bytes]:
        node = self._head()
        while not node.is_null:
            yield self._node_value(node)
            node = self._node_next(node)

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def nodes(self) -> Iterator[PMEMoid]:
        node = self._head()
        while not node.is_null:
            yield node
            node = self._node_next(node)

    def unlink(self, node: PMEMoid, tx: Transaction) -> None:
        """Remove ``node`` from the chain inside an ongoing transaction.

        The caller owns the transaction, so the unlink can be made atomic
        with other updates (e.g. freeing the objects the node referenced).

        Raises:
            PmemError: the node is not in this list.
        """
        prev: PMEMoid | None = None
        cur = self._head()
        while not cur.is_null:
            if cur == node:
                nxt = self._node_next(cur)
                target = self.anchor if prev is None else prev
                self.pool.tx_write(tx, target, nxt.pack(), offset=0)
                self.pool.tx_free(tx, cur)
                return
            prev, cur = cur, self._node_next(cur)
        raise PmemError(f"node at {node.offset:#x} is not in this list")

    def clear(self) -> None:
        """Free every node (one transaction per node, each atomic)."""
        while not self._head().is_null:
            self.pop_front()
