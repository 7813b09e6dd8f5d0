"""STREAM-PMem: the three arrays live in a pmemobj pool.

Executable form of the paper's Listing 2: instead of static C arrays, the
benchmark opens a pool, allocates ``a``, ``b``, ``c`` as persistent
objects anchored in the root, *initiates* them inside a transaction, and
then runs the unmodified STREAM timing loop over views of pool memory.

Because the pool backend is a URI (:mod:`repro.core.provider`), the same
class benchmarks a DAX-style file, the volatile remote-socket emulation,
or a CXL namespace — which is the paper's entire point.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro import obs
from repro.core.provider import pool_from_uri
from repro.core.runtime import CxlPmemRuntime
from repro.errors import BenchmarkError
from repro.memsim.traffic import KERNEL_TRAFFIC
from repro.pmdk.containers import PersistentArray
from repro.pmdk.oid import SERIALIZED_SIZE, PMEMoid
from repro.pmdk.pool import PmemObjPool
from repro.pmdk.tx import undo_bytes_needed
from repro.stream.config import StreamConfig
from repro.stream.kernels import init_arrays
from repro.stream.native import NativeResult, _run_loop, run_single

LAYOUT = "stream-pmem"
_ROOT_SIZE = 3 * SERIALIZED_SIZE      # the my_root struct: three OIDs
_ARRAY_OVERHEAD = 64                  # PersistentArray header


def pool_size_for(config: StreamConfig, slack: float = 1.5) -> int:
    """A pool size comfortably holding the three arrays plus metadata."""
    data = 3 * (config.array_bytes + _ARRAY_OVERHEAD)
    return int(data * slack) + (1 << 20)


@dataclass
class StreamPmemResult:
    """Native timing plus persistence bookkeeping."""

    native: NativeResult
    backend: str
    persistent: bool
    flushes: int

    def best_rate_gbps(self, kernel: str) -> float:
        return self.native.best_rate_gbps(kernel)


class StreamPmem:
    """The STREAM-PMem application.

    Typical use::

        sp = StreamPmem.create("file:///tmp/stream.pool", config)
        result = sp.run()
        sp.close()
    """

    def __init__(self, pool: PmemObjPool, config: StreamConfig,
                 backend: str) -> None:
        self.pool = pool
        self.config = config
        self.backend = backend
        self.arrays: tuple[PersistentArray, ...] = ()

    # ------------------------------------------------------------------
    # pool lifecycle (Listing 2's pmemobj_create / pmemobj_open + root)
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, uri: str, config: StreamConfig,
               runtime: CxlPmemRuntime | None = None) -> "StreamPmem":
        """Create the pool, allocate + initiate the three arrays."""
        pool = pool_from_uri(uri, layout=LAYOUT,
                             size=pool_size_for(config), create=True,
                             runtime=runtime)
        sp = cls(pool, config, backend=pool.region.backend)
        sp._allocate()
        return sp

    @classmethod
    def open(cls, uri: str, config: StreamConfig,
             runtime: CxlPmemRuntime | None = None) -> "StreamPmem":
        """Reopen an existing STREAM-PMem pool and reattach the arrays."""
        pool = pool_from_uri(uri, layout=LAYOUT, runtime=runtime)
        sp = cls(pool, config, backend=pool.region.backend)
        root = pool.root(_ROOT_SIZE)
        raw = pool.read(root, _ROOT_SIZE)
        oids = [PMEMoid.unpack(raw[i * SERIALIZED_SIZE:(i + 1) * SERIALIZED_SIZE])
                for i in range(3)]
        if any(o.is_null for o in oids):
            raise BenchmarkError(
                f"pool at {uri} has no initialized STREAM arrays"
            )
        sp.arrays = tuple(PersistentArray.from_oid(pool, o) for o in oids)
        for arr in sp.arrays:
            if arr.size != config.array_size:
                raise BenchmarkError(
                    f"pool arrays have {arr.size} elements, config wants "
                    f"{config.array_size}"
                )
        return sp

    def _allocate(self) -> None:
        """The *initiate* step from the paper: transactional allocation and
        initialization of a, b, c anchored in the root object."""
        pool, cfg = self.pool, self.config
        root = pool.root(_ROOT_SIZE)
        with pool.transaction() as tx:
            arrays = tuple(PersistentArray.create_many(
                pool, 3, cfg.array_size, cfg.dtype, tx=tx, zero=False))
            packed = b"".join(arr.oid.pack() for arr in arrays)
            pool.tx_write_many(tx, [(root, packed)])
        self.arrays = arrays
        self.initiate()

    def _undo_log_fits(self, arrays) -> bool:
        """Would snapshotting every array in ``arrays`` (in one
        transaction) fit the pool's undo log?"""
        need = sum(undo_bytes_needed(arr.nbytes) for arr in arrays)
        return need <= self.pool.log_capacity

    def initiate(self) -> None:
        """STREAM's init (a=1, b=2, c=0; a*=2) — the paper's *initiate*.

        When the three arrays fit the pool's undo log the initialization
        runs inside a transaction (all-or-nothing); for paper-scale arrays
        (3 × 800 MB ≫ any log) it falls back to store+persist, which is
        safe because initialization is idempotent — a crash mid-init is
        recovered by running ``initiate`` again, exactly like re-running
        the benchmark setup.
        """
        a, b, c = self._views()
        if self._undo_log_fits(self.arrays):
            with self.pool.transaction() as tx:
                for arr in self.arrays:
                    arr.snapshot(tx)
                init_arrays(a, b, c)
        else:
            init_arrays(a, b, c)
            for arr in self.arrays:
                arr.persist()

    def _views(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not self.arrays:
            raise BenchmarkError("arrays not allocated; call create/open")
        a, b, c = (arr.as_ndarray() for arr in self.arrays)
        return a, b, c

    # ------------------------------------------------------------------
    # benchmark
    # ------------------------------------------------------------------

    def run(self, persist_each_iteration: bool = True,
            validate: bool = True) -> StreamPmemResult:
        """Run the STREAM timing loop over the persistent arrays.

        ``persist_each_iteration`` models App-Direct semantics: after
        STREAM's whole timing loop, each of the three arrays is flushed
        to the persistence domain once — three ``persist`` calls however
        large ``config.ntimes`` is, and outside the timed kernels.
        Nothing is persisted inside the loop; the name is kept because
        callers pass it by keyword.
        """
        flush_before = self.pool.region.flush_count
        with obs.span("stream.run", meta={"backend": self.backend,
                                          "persist": persist_each_iteration}):
            native = run_single(self.config, arrays=self._views(),
                                validate=validate)
            if persist_each_iteration:
                for arr in self.arrays:
                    arr.persist()
        return self._result(native, flush_before)

    def run_transactional(self, validate: bool = True) -> StreamPmemResult:
        """Run STREAM with every kernel invocation inside a transaction.

        The paper highlights pmemobj's *transaction* function ("either all
        of the modifications are successfully applied or none of them take
        effect"); this mode runs STREAM's own timing loop with each kernel
        in an undo-logged transaction over the array it writes — the fully
        crash-consistent (and correspondingly slower) way to run the
        benchmark.  Each kernel's time includes its transaction.  Only
        feasible when one array fits the pool's undo log.

        Raises:
            BenchmarkError: the arrays exceed the transaction log.
        """
        if not all(self._undo_log_fits([arr]) for arr in self.arrays):
            raise BenchmarkError(
                f"arrays of {self.arrays[0].nbytes} bytes exceed the "
                f"undo log ({self.pool.log_capacity} bytes); use run()"
            )
        flush_before = self.pool.region.flush_count
        with obs.span("stream.run_tx", meta={"backend": self.backend,
                                             "ntimes": self.config.ntimes}):
            native = _run_loop(self.config, *self._views(), validate,
                               self._kernel_tx)
        return self._result(native, flush_before)

    @contextmanager
    def _kernel_tx(self, kernel: str) -> Iterator[None]:
        """One kernel's transaction, snapshotting the array it writes."""
        written = self.arrays["abc".index(KERNEL_TRAFFIC[kernel].written)]
        with self.pool.transaction() as tx:
            written.snapshot(tx)
            yield

    def _result(self, native: NativeResult,
                flush_before: int) -> StreamPmemResult:
        """The result of a run that began at ``flush_before`` flushes."""
        flushes = self.pool.region.flush_count - flush_before
        obs.inc("stream.runs")
        obs.inc("stream.flushes", flushes)
        return StreamPmemResult(
            native=native,
            backend=self.backend,
            persistent=self.pool.persistent,
            flushes=flushes,
        )

    def close(self) -> None:
        self.pool.close()

    def __enter__(self) -> "StreamPmem":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
