"""Vectorized access-heat tracking at page granularity.

The tiering engine needs to know which pages are hot *without* paying
per-access Python work on the datapath.  :class:`HeatTracker` therefore
accumulates raw access counts per epoch (one ``np.bincount`` over the
epoch's page-id batch) and folds an exponential decay into the epoch
boundary:

    ``heat = heat * decay + epoch_counts``

so a page's heat is a geometrically weighted access rate — recent epochs
dominate, and a page untouched for ``k`` epochs retains ``decay**k`` of
its old heat.

Two backends produce **bit-identical** results (``backend=``):

* ``"scalar"`` — the reference: a Python loop over the batch for the
  counts and an element-wise Python loop for the decay fold;
* ``"vector"`` — ``np.bincount`` + one vectorized multiply-add (the
  same two IEEE-754 float64 roundings per element as the scalar loop,
  so equality is exact, not approximate);
* ``"auto"`` (default) — the vector path once the page count reaches
  :data:`HEAT_VECTORIZE_THRESHOLD`, mirroring the DES dispatch
  convention (there is no compiled heat kernel).

``benchmarks/bench_tiering.py`` gates the vector path at >= 10x over
the scalar reference at >= 64k pages.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import TieringError

__all__ = [
    "HEAT_BACKENDS",
    "HEAT_VECTORIZE_THRESHOLD",
    "HeatTracker",
]

#: ``backend="auto"`` switches to the vectorized fold once the tracker
#: covers at least this many pages (below it the NumPy call overhead
#: rivals the loop cost).
HEAT_VECTORIZE_THRESHOLD = 64

#: valid ``backend=`` values
HEAT_BACKENDS = ("auto", "scalar", "vector")


class HeatTracker:
    """Per-page access counters with exponential decay at epoch folds.

    Args:
        n_pages: pages tracked (ids ``0 .. n_pages-1``).
        decay: per-epoch retention factor in ``[0, 1)``.
        backend: see :data:`HEAT_BACKENDS`.
    """

    def __init__(self, n_pages: int, decay: float = 0.5,
                 backend: str = "auto") -> None:
        if n_pages < 1:
            raise TieringError("heat tracker needs at least one page")
        if not 0.0 <= decay < 1.0:
            raise TieringError(f"decay must be in [0, 1), got {decay}")
        if backend not in HEAT_BACKENDS:
            raise TieringError(
                f"unknown heat backend {backend!r}; "
                f"expected one of {HEAT_BACKENDS}")
        self.n_pages = n_pages
        self.decay = float(decay)
        self.backend = backend
        self.heat = np.zeros(n_pages, dtype=np.float64)
        self.epoch = 0
        self.total_accesses = 0
        self._counts = np.zeros(n_pages, dtype=np.int64)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def resolve_backend(self) -> str:
        """The backend one ``record``/``end_epoch`` pair will use."""
        if self.backend != "auto":
            return self.backend
        return ("vector" if self.n_pages >= HEAT_VECTORIZE_THRESHOLD
                else "scalar")

    # ------------------------------------------------------------------
    # the two phases
    # ------------------------------------------------------------------

    def record(self, pages) -> None:
        """Accumulate one batch of page accesses into the open epoch.

        ``pages`` is any 1-D integer array-like of page ids; ids must
        lie in ``[0, n_pages)``.
        """
        arr = np.ascontiguousarray(pages, dtype=np.int64)
        if arr.ndim != 1:
            raise TieringError(
                f"record takes a 1-D batch of page ids, got shape {arr.shape}")
        if arr.size == 0:
            return
        if arr.min() < 0 or arr.max() >= self.n_pages:
            raise TieringError(
                f"page ids must be in [0, {self.n_pages}); batch spans "
                f"[{arr.min()}, {arr.max()}]")
        self.total_accesses += arr.size
        if self.resolve_backend() == "scalar":
            counts = self._counts
            for p in arr.tolist():
                counts[p] += 1
        else:
            self._counts += np.bincount(arr, minlength=self.n_pages)

    def end_epoch(self) -> np.ndarray:
        """Fold the open epoch: decay old heat, add the fresh counts.

        Returns the epoch's raw count vector (a copy — the internal
        accumulator is zeroed for the next epoch).
        """
        counts = self._counts
        if self.resolve_backend() == "scalar":
            heat = self.heat
            decay = self.decay
            for i in range(self.n_pages):
                # two roundings per element, same as the vector path:
                # round(heat*decay), then round(+count)
                heat[i] = heat[i] * decay + counts[i]
        else:
            np.add(self.heat * self.decay, counts, out=self.heat)
        self.epoch += 1
        out = counts.copy()
        counts[:] = 0
        if obs.metrics_enabled():
            obs.inc("tiering.heat.epochs")
            obs.gauge("tiering.heat.max", float(self.heat.max()))
        return out

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def hottest(self, k: int) -> np.ndarray:
        """The ``k`` hottest page ids, heat-descending, ties broken by
        ascending page id (deterministic across backends)."""
        if k <= 0:
            return np.empty(0, dtype=np.int64)
        order = np.lexsort((np.arange(self.n_pages), -self.heat))
        return order[:min(k, self.n_pages)].astype(np.int64)

    def describe(self) -> str:
        return (f"heat tracker: {self.n_pages} pages, decay {self.decay}, "
                f"epoch {self.epoch}, backend {self.resolve_backend()} "
                f"({self.total_accesses} accesses)")
