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

There is one fold: ``np.bincount`` plus one vectorized multiply-add, at
every footprint size.  :func:`fold_reference` is the same fold written
as a per-element Python loop; it rounds exactly as the vector fold does
(twice per element, in the same order), so the two are equal byte for
byte.  It is the oracle of the property tests, and
``benchmarks/bench_tiering.py`` gates the tracker at >= 10x over it on
a 64k-page batch.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import TieringError

__all__ = [
    "HeatTracker",
    "fold_reference",
    "hottest_pages",
]


def _page_ids(pages) -> np.ndarray:
    """``pages`` as int64 ids; non-integer ids raise, empty ones pass."""
    arr = np.asarray(pages)
    if arr.size and arr.dtype.kind not in "iu":
        raise TieringError(f"page ids must be integers, got {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def hottest_pages(heat: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` hottest page ids of ``heat``, heat-descending, ties
    broken by ascending page id.

    Equal to ``np.lexsort((np.arange(heat.size), -heat))[:k]`` without
    sorting the whole footprint: only the pages at least as hot as the
    ``k``-th hottest (found by partition) are sorted, stably, so ties
    keep their ascending ids.
    """
    n = heat.size
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    if k < n:
        pages = np.flatnonzero(heat >= np.partition(heat, n - k)[n - k])
    else:
        pages = np.arange(n)
    order = pages[np.argsort(-heat[pages], kind="stable")]
    return order[:k].astype(np.int64, copy=False)


def fold_reference(heat: np.ndarray, pages, decay: float) -> np.ndarray:
    """One ``record`` + ``end_epoch`` pair as a per-element loop.

    Counts ``pages`` one access at a time, then folds
    ``heat[i] * decay + counts[i]`` element by element; returns the new
    heat (``heat`` itself is left untouched).
    """
    counts = np.zeros(heat.size, dtype=np.int64)
    for p in np.asarray(pages, dtype=np.int64).tolist():
        counts[p] += 1
    out = heat.copy()
    for i in range(out.size):
        # two roundings per element, as in the vector fold:
        # round(heat*decay), then round(+count)
        out[i] = out[i] * decay + counts[i]
    return out


class HeatTracker:
    """Per-page access counters with exponential decay at epoch folds.

    Args:
        n_pages: pages tracked (ids ``0 .. n_pages-1``).
        decay: per-epoch retention factor in ``[0, 1)``.
    """

    def __init__(self, n_pages: int, decay: float = 0.5) -> None:
        if n_pages < 1:
            raise TieringError("heat tracker needs at least one page")
        if not 0.0 <= decay < 1.0:
            raise TieringError(f"decay must be in [0, 1), got {decay}")
        self.n_pages = n_pages
        self.decay = float(decay)
        self.heat = np.zeros(n_pages, dtype=np.float64)
        self.epoch = 0
        self.total_accesses = 0
        self._counts = np.zeros(n_pages, dtype=np.int64)

    # ------------------------------------------------------------------
    # the two phases
    # ------------------------------------------------------------------

    def record(self, pages) -> None:
        """Accumulate one batch of page accesses into the open epoch.

        ``pages`` is any 1-D integer array-like of page ids; ids must
        lie in ``[0, n_pages)``.
        """
        arr = _page_ids(pages)
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
        self._counts += np.bincount(arr, minlength=self.n_pages)

    def touch(self, page: int) -> None:
        """``record([page])`` for one page id, without building a batch.

        A plain ``int`` in ``[0, n_pages)`` is counted in place; any
        other value goes through :meth:`record`, so it raises exactly as
        ``record([page])`` does.
        """
        if type(page) is int and 0 <= page < self.n_pages:
            self._counts[page] += 1
            self.total_accesses += 1
        else:
            self.record((page,))

    def end_epoch(self) -> np.ndarray:
        """Fold the open epoch: decay old heat, add the fresh counts.

        Returns the epoch's raw count vector (a copy — the internal
        accumulator is zeroed for the next epoch).
        """
        counts = self._counts
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
        ascending page id."""
        return hottest_pages(self.heat, k)

    def describe(self) -> str:
        return (f"heat tracker: {self.n_pages} pages, decay {self.decay}, "
                f"epoch {self.epoch} ({self.total_accesses} accesses)")
