"""Pluggable promotion/demotion policies for the tiering engine.

A :class:`TieringPolicy` looks at the epoch's heat/access evidence and
emits one batched :class:`~repro.tiering.migrate.MigrationDecision`.
Four policies ship, spanning the design space the related work measures
("Demystifying CXL Memory", TPP):

* :class:`StaticInterleave` — the no-migration baseline: pages stay
  where the initial weighted-interleave placement put them (today's
  ``core/tiering`` behaviour, and the right answer for pure streaming);
* :class:`LruCache` — near memory mirrors an exact LRU of the access
  stream, computed from a last-use stamp per page (promote
  resident-but-far, demote near-but-evicted);
* :class:`TppPromote` — TPP-style threshold promotion with hysteresis:
  a page must look hot (``heat >= hot_threshold``) for ``hysteresis``
  consecutive epochs before it earns a promotion, and cold
  (``heat < cold_threshold``) as long before it is demoted — the
  hysteresis is what keeps a borderline page from ping-ponging;
* :class:`BandwidthSpill` — bandwidth-aware: keeps the near tier
  holding the hottest pages until their cumulative heat reaches the
  near tier's fair *bandwidth* share, spilling only the remainder to
  CXL (pages beyond that point gain little from DDR residency).

A policy only names its candidates: :meth:`TieringPolicy.candidates`
returns a (promote, demote) pair of boolean masks over the placement.
:meth:`TieringPolicy.decide` is the one body that turns them into a
decision: it orders each side by heat with ascending-page-id
tie-breaks, clips both to the per-epoch move budget and the near-tier
capacity, and builds the :class:`MigrationDecision`.  There is no RNG
anywhere, so the property suite can replay decision streams and
require equality.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TieringError
from repro.tiering.heat import hottest_pages
from repro.tiering.migrate import (
    FAR,
    NEAR,
    MigrationDecision,
    TierState,
    interleave_placement,
)

__all__ = [
    "TieringPolicy",
    "StaticInterleave",
    "LruCache",
    "TppPromote",
    "BandwidthSpill",
    "POLICIES",
    "make_policy",
]


def _heat_order(mask: np.ndarray, heat: np.ndarray,
                hottest_first: bool) -> np.ndarray:
    """The pages of ``mask`` by heat (desc or asc), then page id."""
    pages = np.flatnonzero(mask)
    key = -heat[pages] if hottest_first else heat[pages]
    # ids ascend, so a stable sort breaks heat ties by page id
    return pages[np.argsort(key, kind="stable")]


def _fit(state: TierState, promos: np.ndarray, demos: np.ndarray,
         budget: int, proactive_demote: bool) -> tuple[np.ndarray, np.ndarray]:
    """Clip ordered candidate lists to budget + near-tier capacity.

    Promotions get priority; demotions are taken as needed to make room
    (plus, when ``proactive_demote``, any leftover budget keeps draining
    the cold list to preserve free headroom — TPP behaviour).
    """
    free = state.near_free
    d_max = min(len(demos), budget)
    # each promotion beyond the free slots consumes a matching demotion
    # out of the same budget: cost(p) = p + max(0, p - free) <= budget
    p_budget = (budget + free) // 2 if budget >= free else budget
    p = min(len(promos), free + d_max, p_budget)
    d_needed = max(0, p - free)
    d = d_needed
    if proactive_demote:
        d += max(0, min(d_max - d_needed, budget - p - d_needed))
    return promos[:p], demos[:d]


class TieringPolicy:
    """Base class: a subclass implements :meth:`candidates`; the shared
    :meth:`decide` turns them into one decision per epoch.

    Args:
        n_pages: footprint size in pages.
        near_capacity_pages: near-tier capacity.
        max_moves_per_epoch: migration budget per decision (both
            directions combined).
    """

    name = "abstract"
    #: spend leftover budget draining cold pages, keeping near headroom
    proactive_demote = False

    def __init__(self, n_pages: int, near_capacity_pages: int,
                 max_moves_per_epoch: int = 512) -> None:
        if n_pages < 1:
            raise TieringError("policy needs at least one page")
        if max_moves_per_epoch < 0:
            raise TieringError("migration budget must be >= 0")
        self.n_pages = n_pages
        self.near_capacity_pages = near_capacity_pages
        self.max_moves_per_epoch = max_moves_per_epoch

    def initial_placement(self) -> np.ndarray:
        """The fair starting placement every policy begins from: a
        capacity-proportional weighted interleave (every ``k``-th page
        near, ``k ≈ footprint / near capacity``), which is the static
        baseline's steady state and fills — never overflows — the near
        tier."""
        k = max(1, round(self.n_pages / max(1, self.near_capacity_pages)))
        return interleave_placement(self.n_pages, self.near_capacity_pages,
                                    near_weight=1, far_weight=k - 1)

    def candidates(self, heat: np.ndarray, accesses: np.ndarray,
                   state: TierState) -> tuple[np.ndarray, np.ndarray]:
        """This epoch's ``(promote, demote)`` boolean masks over
        ``state.placement``: far pages worth promoting, near pages
        worth demoting.

        Args:
            heat: the tracker's decayed per-page heat *after* the
                epoch's fold.
            accesses: the epoch's raw page-id access batch (LRU needs
                the sequence, not just counts).
            state: current placement (read-only for policies).
        """
        raise NotImplementedError

    def decide(self, heat: np.ndarray, accesses: np.ndarray,
               state: TierState, epoch: int) -> MigrationDecision:
        """Emit this epoch's migration order (``epoch`` is the index just
        folded): promotions hottest first, demotions coldest first, both
        fitted to the budget and the near tier's capacity."""
        promote, demote = self.candidates(heat, accesses, state)
        promos, demos = _fit(state,
                             _heat_order(promote, heat, hottest_first=True),
                             _heat_order(demote, heat, hottest_first=False),
                             self.max_moves_per_epoch, self.proactive_demote)
        return MigrationDecision(epoch=epoch,
                                 promotions=tuple(promos.tolist()),
                                 demotions=tuple(demos.tolist()))

    def describe(self) -> str:
        return (f"{self.name}: {self.n_pages} pages, "
                f"{self.near_capacity_pages} near, "
                f"budget {self.max_moves_per_epoch}/epoch")


class StaticInterleave(TieringPolicy):
    """No runtime migration — the weighted-interleave baseline."""

    name = "static"

    def candidates(self, heat, accesses, state):
        none = np.zeros(state.n_pages, dtype=bool)
        return none, none


class LruCache(TieringPolicy):
    """Near memory tracks an exact LRU of the access stream.

    Each page keeps the stream position of its last use (``-1`` until
    first touched).  LRU is a stack algorithm, so the resident set is
    the ``max(1, capacity)`` touched pages with the newest stamps —
    exactly what :class:`repro.core.tiering.PageCache` holds after the
    same stream, without replaying it.  Resident-but-far pages are
    promoted (hottest first), near-but-evicted pages demoted (coldest
    first).
    """

    name = "lru"

    def __init__(self, n_pages: int, near_capacity_pages: int,
                 max_moves_per_epoch: int = 512) -> None:
        super().__init__(n_pages, near_capacity_pages, max_moves_per_epoch)
        self.capacity = max(1, near_capacity_pages)
        self._stamp = np.full(n_pages, -1, dtype=np.int64)
        self._clock = 0

    def candidates(self, heat, accesses, state):
        batch = np.asarray(accesses, dtype=np.int64)
        stamp = self._stamp
        # positions rise along the batch and past every older stamp, so
        # the running max leaves each touched page its last use
        np.maximum.at(stamp, batch, self._clock + np.arange(batch.size))
        self._clock += batch.size
        # touched pages' stamps are distinct, so the k-th smallest is the
        # capacity-th newest (or -1 while fewer pages are touched)
        k = stamp.size - self.capacity
        floor = np.partition(stamp, k)[k] if k > 0 else 0
        resident = stamp >= max(int(floor), 0)
        near = state.placement == NEAR
        return resident & ~near, near & ~resident


class TppPromote(TieringPolicy):
    """TPP-style hot-promotion / cold-demotion with hysteresis.

    A far page with ``heat >= hot_threshold`` for ``hysteresis``
    consecutive epochs becomes a promotion candidate; a near page with
    ``heat < cold_threshold`` as long becomes a demotion candidate.
    Candidates move hottest-first (promotions) / coldest-first
    (demotions) under the per-epoch budget, and cold pages keep
    draining proactively when budget remains so the near tier retains
    free headroom for the next burst.
    """

    name = "tpp"
    proactive_demote = True

    def __init__(self, n_pages: int, near_capacity_pages: int,
                 max_moves_per_epoch: int = 512,
                 hot_threshold: float = 1.0,
                 cold_threshold: float = 0.25,
                 hysteresis: int = 2) -> None:
        super().__init__(n_pages, near_capacity_pages, max_moves_per_epoch)
        if hot_threshold < cold_threshold:
            raise TieringError(
                f"hot threshold ({hot_threshold}) must be >= cold "
                f"threshold ({cold_threshold})")
        if hysteresis < 1:
            raise TieringError("hysteresis must be >= 1 epoch")
        self.hot_threshold = float(hot_threshold)
        self.cold_threshold = float(cold_threshold)
        self.hysteresis = hysteresis
        self._hot_streak = np.zeros(n_pages, dtype=np.int64)
        self._cold_streak = np.zeros(n_pages, dtype=np.int64)

    def candidates(self, heat, accesses, state):
        self._hot_streak = np.where(heat >= self.hot_threshold,
                                    self._hot_streak + 1, 0)
        self._cold_streak = np.where(heat < self.cold_threshold,
                                     self._cold_streak + 1, 0)
        return ((self._hot_streak >= self.hysteresis)
                & (state.placement == FAR),
                (self._cold_streak >= self.hysteresis)
                & (state.placement == NEAR))


class BandwidthSpill(TieringPolicy):
    """Keep the near tier saturated before spilling heat to CXL.

    The near tier deserves the share of traffic its bandwidth can
    carry: ``near_gbps / (near_gbps + far_gbps)``.  Each epoch the
    policy takes pages in heat order until their cumulative heat
    reaches that share of the total (never past capacity, never pages
    with zero heat) — that prefix *is* the desired near set.  Missing
    members are promoted; near pages outside it are demoted only as
    capacity demands (no churn for its own sake).
    """

    name = "spill"

    def __init__(self, n_pages: int, near_capacity_pages: int,
                 max_moves_per_epoch: int = 512,
                 near_gbps: float = 33.0, far_gbps: float = 11.5) -> None:
        super().__init__(n_pages, near_capacity_pages, max_moves_per_epoch)
        if near_gbps <= 0 or far_gbps <= 0:
            raise TieringError("tier bandwidths must be positive")
        self.near_gbps = float(near_gbps)
        self.far_gbps = float(far_gbps)

    @property
    def near_share(self) -> float:
        return self.near_gbps / (self.near_gbps + self.far_gbps)

    def candidates(self, heat, accesses, state):
        desired = np.zeros(self.n_pages, dtype=bool)
        total = float(heat.sum())
        if total <= 0.0:
            return desired, desired          # no evidence: nothing moves
        # only the capacity's worth of hottest pages can be desired; the
        # prefix sums of that head are the full sort's, bit for bit
        order = hottest_pages(heat, self.near_capacity_pages)
        cum = np.cumsum(heat[order])
        # smallest prefix whose heat reaches the near bandwidth share
        want = int(np.searchsorted(cum, self.near_share * total) + 1)
        desired[order[:want]] = True
        desired &= heat > 0.0
        near = state.placement == NEAR
        return desired & ~near, near & ~desired


#: CLI / spec name -> policy class
POLICIES: dict[str, type[TieringPolicy]] = {
    StaticInterleave.name: StaticInterleave,
    LruCache.name: LruCache,
    TppPromote.name: TppPromote,
    BandwidthSpill.name: BandwidthSpill,
}


def make_policy(name: str, n_pages: int, near_capacity_pages: int,
                **kwargs) -> TieringPolicy:
    """Instantiate a policy by registry name (CLI/spec entry point)."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise TieringError(
            f"unknown tiering policy {name!r}; "
            f"expected one of {sorted(POLICIES)}") from None
    return cls(n_pages, near_capacity_pages, **kwargs)
