"""The page-migration simulator: apply batched decisions with real cost.

A :class:`TierState` is the page table of a two-tier (near DDR / far
CXL) footprint: every page lives in **exactly one** tier at all times —
the conservation invariant the property suite and the fault-plane chaos
tests hammer.  The state keeps a redundant pair of boolean tier masks
alongside the placement array, each written on its own, so the
invariant is an actual cross-check, not a tautology of the
representation.

A :class:`MigrationEngine` applies one :class:`MigrationDecision` per
epoch.  Each moved page costs:

* **copy traffic** — ``page_bytes`` over the CXL link (a promotion
  reads the page out of far memory, a demotion writes it back).  When
  the engine holds a :class:`~repro.cxl.host.CxlMemPort`, the copy
  really runs as line-span ``read_lines``/``write_lines`` through the
  batched datapath, so migrations consume modelled wire bandwidth, show
  up in the port's flit statistics, and are exposed to the fault plane
  (poison, link flaps, device timeouts) exactly like workload traffic;
* **remap cost** — one page-table remap + TLB shootdown per page
  (``remap_ns``).

Faults: :func:`repro.faults.on_migration` is consulted *mid-copy* for
every page.  An injected :class:`~repro.errors.MigrationAbortError`
(or a CXL poison/timeout surfacing from the datapath) abandons the
page's move — the page stays fully in its source tier — and closes the
epoch's migration window (remaining decisions are dropped, reported as
``aborted_window``).

Pages are copied one at a time only when a port or a plan targeting the
``migration`` site can intervene; either way one step remaps the pages
whose copy finished and bills them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import faults, obs
from repro.errors import (
    CxlError,
    MigrationAbortError,
    TieringError,
)
from repro.tiering.heat import _page_ids

__all__ = [
    "NEAR",
    "FAR",
    "MigrationDecision",
    "MigrationStats",
    "EpochMoveReport",
    "TierState",
    "MigrationEngine",
]

#: tier codes in :attr:`TierState.placement`
NEAR, FAR = 0, 1

_LINE = 64


@dataclass(frozen=True)
class MigrationDecision:
    """One epoch's batched migration order.

    ``promotions`` move far → near, ``demotions`` near → far; both are
    deterministic page-id sequences (policies sort by heat with page-id
    tie-breaks).
    """

    epoch: int
    promotions: tuple[int, ...] = ()
    demotions: tuple[int, ...] = ()

    @property
    def moves(self) -> int:
        return len(self.promotions) + len(self.demotions)


@dataclass
class MigrationStats:
    """Engine-lifetime accounting."""

    promotions: int = 0
    demotions: int = 0
    aborted: int = 0
    migration_bytes: int = 0
    remaps: int = 0
    move_ns: float = 0.0


@dataclass
class EpochMoveReport:
    """Outcome of applying one decision."""

    epoch: int
    promoted: int = 0
    demoted: int = 0
    aborted: int = 0
    migration_bytes: int = 0
    move_ns: float = 0.0
    aborted_window: bool = False


class TierState:
    """Placement of ``n_pages`` across the two tiers.

    The placement array is the fast query surface (``placement[page]``
    is :data:`NEAR` or :data:`FAR`); the two boolean masks
    ``near_mask``/``far_mask`` are the redundant page-table mirror that
    :meth:`check_conservation` audits against it.
    """

    def __init__(self, n_pages: int, near_capacity_pages: int,
                 placement: np.ndarray | None = None) -> None:
        if n_pages < 1:
            raise TieringError("tier state needs at least one page")
        if near_capacity_pages < 0:
            raise TieringError("near capacity must be >= 0")
        self.n_pages = n_pages
        self.near_capacity_pages = near_capacity_pages
        if placement is None:
            placement = np.full(n_pages, FAR, dtype=np.int8)
        else:
            placement = np.asarray(placement)   # int8 would wrap/truncate
            if placement.shape != (n_pages,):
                raise TieringError(
                    f"placement must have shape ({n_pages},), "
                    f"got {placement.shape}")
            if not np.isin(placement, (NEAR, FAR)).all():
                raise TieringError("placement entries must be NEAR or FAR")
            placement = placement.astype(np.int8)
        self.placement = placement
        self.near_mask = placement == NEAR
        self.far_mask = placement == FAR
        if self.near_count > near_capacity_pages:
            raise TieringError(
                f"initial placement holds {self.near_count} near pages; "
                f"capacity is {near_capacity_pages}")

    @property
    def near_pages(self) -> frozenset[int]:
        """The near tier's page ids, read from the near mask."""
        return frozenset(np.flatnonzero(self.near_mask).tolist())

    @property
    def far_pages(self) -> frozenset[int]:
        """The far tier's page ids, read from the far mask."""
        return frozenset(np.flatnonzero(self.far_mask).tolist())

    @property
    def near_count(self) -> int:
        return int(np.count_nonzero(self.near_mask))

    @property
    def near_free(self) -> int:
        return self.near_capacity_pages - self.near_count

    def tier_of(self, page: int) -> int:
        return int(self.placement[page])

    def _remap(self, demoted: np.ndarray, promoted: np.ndarray) -> None:
        """Remap pages across tiers; the placement array and each mask
        mirror are written on their own, so they can be audited."""
        self.placement[demoted] = FAR
        self.placement[promoted] = NEAR
        self.near_mask[demoted] = False
        self.far_mask[demoted] = True
        self.far_mask[promoted] = False
        self.near_mask[promoted] = True

    def check_conservation(self) -> None:
        """Every page in exactly one tier; capacity respected.

        Raises:
            TieringError: a page is lost, duplicated, the mask mirrors
                disagree with the placement array, or the near tier
                overflows its capacity.
        """
        near, far = self.near_mask, self.far_mask
        both = near & far
        if both.any():
            raise TieringError(
                f"pages duplicated across tiers: "
                f"{np.flatnonzero(both)[:8].tolist()}")
        n_near = int(np.count_nonzero(near))
        n_far = int(np.count_nonzero(far))
        if n_near + n_far != self.n_pages:
            raise TieringError(
                f"page count mismatch: {n_near} near + {n_far} far "
                f"!= {self.n_pages}")
        if not np.array_equal(self.placement == NEAR, near):
            raise TieringError("placement array and near mask disagree")
        if n_near > self.near_capacity_pages:
            raise TieringError(
                f"near tier overflows: {n_near} > "
                f"{self.near_capacity_pages}")

    def near_fraction_of(self, pages: np.ndarray) -> float:
        """Fraction of an access batch served from the near tier."""
        if len(pages) == 0:
            return 0.0
        return float(np.mean(self.placement[pages] == NEAR))


def interleave_placement(n_pages: int, near_capacity_pages: int,
                         near_weight: int = 1, far_weight: int = 1,
                         ) -> np.ndarray:
    """A static weighted-interleave placement (the runtime baseline).

    Pages are striped near:far in ``near_weight:far_weight`` blocks —
    the paper's Memory-Mode/interleave analogue — clamped so the near
    share never exceeds capacity.
    """
    if near_weight < 0 or far_weight < 0 or near_weight + far_weight == 0:
        raise TieringError("interleave weights must be >= 0, not both zero")
    period = near_weight + far_weight
    placement = np.full(n_pages, FAR, dtype=np.int8)
    if near_weight:
        near_mask = (np.arange(n_pages) % period) < near_weight
        near_ids = np.flatnonzero(near_mask)[:near_capacity_pages]
        placement[near_ids] = NEAR
    return placement


class MigrationEngine:
    """Applies migration decisions with modelled (and optionally real
    datapath) move cost.

    Args:
        state: the page table to mutate.
        page_bytes: page size (power of two, >= one cacheline).
        link_gbps: modelled copy bandwidth for the CXL hop of a move.
        remap_ns: page-table remap + TLB shootdown cost per moved page.
        port: optional :class:`~repro.cxl.host.CxlMemPort`; when given,
            every move really runs its far-side copy through the batched
            CXL datapath (promotion = ``read_lines`` from far, demotion
            = ``write_lines`` back), sharing wire accounting and fault
            exposure with workload traffic.
        far_base_dpa: device-physical base of the footprint's far image
            when ``port`` is used.
    """

    def __init__(self, state: TierState, page_bytes: int = 4096,
                 link_gbps: float = 11.5, remap_ns: float = 2000.0,
                 port=None, far_base_dpa: int = 0) -> None:
        if page_bytes < _LINE or page_bytes & (page_bytes - 1):
            raise TieringError(
                f"page size must be a power of two >= {_LINE}")
        if link_gbps <= 0:
            raise TieringError("link bandwidth must be positive")
        if remap_ns < 0:
            raise TieringError("remap cost must be >= 0")
        self.state = state
        self.page_bytes = page_bytes
        self.link_gbps = link_gbps
        self.remap_ns = remap_ns
        self.port = port
        self.far_base_dpa = far_base_dpa
        self.stats = MigrationStats()
        self._lines_per_page = page_bytes // _LINE

    # ------------------------------------------------------------------
    # one decision
    # ------------------------------------------------------------------

    def apply(self, decision: MigrationDecision) -> EpochMoveReport:
        """Apply one epoch's decision; returns the epoch report.

        Demotions run first (they free near slots), then promotions.
        Capacity is validated up front: a decision that would overflow
        the near tier is rejected whole (:class:`TieringError`), since a
        policy emitting one is buggy.  A mid-copy abort (fault plane or
        CXL datapath error) leaves the in-flight page in its source tier
        and drops the rest of the decision.
        """
        demos, promos = self._validate(decision)
        moves = np.concatenate((demos, promos))
        report = EpochMoveReport(epoch=decision.epoch)
        with obs.span("tiering.migrate",
                      meta={"epoch": decision.epoch,
                            "moves": decision.moves}):
            plan = faults.active()
            per_page = self.port is not None or (
                plan is not None and "migration" in plan.sites)
            done = self._copy(moves, demos.size) if per_page else moves.size
            if done < moves.size:
                report.aborted = 1
                report.aborted_window = True
                self.stats.aborted += 1
                obs.inc("tiering.migration_aborts")
            # remap the finished prefix, demotions first
            report.demoted = min(done, demos.size)
            report.promoted = done - report.demoted
            self.state._remap(moves[:report.demoted], moves[demos.size:done])
            self.stats.remaps += done
            report.migration_bytes = done * self.page_bytes
            per_page = self.page_bytes / self.link_gbps + self.remap_ns
            for _ in range(done):
                # one add per page: the sum's rounding is part of the output
                report.move_ns += per_page
        self.stats.promotions += report.promoted
        self.stats.demotions += report.demoted
        self.stats.migration_bytes += report.migration_bytes
        self.stats.move_ns += report.move_ns
        if obs.metrics_enabled():
            obs.inc("tiering.promotions", report.promoted)
            obs.inc("tiering.demotions", report.demoted)
            obs.inc("tiering.migration_bytes", report.migration_bytes)
        return report

    def _validate(self, decision: MigrationDecision
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Check a decision whole; returns its demotions and promotions
        as int64 page-id arrays."""
        state = self.state
        n = state.n_pages
        p, d = _page_ids(decision.promotions), _page_ids(decision.demotions)
        ids = np.concatenate((p, d))
        outside = ids[(ids < 0) | (ids >= n)][:8].tolist()
        if outside:
            raise TieringError(
                f"decision names pages outside [0, {n}): {outside}")
        p_count = np.bincount(p, minlength=n)
        d_count = np.bincount(d, minlength=n)
        if p_count.max() > 1 or d_count.max() > 1:
            raise TieringError("decision repeats a page")
        both = np.flatnonzero(p_count & d_count)[:8].tolist()
        if both:
            raise TieringError(f"pages both promoted and demoted: {both}")
        bad_p = p[state.placement[p] != FAR][:8].tolist()
        if bad_p:
            raise TieringError(
                f"promotions must target far pages; {bad_p} are near")
        bad_d = d[state.placement[d] != NEAR][:8].tolist()
        if bad_d:
            raise TieringError(
                f"demotions must target near pages; {bad_d} are far")
        if (state.near_count - d.size + p.size
                > state.near_capacity_pages):
            raise TieringError(
                f"decision overflows the near tier: "
                f"{state.near_count} - {d.size} + {p.size} > "
                f"{state.near_capacity_pages}")
        return d, p

    def _copy(self, moves: np.ndarray, n_demos: int) -> int:
        """Copy ``moves`` (the first ``n_demos`` demote) page by page,
        the fault hook mid-copy; returns how many finished before an
        abort (injected, or a CXL poison or timeout on the copy)."""
        half = self._lines_per_page // 2
        rest = self._lines_per_page - half
        for i, page in enumerate(moves.tolist()):
            direction = "demote" if i < n_demos else "promote"
            try:
                self._copy_lines(page, direction, 0, half)
                faults.on_migration(page, direction)
                self._copy_lines(page, direction, half, rest)
            except (MigrationAbortError, CxlError):
                return i
        return len(moves)

    def _copy_lines(self, page: int, direction: str, line0: int,
                    nlines: int) -> None:
        if self.port is None or nlines == 0:
            return
        dpa = self.far_base_dpa + page * self.page_bytes + line0 * _LINE
        if direction == "promote":
            self.port.read_lines(dpa, nlines)
        else:
            self.port.write_lines(dpa, bytes(nlines * _LINE))

    def describe(self) -> str:
        s = self.stats
        return (f"migration engine: {s.promotions} promotions, "
                f"{s.demotions} demotions, {s.aborted} aborts, "
                f"{s.migration_bytes} bytes moved, {s.remaps} remaps")
