"""Unit tests for TierState + MigrationEngine, including the real
CXL-datapath copy path (wire accounting, poison abort semantics)."""

import numpy as np
import pytest

from repro import units
from repro.cxl.device import MediaController, Type3Device
from repro.cxl.host import CxlMemPort
from repro.cxl.link import CxlLink
from repro.cxl.spec import CxlVersion
from repro.errors import TieringError
from repro.machine.dram import DDR4_1333
from repro.tiering.migrate import (
    FAR,
    NEAR,
    MigrationDecision,
    MigrationEngine,
    MigrationStats,
    TierState,
    interleave_placement,
)

PAGE = 4096
LINES_PER_PAGE = PAGE // 64


def _state(n=8, cap=4, near=()):
    placement = np.full(n, FAR, dtype=np.int8)
    for p in near:
        placement[p] = NEAR
    return TierState(n, cap, placement=placement)


def _port() -> CxlMemPort:
    media = MediaController("m", DDR4_1333, 2, 2, units.mib(8), 0.6, 130.0)
    device = Type3Device("cxl0", media, battery_backed=False,
                         gpf_supported=False)
    link = CxlLink(CxlVersion.CXL_2_0, 16, 330.0)
    return CxlMemPort(link, device)


class TestTierState:
    def test_rejects_empty_footprint(self):
        with pytest.raises(TieringError, match="at least one page"):
            TierState(0, 0)

    def test_rejects_negative_capacity(self):
        with pytest.raises(TieringError, match="capacity"):
            TierState(4, -1)

    def test_rejects_wrong_placement_shape(self):
        with pytest.raises(TieringError, match="shape"):
            TierState(4, 2, placement=np.zeros(3, dtype=np.int8))

    def test_rejects_non_tier_codes(self):
        with pytest.raises(TieringError, match="NEAR or FAR"):
            TierState(4, 2, placement=np.array([0, 1, 2, 0], dtype=np.int8))

    @pytest.mark.parametrize("placement", [
        np.array([0, 257, 1, 1]),      # an int8 cast wraps 257 to FAR
        [0.6, 1, 1, 1],                # an int8 cast truncates 0.6 to NEAR
        [0, -255, 1, 1],               # an int8 cast overflows
    ])
    def test_checks_tier_codes_before_the_int8_cast(self, placement):
        with pytest.raises(TieringError, match="NEAR or FAR"):
            TierState(4, 2, placement=placement)

    def test_rejects_overfull_initial_placement(self):
        with pytest.raises(TieringError, match="capacity"):
            _state(n=4, cap=1, near=(0, 1))

    def test_default_placement_is_all_far(self):
        s = TierState(4, 2)
        assert s.near_count == 0
        assert s.near_free == 2
        assert s.far_pages == {0, 1, 2, 3}

    def test_placement_array_is_copied(self):
        placement = np.full(4, FAR, dtype=np.int8)
        s = TierState(4, 2, placement=placement)
        placement[0] = NEAR            # caller's array, not the state's
        assert s.tier_of(0) == FAR
        s.check_conservation()

    def test_conservation_catches_mirror_drift(self):
        s = _state(near=(0,))
        s.placement[1] = NEAR          # corrupt the array behind the sets
        with pytest.raises(TieringError, match="disagree"):
            s.check_conservation()

    def test_conservation_catches_duplicated_page(self):
        s = _state(near=(0,))
        s.far_mask[0] = True           # page 0 in both tiers
        with pytest.raises(TieringError, match="duplicated"):
            s.check_conservation()

    def test_conservation_catches_page_in_neither_tier(self):
        s = _state(near=(0,))
        s.far_mask[1] = False
        with pytest.raises(TieringError, match="page count mismatch"):
            s.check_conservation()

    def test_page_sets_are_read_only(self):
        s = _state(near=(0,))
        with pytest.raises(AttributeError):
            s.far_pages.add(0)
        s.check_conservation()

    def test_near_fraction_of_batch(self):
        s = _state(near=(0, 1))
        batch = np.array([0, 1, 5, 7], dtype=np.int64)
        assert s.near_fraction_of(batch) == 0.5
        assert s.near_fraction_of(np.empty(0, dtype=np.int64)) == 0.0


class TestInterleavePlacement:
    def test_one_to_one_stripe(self):
        p = interleave_placement(8, 4)
        assert p.tolist() == [NEAR, FAR] * 4

    def test_weighted_stripe(self):
        p = interleave_placement(6, 6, near_weight=1, far_weight=2)
        assert p.tolist() == [NEAR, FAR, FAR, NEAR, FAR, FAR]

    def test_capacity_clamps_near_share(self):
        p = interleave_placement(8, 2, near_weight=1, far_weight=0)
        assert int(np.count_nonzero(p == NEAR)) == 2
        assert p[:2].tolist() == [NEAR, NEAR]

    def test_rejects_degenerate_weights(self):
        with pytest.raises(TieringError):
            interleave_placement(8, 4, near_weight=0, far_weight=0)
        with pytest.raises(TieringError):
            interleave_placement(8, 4, near_weight=-1, far_weight=2)


class TestEngineValidation:
    def test_rejects_non_power_of_two_page(self):
        with pytest.raises(TieringError, match="power of two"):
            MigrationEngine(_state(), page_bytes=3000)

    def test_rejects_sub_line_page(self):
        with pytest.raises(TieringError, match="power of two"):
            MigrationEngine(_state(), page_bytes=32)

    def test_rejects_bad_link_and_remap(self):
        with pytest.raises(TieringError, match="bandwidth"):
            MigrationEngine(_state(), link_gbps=0)
        with pytest.raises(TieringError, match="remap"):
            MigrationEngine(_state(), remap_ns=-1)

    def test_rejects_repeated_page(self):
        eng = MigrationEngine(_state())
        with pytest.raises(TieringError, match="repeats"):
            eng.apply(MigrationDecision(epoch=0, promotions=(1, 1)))

    def test_rejects_promote_demote_overlap(self):
        eng = MigrationEngine(_state(near=(0,)))
        with pytest.raises(TieringError, match="both"):
            eng.apply(MigrationDecision(epoch=0, promotions=(1,),
                                        demotions=(1,)))

    def test_rejects_promoting_a_near_page(self):
        eng = MigrationEngine(_state(near=(0,)))
        with pytest.raises(TieringError, match="far pages"):
            eng.apply(MigrationDecision(epoch=0, promotions=(0,)))

    def test_rejects_demoting_a_far_page(self):
        eng = MigrationEngine(_state())
        with pytest.raises(TieringError, match="near pages"):
            eng.apply(MigrationDecision(epoch=0, demotions=(3,)))

    def test_rejects_capacity_overflow(self):
        eng = MigrationEngine(_state(n=8, cap=2, near=(0, 1)))
        with pytest.raises(TieringError, match="overflows"):
            eng.apply(MigrationDecision(epoch=0, promotions=(2,)))

    @pytest.mark.parametrize("decision", [
        MigrationDecision(epoch=0, promotions=(1.0,)),
        MigrationDecision(epoch=0, demotions=(0.5,)),
    ])
    def test_rejects_page_ids_that_are_not_integers(self, decision):
        state = _state(n=8, cap=4, near=(0,))
        eng = MigrationEngine(state)
        with pytest.raises(TieringError, match="integers"):
            eng.apply(decision)
        assert state.near_pages == {0}
        assert eng.stats == MigrationStats()

    def test_empty_decision_is_a_noop(self):
        state = _state(near=(0,))
        eng = MigrationEngine(state)
        report = eng.apply(MigrationDecision(epoch=2))
        assert (report.promoted, report.demoted, report.move_ns) == (0, 0, 0.0)
        assert state.near_pages == {0}
        assert eng.stats == MigrationStats()

    @pytest.mark.parametrize("page", [-1, 8])
    def test_rejects_pages_outside_the_footprint(self, page):
        # NumPy would wrap -1 to page 7; 8 is past the placement array
        state = _state(n=8, cap=4, near=(0, 1))
        eng = MigrationEngine(state)
        placement = state.placement.tobytes()
        with pytest.raises(TieringError, match="outside"):
            eng.apply(MigrationDecision(epoch=0, promotions=(page,)))
        assert state.placement.tobytes() == placement
        assert state.near_pages == {0, 1}
        assert state.far_pages == set(range(2, 8))
        assert eng.stats == MigrationStats()

    def test_rejected_decision_leaves_state_untouched(self):
        state = _state(n=8, cap=2, near=(0, 1))
        eng = MigrationEngine(state)
        with pytest.raises(TieringError):
            eng.apply(MigrationDecision(epoch=0, promotions=(2,)))
        assert state.near_pages == {0, 1}
        state.check_conservation()
        assert eng.stats.remaps == 0


class TestModelledMoves:
    def test_demotions_free_room_for_promotions(self):
        state = _state(n=8, cap=2, near=(0, 1))
        eng = MigrationEngine(state)
        report = eng.apply(MigrationDecision(
            epoch=3, promotions=(4, 5), demotions=(0, 1)))
        assert (report.promoted, report.demoted) == (2, 2)
        assert state.near_pages == {4, 5}
        state.check_conservation()

    def test_per_move_cost_accounting(self):
        eng = MigrationEngine(_state(), page_bytes=PAGE, link_gbps=8.0,
                              remap_ns=1000.0)
        report = eng.apply(MigrationDecision(epoch=0, promotions=(2, 3)))
        per_move = PAGE / 8.0 + 1000.0
        assert report.move_ns == pytest.approx(2 * per_move)
        assert report.migration_bytes == 2 * PAGE
        assert eng.stats.remaps == 2

    def test_move_cost_adds_one_page_at_a_time(self):
        # ten adds of 0.1 give 0.9999999999999999, not 10 * 0.1 == 1.0
        eng = MigrationEngine(TierState(16, 16), page_bytes=64,
                              link_gbps=640.0, remap_ns=0.0)
        report = eng.apply(MigrationDecision(epoch=0,
                                             promotions=tuple(range(10))))
        per_page_sum = 0.0
        for _ in range(10):
            per_page_sum += 0.1
        assert report.move_ns == per_page_sum != 10 * 0.1

    def test_stats_accumulate_across_epochs(self):
        state = _state(n=8, cap=4)
        eng = MigrationEngine(state)
        eng.apply(MigrationDecision(epoch=0, promotions=(0, 1)))
        eng.apply(MigrationDecision(epoch=1, promotions=(2,),
                                    demotions=(0,)))
        assert eng.stats.promotions == 3
        assert eng.stats.demotions == 1
        assert eng.stats.migration_bytes == 4 * PAGE
        assert "3 promotions" in eng.describe()


class TestRealDatapath:
    def test_moves_consume_modelled_wire_bandwidth(self):
        port = _port()
        state = _state(n=8, cap=4)
        eng = MigrationEngine(state, page_bytes=PAGE, port=port)
        eng.apply(MigrationDecision(epoch=0, promotions=(0, 1)))
        # a promotion reads the page out of far memory line by line
        assert port.stats.reads == 2 * LINES_PER_PAGE
        assert port.stats.payload_bytes == 2 * PAGE
        assert port.stats.total_wire_bytes > 2 * PAGE   # flit overhead
        eng.apply(MigrationDecision(epoch=1, demotions=(0,)))
        assert port.stats.writes == LINES_PER_PAGE

    def test_poisoned_copy_aborts_and_conserves(self):
        port = _port()
        state = _state(n=8, cap=4)
        eng = MigrationEngine(state, page_bytes=PAGE, port=port,
                              far_base_dpa=0)
        # poison one line inside page 1's far image: its promotion dies
        # on the copy path; page 0 (already moved) stays promoted
        port.device.inject_poison(1 * PAGE + 64)
        report = eng.apply(MigrationDecision(epoch=0, promotions=(0, 1, 2)))
        assert report.aborted_window
        assert report.promoted == 1
        assert state.tier_of(0) == NEAR
        assert state.tier_of(1) == FAR        # fully in its source tier
        assert state.tier_of(2) == FAR        # window closed: not attempted
        state.check_conservation()
        assert eng.stats.aborted == 1
        assert port.stats.poisoned_reads >= 1
