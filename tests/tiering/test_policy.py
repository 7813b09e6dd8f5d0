"""Unit tests for the four tiering policies: hysteresis, budgets,
ordering, and the shared capacity fitter."""

import numpy as np
import pytest

from repro.errors import TieringError
from repro.tiering.heat import HeatTracker
from repro.tiering.migrate import FAR, NEAR, MigrationEngine, TierState
from repro.tiering.policy import (
    POLICIES,
    BandwidthSpill,
    LruCache,
    StaticInterleave,
    TppPromote,
    make_policy,
)

N, CAP = 16, 4


def _heat(**pages) -> np.ndarray:
    h = np.zeros(N, dtype=np.float64)
    for key, v in pages.items():
        h[int(key.lstrip("p"))] = v
    return h


def _state(near=()):
    placement = np.full(N, FAR, dtype=np.int8)
    for p in near:
        placement[p] = NEAR
    return TierState(N, CAP, placement=placement)


NO_ACCESSES = np.empty(0, dtype=np.int64)


class TestRegistry:
    def test_all_four_policies_registered(self):
        assert sorted(POLICIES) == ["lru", "spill", "static", "tpp"]

    def test_make_policy_rejects_unknown_name(self):
        with pytest.raises(TieringError, match="unknown tiering policy"):
            make_policy("fifo", N, CAP)

    def test_make_policy_forwards_kwargs(self):
        p = make_policy("tpp", N, CAP, hysteresis=5)
        assert isinstance(p, TppPromote)
        assert p.hysteresis == 5

    def test_base_validation(self):
        with pytest.raises(TieringError, match="at least one page"):
            StaticInterleave(0, 0)
        with pytest.raises(TieringError, match="budget"):
            StaticInterleave(N, CAP, max_moves_per_epoch=-1)


class TestInitialPlacement:
    @pytest.mark.parametrize("n,cap", [(16, 4), (100, 7), (8, 8), (9, 2)])
    def test_fills_near_tier_without_overflow(self, n, cap):
        placement = StaticInterleave(n, cap).initial_placement()
        near = int(np.count_nonzero(placement == NEAR))
        assert near <= cap
        # capacity-proportional stride lands within one stride of full
        assert near >= min(cap, n) - max(1, round(n / cap))

    def test_is_a_valid_tier_state(self):
        p = TppPromote(N, CAP)
        TierState(N, CAP, placement=p.initial_placement())


class TestStaticInterleave:
    def test_never_migrates(self):
        policy = StaticInterleave(N, CAP)
        d = policy.decide(_heat(p3=100.0), NO_ACCESSES, _state(), epoch=7)
        assert d.moves == 0
        assert d.epoch == 7


class TestTppHysteresis:
    def test_hot_page_waits_out_the_hysteresis(self):
        policy = TppPromote(N, CAP, hysteresis=3, hot_threshold=1.0)
        state = _state()
        heat = _heat(p5=10.0)
        for epoch in range(2):
            d = policy.decide(heat, NO_ACCESSES, state, epoch)
            assert d.promotions == ()      # streak 1, 2: below hysteresis
        d = policy.decide(heat, NO_ACCESSES, state, 2)
        assert 5 in d.promotions           # streak 3: earned it

    def test_streak_resets_when_heat_dips(self):
        policy = TppPromote(N, CAP, hysteresis=2, hot_threshold=1.0)
        state = _state()
        policy.decide(_heat(p5=10.0), NO_ACCESSES, state, 0)
        policy.decide(_heat(), NO_ACCESSES, state, 1)        # dips cold
        d = policy.decide(_heat(p5=10.0), NO_ACCESSES, state, 2)
        assert d.promotions == ()          # streak restarted at 1

    def test_cold_page_demoted_after_hysteresis(self):
        policy = TppPromote(N, CAP, hysteresis=2, cold_threshold=0.25)
        state = _state(near=(0,))
        heat = _heat()                     # page 0 stone cold
        d = policy.decide(heat, NO_ACCESSES, state, 0)
        assert d.demotions == ()
        d = policy.decide(heat, NO_ACCESSES, state, 1)
        assert 0 in d.demotions            # proactive drain

    def test_warm_page_is_never_touched(self):
        # between thresholds: neither hot streak nor cold streak grows
        policy = TppPromote(N, CAP, hysteresis=1, hot_threshold=1.0,
                            cold_threshold=0.25)
        state = _state(near=(0,))
        d = policy.decide(_heat(p0=0.5, p5=0.5), NO_ACCESSES, state, 0)
        assert d.moves == 0

    def test_promotions_are_hottest_first(self):
        policy = TppPromote(N, CAP, hysteresis=1, max_moves_per_epoch=2)
        d = policy.decide(_heat(p3=2.0, p7=9.0, p9=5.0), NO_ACCESSES,
                          _state(), 0)
        assert d.promotions == (7, 9)      # 3 lost to the budget

    def test_validation(self):
        with pytest.raises(TieringError, match="hot threshold"):
            TppPromote(N, CAP, hot_threshold=0.1, cold_threshold=0.5)
        with pytest.raises(TieringError, match="hysteresis"):
            TppPromote(N, CAP, hysteresis=0)


class TestLruCache:
    def test_promotes_resident_far_and_demotes_evicted(self):
        policy = LruCache(N, CAP)
        state = _state(near=(0, 1, 2, 3))
        # recent accesses fill the LRU with {12..15}: pages 0-3 are near
        # but stale, 12-15 are resident but far
        accesses = np.array([12, 13, 14, 15] * 8, dtype=np.int64)
        heat = _heat(p12=8.0, p13=8.0, p14=8.0, p15=8.0)
        d = policy.decide(heat, accesses, state, 0)
        assert set(d.promotions) == {12, 13, 14, 15}
        assert set(d.demotions) == {0, 1, 2, 3}

    def test_resident_near_pages_stay_put(self):
        policy = LruCache(N, CAP)
        state = _state(near=(0, 1))
        accesses = np.array([0, 1, 0, 1], dtype=np.int64)
        d = policy.decide(_heat(p0=2.0, p1=2.0), accesses, state, 0)
        assert d.moves == 0


class TestBandwidthSpill:
    def test_near_share_from_bandwidths(self):
        policy = BandwidthSpill(N, CAP, near_gbps=30.0, far_gbps=10.0)
        assert policy.near_share == pytest.approx(0.75)

    def test_keeps_hottest_prefix_near(self):
        policy = BandwidthSpill(N, CAP, near_gbps=30.0, far_gbps=10.0)
        # p0 alone carries 80% of the heat >= the 75% near share
        d = policy.decide(_heat(p0=80.0, p1=10.0, p2=10.0), NO_ACCESSES,
                          _state(), 0)
        assert d.promotions == (0,)

    def test_spills_beyond_capacity(self):
        policy = BandwidthSpill(N, CAP, near_gbps=1000.0, far_gbps=1.0)
        heat = np.ones(N, dtype=np.float64)   # wants everything near...
        d = policy.decide(heat, NO_ACCESSES, _state(), 0)
        assert len(d.promotions) == CAP       # ...but capacity caps it

    def test_zero_heat_emits_nothing(self):
        policy = BandwidthSpill(N, CAP)
        d = policy.decide(np.zeros(N), NO_ACCESSES, _state(near=(0,)), 0)
        assert d.moves == 0

    def test_validation(self):
        with pytest.raises(TieringError, match="bandwidths"):
            BandwidthSpill(N, CAP, near_gbps=0.0)


class TestBudgetAndCapacity:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_budget_is_a_hard_cap(self, name):
        policy = make_policy(name, N, CAP, max_moves_per_epoch=3)
        state = TierState(N, CAP, placement=policy.initial_placement())
        tracker = HeatTracker(N)
        rng = np.random.default_rng(7)
        engine = MigrationEngine(state)
        for epoch in range(6):
            batch = rng.integers(0, N, size=64)
            tracker.record(batch)
            tracker.end_epoch()
            d = policy.decide(tracker.heat, batch, state, epoch)
            assert d.moves <= 3
            engine.apply(d)                # also validates capacity
            state.check_conservation()

    def test_zero_budget_freezes_every_policy(self):
        for name in POLICIES:
            policy = make_policy(name, N, CAP, max_moves_per_epoch=0)
            state = _state(near=(0,))
            d = policy.decide(_heat(p9=50.0), np.array([9] * 8), state, 0)
            assert d.moves == 0

    def test_promotion_over_full_tier_pairs_with_demotion(self):
        policy = TppPromote(N, CAP, hysteresis=1, max_moves_per_epoch=8)
        state = _state(near=(0, 1, 2, 3))        # full near tier
        heat = _heat(p9=50.0, p10=40.0)          # near pages all cold
        d = policy.decide(heat, NO_ACCESSES, state, 0)
        assert len(d.promotions) >= 1
        assert len(d.demotions) >= len(d.promotions)   # room made first
        MigrationEngine(state).apply(d)
        state.check_conservation()
