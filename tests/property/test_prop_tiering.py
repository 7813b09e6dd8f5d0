"""Property tests for the runtime tiering engine.

Three contracts worth hammering with hypothesis:

* **heat-decay equality** — the tracker's ``np.bincount`` +
  multiply-add fold must be *bit-identical* to the per-element
  :func:`~repro.tiering.heat.fold_reference` on every stream (not
  approximately equal: both round twice per element in the same order,
  so equality is exact);
* **page conservation** — any stream of valid migration decisions
  leaves every page in exactly one tier, counts intact, capacity
  respected; the stamp-based LRU policy holds exactly the pages the
  scalar ``PageCache`` oracle holds after the same stream;
* **determinism** — the same spec/seed always produces the same
  decisions and the same evaluation result, which is what the sweep
  cache's byte-identity guarantee sits on;
* **partial orders are the full sort's prefix** —
  :func:`~repro.tiering.heat.hottest_pages` and the spill policy that
  uses it must pick exactly what a lexsort of the whole footprint
  picks, ties, zeros and out-of-range ``k`` included;
* **``touch(p)`` is ``record([p])``** — on counts, access totals,
  folded heat and the error raised for a bad id;
* **the Zipf draw is ``Generator.choice``** — :class:`TraceGen` draws
  its hot pages through a guide table, and must return the indices
  ``rng.choice(n, size, p=w)`` returns and leave the generator in the
  same state.  NumPy's own ``choice`` is the oracle, so a NumPy that
  changes it fails here instead of silently moving a trace.

The per-page copy loop, which runs when a fault plan targets the
``migration`` site, is the oracle of the bulk remap taken without one.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import faults
from repro.core.tiering import PageCache
from repro.faults.plan import FaultPlan, MigrationAbortSpec
from repro.tiering.evaluate import (
    TRACE_KINDS,
    TieringSpec,
    TraceGen,
    evaluate_policy,
)
from repro.errors import TieringError
from repro.tiering.heat import HeatTracker, fold_reference, hottest_pages
from repro.tiering.migrate import (
    FAR,
    NEAR,
    MigrationDecision,
    MigrationEngine,
    TierState,
)
from repro.tiering.policy import (
    POLICIES,
    BandwidthSpill,
    LruCache,
    make_policy,
)

# ---------------------------------------------------------------------------
# vector heat fold ≡ per-element reference
# ---------------------------------------------------------------------------

epoch_batches = st.lists(
    st.lists(st.integers(0, 96), min_size=0, max_size=200),
    min_size=1, max_size=8,
)


@given(batches=epoch_batches,
       decay=st.floats(0.0, 0.999, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_heat_scalar_vector_bit_identical(batches, decay):
    tracker = HeatTracker(97, decay=decay)
    reference = np.zeros(97, dtype=np.float64)
    for batch in batches:
        arr = np.asarray(batch, dtype=np.int64)
        tracker.record(arr)
        counts = tracker.end_epoch()
        reference = fold_reference(reference, arr, decay)
        assert np.array_equal(counts, np.bincount(arr, minlength=97))
        # bitwise, not approximate: same two roundings per element
        assert tracker.heat.tobytes() == reference.tobytes()


# ---------------------------------------------------------------------------
# touch(p) ≡ record([p])
# ---------------------------------------------------------------------------

TOUCH_PAGES = 37

#: valid and out-of-range ints, NumPy ints, and ids ``record`` refuses
touch_ids = st.one_of(
    st.integers(-3, TOUCH_PAGES + 3),
    st.integers(-2**70, 2**70),
    st.integers(0, TOUCH_PAGES + 3).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.booleans(),
    st.floats(-2.0, TOUCH_PAGES + 2.0, allow_nan=False),
)


def _raised(call) -> str | None:
    try:
        call()
    except TieringError as exc:
        return str(exc)
    return None


@given(pages=st.lists(touch_ids, max_size=40),
       decay=st.floats(0.0, 0.999, allow_nan=False))
@example(pages=[0, TOUCH_PAGES - 1, TOUCH_PAGES, -1, np.int64(TOUCH_PAGES),
                True, 3.0, 2**63, 5, 5, 5], decay=0.5)
@settings(max_examples=100, deadline=None)
def test_touch_is_record_of_one_page(pages, decay):
    touched = HeatTracker(TOUCH_PAGES, decay=decay)
    recorded = HeatTracker(TOUCH_PAGES, decay=decay)
    for i, page in enumerate(pages):
        assert _raised(lambda: touched.touch(page)) == \
            _raised(lambda: recorded.record([page]))
        assert touched.total_accesses == recorded.total_accesses
        if i % 7 == 6:
            assert np.array_equal(touched.end_epoch(), recorded.end_epoch())
    assert np.array_equal(touched.end_epoch(), recorded.end_epoch())
    assert touched.heat.tobytes() == recorded.heat.tobytes()


# ---------------------------------------------------------------------------
# hottest prefix ≡ the full lexsort
# ---------------------------------------------------------------------------

#: heats with many ties (a few levels), arbitrary heats, all zero, all equal
heats = st.integers(1, 300).flatmap(lambda n: st.one_of(
    st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=n, max_size=n),
    st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=n, max_size=n),
    st.just([0.0] * n),
    st.just([1.5] * n),
)).map(lambda h: np.asarray(h, dtype=np.float64))


def _spill_reference(policy: BandwidthSpill, heat: np.ndarray,
                     state: TierState) -> tuple[np.ndarray, np.ndarray]:
    """``BandwidthSpill.candidates`` by a lexsort of the whole footprint."""
    desired = np.zeros(policy.n_pages, dtype=bool)
    total = float(heat.sum())
    if total <= 0.0:
        return desired, desired
    order = np.lexsort((np.arange(policy.n_pages), -heat))
    cum = np.cumsum(heat[order])
    want = int(np.searchsorted(cum, policy.near_share * total) + 1)
    desired[order[:min(want, policy.near_capacity_pages)]] = True
    desired &= heat > 0.0
    near = state.placement == NEAR
    return desired & ~near, near & ~desired


@given(heat=heats, data=st.data())
@settings(max_examples=200, deadline=None)
def test_hottest_pages_is_the_lexsort_prefix(heat, data):
    k = data.draw(st.integers(-1, heat.size + 2))
    got = hottest_pages(heat, k)
    assert got.dtype == np.int64
    want = np.lexsort((np.arange(heat.size), -heat))[:max(k, 0)]
    assert got.tolist() == want.tolist()


@given(heat=heats, data=st.data())
@settings(max_examples=200, deadline=None)
def test_spill_candidates_match_the_full_sort(heat, data):
    n = heat.size
    policy = BandwidthSpill(n, data.draw(st.integers(0, n + 2)),
                            near_gbps=data.draw(
                                st.sampled_from([33.0, 1.0, 1e6])))
    placement = data.draw(st.lists(st.sampled_from([NEAR, FAR]),
                                   min_size=n, max_size=n))
    state = TierState(n, n, placement=np.asarray(placement, dtype=np.int8))
    got = policy.candidates(heat, np.empty(0, dtype=np.int64), state)
    want = _spill_reference(policy, heat, state)
    assert [m.tolist() for m in got] == [m.tolist() for m in want]


# ---------------------------------------------------------------------------
# stamp LRU ≡ scalar PageCache oracle
# ---------------------------------------------------------------------------

LRU_PAGES = 5000


def _streams():
    """Epochs of narrow reuse, wide jumps, strided walks and mixes."""
    narrow = st.integers(0, 7)
    wide = st.integers(0, LRU_PAGES - 1)
    mixed = st.lists(st.one_of(narrow, wide), max_size=300)
    strided = st.builds(
        lambda start, stride, n: [(start + i * stride) % LRU_PAGES
                                  for i in range(n)],
        wide, st.integers(1, 997), st.integers(0, 300))
    return st.lists(st.one_of(mixed, strided), min_size=1, max_size=6)


def _assert_lru_matches_oracle(batches, capacity):
    # with every page far, the promotion mask is the resident set
    policy = LruCache(LRU_PAGES, capacity)
    state = TierState(LRU_PAGES, capacity)
    oracle = PageCache(capacity)
    heat = np.zeros(LRU_PAGES, dtype=np.float64)
    for batch in batches:
        for page in batch:
            oracle.access(page)
        promote, demote = policy.candidates(
            heat, np.asarray(batch, dtype=np.int64), state)
        assert set(np.flatnonzero(promote).tolist()) == set(oracle.pages())
        assert not demote.any()


@given(batches=_streams(), capacity=st.integers(1, 64))
@settings(max_examples=100, deadline=None)
def test_lru_stamps_match_page_cache_oracle(batches, capacity):
    _assert_lru_matches_oracle(batches, capacity)


def test_lru_stamps_long_distinct_run_exceeding_capacity():
    # one epoch of 5,000 distinct pages, then one re-touching a few of them
    run = list(range(LRU_PAGES))
    _assert_lru_matches_oracle([run, run[::-250]], capacity=16)


# ---------------------------------------------------------------------------
# page conservation under random decision streams
# ---------------------------------------------------------------------------

N_PAGES = 64
CAPACITY = 24


@st.composite
def decision_streams(draw):
    """A seed for deterministically re-deriving random valid decisions."""
    return (draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 12)))


def _random_decision(rng, state: TierState, epoch: int) -> MigrationDecision:
    """A random decision that is valid against ``state``."""
    near = sorted(state.near_pages)
    far = sorted(state.far_pages)
    n_demo = int(rng.integers(0, len(near) + 1)) if near else 0
    demos = [int(p) for p in
             rng.choice(near, size=n_demo, replace=False)] if n_demo else []
    room = CAPACITY - len(near) + n_demo
    n_promo = int(rng.integers(0, min(len(far), room) + 1)) \
        if far and room > 0 else 0
    promos = [int(p) for p in
              rng.choice(far, size=n_promo, replace=False)] if n_promo \
        else []
    return MigrationDecision(epoch=epoch, promotions=tuple(promos),
                             demotions=tuple(demos))


@given(params=decision_streams())
@settings(max_examples=100, deadline=None)
def test_conservation_under_random_decisions(params):
    seed, rounds = params
    rng = np.random.default_rng(seed)
    state = TierState(N_PAGES, CAPACITY)
    engine = MigrationEngine(state)
    for epoch in range(rounds):
        decision = _random_decision(rng, state, epoch)
        report = engine.apply(decision)
        assert report.promoted == len(decision.promotions)
        assert report.demoted == len(decision.demotions)
        state.check_conservation()
    # lifetime accounting adds up
    assert engine.stats.remaps == engine.stats.promotions + \
        engine.stats.demotions
    assert engine.stats.migration_bytes == engine.stats.remaps * 4096


# ---------------------------------------------------------------------------
# bulk remap ≡ per-page copy loop
# ---------------------------------------------------------------------------

def _idle_plan() -> FaultPlan:
    """A plan whose migration abort is armed but never fires: it sends
    every move through the per-page loop and changes nothing else."""
    return FaultPlan(faults=[MigrationAbortSpec(at_move=10**9)])


def _apply_stream(seed: int, rounds: int):
    rng = np.random.default_rng(seed)
    state = TierState(N_PAGES, CAPACITY)
    # an inexact per-page cost, so the bill's summation order shows
    engine = MigrationEngine(state, link_gbps=11.5, remap_ns=2000.0)
    reports = [engine.apply(_random_decision(rng, state, epoch))
               for epoch in range(rounds)]
    return state, engine.stats, reports


@given(params=decision_streams())
@settings(max_examples=100, deadline=None)
def test_bulk_remap_matches_per_page_loop(params):
    seed, rounds = params
    assert not faults.enabled()
    bulk_state, bulk_stats, bulk_reports = _apply_stream(seed, rounds)
    with faults.use_plan(_idle_plan()) as plan:
        loop_state, loop_stats, loop_reports = _apply_stream(seed, rounds)
    # every move went through the hook, none of them was aborted
    assert plan.counts.get("migration", 0) == loop_stats.remaps
    assert loop_stats.aborted == 0
    assert bulk_state.placement.tobytes() == loop_state.placement.tobytes()
    assert bulk_state.near_pages == loop_state.near_pages
    assert bulk_state.far_pages == loop_state.far_pages
    assert bulk_stats == loop_stats
    assert bulk_stats.move_ns.hex() == loop_stats.move_ns.hex()
    assert bulk_reports == loop_reports
    assert [r.move_ns.hex() for r in bulk_reports] == \
        [r.move_ns.hex() for r in loop_reports]


@pytest.mark.parametrize("trace", TRACE_KINDS)
def test_evaluation_same_through_per_page_loop(trace):
    for policy in sorted(POLICIES):
        spec = TieringSpec(policy=policy, trace=trace, seed=5, n_pages=256,
                           epochs=6, epoch_accesses=1024)
        bulk = evaluate_policy(spec)
        with faults.use_plan(_idle_plan()) as plan:
            loop = evaluate_policy(spec)
        assert plan.counts.get("migration", 0) == \
            loop.promotions + loop.demotions
        # JSON floats are repr: equal text is equal bits
        assert json.dumps(loop.to_doc()) == json.dumps(bulk.to_doc())


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_policies_never_break_conservation(seed):
    rng = np.random.default_rng(seed)
    for name in ("static", "lru", "tpp", "spill"):
        policy = make_policy(name, N_PAGES, CAPACITY,
                             max_moves_per_epoch=16)
        state = TierState(N_PAGES, CAPACITY,
                          placement=policy.initial_placement())
        engine = MigrationEngine(state)
        tracker = HeatTracker(N_PAGES)
        for epoch in range(4):
            batch = rng.integers(0, N_PAGES, size=100)
            tracker.record(batch)
            tracker.end_epoch()
            decision = policy.decide(tracker.heat, batch, state, epoch)
            assert decision.moves <= 16
            engine.apply(decision)
            state.check_conservation()


# ---------------------------------------------------------------------------
# determinism under fixed seeds
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 2**16 - 1),
       policy=st.sampled_from(["static", "lru", "tpp", "spill"]),
       trace=st.sampled_from(["zipf", "stream", "chase", "mixed"]))
@settings(max_examples=30, deadline=None)
def test_policy_evaluation_deterministic(seed, policy, trace):
    spec = TieringSpec(policy=policy, trace=trace, seed=seed,
                       n_pages=256, epochs=4, epoch_accesses=512)
    a = evaluate_policy(spec)
    b = evaluate_policy(spec)
    assert a.to_doc() == b.to_doc()


# ---------------------------------------------------------------------------
# the Zipf draw is Generator.choice, exactly
# ---------------------------------------------------------------------------

#: 0 (uniform), 1 and 2, then exponents whose tail underflows so the
#: CDF repeats its last value, plus arbitrary ones
zipf_alphas = st.sampled_from([0.0, 1.0, 2.0, 60.0, 400.0]) | st.floats(
    0.0, 8.0, allow_nan=False)


def _zipf_p(hot_pages: int, alpha: float) -> np.ndarray:
    w = np.arange(1, hot_pages + 1, dtype=np.float64) ** -alpha
    return w / w.sum()


class _ChoiceTraceGen(TraceGen):
    """The trace generator drawing its hot pages with ``rng.choice``."""

    def _zipf_draw(self, size, hot_pages):
        return self.rng.choice(hot_pages, size=size,
                               p=_zipf_p(hot_pages, self.spec.alpha))


@given(seed=st.integers(0, 2**32 - 1), hot_pages=st.integers(1, 5000),
       alpha=zipf_alphas,
       sizes=st.lists(st.integers(1, 4096), min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_zipf_draw_is_rng_choice(seed, hot_pages, alpha, sizes):
    gen = TraceGen(TieringSpec(alpha=alpha, seed=seed))
    oracle = np.random.default_rng(seed)
    p = _zipf_p(hot_pages, alpha)
    for size in sizes:      # later draws reuse the cached guide table
        want = oracle.choice(hot_pages, size=size, p=p)
        got = gen._zipf_draw(size, hot_pages)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert gen.rng.bit_generator.state == oracle.bit_generator.state


@given(seed=st.integers(0, 2**32 - 1),
       trace=st.sampled_from(["zipf", "mixed"]),
       n_pages=st.integers(2, 6000),
       near_fraction=st.floats(0.001, 0.999),
       alpha=zipf_alphas,
       epoch_accesses=st.integers(1, 3000),
       hot_fraction=st.floats(0.0, 1.0))
@settings(max_examples=80, deadline=None)
def test_zipf_and_mixed_traces_match_rng_choice(seed, trace, n_pages,
                                                near_fraction, alpha,
                                                epoch_accesses,
                                                hot_fraction):
    spec = TieringSpec(trace=trace, n_pages=n_pages,
                       near_fraction=near_fraction, alpha=alpha,
                       epochs=3, epoch_accesses=epoch_accesses,
                       hot_fraction=hot_fraction, seed=seed)
    gen, oracle = TraceGen(spec), _ChoiceTraceGen(spec)
    for epoch in range(spec.epochs):
        np.testing.assert_array_equal(gen.epoch(epoch), oracle.epoch(epoch))
    assert gen.rng.bit_generator.state == oracle.rng.bit_generator.state
