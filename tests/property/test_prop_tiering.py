"""Property tests for the runtime tiering engine.

Three contracts worth hammering with hypothesis:

* **heat-decay equality** — the scalar Python loop and the vectorized
  ``np.bincount`` + multiply-add fold must be *bit-identical* on every
  stream (not approximately equal: both paths round twice per element
  in the same order, so equality is exact);
* **page conservation** — any stream of valid migration decisions
  leaves every page in exactly one tier, counts intact, capacity
  respected; the batched LRU ``access_many`` must match the scalar
  ``access`` oracle state-for-state and counter-for-counter;
* **determinism** — the same spec/seed always produces the same
  decisions and the same evaluation result, which is what the sweep
  cache's byte-identity guarantee sits on.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import compiled
from repro.core.tiering import PageCache
from repro.tiering.evaluate import TieringSpec, evaluate_policy
from repro.tiering.heat import HEAT_VECTORIZE_THRESHOLD, HeatTracker
from repro.tiering.migrate import (
    FAR,
    NEAR,
    MigrationDecision,
    MigrationEngine,
    TierState,
)
from repro.tiering.policy import make_policy

# ---------------------------------------------------------------------------
# scalar ≡ vector heat decay
# ---------------------------------------------------------------------------

epoch_batches = st.lists(
    st.lists(st.integers(0, 96), min_size=0, max_size=200),
    min_size=1, max_size=8,
)


@given(batches=epoch_batches,
       decay=st.floats(0.0, 0.999, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_heat_scalar_vector_bit_identical(batches, decay):
    scalar = HeatTracker(97, decay=decay, backend="scalar")
    vector = HeatTracker(97, decay=decay, backend="vector")
    for batch in batches:
        arr = np.asarray(batch, dtype=np.int64)
        scalar.record(arr)
        vector.record(arr)
        counts_s = scalar.end_epoch()
        counts_v = vector.end_epoch()
        assert np.array_equal(counts_s, counts_v)
        # bitwise, not approximate: same two roundings per element
        assert scalar.heat.tobytes() == vector.heat.tobytes()
    assert np.array_equal(scalar.hottest(10), vector.hottest(10))


@given(batches=epoch_batches)
@settings(max_examples=50, deadline=None)
def test_heat_compiled_backend_falls_back_to_vector(batches):
    """A global ``compiled`` force (``REPRO_BACKEND=compiled``) finds no
    heat kernel and runs the vector fold, even below the size at which
    ``auto`` would pick the scalar loop."""
    n_pages = HEAT_VECTORIZE_THRESHOLD - 1
    vector = HeatTracker(n_pages, backend="vector")
    forced = HeatTracker(n_pages)
    prev = compiled.set_backend("compiled")
    try:
        assert forced.resolve_backend() == "vector"
        for batch in batches:
            arr = np.asarray(batch, dtype=np.int64) % n_pages
            vector.record(arr)
            forced.record(arr)
            vector.end_epoch()
            forced.end_epoch()
    finally:
        compiled.set_backend(prev)
    assert vector.heat.tobytes() == forced.heat.tobytes()


# ---------------------------------------------------------------------------
# batched LRU ≡ scalar oracle
# ---------------------------------------------------------------------------

def _streams():
    """Streams exercising every access_many fast path: hit runs
    (narrow reuse), distinct-miss runs (wide strides), and mixes."""
    narrow = st.integers(0, 7)
    wide = st.integers(0, 4999)
    return st.lists(
        st.lists(st.one_of(narrow, wide), min_size=0, max_size=300),
        min_size=1, max_size=6,
    )


@given(batches=_streams(), capacity=st.integers(1, 64))
@settings(max_examples=100, deadline=None)
def test_access_many_matches_scalar_oracle(batches, capacity):
    oracle = PageCache(capacity)
    batched = PageCache(capacity)
    for batch in batches:
        expect_hits = sum(oracle.access(p) for p in batch)
        got_hits = batched.access_many(np.asarray(batch, dtype=np.int64))
        assert got_hits == expect_hits
    assert batched.hits == oracle.hits
    assert batched.misses == oracle.misses
    assert batched.evictions == oracle.evictions
    # identical final LRU recency order, not just the same set
    assert batched.pages() == oracle.pages()


def test_access_many_long_distinct_run_exceeding_capacity():
    # one chunk-sized miss run longer than the whole cache
    oracle, batched = PageCache(16), PageCache(16)
    stream = list(range(5000))
    for p in stream:
        oracle.access(p)
    batched.access_many(np.asarray(stream, dtype=np.int64))
    assert batched.pages() == oracle.pages()
    assert (batched.hits, batched.misses, batched.evictions) == (
        oracle.hits, oracle.misses, oracle.evictions)


# ---------------------------------------------------------------------------
# page conservation under random decision streams
# ---------------------------------------------------------------------------

N_PAGES = 64
CAPACITY = 24


@st.composite
def decision_streams(draw):
    """A seed for deterministically re-deriving random valid decisions."""
    return (draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 12)))


@given(params=decision_streams())
@settings(max_examples=100, deadline=None)
def test_conservation_under_random_decisions(params):
    seed, rounds = params
    rng = np.random.default_rng(seed)
    state = TierState(N_PAGES, CAPACITY)
    engine = MigrationEngine(state)
    for epoch in range(rounds):
        near = sorted(state.near_pages)
        far = sorted(state.far_pages)
        n_demo = int(rng.integers(0, len(near) + 1)) if near else 0
        demos = [int(p) for p in
                 rng.choice(near, size=n_demo, replace=False)] if n_demo \
            else []
        room = CAPACITY - len(near) + n_demo
        n_promo = int(rng.integers(0, min(len(far), room) + 1)) \
            if far and room > 0 else 0
        promos = [int(p) for p in
                  rng.choice(far, size=n_promo, replace=False)] if n_promo \
            else []
        report = engine.apply(MigrationDecision(
            epoch=epoch, promotions=tuple(promos), demotions=tuple(demos)))
        assert report.promoted == n_promo
        assert report.demoted == n_demo
        state.check_conservation()
    # lifetime accounting adds up
    assert engine.stats.remaps == engine.stats.promotions + \
        engine.stats.demotions
    assert engine.stats.migration_bytes == engine.stats.remaps * 4096


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
        tracker = HeatTracker(N_PAGES, backend="vector")
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


@given(seed=st.integers(0, 2**16 - 1))
@settings(max_examples=20, deadline=None)
def test_scalar_vector_backends_identical_results(seed):
    base = TieringSpec(policy="tpp", seed=seed, n_pages=128, epochs=4,
                       epoch_accesses=512)
    scalar = evaluate_policy(replace(base, backend="scalar"))
    vector = evaluate_policy(replace(base, backend="vector"))
    assert scalar.to_doc() == vector.to_doc()
