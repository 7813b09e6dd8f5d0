"""Runtime hot/cold tiering engine.

Where :mod:`repro.core.tiering` models Memory Mode as a *static* second
tier (an LRU hit rate folded into a fixed interleave), this package
moves pages at runtime:

* :mod:`repro.tiering.heat` — vectorized per-page access heat with
  exponential decay at epoch folds (one fold, byte-equal to its
  per-element reference :func:`~repro.tiering.heat.fold_reference`);
* :mod:`repro.tiering.policy` — pluggable promotion/demotion policies
  (static interleave, exact LRU from last-use stamps, TPP-style
  hysteresis, bandwidth-aware spill), each a pair of candidate masks
  behind one shared ``decide()``;
* :mod:`repro.tiering.migrate` — applies batched decisions with
  modelled move cost, optional real CXL-datapath copies, fault-plane
  abort exposure, and hard page-conservation invariants;
* :mod:`repro.tiering.evaluate` — deterministic trace-driven policy
  evaluation, plus the bridge that turns a policy's steady traffic
  split into a sweepable NUMA policy.
"""

from repro.tiering.evaluate import (
    TRACE_KINDS,
    TieringResult,
    TieringSpec,
    compare_policies,
    effective_sweep_policy,
    evaluate_policy,
)
from repro.tiering.heat import HeatTracker, fold_reference
from repro.tiering.migrate import (
    FAR,
    NEAR,
    EpochMoveReport,
    MigrationDecision,
    MigrationEngine,
    MigrationStats,
    TierState,
    interleave_placement,
)
from repro.tiering.policy import (
    POLICIES,
    BandwidthSpill,
    LruCache,
    StaticInterleave,
    TieringPolicy,
    TppPromote,
    make_policy,
)

__all__ = [
    "TRACE_KINDS", "TieringSpec", "TieringResult",
    "compare_policies", "effective_sweep_policy", "evaluate_policy",
    "HeatTracker", "fold_reference",
    "NEAR", "FAR", "MigrationDecision", "MigrationStats",
    "EpochMoveReport", "TierState", "MigrationEngine",
    "interleave_placement",
    "POLICIES", "TieringPolicy", "StaticInterleave", "LruCache",
    "TppPromote", "BandwidthSpill", "make_policy",
]
