"""Reliability layer: guarded serving, health accounting, fault injection.

The learned structures in :mod:`repro.core` are only deployable when
wrapped in guarantees (Kraska et al.; Rae et al.); this package provides
them:

* :mod:`repro.reliability.guarded` — facades pairing each learned
  structure with its exact auxiliary so queries fail *soft*;
* :mod:`repro.reliability.health` — per-structure fallback counters;
* :mod:`repro.reliability.faults` — test-only fault injection hooks wired
  into the predict, training, and serialize paths.
"""

from .faults import ALWAYS, FaultInjector, active_injector
from .guarded import (
    GUARD_FOR_TASK,
    GuardedBloomFilter,
    GuardedCardinalityEstimator,
    GuardedEstimator,
    GuardedPredicateSuite,
    GuardedSetIndex,
    REASON_EMPTY,
    REASON_INVALID_PREDICTION,
    REASON_MALFORMED,
    REASON_MODEL_ERROR,
    REASON_OOV,
    REASON_OVERSIZED,
    REASON_WINDOW_MISS,
    unwrap,
)
from .health import HealthCounters

__all__ = [
    "ALWAYS",
    "FaultInjector",
    "active_injector",
    "HealthCounters",
    "GuardedEstimator",
    "GuardedCardinalityEstimator",
    "GuardedPredicateSuite",
    "GuardedSetIndex",
    "GuardedBloomFilter",
    "GUARD_FOR_TASK",
    "unwrap",
    "REASON_MALFORMED",
    "REASON_EMPTY",
    "REASON_OVERSIZED",
    "REASON_OOV",
    "REASON_MODEL_ERROR",
    "REASON_INVALID_PREDICTION",
    "REASON_WINDOW_MISS",
]
