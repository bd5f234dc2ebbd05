"""Guarded serving facades: learned structures that fail *soft*.

The paper's hybrid design (§6) pairs every learned structure with an exact
auxiliary; this module turns that pairing into a runtime guarantee.  Each
facade wraps one learned structure together with a paired exact structure
(an :class:`~repro.sets.inverted.InvertedIndex` over the same collection,
plus the Bloom filter's own backup filter) and serves every query through
one batched pipeline, :meth:`GuardedEstimator._answer`: **validate** every
row (empty, oversized, out-of-vocabulary, and malformed queries get their
kind's defined answer instead of ``KeyError``), one **forward** call on the
wrapped structure for the rest, **accept** or reject each prediction (NaN,
infinite, out-of-range), and answer every rejected row — or every row, if
the model path raised — from the paired **exact** structure.  Single-query
methods are batches of one.  Every event is recorded in per-structure
:class:`HealthCounters` under its row's ``REASON_*`` code.

The policy table is the documented contract; each facade class below is
one column (``short_circuit``: the first four rows, ``_exact``: the last).

===================  =============  ================  ==============  ===============
reason               cardinality    cardinality,      index lookup    bloom contains
                     (subset)       other predicates
===================  =============  ================  ==============  ===============
``empty_query``      ``N`` (all)    ``0``             ``0`` (first)   ``True``\\*
``oversized_query``  ``0.0``        exact count†      ``None``        backup / False
``oov_query``        ``0.0``        exact count†      ``None``        backup / False
``malformed_query``  ``0.0``        ``0.0``           ``None``        ``False``
model failure‡       exact count    exact count       exact position  exact answer
===================  =============  ================  ==============  ===============

\\* the empty set is a subset of every stored set (vacuous truth), so the
answers are the mathematically exact ones for a non-empty collection
(stored sets are non-empty, hence ``0`` under superset/overlap/jaccard).
Oversized and OOV queries cannot be subsets of any stored set, so the miss
answers are exact too; the Bloom facade still consults its backup filter
first because post-training inserts may lie outside the trained universe.

† under superset/overlap/jaccard unknown ids do *not* force a miss and a
huge query *helps* matching, so the row is answered by the exact index
(empty posting lists implement exactly those semantics) and counted as a
*fallback* under its reason rather than as a short-circuit.

‡ ``model_error`` (the forward call or a row's search raised),
``invalid_prediction`` (non-finite or out-of-range output), ``window_miss``
(the index's bounded search found nothing).

This module also owns "what is behind a guard": every facade exposes the
wrapped structure as ``inner`` and rebuilds itself around a retrained one
with ``rewrap(new_inner)``; :func:`unwrap` is the guard-agnostic read.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Sequence

import numpy as np

from ..sets.inverted import InvertedIndex
from ..sets.predicates import SUBSET, as_predicate
from .health import HealthCounters

__all__ = [
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

# Fallback / short-circuit reasons recorded in the health counters.
REASON_MALFORMED = "malformed_query"
REASON_EMPTY = "empty_query"
REASON_OVERSIZED = "oversized_query"
REASON_OOV = "oov_query"
REASON_MODEL_ERROR = "model_error"
REASON_INVALID_PREDICTION = "invalid_prediction"
REASON_WINDOW_MISS = "window_miss"

#: Policy cell value: the row is answered by the paired exact structure and
#: counted as a fallback (under the row's reason), not as a short-circuit.
EXACT = object()


def _max_stored_size(collection) -> int:
    return max(len(stored) for stored in collection)


class GuardedEstimator:
    """The one guarded pipeline; subclasses supply a policy row.

    A policy row is ``short_circuit`` (reason -> the defined answer, or a
    ``cell(guard, predicate, canonical)`` computing it, or :data:`EXACT`),
    ``forward_api`` (the batched model call on ``inner``: the raw-output
    method first, then the direct-answer method sharded routers expose
    instead), ``_accept`` (per-row ``(reason | None, answer)`` verdict on
    what came back) and ``_exact`` (per-row exact answer).

    ``inner`` is the wrapped learned structure (raw or a sharded router),
    ``exact`` the :class:`InvertedIndex` over the collection it was built
    from; queries larger than ``max_query_size`` cannot be subsets of any
    stored set and short-circuit (``None`` disables the check).
    """

    structure_name = "structure"
    short_circuit: dict = {}
    forward_api: tuple[str, ...] = ()

    def __init__(self, inner, exact: InvertedIndex, max_query_size: int | None = None):
        self.inner = inner
        self.exact = exact
        self.max_query_size = max_query_size
        try:  # the trained id universe; None disables OOV detection
            self._id_ceiling = int(inner.max_known_id())
        except Exception:
            self._id_ceiling = None
        self.health = HealthCounters(self.structure_name)
        # Raw estimates or direct answers: decided once, from what inner exposes.
        self._raw = hasattr(inner, self.forward_api[0])

    @classmethod
    def for_collection(cls, inner, collection):
        """Pair ``inner`` with an exact inverted index over ``collection``."""
        return cls(inner, InvertedIndex(collection), _max_stored_size(collection))

    def rewrap(self, new_inner):
        """This guard around ``new_inner``, reusing the exact index and size
        ceiling: refreshes retrain the *model*, never the collection."""
        return type(self)(new_inner, self.exact, self.max_query_size)

    def max_known_id(self) -> int | None:
        """The wrapped structure's trained id universe (None if unknown)."""
        return self._id_ceiling

    def _validate(self, canonical: tuple[int, ...] | None) -> str | None:
        """Reason a query must not reach the model, or ``None`` if it may."""
        if canonical is None:
            return REASON_MALFORMED
        if not canonical:
            return REASON_EMPTY
        if canonical[0] < 0:
            return REASON_OOV
        if self._id_ceiling is not None and canonical[-1] > self._id_ceiling:
            return REASON_OOV
        if self.max_query_size is not None and len(canonical) > self.max_query_size:
            return REASON_OVERSIZED
        return None

    def _forward(self, predicates: list, sets: list[tuple[int, ...]]) -> Sequence:
        return getattr(self.inner, self.forward_api[0 if self._raw else -1])(sets)

    def _answer(self, queries: Sequence[Iterable], predicates=None) -> list:
        """Answer every query (under ``predicates[i]``, default subset) without
        raising.  Plain Python in and out: ``*_many`` convert to an array once."""
        health = self.health
        if predicates is None:
            predicates = (SUBSET,) * len(queries)
        answers: list = [None] * len(queries)
        slots, model_predicates, model_sets = [], [], []
        for slot, (query, predicate) in enumerate(zip(queries, predicates)):
            health.record_query()
            try:
                canonical = tuple(sorted({int(element) for element in query}))
            except (TypeError, ValueError):
                canonical = None
            reason = self._validate(canonical)
            if reason is None:
                slots.append(slot)
                model_predicates.append(predicate)
                model_sets.append(canonical)
                continue
            answer = self.short_circuit[reason]
            if callable(answer):
                answer = answer(self, predicate, canonical)
            if answer is EXACT:
                health.record_fallback(reason)
                answer = self._exact(predicate, canonical)
            else:
                health.record_short_circuit(reason)
            answers[slot] = answer
        if not slots:
            return answers
        try:
            raws = self._forward(model_predicates, model_sets)
            if len(raws) != len(slots):
                raise ValueError("batched model call returned a short result")
        except Exception:
            raws = None  # the whole call failed: every row is a model_error
        for row, slot in enumerate(slots):
            reason = REASON_MODEL_ERROR
            if raws is not None:
                try:
                    reason, answer = self._accept(model_sets[row], raws[row])
                except Exception:
                    pass  # this row's search raised: it stays a model_error
            if reason is None:
                health.record_model_answer()
            else:
                health.record_fallback(reason)
                answer = self._exact(model_predicates[row], model_sets[row])
            answers[slot] = answer
        return answers


def _subset_miss(guard, predicate, canonical):
    """Oversized / OOV rows: an exact miss under subset, else exact count."""
    return 0.0 if predicate.kind == "subset" else EXACT


class GuardedCardinalityEstimator(GuardedEstimator):
    """Reliability facade over :class:`LearnedCardinalityEstimator`: the one
    cardinality policy row, only ever asked its default (subset) predicate."""

    structure_name = "cardinality"
    short_circuit = {
        REASON_EMPTY: lambda guard, predicate, canonical: float(
            predicate.empty_query_count(guard.exact.num_sets)
        ),
        REASON_OVERSIZED: _subset_miss,
        REASON_OOV: _subset_miss,
        REASON_MALFORMED: 0.0,
    }
    forward_api = ("estimate_many",)
    estimator = property(lambda self: self.inner, doc="The wrapped estimator.")

    def estimate(self, query: Iterable[int]) -> float:
        """Cardinality estimate that never raises on any query."""
        return self._answer((query,))[0]

    def estimate_many(self, queries: Sequence[Iterable[int]]) -> np.ndarray:
        """Vectorized :meth:`estimate`: one model call, per-query fallback."""
        return np.array(self._answer(queries), dtype=np.float64)

    def _accept(self, canonical, raw):
        value = float(raw)
        if not math.isfinite(value) or value < 0.0 or value > self.exact.num_sets:
            return REASON_INVALID_PREDICTION, None
        return None, value

    def _exact(self, predicate, canonical: tuple[int, ...]) -> float:
        return float(self.exact.count_predicate(predicate, canonical))


class GuardedPredicateSuite(GuardedCardinalityEstimator):
    """Reliability facade over :class:`PredicateCardinalitySuite`: the
    cardinality row with the predicate supplied per row."""

    structure_name = "predicate_cardinality"
    supports_predicates = True
    suite = property(lambda self: self.inner, doc="The wrapped suite.")

    def estimate(self, query: Iterable[int], predicate=None) -> float:
        """Predicate-conditioned estimate that never raises on any query."""
        return self._answer((query,), (as_predicate(predicate),))[0]

    def estimate_many(
        self, queries: Sequence[Iterable[int]], predicate=None
    ) -> np.ndarray:
        predicates = (as_predicate(predicate),) * len(queries)
        return np.array(self._answer(queries, predicates), dtype=np.float64)

    def estimate_many_keyed(
        self, items: Sequence[tuple[str, Iterable[int]]]
    ) -> np.ndarray:
        """Mixed ``(predicate_spec, query)`` batch.  A malformed wire spec is
        per-row data, not a programming error: its row is a
        ``malformed_query`` instead of an exception for the whole batch."""
        queries, predicates = [], []
        for spec, query in items:
            try:
                predicates.append(as_predicate(spec))
            except (TypeError, ValueError):
                predicates.append(SUBSET)
                query = None
            queries.append(query)
        return np.array(self._answer(queries, predicates), dtype=np.float64)

    def _forward(self, predicates, sets):
        keyed = [(predicate.spec, query) for predicate, query in zip(predicates, sets)]
        return self.inner.estimate_many_keyed(keyed)


class GuardedSetIndex(GuardedEstimator):
    """Reliability facade over :class:`LearnedSetIndex`; always exact.

    A window miss, a non-finite prediction, or any exception falls back to
    the exact inverted index instead of the unguarded full-collection
    rescan.  Sharded routers resolve positions internally and expose no
    raw estimate, so for them the forward call is the lookup itself.
    """

    structure_name = "index"
    short_circuit = {
        # Empty query: contained in every set, so the first position.
        REASON_EMPTY: lambda guard, *_: 0 if guard.exact.num_sets else None,
        REASON_OVERSIZED: None,
        REASON_OOV: None,
        REASON_MALFORMED: None,
    }
    forward_api = ("predict_positions", "lookup_many")
    index = property(lambda self: self.inner, doc="The wrapped index.")

    def __init__(self, index, exact: InvertedIndex | None = None,
                 max_query_size: int | None = None):
        if exact is None:
            exact = InvertedIndex(index.collection)
        if max_query_size is None:
            max_query_size = _max_stored_size(index.collection)
        super().__init__(index, exact, max_query_size)

    def lookup(self, query: Iterable[int]) -> int | None:
        """First position containing ``query``; never raises, always exact."""
        return self._answer((query,))[0]

    def lookup_many(self, queries: Sequence[Iterable[int]]) -> list[int | None]:
        """Vectorized :meth:`lookup`: one prediction pass, per-query search."""
        return self._answer(queries)

    def _accept(self, canonical, raw):
        if self._raw:
            if not math.isfinite(raw):
                return REASON_INVALID_PREDICTION, None
            raw = self.inner.lookup_with_estimate(
                canonical, float(raw), fallback_scan=False
            )
        return (REASON_WINDOW_MISS, None) if raw is None else (None, raw)

    def _exact(self, predicate, canonical: tuple[int, ...]) -> int | None:
        return self.exact.first_position(canonical)


def _backup(guard, predicate, canonical) -> bool:
    """Post-training inserts live in the backup filter."""
    backup = guard.inner.backup
    return bool(backup.contains_set(set(canonical))) if backup is not None else False


class GuardedBloomFilter(GuardedEstimator):
    """Reliability facade over :class:`LearnedBloomFilter`.

    Keeps the no-false-negative guarantee under NaN scores: a non-finite
    score is answered by the exact inverted index (plus the backup filter
    for post-training inserts), so an indexed subset is never reported
    absent.  Sharded routers answer membership directly (no raw score).
    """

    structure_name = "bloom"
    short_circuit = {
        REASON_EMPTY: lambda guard, *_: guard.exact.num_sets > 0,
        # OOV / oversized subsets cannot be members of the trained universe.
        REASON_OVERSIZED: _backup,
        REASON_OOV: _backup,
        REASON_MALFORMED: False,
    }
    forward_api = ("score_many", "contains_many")
    filter = property(lambda self: self.inner, doc="The wrapped filter.")

    def contains(self, query: Iterable[int]) -> bool:
        return self._answer((query,))[0]

    __contains__ = contains

    def contains_many(self, queries: Sequence[Iterable[int]]) -> np.ndarray:
        """Vectorized :meth:`contains`: one scoring pass, per-query fallback."""
        return np.array(self._answer(queries), dtype=bool)

    def _accept(self, canonical, raw):
        if not self._raw:
            return None, bool(raw)
        if not math.isfinite(raw):
            return REASON_INVALID_PREDICTION, None
        hit = bool(raw >= self.inner.threshold)
        return None, hit or _backup(self, SUBSET, canonical)

    def _exact(self, predicate, canonical: tuple[int, ...]) -> bool:
        return self.exact.contains(canonical) or _backup(self, predicate, canonical)


#: Builder / CLI task name -> the facade that guards that task's structure.
GUARD_FOR_TASK = {
    "cardinality": GuardedCardinalityEstimator,
    "predicate": GuardedPredicateSuite,
    "index": GuardedSetIndex,
    "bloom": GuardedBloomFilter,
}


def unwrap(structure: Any) -> Any:
    """The structure behind a guard, or ``structure`` itself if unguarded."""
    return structure.inner if isinstance(structure, GuardedEstimator) else structure
