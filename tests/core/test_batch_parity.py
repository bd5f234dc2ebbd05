"""Batch/single parity: `*_many` must agree elementwise with the scalar API.

Property-style checks over mixed workloads — auxiliary hits, model-path
subsets, duplicates, and (through the guarded facades) out-of-vocabulary,
empty, and malformed queries.  The serving subsystem routes everything
through the batch entry points, so any divergence here would surface as
answers that silently change when a query happens to share a batch.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

from repro.core import ModelConfig, PredicateCardinalitySuite, TrainConfig
from repro.reliability import (
    ALWAYS,
    FaultInjector,
    GuardedBloomFilter,
    GuardedCardinalityEstimator,
    GuardedPredicateSuite,
    GuardedSetIndex,
)
from repro.sets.predicates import DEFAULT_PREDICATES


def subset_workload(collection, rng, num_queries=120, max_size=3):
    """In-vocabulary queries: subsets of stored sets, with duplicates mixed
    in so the dedup-and-scatter path is exercised."""
    queries = []
    for _ in range(num_queries):
        base = collection[int(rng.integers(len(collection)))]
        size = int(rng.integers(1, min(max_size, len(base)) + 1))
        queries.append(tuple(sorted(rng.choice(base, size=size, replace=False))))
    # Repeat a slice verbatim: duplicates must share one model prediction.
    queries.extend(queries[:20])
    rng.shuffle(queries)
    return [tuple(int(e) for e in q) for q in queries]


def hostile_workload(collection, rng):
    """The full mix for guarded facades: valid, duplicate, empty, OOV,
    oversized, malformed."""
    oov = collection.max_element_id() + 10_000
    hostile = [
        (),  # empty
        (oov,),  # pure OOV
        (0, oov),  # mixed OOV
        tuple(range(max(len(s) for s in collection) + 1)),  # oversized
        tuple(collection[0][:2]) * 2,  # duplicate elements
        ("not", "ints"),  # malformed
        None,  # malformed
    ]
    queries = subset_workload(collection, rng, num_queries=60)
    for position, query in zip(rng.integers(0, len(queries), len(hostile) * 4),
                               hostile * 4):
        queries.insert(int(position), query)
    return queries


#: task -> (facade, single-query call, batch call); the predicate suite's
#: queries are ``(spec, query)`` items (see :func:`keyed`).
GUARDED = {
    "cardinality": (
        GuardedCardinalityEstimator,
        lambda guard, query: guard.estimate(query),
        lambda guard, queries: guard.estimate_many(queries),
    ),
    "predicate": (
        GuardedPredicateSuite,
        lambda guard, item: guard.estimate(item[1], predicate=item[0]),
        lambda guard, items: guard.estimate_many_keyed(items),
    ),
    "index": (
        GuardedSetIndex,
        lambda guard, query: guard.lookup(query),
        lambda guard, queries: guard.lookup_many(queries),
    ),
    "bloom": (
        GuardedBloomFilter,
        lambda guard, query: guard.contains(query),
        lambda guard, queries: guard.contains_many(queries),
    ),
}

#: Every facade under injected NaN predictions, plus the one facade the
#: per-facade tests below do not cover healthy.
PARITY_CASES = [("predicate", False)] + [
    pytest.param(task, True, marks=pytest.mark.faults) for task in GUARDED
]


def keyed(queries):
    """Every query under every default predicate, as ``(spec, query)`` items."""
    return [(p.spec, query) for query in queries for p in DEFAULT_PREDICATES]


def assert_single_batch_parity(task, structure, truth, queries, nan):
    """Two fresh facades over one structure — a loop of singles versus one
    batch call — must agree on every answer *and* every health counter
    (queries, short-circuits per reason, fallbacks per reason, model
    answers), healthy or with every model prediction forced to NaN."""
    facade, single, batch = GUARDED[task]
    if task == "predicate":
        queries = keyed(queries)
    one, many = facade(structure, truth), facade(structure, truth)
    with FaultInjector(nan_predictions=ALWAYS) if nan else nullcontext() as faults:
        singles = [single(one, query) for query in queries]
        batched = list(batch(many, queries))
    if task in ("cardinality", "predicate"):
        np.testing.assert_allclose(batched, singles, rtol=1e-7)
    else:
        assert batched == singles
    assert one.health.as_dict() == many.health.as_dict()
    assert one.health.queries == len(queries)
    if nan:
        assert faults.predictions_corrupted > 0


@pytest.fixture(scope="module")
def trained_suite(small_collection) -> PredicateCardinalitySuite:
    return PredicateCardinalitySuite.build(
        small_collection,
        model_config=ModelConfig(kind="clsm", embedding_dim=4, seed=4),
        train_config=TrainConfig(epochs=3, batch_size=256, lr=3e-3, seed=4),
        num_samples=300,
        max_subset_size=3,
        rng=np.random.default_rng(4),
    )


class TestRawParity:
    def test_estimate_many_matches_single(self, trained_estimator, small_collection, rng):
        queries = subset_workload(small_collection, rng)
        batched = trained_estimator.estimate_many(queries)
        singles = np.array([trained_estimator.estimate(q) for q in queries])
        np.testing.assert_allclose(batched, singles, rtol=1e-7)

    def test_lookup_many_matches_single(self, trained_index, small_collection, rng):
        queries = subset_workload(small_collection, rng)
        batched = trained_index.lookup_many(queries)
        singles = [trained_index.lookup(q) for q in queries]
        assert batched == singles

    def test_predict_positions_matches_predict_position(
        self, trained_index, small_collection, rng
    ):
        queries = subset_workload(small_collection, rng, num_queries=40)
        batched = trained_index.predict_positions(queries)
        singles = np.array([trained_index.predict_position(q) for q in queries])
        np.testing.assert_allclose(batched, singles, rtol=1e-7)

    def test_contains_many_matches_single(self, trained_filter, small_collection, rng):
        queries = subset_workload(small_collection, rng)
        batched = trained_filter.contains_many(queries)
        singles = [trained_filter.contains(q) for q in queries]
        assert list(batched) == singles

    def test_score_many_matches_score(self, trained_filter, small_collection, rng):
        queries = subset_workload(small_collection, rng, num_queries=40)
        batched = trained_filter.score_many(queries)
        singles = np.array([trained_filter.score(q) for q in queries])
        np.testing.assert_allclose(batched, singles, rtol=1e-7)

    @pytest.mark.parametrize("bad", [(), (999_999,)])
    def test_batch_and_single_raise_alike_on_invalid_input(
        self, trained_estimator, bad
    ):
        with pytest.raises(Exception) as single_error:
            trained_estimator.estimate(bad)
        with pytest.raises(Exception) as batch_error:
            trained_estimator.estimate_many([bad])
        assert single_error.type is batch_error.type


class TestGuardedParity:
    """Each test runs the same hostile workload through two fresh facades
    over one shared structure — a single-query loop versus one batch call —
    and demands identical answers *and* identical health accounting."""

    def test_guarded_estimate_parity(
        self, trained_estimator, ground_truth, small_collection, rng
    ):
        queries = hostile_workload(small_collection, rng)
        one = GuardedCardinalityEstimator(trained_estimator, ground_truth)
        many = GuardedCardinalityEstimator(trained_estimator, ground_truth)
        singles = np.array([one.estimate(q) for q in queries])
        batched = many.estimate_many(queries)
        np.testing.assert_allclose(batched, singles, rtol=1e-7)
        assert one.health.as_dict() == many.health.as_dict()

    def test_guarded_lookup_parity(
        self, trained_index, ground_truth, small_collection, rng
    ):
        queries = hostile_workload(small_collection, rng)
        one = GuardedSetIndex(trained_index, ground_truth)
        many = GuardedSetIndex(trained_index, ground_truth)
        singles = [one.lookup(q) for q in queries]
        batched = many.lookup_many(queries)
        assert batched == singles
        assert one.health.as_dict() == many.health.as_dict()

    def test_guarded_contains_parity(
        self, trained_filter, ground_truth, small_collection, rng
    ):
        queries = hostile_workload(small_collection, rng)
        one = GuardedBloomFilter(trained_filter, ground_truth)
        many = GuardedBloomFilter(trained_filter, ground_truth)
        singles = [one.contains(q) for q in queries]
        batched = many.contains_many(queries)
        assert list(batched) == singles
        assert one.health.as_dict() == many.health.as_dict()

    @pytest.mark.parametrize("task, nan", PARITY_CASES)
    def test_every_facade_parity_and_under_nan_predictions(
        self, task, nan, request, ground_truth, small_collection, rng
    ):
        fixture = {
            "cardinality": "trained_estimator",
            "predicate": "trained_suite",
            "index": "trained_index",
            "bloom": "trained_filter",
        }[task]
        assert_single_batch_parity(
            task,
            request.getfixturevalue(fixture),
            ground_truth,
            hostile_workload(small_collection, rng),
            nan,
        )

    def test_guarded_parity_on_pure_duplicate_batch(
        self, trained_estimator, ground_truth, small_collection
    ):
        """A batch of one hot query repeated: one model row, same answers."""
        guarded = GuardedCardinalityEstimator(trained_estimator, ground_truth)
        query = small_collection[0][:2]
        batched = guarded.estimate_many([query] * 64)
        assert np.all(batched == batched[0])
        assert guarded.estimate(query) == pytest.approx(float(batched[0]), rel=1e-7)
