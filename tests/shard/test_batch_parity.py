"""Batch/single parity and update fan-out for the sharded routers.

Mirrors ``tests/core/test_batch_parity.py`` at the router level: the
serving subsystem drives everything through the ``*_many`` entry points,
so a sharded answer must never depend on which batch a query lands in.
The guarded facades run the same hostile workloads over sharded routers
as they do over raw structures — including the per-row fallback path
under injected model faults, which must survive the per-shard fan-out.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.reliability import (
    ALWAYS,
    FaultInjector,
    GuardedBloomFilter,
    GuardedCardinalityEstimator,
    GuardedSetIndex,
)

from tests.core.test_batch_parity import PARITY_CASES, assert_single_batch_parity

from .conftest import fresh_router, hostile_workload, subset_workload


class TestShardedRawParity:
    def test_estimate_many_matches_single(self, routers, collection, rng):
        estimator = routers("cardinality", 3)
        queries = subset_workload(collection, rng, num_queries=120)
        batched = estimator.estimate_many(queries)
        singles = np.array([estimator.estimate(q) for q in queries])
        np.testing.assert_allclose(batched, singles, rtol=1e-7)

    def test_lookup_many_matches_single(self, routers, collection, rng):
        index = routers("index", 3)
        queries = subset_workload(collection, rng, num_queries=120)
        assert index.lookup_many(queries) == [index.lookup(q) for q in queries]

    def test_contains_many_matches_single(self, routers, collection, rng):
        bloom = routers("bloom", 3)
        queries = subset_workload(collection, rng, num_queries=120)
        batched = bloom.contains_many(queries)
        assert list(batched) == [bloom.contains(q) for q in queries]

    def test_duplicate_batch_shares_one_answer(self, routers, collection):
        estimator = routers("cardinality", 3)
        query = tuple(collection[0][:2])
        batched = estimator.estimate_many([query] * 64)
        assert np.all(batched == batched[0])
        assert estimator.estimate(query) == pytest.approx(float(batched[0]))


class TestGuardedOverShardedParity:
    """Two fresh facades over one sharded router: a single-query loop vs
    one batch call must give identical answers and health accounting."""

    def test_guarded_estimate_parity(self, routers, truth, collection, rng):
        queries = hostile_workload(collection, rng)
        router = routers("cardinality", 3)
        one = GuardedCardinalityEstimator(router, truth)
        many = GuardedCardinalityEstimator(router, truth)
        singles = np.array([one.estimate(q) for q in queries])
        batched = many.estimate_many(queries)
        np.testing.assert_allclose(batched, singles, rtol=1e-7)
        assert one.health.as_dict() == many.health.as_dict()

    def test_guarded_lookup_parity(self, routers, truth, collection, rng):
        queries = hostile_workload(collection, rng)
        router = routers("index", 3)
        one = GuardedSetIndex(router, truth)
        many = GuardedSetIndex(router, truth)
        singles = [one.lookup(q) for q in queries]
        batched = many.lookup_many(queries)
        assert batched == singles
        assert one.health.as_dict() == many.health.as_dict()

    def test_guarded_contains_parity(self, routers, truth, collection, rng):
        queries = hostile_workload(collection, rng)
        router = routers("bloom", 3)
        one = GuardedBloomFilter(router, truth)
        many = GuardedBloomFilter(router, truth)
        singles = [one.contains(q) for q in queries]
        batched = many.contains_many(queries)
        assert list(batched) == singles
        assert one.health.as_dict() == many.health.as_dict()

    @pytest.mark.parametrize("task, nan", PARITY_CASES)
    def test_every_facade_parity_and_under_nan_predictions(
        self, task, nan, routers, truth, collection, rng
    ):
        assert_single_batch_parity(
            task, routers(task, 3), truth, hostile_workload(collection, rng), nan
        )


class TestUpdateFanout:
    """Router-level overrides: consulted before any shard fan-out, visible
    to both entry points, and isolated to the overridden query."""

    def test_record_update_overrides_one_row_only(self, routers, collection):
        clean = routers("cardinality", 3)
        router = fresh_router(clean)
        target = tuple(collection[0][:2])
        other = tuple(collection[1][:2])
        router.record_update(target, 7)
        batched = router.estimate_many([target, other, target])
        assert batched[0] == 7.0 and batched[2] == 7.0
        assert batched[1] == pytest.approx(clean.estimate(other))
        assert router.estimate(target) == 7.0

    def test_record_update_rejects_negative(self, routers):
        router = fresh_router(routers("cardinality", 3))
        with pytest.raises(ValueError):
            router.record_update((1, 2), -1)

    def test_insert_update_overrides_lookup(self, routers, truth, collection):
        clean = routers("index", 3)
        router = fresh_router(clean)
        target = tuple(collection[0][:2])
        other = tuple(collection[1][:2])
        router.insert_update(target, 41)
        assert router.lookup(target) == 41
        results = router.lookup_many([target, other])
        assert results[0] == 41
        assert results[1] == truth.first_position(other)

    def test_bloom_insert_is_visible_and_isolated(self, routers, collection):
        clean = routers("bloom", 3)
        router = fresh_router(clean)
        absent = (collection.max_element_id() + 3, collection.max_element_id() + 4)
        assert router.contains(absent) is False
        router.insert(absent)
        assert router.contains(absent) is True
        assert absent in router
        assert router.backup is not None
        assert router.backup.contains_set(set(absent))
        # Inserts must not perturb answers for other queries.
        probe = tuple(collection[0][:2])
        assert router.contains(probe) == clean.contains(probe)

    def test_updates_fire_notification_hooks(self, routers, collection):
        events = []
        router = fresh_router(routers("cardinality", 3))
        router.add_update_listener(lambda canonical: events.append(canonical))
        router.record_update((3, 1), 2)
        assert events == [(1, 3)]


@pytest.mark.faults
class TestPerRowFallbackUnderFanout:
    """With every shard's model emitting NaN, the guarded facade must fall
    back per row — while router-level auxiliary rows stay exact answers."""

    def test_estimate_rows_fall_back_independently(self, routers, truth, collection):
        router = fresh_router(routers("cardinality", 3))
        target = tuple(collection[0][:2])
        others = [tuple(collection[i][:2]) for i in (1, 2, 3)]
        router.record_update(target, 7)
        guarded = GuardedCardinalityEstimator(router, truth)
        with FaultInjector(nan_predictions=ALWAYS):
            batched = guarded.estimate_many([target, *others])
        assert batched[0] == 7.0
        for value, query in zip(batched[1:], others):
            assert value == float(truth.cardinality(query))
        assert guarded.health.total_fallbacks == len(others)
        assert guarded.health.model_answers == 1  # the auxiliary-backed row

    def test_lookup_rows_fall_back_independently(self, routers, truth, collection):
        router = fresh_router(routers("index", 3))
        target = tuple(collection[0][:2])
        others = [tuple(collection[i][:2]) for i in (1, 2, 3)]
        router.insert_update(target, 41)
        guarded = GuardedSetIndex(router, truth)
        with FaultInjector(nan_predictions=ALWAYS):
            batched = guarded.lookup_many([target, *others])
        assert batched[0] == 41
        assert batched[1:] == [truth.first_position(q) for q in others]
