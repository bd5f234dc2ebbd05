"""Tests for the learned set index and Algorithm 2 search."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LearnedSetIndex, ModelConfig, TrainConfig
from repro.reliability import ALWAYS, FaultInjector
from repro.sets import index_training_pairs, sample_query_workload


class TestLookupCorrectness:
    def test_all_trained_subsets_found_exactly(
        self, trained_index, small_collection, ground_truth
    ):
        """The hybrid guarantee: every trained subset resolves to its true
        first position (via auxiliary, bounds, or fallback)."""
        subsets, positions = index_training_pairs(small_collection, max_subset_size=3)
        sample = np.random.default_rng(0).choice(len(subsets), 200, replace=False)
        for row in sample:
            assert trained_index.lookup(subsets[row]) == positions[row]

    def test_workload_lookups_match_ground_truth(
        self, trained_index, small_collection, ground_truth
    ):
        queries = sample_query_workload(
            small_collection, 100, rng=np.random.default_rng(1), max_subset_size=3
        )
        for query in queries:
            assert trained_index.lookup(query) == ground_truth.first_position(query)

    def test_absent_query_returns_none(self, trained_index, ground_truth):
        # Construct a query over existing elements that never co-occurs.
        absent = None
        for a in range(30):
            for b in range(30, 60):
                if ground_truth.cardinality((a, b)) == 0 and (a in ground_truth) and (
                    b in ground_truth
                ):
                    absent = (a, b)
                    break
            if absent:
                break
        assert absent is not None
        assert trained_index.lookup(absent) is None

    def test_no_fallback_mode_may_miss(self, trained_index):
        """With fallback off, untrained subsets can return None (documented)."""
        result = trained_index.lookup((0, 1, 2, 3, 4), fallback_scan=False)
        assert result is None or isinstance(result, int)


class TestEqualitySearch:
    def test_lookup_equal_finds_stored_sets(self, trained_index, small_collection):
        for position in (0, 10, 100):
            stored = small_collection[position]
            found = trained_index.lookup_equal(stored)
            # The first equal occurrence may precede `position` (duplicates).
            assert small_collection[found] == stored
            assert found <= position

    def test_lookup_equal_rejects_proper_subsets(
        self, trained_index, small_collection
    ):
        stored = small_collection[0]
        if len(stored) > 1:
            subset = stored[:-1]
            found = trained_index.lookup_equal(subset)
            assert found is None or small_collection[found] == subset


class TestStatsAndBounds:
    def test_stats_accumulate(self, trained_index, small_collection):
        trained_index.reset_stats()
        queries = sample_query_workload(
            small_collection, 20, rng=np.random.default_rng(2), max_subset_size=3
        )
        for query in queries:
            trained_index.lookup(query)
        stats = trained_index.stats
        assert stats.lookups == 20
        assert stats.auxiliary_hits <= 20
        assert stats.sets_scanned >= 0
        assert stats.mean_scan_length >= 0.0

    def test_local_errors_scan_less_than_global(self, small_collection):
        """Ablation: the same index scans more with a single global bound."""
        config = dict(
            model_config=ModelConfig(kind="clsm", embedding_dim=4, seed=3),
            train_config=TrainConfig(epochs=8, batch_size=256, lr=3e-3, seed=3),
            max_subset_size=2,
            error_range_length=25,
        )
        index = LearnedSetIndex.build(small_collection, **config)
        queries = sample_query_workload(
            small_collection, 30, rng=np.random.default_rng(4), max_subset_size=2
        )
        index.use_local_errors = True
        index.reset_stats()
        for query in queries:
            index.lookup(query)
        local_scanned = index.stats.sets_scanned
        index.use_local_errors = False
        index.reset_stats()
        for query in queries:
            index.lookup(query)
        global_scanned = index.stats.sets_scanned
        assert local_scanned <= global_scanned


class TestUpdates:
    def test_update_within_bounds_not_stored(self, trained_index):
        query = (0,)
        estimate = trained_index.predict_position(query)
        before = len(trained_index.auxiliary)
        trained_index.insert_update(query, int(round(estimate)))
        assert len(trained_index.auxiliary) == before

    def test_update_outside_bounds_goes_to_auxiliary(
        self, trained_index, small_collection
    ):
        query = (0, 2)
        far_position = len(small_collection) - 1
        estimate = trained_index.predict_position(query)
        if abs(estimate - far_position) <= trained_index.bounds.bound(estimate):
            pytest.skip("estimate happens to cover the far position")
        before = len(trained_index.auxiliary)
        trained_index.insert_update(query, far_position)
        assert len(trained_index.auxiliary) == before + 1
        assert trained_index.lookup(query) == far_position
        del trained_index.auxiliary[query]  # restore shared fixture

    def test_auxiliary_fraction(self, trained_index):
        assert 0.0 < trained_index.auxiliary_fraction < 1.0


class TestMemoryAccounting:
    def test_breakdown_adds_up(self, trained_index):
        assert trained_index.total_bytes() == (
            trained_index.model_bytes()
            + trained_index.auxiliary_bytes()
            + trained_index.error_bytes()
        )

    def test_error_bytes_positive(self, trained_index):
        assert trained_index.error_bytes() > 0


@pytest.mark.faults
class TestNonFiniteEstimate:
    """A NaN position estimate has no search window: lookups degrade to the
    fallback scan and updates land in the auxiliary (§7.2's safe side)."""

    def test_lookup_equal_degrades_to_fallback_scan(
        self, trained_index, small_collection
    ):
        stored = small_collection[10]
        expected = trained_index.lookup_equal(stored)
        with FaultInjector(nan_predictions=ALWAYS):
            assert trained_index.lookup_equal(stored) == expected
            assert trained_index.lookup_equal(stored, fallback_scan=False) is None
            assert trained_index.lookup(stored) == trained_index.lookup_with_estimate(
                stored, float("nan")
            )

    def test_insert_update_stores_position_in_auxiliary(self, trained_index):
        query = (0,)
        position = int(round(trained_index.predict_position(query)))
        with FaultInjector(nan_predictions=ALWAYS):
            trained_index.insert_update(query, position)
        try:
            assert trained_index.auxiliary[query] == position
        finally:
            del trained_index.auxiliary[query]  # restore shared fixture
