"""Differential parity: the signature-masked window scan vs. the plain loop.

The learned index's Algorithm-2 search masks each window with one 64-bit
signature per stored set and verifies only the surviving candidates.  The
oracle here is the sequential ``issubset`` loop it replaced, kept verbatim;
answers *and* :class:`LookupStats` must agree for trained, untrained-stored
and absent queries, with and without the fallback scan, under a NaN
estimate, at both ends of the collection, for an empty window, over a
collection whose elements all collide mod 64, and through a K=3 sharded
router.  ``REPRO_TEST_SEED`` (rotated in CI) seeds the data and every
assertion echoes it.
"""

from __future__ import annotations

import copy
import os
import pickle

import numpy as np
import pytest

from repro.core import LearnedSetIndex, ModelConfig, TrainConfig
from repro.core.index import LookupStats
from repro.sets import SetCollection, index_training_pairs
from repro.shard import ShardedBuilder, ShardedSetIndex, ShardPlan

SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))
NUM_QUERIES = 120


def seed_note(context: str = "") -> str:
    note = f"REPRO_TEST_SEED={SEED}"
    return f"{note} ({context})" if context else note


class _LoopIndex(LearnedSetIndex):
    """The learned index with the original one-set-at-a-time window scan."""

    def _scan(self, query, low, high):
        q = frozenset(query)
        sets = self.collection.sets()
        for position in range(low, high + 1):
            self.stats.sets_scanned += 1
            if q.issubset(sets[position]):
                return position
        return None


def as_oracle(index: LearnedSetIndex) -> LearnedSetIndex:
    """A shallow twin of ``index`` (same model, bounds, auxiliary, data)
    that searches with the loop and keeps its own telemetry."""
    twin = copy.copy(index)
    twin.__class__ = _LoopIndex
    twin.stats = LookupStats()
    index.stats = LookupStats()
    return twin


def _random_collection(rng, n: int, vocab: int, stride: int = 1) -> SetCollection:
    sets = []
    for _ in range(n):
        size = int(rng.integers(1, 6))
        sets.append(
            tuple(int(e) * stride for e in rng.choice(vocab, size=size, replace=False))
        )
    return SetCollection(sets)


def _model_config(seed: int) -> ModelConfig:
    return ModelConfig(
        kind="lsm", embedding_dim=2, phi_hidden=(4,), rho_hidden=(4,), seed=seed
    )


def _train_config(seed: int) -> TrainConfig:
    return TrainConfig(epochs=2, batch_size=64, lr=5e-3, seed=seed)


def _build(collection: SetCollection, max_training_samples=None) -> LearnedSetIndex:
    return LearnedSetIndex.build(
        collection,
        model_config=_model_config(SEED),
        train_config=_train_config(SEED),
        max_subset_size=2,
        max_training_samples=max_training_samples,
        error_range_length=10,
    )


def _queries(collection: SetCollection, rng) -> list[tuple[int, ...]]:
    """Trained pairs, stored sets (untrained beyond the trained size) and
    absent combinations of in-vocabulary ids (the raw index rejects
    out-of-vocabulary ids; the guard answers those)."""
    subsets, _ = index_training_pairs(collection, max_subset_size=2)
    picks = rng.choice(len(subsets), size=NUM_QUERIES // 3, replace=False)
    trained = [tuple(subsets[int(row)]) for row in picks]
    stored = [collection[int(p)] for p in rng.integers(0, len(collection), 20)]
    top = collection.max_element_id()
    absent = [
        tuple(int(e) for e in rng.choice(top + 1, size=3, replace=False))
        for _ in range(NUM_QUERIES // 3)
    ]
    return trained + stored + absent


@pytest.fixture(scope="module")
def collection() -> SetCollection:
    return _random_collection(np.random.default_rng(SEED * 7919 + 3), 90, 40)


@pytest.fixture(scope="module")
def index(collection) -> LearnedSetIndex:
    # Sampled training leaves untrained stored subsets behind.
    return _build(collection, max_training_samples=120)


@pytest.fixture(scope="module")
def colliding() -> LearnedSetIndex:
    """Every element is a multiple of 64: every signature is bit 0 only."""
    rng = np.random.default_rng(SEED * 7919 + 5)
    return _build(_random_collection(rng, 60, 12, stride=64))


def _assert_lookup_parity(index, queries, fallback_scan, context):
    oracle = as_oracle(index)
    for query in queries:
        expected = oracle.lookup(query, fallback_scan=fallback_scan)
        assert index.lookup(query, fallback_scan=fallback_scan) == expected, (
            seed_note(f"{context} query={query}")
        )
    assert index.lookup_many(queries, fallback_scan) == oracle.lookup_many(
        queries, fallback_scan
    ), seed_note(context)
    assert index.stats == oracle.stats, seed_note(context)


class TestLookupParity:
    @pytest.mark.parametrize("fallback_scan", [True, False])
    def test_answers_and_stats_match_loop(self, index, collection, fallback_scan):
        queries = _queries(collection, np.random.default_rng(SEED))
        _assert_lookup_parity(index, queries, fallback_scan, f"fallback={fallback_scan}")

    @pytest.mark.parametrize("fallback_scan", [True, False])
    def test_nan_estimate_matches_loop(self, index, collection, fallback_scan):
        oracle = as_oracle(index)
        for query in _queries(collection, np.random.default_rng(SEED + 1)):
            expected = oracle.lookup_with_estimate(query, float("nan"), fallback_scan)
            got = index.lookup_with_estimate(query, float("nan"), fallback_scan)
            assert got == expected, seed_note(f"nan query={query}")
        assert index.stats == oracle.stats, seed_note("nan")

    def test_colliding_signatures_match_loop(self, colliding):
        queries = _queries(colliding.collection, np.random.default_rng(SEED + 2))
        assert set(colliding.collection.signatures().tolist()) == {1}
        _assert_lookup_parity(colliding, queries, True, "colliding")

    def test_global_bound_matches_loop(self, index, collection):
        queries = _queries(collection, np.random.default_rng(SEED + 3))
        index.use_local_errors = False
        try:
            _assert_lookup_parity(index, queries, True, "global bound")
        finally:
            index.use_local_errors = True


class TestWindowEdges:
    def _windows(self, n):
        return [(0, 0), (0, 4), (n - 5, n - 1), (n - 1, n - 1), (0, n - 1),
                (7, 6), (5, 0), (0, -3)]

    def test_window_scans_match_loop(self, index, collection):
        oracle = as_oracle(index)
        queries = _queries(collection, np.random.default_rng(SEED + 4))
        for low, high in self._windows(len(collection)):
            for query in queries:
                got = index._scan(query, low, high)
                assert got == oracle._scan(query, low, high), seed_note(
                    f"window=[{low},{high}] query={query}"
                )
                assert got is None or isinstance(got, int)
        assert index.stats == oracle.stats, seed_note("edges")

    def test_estimates_outside_collection_match_loop(self, index, collection):
        oracle = as_oracle(index)
        queries = _queries(collection, np.random.default_rng(SEED + 5))
        for estimate in (-1e9, -3.0, float(len(collection)) + 5.0, 1e9, np.inf):
            for query in queries:
                assert index.lookup_with_estimate(query, estimate) == (
                    oracle.lookup_with_estimate(query, estimate)
                ), seed_note(f"estimate={estimate} query={query}")
        assert index.stats == oracle.stats, seed_note("outside")


class TestEqualityParity:
    def test_lookup_equal_matches_linear_scan(self, index, collection):
        rng = np.random.default_rng(SEED + 6)
        for query in _queries(collection, rng):
            canonical = tuple(sorted(set(query)))
            expected = next(
                (p for p, s in enumerate(collection) if s == canonical), None
            )
            assert index.lookup_equal(query) == expected, seed_note(f"query={query}")


class TestSignatures:
    def test_signature_covers_every_element(self, collection):
        signatures = collection.signatures()
        assert signatures.dtype == np.uint64 and len(signatures) == len(collection)
        for stored, signature in zip(collection, signatures):
            assert signature == SetCollection.signature(stored), seed_note()
            for element in stored:
                assert int(signature) >> (element & 63) & 1, seed_note()

    def test_signature_left_out_of_pickle(self, collection):
        fresh = SetCollection(collection.sets())
        before = pickle.dumps(fresh)
        fresh.signatures()
        assert pickle.dumps(fresh) == before, seed_note()
        clone = pickle.loads(before)
        assert np.array_equal(clone.signatures(), collection.signatures())

    def test_lookup_leaves_collection_pickle_unchanged(self, index, collection):
        collection.__dict__.pop("_signatures", None)
        before = pickle.dumps(collection)
        index.lookup_with_estimate(collection[0], 0.0)
        assert "_signatures" in collection.__dict__
        assert pickle.dumps(collection) == before, seed_note()


class TestShardedParity:
    @pytest.fixture(scope="class")
    def router(self, collection) -> ShardedSetIndex:
        plan = ShardPlan.contiguous(collection, 3)
        return ShardedBuilder(
            plan,
            workers=1,
            base_seed=SEED,
            model_config=_model_config(SEED),
            train_config=_train_config(SEED),
            max_subset_size=2,
            max_training_samples=None,
        ).build_index()

    def test_router_matches_loop_router(self, router, collection):
        oracle = ShardedSetIndex(router.plan, [as_oracle(p) for p in router.parts])
        queries = _queries(collection, np.random.default_rng(SEED + 7))
        for query in queries:
            assert router.lookup(query) == oracle.lookup(query), seed_note(
                f"K=3 query={query}"
            )
        assert router.lookup_many(queries) == oracle.lookup_many(queries), seed_note()
        assert router.stats == oracle.stats, seed_note("K=3")
