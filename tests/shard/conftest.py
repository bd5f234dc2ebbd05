"""Shared fixtures for the sharding suite.

Training dominates test time, so per-shard structures are built once per
session (lazily, per ``(task, K)``) and shared.  Routers are cheap
wrappers over their parts: tests that mutate router-level state (auxiliary
overrides, insert filters) must re-wrap via :func:`fresh_router` instead
of dirtying the shared instance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ModelConfig, TrainConfig
from repro.sets import InvertedIndex, SetCollection
from repro.shard import ShardedBuilder, ShardPlan

#: Shard counts exercised by the differential harness (includes K == 1 and
#: K == 7, which does not divide the collection evenly).
SHARD_COUNTS = (1, 2, 3, 7)

MAX_SUBSET_SIZE = 3


def _make_collection(seed: int = 11, n: int = 48, vocab: int = 26) -> SetCollection:
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(n):
        size = int(rng.integers(2, 6))
        sets.append(tuple(int(e) for e in rng.choice(vocab, size=size, replace=False)))
    return SetCollection(sets)


def small_model_config() -> ModelConfig:
    return ModelConfig(kind="lsm", embedding_dim=2, phi_hidden=(4,), rho_hidden=(4,))


def small_train_config() -> TrainConfig:
    return TrainConfig(epochs=2, batch_size=64, lr=5e-3)


def make_builder(plan: ShardPlan, **overrides) -> ShardedBuilder:
    """A builder with the suite's cheap defaults (override per test)."""
    kwargs = dict(
        workers=1,
        base_seed=0,
        model_config=small_model_config(),
        train_config=small_train_config(),
        max_subset_size=MAX_SUBSET_SIZE,
        max_training_samples=None,  # full enumeration: exactness guarantees
        num_negative_samples=200,
    )
    kwargs.update(overrides)
    return ShardedBuilder(plan, **kwargs)


def fresh_router(router):
    """A clean router over the same trained parts (no shared overrides)."""
    return type(router)(router.plan, router.parts)


def build_unsharded(shard, task, seed=0):
    """Reference build: one unsharded structure with the builder's exact
    per-shard seeding and options, for bit-identical K == 1 comparisons."""
    from dataclasses import replace

    from repro.shard.builder import _dispatch_build, _seeded

    loss = "bce" if task == "bloom" else "mse"
    return _dispatch_build(
        task,
        shard,
        _seeded(small_model_config(), seed),
        replace(small_train_config(), seed=seed, loss=loss),
        {
            "removal": None,
            "max_subset_size": MAX_SUBSET_SIZE,
            "max_training_samples": None,
            "num_negative_samples": 200,
            "error_range_length": 100,
            "threshold": 0.5,
        },
    )


@pytest.fixture(scope="session")
def collection() -> SetCollection:
    return _make_collection()


@pytest.fixture(scope="session")
def truth(collection) -> InvertedIndex:
    return InvertedIndex(collection)


@pytest.fixture(scope="session")
def plans(collection) -> dict[int, ShardPlan]:
    return {k: ShardPlan.contiguous(collection, k) for k in SHARD_COUNTS}


@pytest.fixture(scope="session")
def routers(plans):
    """Lazy session cache of built routers, keyed on ``(task, K)``."""
    cache: dict[tuple[str, int], object] = {}

    def get(task: str, num_shards: int):
        key = (task, num_shards)
        if key not in cache:
            cache[key] = make_builder(plans[num_shards]).build(task)
        return cache[key]

    return get


def subset_workload(collection, rng, num_queries=220, max_size=MAX_SUBSET_SIZE):
    """In-universe positive queries: subsets of stored sets, with repeats."""
    queries = []
    for _ in range(num_queries):
        base = collection[int(rng.integers(len(collection)))]
        size = int(rng.integers(1, min(max_size, len(base)) + 1))
        queries.append(tuple(sorted(rng.choice(base, size=size, replace=False))))
    queries.extend(queries[:20])  # duplicates exercise dedupe-and-scatter
    rng.shuffle(queries)
    return [tuple(int(e) for e in q) for q in queries]


def mixed_workload(collection, rng, num_queries=220):
    """Positives plus random element combinations (present or absent)."""
    vocab = collection.max_element_id() + 1
    queries = subset_workload(collection, rng, num_queries=num_queries // 2)
    for _ in range(num_queries - len(queries)):
        size = int(rng.integers(1, MAX_SUBSET_SIZE + 1))
        queries.append(
            tuple(sorted(int(e) for e in rng.choice(vocab, size=size, replace=False)))
        )
    rng.shuffle(queries)
    return queries


def hostile_workload(collection, rng):
    """The guarded-facade mix: valid, duplicate, empty, OOV, oversized,
    malformed."""
    oov = collection.max_element_id() + 10_000
    oversized = tuple(range(max(len(s) for s in collection) + 1))
    hostile = [
        (),
        (oov,),
        (0, oov),
        oversized,
        tuple(collection[0][:2]) * 2,
        ("not", "ints"),
        None,
    ]
    queries = mixed_workload(collection, rng, num_queries=60)
    for position, query in zip(
        rng.integers(0, len(queries), len(hostile) * 4), hostile * 4
    ):
        queries.insert(int(position), query)
    return queries
