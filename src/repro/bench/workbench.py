"""Shared, cached experiment fixtures for the benchmark suite.

Training a learned structure is the expensive step, and several paper
tables reuse the same trained models (accuracy, memory, and latency tables
over the same configurations).  This module builds each (dataset, task,
variant) combination once per process and caches it.

Experiment scale is governed by the dataset presets (see
``repro.datasets.registry``; multiply with ``REPRO_SCALE``) and the
training caps below, chosen so the whole suite runs on one CPU core in
minutes while preserving the papers' comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..core import (
    LearnedBloomFilter,
    LearnedCardinalityEstimator,
    LearnedSetIndex,
    ModelConfig,
    OutlierRemovalConfig,
    TrainConfig,
    train_structure,
)
from ..datasets import load_dataset
from ..sets import InvertedIndex, SetCollection, sample_query_workload
from ..sets.subsets import cardinality_training_pairs, index_training_pairs

__all__ = [
    "MAX_SUBSET_SIZE",
    "MAX_TRAINING_SAMPLES",
    "get_collection",
    "get_ground_truth",
    "get_query_workload",
    "get_cardinality_pairs",
    "get_index_pairs",
    "get_cardinality_workload",
    "get_index_workload",
    "model_config",
    "get_cardinality_estimator",
    "get_set_index",
    "get_bloom_filter",
]

# The paper enumerates subsets up to size 6; at reproduction scale size 4
# keeps the subset universe (and training time) proportionate.
MAX_SUBSET_SIZE = 4
# Upper bound on training pairs per model (uniform subsample beyond this).
MAX_TRAINING_SAMPLES = 40_000
# Defaults shared by the regression tasks.
_EPOCHS = 30
_REMOVAL_EPOCH = 20


@lru_cache(maxsize=None)
def get_collection(name: str) -> SetCollection:
    return load_dataset(name)


@lru_cache(maxsize=None)
def get_ground_truth(name: str) -> InvertedIndex:
    return InvertedIndex(get_collection(name))


@lru_cache(maxsize=None)
def get_query_workload(name: str, num_queries: int = 1000, seed: int = 99):
    return tuple(
        sample_query_workload(
            get_collection(name),
            num_queries,
            rng=np.random.default_rng(seed),
            max_subset_size=MAX_SUBSET_SIZE,
        )
    )


@lru_cache(maxsize=None)
def get_cardinality_pairs(name: str):
    """Cached (subsets, cardinalities) training corpus for one dataset."""
    return cardinality_training_pairs(
        get_collection(name),
        max_subset_size=MAX_SUBSET_SIZE,
        max_samples=MAX_TRAINING_SAMPLES,
        rng=np.random.default_rng(7),
    )


@lru_cache(maxsize=None)
def get_index_pairs(name: str):
    """Cached (subsets, first positions) training corpus for one dataset."""
    return index_training_pairs(
        get_collection(name),
        max_subset_size=MAX_SUBSET_SIZE,
        max_samples=MAX_TRAINING_SAMPLES,
        rng=np.random.default_rng(8),
    )


@lru_cache(maxsize=None)
def get_cardinality_workload(name: str, num_queries: int = 600, seed: int = 99):
    """Query workload for the cardinality task, drawn from trained subsets.

    The paper generates *all* subsets as training data precisely because
    supervised estimators are not expected to generalize to unseen queries
    (§7.1.1); at reproduction scale the corpus is subsampled, so workloads
    are drawn from the trained subsets to preserve that setting.  The
    generalization gap to unseen subsets is measured separately in the
    ablation benches.
    """
    subsets, cardinalities = get_cardinality_pairs(name)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(
        len(subsets), size=min(num_queries, len(subsets)), replace=False
    )
    return (
        tuple(subsets[i] for i in chosen),
        np.asarray([cardinalities[i] for i in chosen], dtype=np.float64),
    )


@lru_cache(maxsize=None)
def get_index_workload(name: str, num_queries: int = 300, seed: int = 98):
    """Query workload for the index task (subset -> first position)."""
    subsets, positions = get_index_pairs(name)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(
        len(subsets), size=min(num_queries, len(subsets)), replace=False
    )
    return (
        tuple(subsets[i] for i in chosen),
        np.asarray([positions[i] for i in chosen], dtype=np.int64),
    )


def model_config(kind: str, task: str, seed: int = 0) -> ModelConfig:
    """The paper's per-task architecture choices (§8.1).

    Membership uses the smallest models (embedding 2, 8 neurons); indexing
    uses small models; cardinality estimation uses wider ``rho`` networks.
    """
    if task == "bloom":
        return ModelConfig(
            kind=kind, embedding_dim=2, phi_hidden=(16,), rho_hidden=(8, 8), seed=seed
        )
    if task == "index":
        return ModelConfig(
            kind=kind, embedding_dim=8, phi_hidden=(32,), rho_hidden=(32,), seed=seed
        )
    if task == "cardinality":
        return ModelConfig(
            kind=kind, embedding_dim=8, phi_hidden=(32,), rho_hidden=(64,), seed=seed
        )
    raise ValueError(f"unknown task {task!r}")


@dataclass(frozen=True)
class _Variants:
    """String keys used across the bench files."""

    kinds = ("lsm", "clsm")


@lru_cache(maxsize=None)
def get_cardinality_estimator(
    name: str, kind: str, hybrid: bool
) -> LearnedCardinalityEstimator:
    removal = (
        OutlierRemovalConfig(percentile=90.0, at_epochs=(_REMOVAL_EPOCH,))
        if hybrid
        else None
    )
    return train_structure(
        "cardinality",
        get_collection(name),
        model_config(kind, "cardinality"),
        TrainConfig(epochs=_EPOCHS, batch_size=1024, lr=5e-3, loss="mse", seed=0),
        removal=removal,
        max_subset_size=MAX_SUBSET_SIZE,
        max_training_samples=MAX_TRAINING_SAMPLES,
        training_pairs=get_cardinality_pairs(name),
    )


@lru_cache(maxsize=None)
def get_set_index(
    name: str,
    kind: str,
    percentile: float | None = 90.0,
    error_range_length: int = 100,
) -> LearnedSetIndex:
    removal = (
        OutlierRemovalConfig(percentile=percentile, at_epochs=(_REMOVAL_EPOCH,))
        if percentile is not None
        else None
    )
    return train_structure(
        "index",
        get_collection(name),
        model_config(kind, "index"),
        TrainConfig(epochs=_EPOCHS, batch_size=1024, lr=5e-3, loss="mse", seed=1),
        removal=removal,
        max_subset_size=MAX_SUBSET_SIZE,
        max_training_samples=MAX_TRAINING_SAMPLES,
        error_range_length=error_range_length,
        training_pairs=get_index_pairs(name),
    )


@lru_cache(maxsize=None)
def get_bloom_filter(name: str, kind: str) -> LearnedBloomFilter:
    return train_structure(
        "bloom",
        get_collection(name),
        model_config(kind, "bloom"),
        TrainConfig(epochs=25, batch_size=1024, lr=5e-3, seed=2),
        max_subset_size=3,
        max_training_samples=MAX_TRAINING_SAMPLES,
        num_negative_samples=min(MAX_TRAINING_SAMPLES, 20_000),
    )
