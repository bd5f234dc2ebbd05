"""The one training recipe: how a structure of task T is trained.

Every layer that (re)builds a learned structure — :class:`~repro.shard.
ShardedBuilder` jobs, the maintain/adapt refresh paths, the CLI and the
benchmark workbench — names a *task* and calls :func:`train_structure`;
:func:`task_of` is the inverse, reading the task back off a served
structure so a refresh retrains what it is replacing.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Sequence

import numpy as np

from ..reliability import unwrap
from ..sets.collection import SetCollection
from ..sets.predicates import DEFAULT_PREDICATES
from .cardinality import LearnedCardinalityEstimator
from .config import ModelConfig
from .hybrid import OutlierRemovalConfig
from .index import LearnedSetIndex
from .membership import LearnedBloomFilter
from .predicate_suite import PredicateCardinalitySuite
from .training import TrainConfig

__all__ = ["task_of", "train_structure"]

#: Raw structure type -> the task that trains it.
_TASK_OF_TYPE = {
    LearnedCardinalityEstimator: "cardinality",
    LearnedSetIndex: "index",
    LearnedBloomFilter: "bloom",
    PredicateCardinalitySuite: "predicate",
}


def task_of(structure: Any) -> str:
    """The task (``cardinality | index | bloom | predicate``) of ``structure``.

    A guarded facade has the task of the structure it wraps.  A sharded
    router has the task of its parts: its class fixes the answer ``kind``,
    and the cardinality router — which serves per-shard suites unchanged —
    is a ``predicate`` router exactly when every part routes the family.
    Raises :class:`TypeError` for anything else.
    """
    inner = unwrap(structure)
    if hasattr(inner, "parts"):
        if getattr(inner, "supports_predicates", False):
            return "predicate"
        return inner.kind
    for cls, task in _TASK_OF_TYPE.items():
        if isinstance(inner, cls):
            return task
    raise TypeError(
        f"no task for a {type(structure).__name__}; expected one of the "
        "learned structures, a sharded router over them, or a guarded facade"
    )


def train_structure(
    task: str,
    collection: SetCollection,
    model_config: ModelConfig | None = None,
    train_config: TrainConfig | None = None,
    *,
    removal: OutlierRemovalConfig | None = None,
    max_subset_size: int | None = 4,
    max_training_samples: int | None = None,
    num_negative_samples: int | None = None,
    error_range_length: int = 100,
    threshold: float = 0.5,
    predicates: Sequence | None = None,
    rng: np.random.Generator | None = None,
    training_pairs: tuple[Sequence[tuple[int, ...]], np.ndarray] | None = None,
    sample_weights: np.ndarray | None = None,
):
    """Train the structure of ``task`` over ``collection``.

    ``max_training_samples`` caps the enumerated corpus (positives for the
    Bloom filter, per-predicate samples for the suite, 512 when unset);
    ``removal`` drives guided outlier eviction on the regression tasks;
    the membership task always trains with the ``bce`` loss.  ``rng``
    defaults to ``default_rng(train_config.seed)`` and feeds both sample
    enumeration and the training shuffle.  ``training_pairs`` /
    ``sample_weights`` replace the enumerated corpus on the cardinality
    and index tasks (the workload-weighted refresh path).
    """
    train_config = train_config or TrainConfig()
    rng = rng or np.random.default_rng(train_config.seed)
    if training_pairs is not None and task not in ("cardinality", "index"):
        raise ValueError(f"task {task!r} has no weighted training path")
    if task == "cardinality":
        return LearnedCardinalityEstimator.build(
            collection,
            model_config=model_config,
            train_config=train_config,
            removal=removal,
            max_subset_size=max_subset_size,
            max_training_samples=max_training_samples,
            rng=rng,
            training_pairs=training_pairs,
            sample_weights=sample_weights,
        )
    if task == "index":
        return LearnedSetIndex.build(
            collection,
            model_config=model_config,
            train_config=train_config,
            removal=removal,
            max_subset_size=max_subset_size,
            max_training_samples=max_training_samples,
            error_range_length=error_range_length,
            rng=rng,
            training_pairs=training_pairs,
            sample_weights=sample_weights,
        )
    if task == "bloom":
        return LearnedBloomFilter.build(
            collection,
            model_config=model_config,
            train_config=replace(train_config, loss="bce"),
            max_subset_size=max_subset_size,
            max_positive_samples=max_training_samples,
            num_negative_samples=num_negative_samples,
            threshold=threshold,
            rng=rng,
        )
    if task == "predicate":
        return PredicateCardinalitySuite.build(
            collection,
            predicates=predicates or DEFAULT_PREDICATES,
            model_config=model_config,
            train_config=train_config,
            removal=removal,
            num_samples=max_training_samples or 512,
            max_subset_size=max_subset_size,
            rng=rng,
        )
    raise ValueError(
        f"unknown task {task!r}; expected one of {tuple(_TASK_OF_TYPE.values())}"
    )
