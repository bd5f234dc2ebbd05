"""Parallel per-shard training of the learned structures.

One process per shard (bounded by ``workers``): shard training is
CPU-bound numpy with no shared state, so a process pool scales build time
with cores while keeping each shard's failure isolated.  Workers never
raise across the pool boundary — each returns ``(shard_id, structure,
error)`` and the parent collects *all* per-shard failures into one
:class:`ShardBuildError` instead of hanging on, or hiding behind, the
first crash.  A worker process that dies outright (OOM-kill, segfault)
surfaces as a ``BrokenProcessPool`` from the executor, again attributed to
its shard.

Determinism: shard ``i`` trains with seed ``base_seed + i`` (model init,
training shuffle, and sample enumeration all derive from it), so a build
is reproducible bit-for-bit regardless of ``workers`` — the pool only
changes *when* shards train, never *what* they train on.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import Any, Sequence

from ..core.config import ModelConfig
from ..core.hybrid import OutlierRemovalConfig
from ..core.recipe import train_structure
from ..core.training import TrainConfig
from ..reliability import GUARD_FOR_TASK
from .plan import Shard, ShardPlan
from .routers import (
    ShardedBloomFilter,
    ShardedCardinalityEstimator,
    ShardedSetIndex,
)

__all__ = ["ShardedBuilder", "ShardBuildError", "TASKS"]

TASKS = ("cardinality", "index", "bloom")


class ShardBuildError(RuntimeError):
    """One or more shards failed to train; lists every failure."""

    def __init__(self, failures: Sequence[tuple[int, str]]):
        self.failures = list(failures)
        details = "; ".join(f"shard {sid}: {msg}" for sid, msg in self.failures)
        super().__init__(f"{len(self.failures)} shard build(s) failed: {details}")


def _seeded(config, seed: int):
    return replace(config, seed=seed)


def _dispatch_build(
    task: str,
    shard: Shard,
    model_config: ModelConfig,
    train_config: TrainConfig,
    options: dict[str, Any],
):
    """Train one shard's structure (runs inside the worker process)."""
    return train_structure(task, shard.collection, model_config, train_config, **options)


def _train_shard(job) -> tuple[int, Any, str | None]:
    """Pool entry point: never raises, always reports its shard id."""
    task, shard, model_config, train_config, options = job
    try:
        structure = _dispatch_build(task, shard, model_config, train_config, options)
        return shard.shard_id, structure, None
    except Exception as exc:
        return shard.shard_id, None, f"{type(exc).__name__}: {exc}"


class ShardedBuilder:
    """Trains all shards of a plan and assembles the scatter-gather routers.

    Parameters
    ----------
    plan:
        The :class:`ShardPlan` to train over.
    workers:
        Process-pool size; ``1`` trains inline in this process (same code
        path and seeds, so results are identical — only wall-clock
        changes).  Capped at the number of shards.
    base_seed:
        Shard ``i`` trains with seed ``base_seed + i``.
    guarded:
        Wrap every per-shard structure in its reliability facade (exact
        fallback over that shard's collection, per-shard health counters)
        before handing it to the router.
    model_config / train_config:
        Templates; their ``seed`` fields are overridden per shard.
    max_subset_size / max_training_samples / removal / ...:
        Forwarded to the per-task ``build`` classmethods.
    """

    def __init__(
        self,
        plan: ShardPlan,
        *,
        workers: int = 1,
        base_seed: int = 0,
        guarded: bool = False,
        model_config: ModelConfig | None = None,
        train_config: TrainConfig | None = None,
        removal: OutlierRemovalConfig | None = None,
        max_subset_size: int | None = 4,
        max_training_samples: int | None = None,
        num_negative_samples: int | None = None,
        error_range_length: int = 100,
        bloom_threshold: float = 0.5,
        predicates: Sequence = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.plan = plan
        self.workers = workers
        self.base_seed = base_seed
        self.guarded = guarded
        self.model_config = model_config or ModelConfig()
        self.train_config = train_config or TrainConfig()
        self._options = {
            "removal": removal,
            "max_subset_size": max_subset_size,
            "max_training_samples": max_training_samples,
            "num_negative_samples": num_negative_samples,
            "error_range_length": error_range_length,
            "threshold": bloom_threshold,
            "predicates": tuple(predicates) if predicates is not None else None,
        }

    # -- training --------------------------------------------------------------

    def _jobs(self, task: str):
        for shard in self.plan:
            seed = self.base_seed + shard.shard_id
            yield (
                task,
                shard,
                _seeded(self.model_config, seed),
                # Shard parts regress with plain MSE whatever the template
                # says (the recipe switches the membership task to BCE).
                replace(self.train_config, seed=seed, loss="mse"),
                self._options,
            )

    def _train_parts(self, task: str) -> list[Any]:
        jobs = list(self._jobs(task))
        if self.workers == 1 or len(jobs) == 1:
            outcomes = [_train_shard(job) for job in jobs]
        else:
            max_workers = min(self.workers, len(jobs))
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                try:
                    outcomes = list(pool.map(_train_shard, jobs))
                except Exception as exc:  # a worker died outright
                    raise ShardBuildError(
                        [(-1, f"worker pool failed: {type(exc).__name__}: {exc}")]
                    ) from exc
        failures = [(sid, msg) for sid, _, msg in outcomes if msg is not None]
        if failures:
            raise ShardBuildError(sorted(failures))
        parts: list[Any] = [None] * len(jobs)
        for shard_id, structure, _ in outcomes:
            parts[shard_id] = structure
        if self.guarded:
            parts = [
                GUARD_FOR_TASK[task].for_collection(part, shard.collection)
                for part, shard in zip(parts, self.plan)
            ]
        return parts

    # -- public API ------------------------------------------------------------

    def build_cardinality(self) -> ShardedCardinalityEstimator:
        return ShardedCardinalityEstimator(self.plan, self._train_parts("cardinality"))

    def build_index(self) -> ShardedSetIndex:
        return ShardedSetIndex(self.plan, self._train_parts("index"))

    def build_bloom(self) -> ShardedBloomFilter:
        return ShardedBloomFilter(self.plan, self._train_parts("bloom"))

    def build_predicate_suite(self) -> ShardedCardinalityEstimator:
        """Per-shard :class:`PredicateCardinalitySuite` routers.

        The cardinality router serves them unchanged (counts stay additive
        under every predicate); its ``supports_predicates`` turns true
        because every part routes the whole family.
        """
        return ShardedCardinalityEstimator(self.plan, self._train_parts("predicate"))

    def build(self, task: str):
        """Train every shard for ``task`` and return the matching router."""
        if task == "cardinality":
            return self.build_cardinality()
        if task == "index":
            return self.build_index()
        if task == "bloom":
            return self.build_bloom()
        if task == "predicate":
            return self.build_predicate_suite()
        raise ValueError(
            f"unknown task {task!r}; expected one of {TASKS + ('predicate',)}"
        )

    def build_all(self) -> dict[str, Any]:
        """All three routers, keyed by task name."""
        return {task: self.build(task) for task in TASKS}

    @staticmethod
    def default_workers() -> int:
        """A sensible pool size for this machine (at least 1)."""
        return max(os.cpu_count() or 1, 1)
