"""The workload-weighted shard recipe for targeted refresh.

:func:`workload_shard_rebuilder` builds the replacement part that the
refresher's ``shards[i...]`` plan (:class:`repro.maintain.
BackgroundRefresher`) swaps in for one tripped shard: exhaustive base
pairs over the shard's *current* collection (coverage), observed
shard-local queries merged in with their frequencies as sample weights
(:func:`repro.core.train_structure`'s weighted path), and the hottest
still-misestimated observed queries pinned into the part's exact
auxiliary — guided learning's eviction idea (§6) applied to the observed
workload instead of the training set.  Tasks without a graded per-query
error to weight by (membership, the predicate suite) get a plain
per-shard retrain.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Any, Callable, Iterable

import numpy as np

from ..core.cardinality import LearnedCardinalityEstimator
from ..core.config import ModelConfig
from ..core.index import LearnedSetIndex
from ..core.qerror import q_error
from ..core.recipe import task_of, train_structure
from ..core.training import TrainConfig
from ..maintain.refresher import rewrap_like, unwrap_structure
from ..sets.inverted import InvertedIndex
from ..sets.subsets import cardinality_training_pairs, index_training_pairs
from .workload import WorkloadEntry, WorkloadLog

__all__ = ["workload_shard_rebuilder"]


def _clean_observed(
    entries: Iterable[WorkloadEntry],
    spec: str,
    max_element_id: int,
) -> list[WorkloadEntry]:
    """Observed entries that are usable as training samples.

    Drops other predicates' entries, the empty query (it has no model
    path: the serving layer answers it exactly), and queries containing
    elements outside the trained universe (the model cannot embed them;
    the guarded facades answer them through the exact fallback anyway).
    Canonical keys are unique per spec by construction, so no dedup pass
    is needed beyond the key set itself.  This is the one hygiene filter
    between recorded traffic and a refresh training set.
    """
    cleaned: list[WorkloadEntry] = []
    for entry in entries:
        if entry.spec != spec:
            continue
        if not entry.canonical:
            continue
        if entry.canonical[0] < 0 or entry.canonical[-1] > max_element_id:
            continue
        cleaned.append(entry)
    return cleaned


def _merge_observed(
    subsets: list[tuple[int, ...]],
    targets: list[float],
    weights: list[float],
    observed: list[WorkloadEntry],
    label_of: Callable[[tuple[int, ...]], float | None],
) -> None:
    """Fold observed entries into a base corpus, in place.

    An entry already present in the corpus adds its frequency to that
    sample's weight; a novel entry joins with its exact label.  Entries
    whose label does not exist (unfindable index queries) are skipped.
    """
    index_of = {canonical: row for row, canonical in enumerate(subsets)}
    for entry in observed:
        row = index_of.get(entry.canonical)
        if row is not None:
            weights[row] += float(entry.count)
            continue
        label = label_of(entry.canonical)
        if label is None:
            continue
        index_of[entry.canonical] = len(subsets)
        subsets.append(entry.canonical)
        targets.append(float(label))
        weights.append(1.0 + float(entry.count))


def workload_shard_rebuilder(
    workload: WorkloadLog,
    *,
    model_config: ModelConfig | None = None,
    train_config: TrainConfig | None = None,
    removal=None,
    max_subset_size: int | None = 4,
    max_training_samples: int | None = None,
    num_negative_samples: int | None = None,
    error_range_length: int = 100,
    observed_budget: int = 256,
    pin_budget: int = 32,
    pin_q_error: float = 2.0,
    base_seed: int = 1,
) -> Callable[[Any, int], Any]:
    """A ``rebuild_shard(router, shard_id) -> part`` callable.

    Retrains exactly one shard over its *current* collection slice with
    the observed workload folded in (frequencies as sample weights), then
    rewraps the new part the way the old one was wrapped.  Each rebuild
    derives its seed from ``base_seed``, the shard id, and a per-factory
    generation counter, so repeated refreshes of the same shard explore
    fresh initializations while staying replayable.
    """
    model_config = model_config or ModelConfig()
    train_config = train_config or TrainConfig(epochs=6)
    options = dict(
        removal=removal,
        max_subset_size=max_subset_size,
        max_training_samples=max_training_samples,
        num_negative_samples=num_negative_samples,
        error_range_length=error_range_length,
    )
    state = {"generation": 0}

    def rebuild_shard(router: Any, shard_id: int) -> Any:
        task = task_of(router)
        state["generation"] += 1
        collection = router.plan[shard_id].collection
        old_part = router.parts[shard_id]
        seed = base_seed + 1000 * (shard_id + 1) + state["generation"]
        train = partial(
            train_structure,
            task,
            collection,
            replace(model_config, seed=seed),
            replace(train_config, seed=seed),
            **options,
        )
        if task not in _WEIGHTED:
            family = getattr(unwrap_structure(old_part), "predicates", None)
            return rewrap_like(old_part, train(predicates=family))
        enumerate_pairs, label, pin, fit_continues_rng = _WEIGHTED[task]
        rng = np.random.default_rng(seed)
        exact_local = InvertedIndex(collection)
        # The hottest usable entries that can reach this shard: the subset
        # skip rule is ``max(query) <= ceiling``, so entries above the
        # shard's ceiling never fan to it and carry no signal for its model.
        observed = _clean_observed(
            workload.top(), "subset", collection.max_element_id()
        )[:observed_budget]
        base_subsets, base_targets = enumerate_pairs(
            collection,
            max_subset_size=max_subset_size,
            max_samples=max_training_samples,
            rng=rng,
        )
        subsets = [tuple(s) for s in base_subsets]
        targets = [float(t) for t in np.asarray(base_targets)]
        weights = [1.0] * len(subsets)
        _merge_observed(
            subsets, targets, weights, observed, partial(label, exact_local)
        )
        new_inner = train(
            rng=rng if fit_continues_rng else None,
            training_pairs=(subsets, np.asarray(targets, dtype=np.float64)),
            sample_weights=np.asarray(weights, dtype=np.float64),
        )
        if pin_budget > 0:
            pin(new_inner, exact_local, observed, pin_budget, pin_q_error)
        return rewrap_like(old_part, new_inner)

    return rebuild_shard


def _pin_hot_cardinality(
    part: LearnedCardinalityEstimator,
    exact_local: InvertedIndex,
    observed: list[WorkloadEntry],
    pin_budget: int,
    pin_q_error: float,
) -> None:
    """Pin still-misestimated hot queries into the part's exact auxiliary.

    Guided learning evicts *training* outliers into the auxiliary (§6);
    the workload-aware variant does the same for observed queries the
    refreshed model still gets wrong — the hottest first (``observed``
    arrives in that order), bounded by ``pin_budget`` so the auxiliary
    cannot degenerate into a cache of the whole stream.
    """
    queries = [e.canonical for e in observed if e.canonical not in part.auxiliary]
    if not queries:
        return
    truths = np.asarray(
        [exact_local.cardinality(c) for c in queries], dtype=np.float64
    )
    errors = q_error(part.estimate_many(queries), truths)
    wrong = [(q, t) for q, t, e in zip(queries, truths, errors) if e > pin_q_error]
    for query, truth in wrong[:pin_budget]:
        part.auxiliary[query] = int(truth)


def _pin_hot_index(
    part: LearnedSetIndex,
    exact_local: InvertedIndex,
    observed: list[WorkloadEntry],
    pin_budget: int,
    _pin_q_error: float,
) -> None:
    """Absorb hot observed positions through the index's own update path.

    ``insert_update`` stores a position only when it falls outside the
    query-time search window, so in-window hot queries cost nothing (and
    no q-error threshold is needed to pick them).  Hottest first:
    ``observed`` arrives in that order.
    """
    pinned = 0
    for entry in observed:
        if pinned >= pin_budget:
            break
        position = exact_local.first_position(entry.canonical)
        if position is None:
            continue
        part.insert_update(entry.canonical, int(position))
        pinned += 1


#: task -> (base-pair enumerator, exact label of a query (``None`` = no
#: label exists), hot-query pinning, whether the fit shuffles with the
#: enumeration's generator or a fresh one of the same seed — kept per task
#: so a replayed refresh reproduces the weights it always produced).
_WEIGHTED = {
    "cardinality": (
        cardinality_training_pairs,
        InvertedIndex.cardinality,
        _pin_hot_cardinality,
        True,
    ),
    "index": (
        index_training_pairs,
        InvertedIndex.first_position,
        _pin_hot_index,
        False,
    ),
}
