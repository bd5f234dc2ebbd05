"""Fixture builds: dataset, training, freeze, and the serving tier of a workload.

Every seed here is fixed — ``--seed`` never reaches this file, so two runs
serve the same trained structures and differ only in the generated stream.
All of it is timed as ``setup_s`` (stage by stage, so the per-layer
``infer.freeze_s`` / ``shard.build_s`` / ``serve.pool.start_s`` fall out of the
same clock).  Every served structure is frozen *before* a server or pool
starts, so pool workers attach the plans from shared memory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.adapt import AdaptiveRefresher, WorkloadLog, workload_shard_rebuilder
from repro.bench.workbench import model_config
from repro.core import (
    LearnedBloomFilter,
    LearnedCardinalityEstimator,
    LearnedSetIndex,
    OutlierRemovalConfig,
    TrainConfig,
)
from repro.datasets import load_dataset
from repro.infer import freeze_structure
from repro.maintain import default_rebuilder
from repro.reliability import (
    GuardedBloomFilter,
    GuardedCardinalityEstimator,
    GuardedSetIndex,
)
from repro.serve import BatchPolicy, SetServer, TcpServeFrontend, WorkerPool
from repro.sets import InvertedIndex
from repro.sets.subsets import cardinality_training_pairs, index_training_pairs
from repro.shard import ShardedBuilder, ShardPlan

TRAIN_SAMPLES = 20_000
NUM_SHARDS = 3
REMOVAL = OutlierRemovalConfig(percentile=90.0, at_epochs=(7,))
REFRESH_TRAIN = TrainConfig(epochs=6)
#: Holds the whole 20 000-key read set.  At the default 4096 every unseen key
#: evicts, ``WorkloadLog.record`` scans all entries (~0.9 ms, see
#: ``adapt.record_us``), the reading thread never leaves the interpreter lock,
#: and a shard retrain beside it takes 1 s or 10 s from one run to the next.
WORKLOAD_LOG_CAPACITY = 32_768


def _train(loss: str, seed: int) -> TrainConfig:
    return TrainConfig(epochs=10, batch_size=1024, lr=5e-3, loss=loss, seed=seed)


@dataclass
class Fixture:
    """Everything a run serves from: the learned stack and every serving tier."""

    collection: Any
    truth: InvertedIndex
    card_pairs: tuple
    index_pairs: tuple
    est: LearnedCardinalityEstimator
    idx: LearnedSetIndex
    bf: LearnedBloomFilter
    g_est: GuardedCardinalityEstimator
    g_idx: GuardedSetIndex
    g_bf: GuardedBloomFilter
    #: Wall seconds per build stage; their sum is ``setup_s``.
    stages: dict[str, float] = field(default_factory=dict)
    wire_server: SetServer | None = None
    wire_frontend: TcpServeFrontend | None = None
    pool: WorkerPool | None = None
    router: GuardedCardinalityEstimator | None = None
    refresh_server: SetServer | None = None
    workload_log: WorkloadLog | None = None
    refresher: AdaptiveRefresher | None = None
    #: Training pairs per shard (the refresh-sized fit in the probes reuses it).
    shard_samples: int = TRAIN_SAMPLES // NUM_SHARDS
    #: Filled by the shard-rebuild wrapper: (shard_id, start, end, fit_seconds).
    rebuild_log: list = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return sum(self.stages.values())

    def close(self) -> None:
        """Stop every tier that was started, the pool's processes last and
        always: a tier that fails to stop must not keep the others running."""
        steps = (
            (self.wire_frontend, "shutdown"), (self.wire_server, "close"),
            (self.refresh_server, "close"), (self.pool, "close"),
        )
        errors = []
        for tier, stop in steps:
            if tier is None:
                continue
            try:
                getattr(tier, stop)()
            except Exception as exc:  # keep stopping the rest
                errors.append(exc)
        if errors:
            raise errors[0]


class _Stages:
    """Accumulates wall time per named build stage."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self._mark = time.perf_counter()

    def done(self, name: str) -> None:
        now = time.perf_counter()
        self.seconds[name] = self.seconds.get(name, 0.0) + now - self._mark
        self._mark = now


def build_fixture(scale: float = 1.0) -> Fixture:
    """Build the learned stack and start every serving tier.

    Every workload gets the same fixture.  A run reports all end-to-end
    metrics — the paper's per-structure latency, accuracy and size, and the
    refresh time, next to its serving numbers — so it needs the structures
    and tiers those describe; tiers a workload does not drive sit idle
    (parked threads, two sleeping workers).  One build also means ``setup_s``
    is the same quantity on every workload.
    """
    stages = _Stages()
    samples = max(int(TRAIN_SAMPLES * scale), 1000)
    collection = load_dataset("rw-small", scale=scale)
    truth = InvertedIndex(collection)
    stages.done("dataset")

    card_pairs = cardinality_training_pairs(
        collection, max_subset_size=4, max_samples=samples,
        rng=np.random.default_rng(7),
    )
    index_pairs = index_training_pairs(
        collection, max_subset_size=4, max_samples=samples,
        rng=np.random.default_rng(8),
    )
    stages.done("pairs")

    est = LearnedCardinalityEstimator.build(
        collection, model_config=model_config("clsm", "cardinality"),
        train_config=_train("mse", 0), removal=REMOVAL,
        rng=np.random.default_rng(0), training_pairs=card_pairs,
    )
    idx = LearnedSetIndex.build(
        collection, model_config=model_config("clsm", "index"),
        train_config=_train("mse", 1), removal=REMOVAL,
        rng=np.random.default_rng(1), training_pairs=index_pairs,
    )
    bf = LearnedBloomFilter.build(
        collection, model_config=model_config("clsm", "bloom"),
        train_config=_train("bce", 2), max_subset_size=3,
        max_positive_samples=samples, num_negative_samples=samples,
        rng=np.random.default_rng(2),
    )
    stages.done("train")

    for structure in (est, idx, bf):
        freeze_structure(structure)
    stages.done("freeze")

    fixture = Fixture(
        collection=collection, truth=truth,
        card_pairs=card_pairs, index_pairs=index_pairs,
        est=est, idx=idx, bf=bf,
        g_est=GuardedCardinalityEstimator(est, truth),
        g_idx=GuardedSetIndex(idx, truth),
        g_bf=GuardedBloomFilter(bf, truth),
    )
    stages.done("guard")

    try:
        # The pool first, so the workers fork from a parent that has no other thread.
        fixture.pool = WorkerPool(est, workers=2, cache_size=4096)
        fixture.pool.start()
        stages.done("pool_start")
        _build_refresh_tier(fixture, stages, samples // NUM_SHARDS)
        fixture.wire_server = SetServer(est, BatchPolicy(), cache_size=1024).start()
        fixture.wire_frontend = TcpServeFrontend(fixture.wire_server).start_background()
        stages.done("wire_start")
    except BaseException:
        fixture.close()
        raise
    fixture.stages = stages.seconds
    return fixture


def _build_refresh_tier(fixture: Fixture, stages: _Stages, shard_samples: int) -> None:
    plan = ShardPlan.contiguous(fixture.collection, NUM_SHARDS)
    shard_options = dict(
        model_config=model_config("clsm", "cardinality"),
        removal=REMOVAL, max_subset_size=4,
        max_training_samples=shard_samples,
    )
    sharded = ShardedBuilder(
        plan, workers=1, base_seed=0, train_config=_train("mse", 0), **shard_options
    ).build_cardinality()
    freeze_structure(sharded)
    fixture.router = GuardedCardinalityEstimator(sharded, fixture.truth)
    fixture.shard_samples = shard_samples
    stages.done("shard_build")

    log = WorkloadLog(WORKLOAD_LOG_CAPACITY)
    server = SetServer(fixture.router, cache_size=4096, workload=log).start()
    fixture.refresh_server = server
    rebuild_shard = workload_shard_rebuilder(
        log, train_config=REFRESH_TRAIN, **shard_options
    )

    def timed_rebuild_shard(router: Any, shard_id: int) -> Any:
        # The benchmark's own wrapper: an outside timer around the public
        # rebuild callable, plus the new part's public build report.
        started = time.perf_counter()
        part = rebuild_shard(router, shard_id)
        ended = time.perf_counter()
        fixture.rebuild_log.append(
            (shard_id, started, ended, float(part.report.total_seconds))
        )
        return part

    fixture.workload_log = log
    fixture.refresher = AdaptiveRefresher(
        server,
        default_rebuilder(sharded, train_config=REFRESH_TRAIN, **shard_options),
        workload=log, shard_rebuild=timed_rebuild_shard, exact=fixture.truth,
    )
    stages.done("refresh_start")
