"""Drift differential: a rotating hot set trips — and fixes — one shard.

The scenario the adaptive loop exists for, end to end over a served
sharded stack:

* three contiguous shards over three element blocks; shards 0 and 1 are
  trained on their live data, shard 2's part was trained on a *stale*
  snapshot of its block (the hot combination ``{20,21,22}`` never
  co-occurred back then, and the stale scaler caps its answers well
  below today's truth — a systematic underestimate, not noise);
* the served workload rotates: a stable phase over blocks 0/1, then a
  Zipf-skewed hot set of block-2 queries.  The probe buckets observed
  error by shard offsets (Algorithm 2's local bounds), so only shard 2
  trips ``local_q_error:shard2``;
* the targeted refresh must rebuild *only* shard 2 (never all K unless
  all trip — see ``TestTargetedDispatch``), leave shards 0/1
  byte-identical, and — because the rebuild folds the observed
  frequencies in and pins still-hot misestimates — beat a static
  workload-blind full retrain on the observed distribution.

Determinism: the drifted shard's estimates are bounded by its stale
scaler (max historical element cardinality, at most 20 here) while the
hot truths are exactly ``SETS_PER_BLOCK``; the trip margin is therefore
structural, not a training accident.  ``REPRO_TEST_SEED`` rotates the
randomized fillers and every assertion echoes it.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from dataclasses import replace

import numpy as np

from repro import ModelConfig, TrainConfig
from repro.adapt import (
    AdaptiveRefresher,
    ShardStalenessTracker,
    WorkloadLog,
    workload_shard_rebuilder,
)
from repro.core.cardinality import LearnedCardinalityEstimator
from repro.core.qerror import q_error
from repro.maintain import (
    DeltaBuffer,
    StalenessPolicy,
    default_rebuilder,
    unwrap_structure,
)
from repro.serve import SetServer
from repro.sets import SetCollection
from repro.sets.inverted import InvertedIndex
from repro.shard import ShardPlan, ShardedCardinalityEstimator

SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))

NUM_SHARDS = 3
SETS_PER_BLOCK = 40
#: Today's block-2 reality: every set contains the full core.
CORE = (20, 21, 22, 23, 24)
#: The rotated-in hot set — size 4, above the training subset cap of 3,
#: so only the workload-aware rebuild ever sees these as training pairs.
HOT = [(20, 21, 22, 23), (20, 21, 22, 24), (20, 21, 23, 24), (20, 22, 23, 24)]
HOT_COUNTS = [16, 8, 4, 2]  # Zipf-ish skew

MODEL = ModelConfig(kind="lsm", embedding_dim=4, phi_hidden=(8,), rho_hidden=(8,))
TRAIN = TrainConfig(epochs=3, batch_size=32, verbose=False)


def _real_collection(rng: np.random.Generator) -> SetCollection:
    """Blocks 0/1 random over their ranges; block 2 all-contain-CORE."""
    sets: list[list[int]] = []
    for block in range(2):
        lo = 10 * block
        sets.append(list(range(lo, lo + 10)))  # anchors the block ceiling
        for _ in range(SETS_PER_BLOCK - 1):
            size = int(rng.integers(2, 5))
            sets.append(
                sorted(rng.choice(np.arange(lo, lo + 10), size=size,
                                  replace=False).tolist())
            )
    fillers = [25, 26, 27, 28, 29]
    for i in range(SETS_PER_BLOCK):
        sets.append(sorted(CORE + (fillers[i % len(fillers)],)))
    return SetCollection(sets)


def _stale_collection(rng: np.random.Generator) -> SetCollection:
    """Historical block 2: size-3 sets where the core never co-occurs.

    Every element appears in at most 20 sets, so a model trained (and
    scaled) on this snapshot cannot answer above 20 — while every hot
    query's live truth is ``SETS_PER_BLOCK`` (40).  The >= 2x q-error on
    the hot set is guaranteed by the scaler cap, whatever the weights.
    """
    sets: list[list[int]] = [[20, 23, 29]]  # anchors ids 20 and 29
    while len(sets) < SETS_PER_BLOCK // 2:
        candidate = sorted(
            rng.choice(np.arange(20, 30), size=3, replace=False).tolist()
        )
        if {20, 21, 22} <= set(candidate):
            continue
        sets.append(candidate)
    return SetCollection(sets)


def _build_router(real, stale):
    plan = ShardPlan.contiguous(real, NUM_SHARDS)
    parts = [
        LearnedCardinalityEstimator.build(
            plan[sid].collection,
            model_config=replace(MODEL, seed=SEED + sid),
            train_config=replace(TRAIN, seed=SEED + sid),
            max_subset_size=3,
        )
        for sid in range(NUM_SHARDS - 1)
    ]
    parts.append(
        LearnedCardinalityEstimator.build(
            stale,
            model_config=replace(MODEL, seed=SEED + 2),
            train_config=replace(TRAIN, seed=SEED + 2),
            max_subset_size=3,
        )
    )
    return plan, ShardedCardinalityEstimator(plan, parts)


def _weighted_q_error(structure, exact) -> float:
    """Count-weighted q-error over the observed (hot) distribution."""
    truths = np.asarray(
        [float(exact.cardinality(query)) for query in HOT], dtype=np.float64
    )
    estimates = np.asarray(structure.estimate_many(list(HOT)), dtype=np.float64)
    return float(
        np.average(q_error(estimates, truths),
                   weights=np.asarray(HOT_COUNTS, dtype=np.float64))
    )


class TestDriftDifferential:
    def test_rotating_hot_set_trips_and_repairs_only_the_drifted_shard(self):
        rng = np.random.default_rng(SEED)
        real = _real_collection(rng)
        stale = _stale_collection(rng)
        plan, router = _build_router(real, stale)
        # Exact LSM ceilings (9/19/29): hot queries provably skip 0 and 1.
        assert [part.max_known_id() for part in router.parts] == [9, 19, 29]
        exact = InvertedIndex(real)
        workload = WorkloadLog(capacity=128, observe_every=4)
        server = SetServer(
            router, exact=exact, workload=workload, cache_size=0
        ).start()
        try:
            # Phase 1 — the stable regime: traffic over blocks 0/1.
            for i in range(20):
                lo = 10 * (i % 2)
                server.query((lo + i % 9, lo + i % 9 + 1))
            # Phase 2 — the rotation: the hot set moves into block 2.
            for hot, count in zip(HOT, HOT_COUNTS):
                for _ in range(count):
                    server.query(hot)

            old_router = unwrap_structure(server.structure)
            old_parts = list(old_router.parts)
            old_bytes = [pickle.dumps(part) for part in old_parts]

            tracker = ShardStalenessTracker(
                plan.offsets(), window=16, min_observations=len(HOT)
            )
            policy = StalenessPolicy(
                max_deltas=None,
                max_aux_fraction=None,
                max_local_q_error=1.8,
                min_interval_s=0.0,
            )
            rebuilt_ids: list[int] = []
            base_rebuild = workload_shard_rebuilder(
                workload,
                model_config=MODEL,
                train_config=TRAIN,
                max_subset_size=3,
                pin_q_error=1.0,
                base_seed=SEED + 100,
            )

            def spy_shard_rebuild(router_, shard_id):
                rebuilt_ids.append(shard_id)
                return base_rebuild(router_, shard_id)

            full_calls: list[str] = []
            full_rebuild = default_rebuilder(
                router,
                model_config=MODEL,
                train_config=TRAIN,
                max_subset_size=3,
                base_seed=SEED + 900,
            )

            def spy_full_rebuild(inner):
                full_calls.append(type(inner).__name__)
                return full_rebuild(inner)

            refresher = AdaptiveRefresher(
                server,
                spy_full_rebuild,
                workload=workload,
                tracker=tracker,
                shard_rebuild=spy_shard_rebuild,
                exact=exact,
                probe_entries=len(HOT),
                policy=policy,
                delta=DeltaBuffer(),
            )

            state = refresher.collect_state()
            reasons = policy.evaluate(state)
            assert reasons == ["local_q_error:shard2"], (
                f"seed={SEED}: only the drifted shard may trip; "
                f"reasons={reasons} state={state.as_dict()}"
            )
            assert set(state.shard_q_errors) == {2}, (
                f"seed={SEED}: hot queries skip shards 0/1 (ceilings 9/19), "
                f"so only shard 2 has probe evidence; "
                f"got {state.shard_q_errors}"
            )

            # The static control: a workload-blind full retrain over the
            # live collection — what a periodic refresher would publish.
            control = default_rebuilder(
                router,
                model_config=MODEL,
                train_config=TRAIN,
                max_subset_size=3,
                base_seed=SEED + 500,
            )(old_router)

            drifted = _weighted_q_error(old_router, exact)
            assert drifted > 1.8, (
                f"seed={SEED}: the stale shard's scaler caps estimates at "
                f"20 vs truth 40, so pre-refresh weighted q-error must "
                f"exceed the policy threshold; got {drifted:.3f}"
            )

            refresher.refresh_now(reasons)

            # (1) Only the tripped shard was rebuilt — and via the
            # targeted path, not a disguised full rebuild.
            assert rebuilt_ids == [2], (
                f"seed={SEED}: expected exactly shard 2 rebuilt, "
                f"got {rebuilt_ids}"
            )
            assert not full_calls, (
                f"seed={SEED}: a single tripped shard must not trigger a "
                f"full rebuild; full path ran on {full_calls}"
            )
            assert refresher.partial_refreshes == 1, (
                f"seed={SEED}: expected one targeted refresh, "
                f"got {refresher.partial_refreshes}"
            )
            assert refresher.shards_rebuilt == 1

            new_router = unwrap_structure(server.structure)
            assert new_router is not old_router

            # (3) Untouched shards: same objects, byte-identical.
            for shard_id in range(NUM_SHARDS - 1):
                assert new_router.parts[shard_id] is old_parts[shard_id], (
                    f"seed={SEED}: untripped shard {shard_id} must keep "
                    f"its part object"
                )
                assert (
                    pickle.dumps(new_router.parts[shard_id])
                    == old_bytes[shard_id]
                ), (
                    f"seed={SEED}: untripped shard {shard_id} must be "
                    f"byte-identical after the targeted swap"
                )
            assert new_router.parts[2] is not old_parts[2], (
                f"seed={SEED}: the drifted shard must have a fresh part"
            )

            # (2) The adaptive rebuild beats the static control on the
            # observed distribution: hot frequencies were merged into its
            # training weights and still-wrong hot queries pinned exactly.
            adaptive = _weighted_q_error(new_router, exact)
            static = _weighted_q_error(control, exact)
            assert adaptive <= 1.0 + 1e-6, (
                f"seed={SEED}: hot queries must answer exactly after the "
                f"workload-aware rebuild (pin path); got {adaptive:.4f}"
            )
            assert adaptive < static, (
                f"seed={SEED}: adaptive refresh ({adaptive:.4f}) must beat "
                f"the workload-blind control ({static:.4f}) on the observed "
                f"distribution (pre-refresh drift {drifted:.3f})"
            )
        finally:
            server.close()


class _StubPart:
    """Constant-answer cardinality part (dispatch tests need no training)."""

    def __init__(self, generation: int, ceiling: int):
        self.generation = generation
        self._ceiling = ceiling

    def max_known_id(self) -> int:
        return self._ceiling

    def estimate_many(self, queries):
        return np.full(len(queries), float(self.generation), dtype=np.float64)


class TestTargetedDispatch:
    """The never-all-K-unless-all-trip half of assertion (1), on stubs."""

    def _serve(self):
        collection = SetCollection(
            [[i, i + 1] for i in range(0, 29, 2)] + [[29]]
        )
        plan = ShardPlan.contiguous(collection, NUM_SHARDS)
        ceiling = collection.max_element_id()
        router = ShardedCardinalityEstimator(
            plan, [_StubPart(1, ceiling) for _ in range(NUM_SHARDS)]
        )
        server = SetServer(
            router, exact=InvertedIndex(collection), cache_size=0
        ).start()
        tracker = ShardStalenessTracker(
            plan.offsets(), window=8, min_observations=1
        )
        for shard_id in range(NUM_SHARDS):
            tracker.record(shard_id, 5.0)
        rebuilt: list[int] = []
        full: list[int] = []
        ceiling_ = ceiling

        def shard_rebuild(router_, shard_id):
            rebuilt.append(shard_id)
            return _StubPart(2, ceiling_)

        def full_rebuild(inner):
            full.append(1)
            return ShardedCardinalityEstimator(
                plan, [_StubPart(2, ceiling_) for _ in range(NUM_SHARDS)]
            )

        refresher = AdaptiveRefresher(
            server,
            full_rebuild,
            workload=WorkloadLog(capacity=8),
            tracker=tracker,
            shard_rebuild=shard_rebuild,
            policy=StalenessPolicy(
                max_deltas=None, max_aux_fraction=None, max_local_q_error=2.0
            ),
            delta=DeltaBuffer(),
        )
        return server, refresher, rebuilt, full, tracker

    def test_strict_subset_of_shards_rebuilds_targeted(self):
        server, refresher, rebuilt, full, tracker = self._serve()
        try:
            refresher.refresh_now(
                ["local_q_error:shard0", "local_q_error:shard2"]
            )
            assert rebuilt == [0, 2], (
                f"seed={SEED}: exactly the named shards rebuild, "
                f"got {rebuilt}"
            )
            assert not full, f"seed={SEED}: no full rebuild for a subset"
            # Only the rebuilt shards' windows reset.
            assert tracker.observations(0) == 0
            assert tracker.observations(1) == 1
            assert tracker.observations(2) == 0
        finally:
            server.close()

    def test_all_shards_tripped_falls_back_to_full_rebuild(self):
        server, refresher, rebuilt, full, tracker = self._serve()
        try:
            refresher.refresh_now(
                [f"local_q_error:shard{i}" for i in range(NUM_SHARDS)]
            )
            assert full == [1], (
                f"seed={SEED}: all K tripped means one full rebuild"
            )
            assert rebuilt == [], (
                f"seed={SEED}: the targeted path must not also run"
            )
            # A full rebuild invalidates every shard's window.
            assert all(
                tracker.observations(i) == 0 for i in range(NUM_SHARDS)
            ), f"seed={SEED}: full rebuild must reset all tracker windows"
        finally:
            server.close()

    def test_mixed_global_and_local_reasons_force_full_rebuild(self):
        server, refresher, rebuilt, full, tracker = self._serve()
        try:
            refresher.refresh_now(["local_q_error:shard2", "delta_count"])
            assert full == [1] and rebuilt == [], (
                f"seed={SEED}: a global signal alongside a local one means "
                f"the whole structure drifted; full={full} rebuilt={rebuilt}"
            )
        finally:
            server.close()

    def test_queued_refreshes_run_the_plan_they_were_asked_for(self):
        """The plan is chosen from each call's own reasons, under the lock:
        calls that queue behind a running targeted refresh keep theirs."""
        server, refresher, rebuilt, full, tracker = self._serve()
        inside, release = threading.Event(), threading.Event()
        plain_rebuild = refresher.shard_rebuild

        def gated_rebuild(router_, shard_id):
            if shard_id == 0:
                inside.set()
                assert release.wait(10.0)
            return plain_rebuild(router_, shard_id)

        refresher.shard_rebuild = gated_rebuild
        calls = [
            threading.Thread(target=refresher.refresh_now, args=(reasons,))
            for reasons in (
                ["local_q_error:shard0"],
                ["local_q_error:shard2"],
                ("manual",),
            )
        ]
        try:
            calls[0].start()
            assert inside.wait(10.0), "first refresh never reached shard_rebuild"
            calls[1].start()
            calls[2].start()
            time.sleep(0.05)  # let both block on the refresh lock
            release.set()
            for call in calls:
                call.join(10.0)
                assert not call.is_alive()
            assert refresher.partial_refreshes == 2, (
                f"seed={SEED}: both per-shard calls must run targeted, "
                f"got {refresher.partial_refreshes} (full ran {len(full)}x)"
            )
            assert sorted(rebuilt) == [0, 2]
            assert full == [1], (
                f"seed={SEED}: exactly the manual call runs the full rebuild"
            )
        finally:
            release.set()
            server.close()
