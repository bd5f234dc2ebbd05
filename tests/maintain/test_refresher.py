"""BackgroundRefresher: retrain, replay, rewrap, hot swap, observability."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.adapt import AdaptiveRefresher, WorkloadLog, workload_shard_rebuilder
from repro.maintain import (
    BackgroundRefresher,
    RefreshError,
    StalenessPolicy,
    default_rebuilder,
    mutate_through,
)
from repro.core import PredicateCardinalitySuite
from repro.reliability import (
    GuardedCardinalityEstimator,
    GuardedPredicateSuite,
    unwrap,
)
from repro.serve import SetServer

from tests.serve.conftest import wait_until

from .conftest import fresh_estimator, small_model_config, small_train_config


@pytest.fixture
def serving(collection):
    """A private server over a fresh estimator plus a refresher factory.

    The factory tracks every refresher it makes so teardown detaches their
    delta buffers (listeners on shared structures would leak across tests).
    """
    estimator = fresh_estimator(collection, seed=31)
    server = SetServer(estimator, cache_size=64).start()
    made = []

    def make(**kwargs):
        rebuild = kwargs.pop("rebuild", None)
        if rebuild is None:
            rebuild = default_rebuilder(
                server.structure,
                collection=collection,
                model_config=small_model_config(1),
                train_config=small_train_config(1),
                max_subset_size=3,
            )
        refresher = BackgroundRefresher(server, rebuild, **kwargs)
        made.append(refresher)
        return refresher

    yield server, make
    for refresher in made:
        refresher.close()
        refresher.delta.detach_all()
    server.maintainer = None
    server.close()


class TestManualRefresh:
    def test_refresh_swaps_replays_and_bumps_the_snapshot(self, serving):
        server, make = serving
        refresher = make()
        old = server.structure
        version = server.snapshot.version
        server.structure.record_update((0, 1), 37)
        server.structure.record_update((4, 5), 11)
        snapshot = refresher.refresh_now()
        assert server.structure is not old
        assert snapshot.version == version + 1
        # Replay carried both absorbed updates onto the fresh model.
        assert server.query((0, 1)) == 37.0
        assert server.query((4, 5)) == 11.0
        assert refresher.refreshes == 1
        assert refresher.replayed >= 2

    def test_refresh_moves_the_delta_subscription_to_the_new_structure(
        self, serving
    ):
        server, make = serving
        refresher = make()
        refresher.refresh_now()
        assert refresher.delta.as_dict()["attached"] == 1
        before = refresher.delta.total_events
        server.structure.record_update((2, 3), 5)
        assert refresher.delta.total_events == before + 1
        # The new mutation is pending again (watermark advanced at refresh).
        assert refresher.collect_state().pending_deltas == 1

    def test_refresh_emits_a_span_with_reasons_and_replay_count(self, serving):
        server, make = serving
        refresher = make()
        server.structure.record_update((1, 2), 8)
        refresher.refresh_now(("aux_fraction", "delta_count"))
        spans = [
            span for span in server.tracer.snapshot() if span["name"] == "refresh"
        ]
        assert spans, "refresh must leave a trace span"
        attrs = spans[-1]["attrs"]
        assert attrs["kind"] == "cardinality"
        assert attrs["reasons"] == "aux_fraction,delta_count"
        assert attrs["replayed"] >= 1
        assert attrs["snapshot_version"] == server.snapshot.version

    def test_refresh_metrics_appear_in_the_exposition(self, serving):
        server, make = serving
        refresher = make()
        refresher.refresh_now()
        text = server.registry.render_text()
        assert "repro_maintain_refreshes_total 1" in text
        assert "repro_maintain_checks_total" in text
        assert "repro_maintain_deltas_pending" in text
        assert "repro_maintain_running 0" in text  # loop not started

    @pytest.mark.parametrize(
        "facade, alias",
        [(GuardedCardinalityEstimator, "estimator"), (GuardedPredicateSuite, "suite")],
    )
    def test_guarded_facade_is_rewrapped_around_the_new_inner(
        self, collection, truth, facade, alias
    ):
        if facade is GuardedCardinalityEstimator:
            inner = fresh_estimator(collection, seed=33)
            retrain = default_rebuilder(
                inner,
                collection=collection,
                model_config=small_model_config(2),
                train_config=small_train_config(2),
                max_subset_size=3,
            )
        else:
            # A custom callable (TestDefaultRebuilder covers the default one).
            def retrain(_suite):
                return PredicateCardinalitySuite.build(
                    collection,
                    model_config=small_model_config(2),
                    train_config=small_train_config(2),
                    num_samples=60,
                    max_subset_size=3,
                    rng=np.random.default_rng(2),
                )

            inner = retrain(None)
        guarded = facade(inner, truth, max_query_size=3)
        server = SetServer(guarded, cache_size=16).start()
        rebuilt_from = []

        def rebuild(old_inner):
            rebuilt_from.append(old_inner)
            return retrain(old_inner)

        refresher = BackgroundRefresher(server, rebuild)
        try:
            refresher.refresh_now()
            new = server.structure
            assert rebuilt_from == [inner]  # the wrapped structure, not the guard
            assert type(new) is facade
            assert new is not guarded
            assert getattr(new, alias) is not inner
            assert new.exact is truth  # the collection never changed
            assert new.max_query_size == 3
        finally:
            refresher.close()
            refresher.delta.detach_all()
            server.maintainer = None
            server.close()

    def test_status_is_json_serializable_and_reflects_the_refresh(self, serving):
        server, make = serving
        refresher = make()
        refresher.refresh_now()
        status = refresher.status()
        json.dumps(status, sort_keys=True)
        assert status["auto_refresh"] is True
        assert status["refreshes"] == 1
        assert status["last_reasons"] == ["manual"]
        assert status["last_error"] is None
        assert status["snapshot_version"] == server.snapshot.version


class TestFailurePath:
    def test_failed_rebuild_keeps_the_old_generation_serving(self, serving):
        server, make = serving

        def broken(_inner):
            raise RuntimeError("training diverged")

        refresher = make(rebuild=broken)
        old = server.structure
        version = server.snapshot.version
        with pytest.raises(RefreshError, match="training diverged"):
            refresher.refresh_now()
        assert server.structure is old
        assert server.snapshot.version == version
        assert refresher.failures == 1
        assert refresher.refreshes == 0
        assert "training diverged" in refresher.status()["last_error"]
        # The server still answers.
        assert isinstance(server.query((0, 1)), float)

    def test_background_loop_survives_refresh_failures(self, serving):
        server, make = serving

        def broken(_inner):
            raise RuntimeError("boom")

        refresher = make(
            rebuild=broken,
            policy=StalenessPolicy(max_deltas=1),
            interval_s=0.01,
        )
        refresher.start()
        try:
            server.structure.record_update((0,), 4)
            assert wait_until(lambda: refresher.failures >= 2)
            assert refresher.running
        finally:
            refresher.close()
        assert refresher.refreshes == 0


class TestBackgroundLoop:
    def test_policy_trip_triggers_a_background_refresh(self, serving):
        server, make = serving
        refresher = make(policy=StalenessPolicy(max_deltas=3), interval_s=0.01)
        refresher.start()
        try:
            old = server.structure
            for i, value in enumerate((21, 22, 23)):
                server.structure.record_update((i, i + 1), value)
            assert wait_until(lambda: refresher.refreshes >= 1)
            assert server.structure is not old
            assert refresher.status()["last_reasons"] == ["delta_count"]
            # Replayed values survive the retrain.
            assert server.query((0, 1)) == 21.0
        finally:
            refresher.close()

    def test_min_interval_rate_limits_consecutive_refreshes(self, serving):
        server, make = serving
        refresher = make(
            policy=StalenessPolicy(max_deltas=1, min_interval_s=3600.0)
        )
        server.structure.record_update((0,), 5)
        assert refresher.check_now() is True
        assert refresher.refreshes == 1
        server.structure.record_update((1,), 6)
        # The policy trips again but the rate limiter holds it back.
        assert refresher.check_now() is False
        assert refresher.refreshes == 1

    def test_quiet_state_never_refreshes(self, serving):
        _server, make = serving
        refresher = make(policy=StalenessPolicy(max_deltas=5))
        assert refresher.check_now() is False
        assert refresher.refreshes == 0
        assert refresher.checks == 1


class TestMutateThrough:
    def test_mutation_racing_a_swap_is_reapplied_to_the_new_generation(
        self, collection
    ):
        first = fresh_estimator(collection, seed=34)
        second = fresh_estimator(collection, seed=35)
        server = SetServer(first, cache_size=16).start()
        try:
            seen = []

            def mutator(inner):
                seen.append(inner)
                inner.record_update((0, 1), 55)
                if len(seen) == 1:
                    server.swap(second)  # a refresh lands mid-mutation
                return inner

            mutate_through(server, mutator)
            assert seen == [first, second]
            # The generation that is actually serving carries the update.
            assert server.query((0, 1)) == 55.0
        finally:
            server.close()

    def test_unraced_mutation_applies_once(self, collection):
        estimator = fresh_estimator(collection, seed=36)
        server = SetServer(estimator, cache_size=16).start()
        try:
            seen = []

            def mutator(inner):
                seen.append(inner)
                inner.record_update((2,), 7)

            mutate_through(server, mutator)
            assert seen == [estimator]
        finally:
            server.close()


class TestDefaultRebuilder:
    def test_estimator_without_collection_is_rejected_up_front(self, serving):
        server, _make = serving
        with pytest.raises(ValueError, match="collection"):
            default_rebuilder(server.structure)

    def test_successive_rebuilds_use_fresh_seeds(self, serving):
        server, make = serving
        refresher = make()
        refresher.refresh_now()
        first = server.structure
        refresher.refresh_now()
        assert server.structure is not first
        assert refresher.refreshes == 2
        assert server.snapshot.version >= 2

    def test_unsharded_suite_is_rebuilt_as_a_suite(self, collection):
        suite = PredicateCardinalitySuite.build(
            collection,
            model_config=small_model_config(4),
            train_config=small_train_config(4),
            num_samples=60,
            max_subset_size=3,
        )
        server = SetServer(suite, cache_size=16).start()
        refresher = BackgroundRefresher(
            server,
            default_rebuilder(
                suite,
                collection=collection,
                model_config=small_model_config(),
                train_config=small_train_config(),
                max_subset_size=3,
                max_training_samples=60,
            ),
        )
        try:
            assert np.isfinite(server.query((1, 2), predicate="superset"))
            refresher.refresh_now()
            new = server.structure
            assert new is not suite
            assert type(new) is PredicateCardinalitySuite
            assert new.predicates == suite.predicates
            assert np.isfinite(server.query((1, 2), predicate="superset"))
        finally:
            refresher.close()
            refresher.delta.detach_all()
            server.maintainer = None
            server.close()


class TestShardedRefresh:
    @pytest.fixture(scope="class", params=["index", "predicate"])
    def sharded_setup(self, request):
        from repro.sets import SetCollection
        from repro.shard import ShardedBuilder, ShardPlan

        rng = np.random.default_rng(17)
        sets = []
        for _ in range(24):
            size = int(rng.integers(2, 5))
            sets.append(
                tuple(int(e) for e in rng.choice(16, size=size, replace=False))
            )
        collection = SetCollection(sets)
        plan = ShardPlan.contiguous(collection, 3)
        router = ShardedBuilder(
            plan,
            workers=1,
            base_seed=0,
            model_config=small_model_config(),
            train_config=small_train_config(epochs=1),
            max_subset_size=3,
            num_negative_samples=50,
        ).build(request.param)
        return collection, router

    REBUILD_OPTIONS = dict(
        model_config=small_model_config(),
        train_config=small_train_config(epochs=1),
        max_subset_size=3,
        num_negative_samples=50,
    )

    @staticmethod
    def _assert_same_family(new, router):
        """A refresh publishes parts of the task it replaced: a predicate
        router keeps answering the whole family."""
        assert [type(unwrap(part)) for part in new.parts] == [
            type(unwrap(part)) for part in router.parts
        ]
        if getattr(router, "supports_predicates", False):
            assert new.supports_predicates

    def test_sharded_router_is_rebuilt_per_shard_and_replayed(self, sharded_setup):
        _collection, router = sharded_setup
        server = SetServer(router, cache_size=32).start()
        refresher = BackgroundRefresher(
            server, default_rebuilder(router, **self.REBUILD_OPTIONS)
        )
        predicates = getattr(router, "supports_predicates", False)
        try:
            if predicates:
                assert np.isfinite(server.query((5, 7), predicate="superset"))
                server.structure.record_update((5, 7), 3)
            else:
                server.structure.insert_update((5, 7), 3)
            refresher.refresh_now()
            new = server.structure
            assert new is not router
            assert type(new) is type(router)
            assert new.plan is router.plan
            assert len(new.parts) == len(router.parts)
            self._assert_same_family(new, router)
            # The router-level override survived the per-shard retrain.
            assert server.query((5, 7)) == 3
            assert refresher.replayed >= 1
            if predicates:
                assert np.isfinite(server.query((5, 7), predicate="superset"))
        finally:
            refresher.close()
            refresher.delta.detach_all()
            server.maintainer = None
            server.close()

    def test_targeted_rebuild_replaces_one_part_of_the_same_family(
        self, sharded_setup
    ):
        _collection, router = sharded_setup
        server = SetServer(router, cache_size=32).start()
        log = WorkloadLog(capacity=8)
        refresher = AdaptiveRefresher(
            server,
            default_rebuilder(router, **self.REBUILD_OPTIONS),
            workload=log,
            shard_rebuild=workload_shard_rebuilder(log, **self.REBUILD_OPTIONS),
        )
        try:
            refresher.refresh_now(["local_q_error:shard1"])
            new = server.structure
            assert refresher.partial_refreshes == 1
            assert new.parts[0] is router.parts[0]
            assert new.parts[1] is not router.parts[1]
            assert new.parts[2] is router.parts[2]
            self._assert_same_family(new, router)
            if getattr(router, "supports_predicates", False):
                assert np.isfinite(server.query((5, 7), predicate="superset"))
        finally:
            refresher.close()
            refresher.delta.detach_all()
            server.maintainer = None
            server.close()
