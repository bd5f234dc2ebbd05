"""Edge-set conformance: defined semantics on every path, no exceptions.

The guarded facades document exact answers for the degenerate query
shapes (empty set, out-of-vocabulary elements) and canonicalization for
duplicates.  Those semantics must not depend on *how* the structure is
deployed, so every edge query is driven through the full matrix:

    {cardinality, index, bloom}
  x {unsharded, K=3 sharded}
  x {direct call, SetServer submit}

and the answers are asserted identical cell by cell:

* empty set      -> ``N`` / ``0`` / ``True`` (the vacuous-truth answers);
* all-OOV        -> ``0.0`` / ``None`` / ``False``;
* duplicates     -> same answer as the de-duplicated query on every path;
* valid singleton -> direct == served, sharding-independent where the
  facade guarantees exactness (index positions, bloom no-false-negative).

The predicate family adds its own matrix (``TestPredicateMatrix``):

    {empty, OOV, duplicate}
  x {subset, superset, overlap>=2, jaccard>=0.5}
  x {unsharded suite, K=3 sharded suite} (both guarded)
  x {direct call, SetServer submit}

with the per-predicate defined answers of
:class:`~repro.reliability.GuardedPredicateSuite`; assertion messages echo
the rotating ``REPRO_TEST_SEED``.

The adaptive column (``TestAdaptiveEdgeConformance``) pins the same edge
shapes against the workload-feedback loop: recording them into a
:class:`~repro.adapt.WorkloadLog` must never change a served answer,
poison a refresh training set, trip a per-shard local bound, or break a
targeted shard rebuild.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.adapt import (
    ShardStalenessTracker,
    WorkloadLog,
    probe_shard_errors,
    workload_shard_rebuilder,
)
from repro.adapt.refresher import _clean_observed
from repro.core import (
    LearnedBloomFilter,
    LearnedCardinalityEstimator,
    LearnedSetIndex,
    ModelConfig,
    TrainConfig,
)
from repro.core.predicate_suite import PredicateCardinalitySuite
from repro.maintain import StalenessPolicy, StalenessState
from repro.reliability import (
    GuardedBloomFilter,
    GuardedCardinalityEstimator,
    GuardedPredicateSuite,
    GuardedSetIndex,
)
from repro.serve import SetServer
from repro.sets import InvertedIndex, SetCollection
from repro.sets.predicates import DEFAULT_PREDICATES
from repro.shard import ShardedBuilder, ShardPlan

SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))


def seed_note(context: str = "") -> str:
    note = f"REPRO_TEST_SEED={SEED}"
    return f"{note} ({context})" if context else note

SETS = [
    [0, 1, 2],
    [1, 2],
    [0, 3],
    [1, 2, 3],
    [4, 5],
    [0, 4, 5],
    [2, 3, 4],
    [0, 1],
    [3, 5],
    [0, 2, 5],
    [1, 4],
    [2, 5],
]

OOV = 1000  # far outside the 0..5 vocabulary

# (label, query, equivalent de-duplicated query)
EDGE_QUERIES = [
    ("empty", (), ()),
    ("singleton", (2,), (2,)),
    ("all_oov", (OOV, OOV + 1), (OOV, OOV + 1)),
    ("oov_singleton", (OOV,), (OOV,)),
    ("duplicates", (1, 1, 2, 2), (1, 2)),
    ("duplicate_singleton", (2, 2, 2), (2,)),
    ("duplicate_oov", (OOV, OOV), (OOV,)),
]

KINDS = ("cardinality", "index", "bloom")
DEPLOYMENTS = ("unsharded", "sharded")


def _small_model() -> ModelConfig:
    return ModelConfig(kind="lsm", embedding_dim=2, phi_hidden=(4,),
                       rho_hidden=(4,), seed=0)


def _small_train(loss: str) -> TrainConfig:
    return TrainConfig(epochs=2, batch_size=64, lr=5e-3, loss=loss, seed=0)


@pytest.fixture(scope="module")
def collection() -> SetCollection:
    return SetCollection(SETS)


@pytest.fixture(scope="module")
def truth(collection) -> InvertedIndex:
    return InvertedIndex(collection)


@pytest.fixture(scope="module")
def structures(collection):
    """All six guarded structures: {kind} x {unsharded, K=3 sharded}."""
    rng = np.random.default_rng(0)
    out = {}
    out[("cardinality", "unsharded")] = GuardedCardinalityEstimator.for_collection(
        LearnedCardinalityEstimator.build(
            collection, model_config=_small_model(),
            train_config=_small_train("mse"), max_subset_size=3, rng=rng,
        ),
        collection,
    )
    out[("index", "unsharded")] = GuardedSetIndex(
        LearnedSetIndex.build(
            collection, model_config=_small_model(),
            train_config=_small_train("mse"), max_subset_size=3, rng=rng,
        )
    )
    out[("bloom", "unsharded")] = GuardedBloomFilter.for_collection(
        LearnedBloomFilter.build(
            collection, model_config=_small_model(),
            train_config=_small_train("bce"), max_subset_size=2, rng=rng,
        ),
        collection,
    )
    plan = ShardPlan.contiguous(collection, 3)
    builder = ShardedBuilder(
        plan,
        workers=1,
        base_seed=0,
        model_config=_small_model(),
        train_config=TrainConfig(epochs=2, batch_size=64, lr=5e-3),
        max_subset_size=3,
        num_negative_samples=100,
    )
    out[("cardinality", "sharded")] = GuardedCardinalityEstimator.for_collection(
        builder.build("cardinality"), collection
    )
    out[("index", "sharded")] = GuardedSetIndex(builder.build("index"))
    out[("bloom", "sharded")] = GuardedBloomFilter.for_collection(
        builder.build("bloom"), collection
    )
    return out


@pytest.fixture(scope="module")
def servers(structures):
    """One running SetServer per structure cell (closed at teardown)."""
    running = {
        key: SetServer(structure, cache_size=64).start()
        for key, structure in structures.items()
    }
    yield running
    for server in running.values():
        server.close()


def _direct_answer(kind: str, structure, query):
    if kind == "cardinality":
        return structure.estimate(query)
    if kind == "index":
        return structure.lookup(query)
    return structure.contains(query)


def _answers(kind, deployment, structures, servers, query):
    """The (direct, served) answer pair for one matrix cell."""
    structure = structures[(kind, deployment)]
    server = servers[(kind, deployment)]
    return _direct_answer(kind, structure, query), server.query(list(query))


EXPECTED_EMPTY = {
    "cardinality": float(len(SETS)),
    "index": 0,
    "bloom": True,
}

EXPECTED_OOV = {"cardinality": 0.0, "index": None, "bloom": False}


@pytest.mark.parametrize("deployment", DEPLOYMENTS)
@pytest.mark.parametrize("kind", KINDS)
def test_empty_set_answers(kind, deployment, structures, servers):
    direct, served = _answers(kind, deployment, structures, servers, ())
    expected = EXPECTED_EMPTY[kind]
    assert direct == expected, f"direct {kind}/{deployment}"
    assert served == expected, f"served {kind}/{deployment}"


@pytest.mark.parametrize("query", [(OOV,), (OOV, OOV + 1), (OOV, OOV)])
@pytest.mark.parametrize("deployment", DEPLOYMENTS)
@pytest.mark.parametrize("kind", KINDS)
def test_all_oov_answers(kind, deployment, query, structures, servers):
    direct, served = _answers(kind, deployment, structures, servers, query)
    expected = EXPECTED_OOV[kind]
    assert direct == expected, f"direct {kind}/{deployment} {query}"
    assert served == expected, f"served {kind}/{deployment} {query}"


@pytest.mark.parametrize("label,query,dedup",
                         [case for case in EDGE_QUERIES if case[1] != case[2]])
@pytest.mark.parametrize("deployment", DEPLOYMENTS)
@pytest.mark.parametrize("kind", KINDS)
def test_duplicates_canonicalize(kind, deployment, label, query, dedup,
                                 structures, servers):
    """A query with repeated elements answers exactly like its set form."""
    structure = structures[(kind, deployment)]
    server = servers[(kind, deployment)]
    assert _direct_answer(kind, structure, query) == _direct_answer(
        kind, structure, dedup
    ), f"direct {kind}/{deployment} {label}"
    assert server.query(list(query)) == server.query(list(dedup)), (
        f"served {kind}/{deployment} {label}"
    )


@pytest.mark.parametrize("label,query,dedup", EDGE_QUERIES)
@pytest.mark.parametrize("deployment", DEPLOYMENTS)
@pytest.mark.parametrize("kind", KINDS)
def test_direct_and_served_agree(kind, deployment, label, query, dedup,
                                 structures, servers):
    """Serving (batching, caching) never changes an answer."""
    direct, served = _answers(kind, deployment, structures, servers, query)
    assert direct == served, f"{kind}/{deployment} {label}: {direct} != {served}"


@pytest.mark.parametrize("kind", KINDS)
def test_exact_semantics_are_sharding_independent(kind, structures, servers,
                                                  truth):
    """Where the facade guarantees exactness, K must not matter.

    Index lookups are always exact under the guard; bloom must never
    false-negative a stored subset; cardinality is exact for the defined
    edge answers (empty/OOV, covered above) — here both deployments are
    checked against ground truth on stored singletons.
    """
    for query in [(2,), (0,), (5,)]:
        for deployment in DEPLOYMENTS:
            structure = structures[(kind, deployment)]
            server = servers[(kind, deployment)]
            if kind == "index":
                expected = truth.first_position(query)
                assert _direct_answer(kind, structure, query) == expected
                assert server.query(list(query)) == expected
            elif kind == "bloom":
                assert _direct_answer(kind, structure, query) is True
                assert server.query(list(query)) is True
            else:
                value = _direct_answer(kind, structure, query)
                assert 0.0 <= value <= float(len(SETS))
                assert server.query(list(query)) == value


@pytest.mark.parametrize("deployment", DEPLOYMENTS)
@pytest.mark.parametrize("kind", KINDS)
def test_edge_queries_never_raise_and_health_is_counted(kind, deployment,
                                                        structures):
    structure = structures[(kind, deployment)]
    before = structure.health.queries
    for _, query, _ in EDGE_QUERIES:
        _direct_answer(kind, structure, query)
    assert structure.health.queries == before + len(EDGE_QUERIES)


# -- the predicate x structure matrix ----------------------------------------


@pytest.fixture(scope="module")
def predicate_structures(collection):
    """Guarded predicate suites: unsharded and K=3 sharded."""
    unsharded = PredicateCardinalitySuite.build(
        collection,
        model_config=_small_model(),
        train_config=TrainConfig(
            epochs=2, batch_size=64, lr=5e-3, loss="mse", seed=SEED
        ),
        num_samples=150,
        max_subset_size=3,
        rng=np.random.default_rng(SEED),
    )
    sharded = ShardedBuilder(
        ShardPlan.contiguous(collection, 3),
        workers=1,
        base_seed=SEED,
        model_config=_small_model(),
        train_config=TrainConfig(epochs=2, batch_size=64, lr=5e-3),
        max_subset_size=3,
        max_training_samples=150,
    ).build("predicate")
    return {
        "unsharded": GuardedPredicateSuite.for_collection(unsharded, collection),
        "sharded": GuardedPredicateSuite.for_collection(sharded, collection),
    }


@pytest.fixture(scope="module")
def predicate_servers(predicate_structures):
    running = {
        deployment: SetServer(structure, cache_size=64).start()
        for deployment, structure in predicate_structures.items()
    }
    yield running
    for server in running.values():
        server.close()


def _predicate_answers(deployment, predicate_structures, predicate_servers,
                       query, predicate):
    structure = predicate_structures[deployment]
    server = predicate_servers[deployment]
    return (
        structure.estimate(query, predicate=predicate),
        server.query(list(query), predicate=predicate.spec),
    )


@pytest.mark.parametrize("deployment", DEPLOYMENTS)
@pytest.mark.parametrize("predicate", DEFAULT_PREDICATES, ids=lambda p: p.spec)
class TestPredicateMatrix:
    def test_empty_query_has_the_defined_answer(
        self, predicate, deployment, predicate_structures, predicate_servers
    ):
        direct, served = _predicate_answers(
            deployment, predicate_structures, predicate_servers, (), predicate
        )
        expected = float(predicate.empty_query_count(len(SETS)))
        assert direct == expected, seed_note(
            f"direct {predicate.spec}/{deployment}"
        )
        assert served == expected, seed_note(
            f"served {predicate.spec}/{deployment}"
        )

    @pytest.mark.parametrize("query", [(OOV,), (OOV, OOV + 1), (2, OOV)])
    def test_oov_is_a_subset_miss_and_exact_elsewhere(
        self, predicate, deployment, query, predicate_structures,
        predicate_servers, truth
    ):
        direct, served = _predicate_answers(
            deployment, predicate_structures, predicate_servers, query,
            predicate
        )
        if predicate.kind == "subset":
            expected = 0.0
        else:
            expected = float(truth.count_predicate(predicate, query))
        assert direct == expected, seed_note(
            f"direct {predicate.spec}/{deployment} {query}"
        )
        assert served == expected, seed_note(
            f"served {predicate.spec}/{deployment} {query}"
        )

    @pytest.mark.parametrize("query,dedup",
                             [((1, 1, 2, 2), (1, 2)), ((2, 2, 2), (2,)),
                              ((OOV, OOV), (OOV,))])
    def test_duplicates_canonicalize(
        self, predicate, deployment, query, dedup, predicate_structures,
        predicate_servers
    ):
        structure = predicate_structures[deployment]
        server = predicate_servers[deployment]
        assert structure.estimate(query, predicate=predicate) == (
            structure.estimate(dedup, predicate=predicate)
        ), seed_note(f"direct {predicate.spec}/{deployment} {query}")
        assert server.query(list(query), predicate=predicate.spec) == (
            server.query(list(dedup), predicate=predicate.spec)
        ), seed_note(f"served {predicate.spec}/{deployment} {query}")

    @pytest.mark.parametrize("query", [(), (2,), (1, 2), (OOV,), (1, 1, 2)])
    def test_direct_and_served_agree(
        self, predicate, deployment, query, predicate_structures,
        predicate_servers
    ):
        direct, served = _predicate_answers(
            deployment, predicate_structures, predicate_servers, query,
            predicate
        )
        assert direct == served, seed_note(
            f"{predicate.spec}/{deployment} {query}: {direct} != {served}"
        )

    def test_answers_never_raise_and_health_is_counted(
        self, predicate, deployment, predicate_structures
    ):
        structure = predicate_structures[deployment]
        before = structure.health.queries
        probes = [(), (2,), (OOV,), (1, 1, 2), (OOV, 2)]
        for query in probes:
            structure.estimate(query, predicate=predicate)
        assert structure.health.queries == before + len(probes), seed_note(
            f"{predicate.spec}/{deployment}"
        )


# -- the adaptive-mode column -------------------------------------------------


def _is_clean(query) -> bool:
    """In-universe, non-empty — the only shapes a model path may train on."""
    return bool(query) and all(0 <= element <= 5 for element in set(query))


@pytest.fixture(scope="module")
def polluted_log() -> WorkloadLog:
    """A workload log fed the full edge matrix, plus hostile extras.

    Every edge query recorded hot (count 5), a wrong-predicate entry, a
    negative element id, and two clean in-universe keys — the only
    entries a refresh may learn from.
    """
    log = WorkloadLog(capacity=64)
    for _, query, _ in EDGE_QUERIES:
        for _ in range(5):
            log.record("subset", query)
    log.record("superset", (1, 2))
    log.record("subset", (-3, 1))
    log.record("subset", (1, 2))
    log.record("subset", (0, 2, 5))
    log.observe("subset", (1, 2), 1.5)
    return log


class TestAdaptiveEdgeConformance:
    def test_recording_never_changes_served_answers(self, structures, truth):
        """The adaptive hooks are pure telemetry: answers stay identical."""
        structure = structures[("cardinality", "sharded")]
        log = WorkloadLog(capacity=64, observe_every=1)
        with SetServer(structure, cache_size=64) as plain:
            with SetServer(
                structure, cache_size=64, exact=truth, workload=log
            ) as adaptive:
                for label, query, _ in EDGE_QUERIES:
                    assert adaptive.query(list(query)) == plain.query(
                        list(query)
                    ), seed_note(f"adaptive column {label}")
        keys = {entry.canonical for entry in log.entries()}
        # Duplicates fold into their canonical set form before keying.
        assert (1, 2) in keys and (2,) in keys, seed_note(f"keys={keys}")
        assert all(
            key == tuple(sorted(set(key))) for key in keys
        ), seed_note("recorded keys must be canonical")

    def test_polluted_log_never_poisons_training_sets(
        self, collection, polluted_log
    ):
        """Refresh training sets stay clean whatever traffic was recorded."""
        max_id = collection.max_element_id()
        observed = _clean_observed(polluted_log.top(), "subset", max_id)
        assert observed, seed_note("no usable entries survived")
        for entry in observed:
            subset = entry.canonical
            assert subset == tuple(sorted(set(subset))) and subset, seed_note(
                f"non-canonical training subset {subset}"
            )
            assert 0 <= subset[0] and subset[-1] <= max_id, seed_note(
                f"out-of-universe training subset {subset}"
            )
            assert np.isfinite(entry.count) and np.isfinite(
                entry.q_error_sum
            ), seed_note(f"non-finite count/q-error for {subset}")
            assert entry.count >= 1, seed_note(f"count < 1 for {subset}")
        by_subset = {entry.canonical: entry.count for entry in observed}
        # (2,) was served hot through two edge spellings (5 + 5 records).
        assert by_subset[(2,)] == 10, seed_note(
            f"hot edge key must keep its aggregated frequency; "
            f"got {by_subset[(2,)]}"
        )

    def test_malformed_entries_record_no_probe_evidence(
        self, structures, truth
    ):
        """Edge traffic alone can never trip a local bound."""
        router = structures[("cardinality", "sharded")].estimator
        tracker = ShardStalenessTracker(
            router.plan.offsets(), window=8, min_observations=1
        )
        bad = WorkloadLog(capacity=32)
        for _, query, _ in EDGE_QUERIES:
            if _is_clean(query):
                continue
            bad.record("subset", query)
        bad.record("subset", (-3, 1))
        bad.record("superset", (1, 2))
        recorded = probe_shard_errors(
            router, truth, bad.top(), tracker, max_queries=64
        )
        assert recorded == 0, seed_note(
            f"malformed entries produced {recorded} probe observations"
        )
        assert tracker.q_errors() == {}, seed_note(
            f"tracker windows must stay empty, got {tracker.as_dict()}"
        )
        policy = StalenessPolicy(
            max_deltas=None, max_aux_fraction=None, max_local_q_error=1.0
        )
        state = StalenessState(shard_q_errors=tracker.q_errors() or None)
        assert policy.evaluate(state) == [], seed_note(
            "no local reason may trip on edge traffic"
        )

    def test_shard_rebuild_survives_polluted_log(
        self, structures, polluted_log
    ):
        """A targeted rebuild over hostile traffic trains and answers sanely."""
        router = structures[("cardinality", "sharded")].estimator
        rebuild = workload_shard_rebuilder(
            polluted_log,
            model_config=_small_model(),
            train_config=_small_train("mse"),
            max_subset_size=3,
            base_seed=SEED + 11,
        )
        part = rebuild(router, 0)
        shard = router.plan[0]
        assert part.max_known_id() == shard.collection.max_element_id(), (
            seed_note("rebuilt part must keep its shard's exact ceiling")
        )
        estimates = np.asarray(part.estimate_many([(2,), (0,), (1, 2)]))
        assert np.all(np.isfinite(estimates)) and np.all(estimates >= 0.0), (
            seed_note(f"rebuilt part answers must stay sane: {estimates}")
        )
