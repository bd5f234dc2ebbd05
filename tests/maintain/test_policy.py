"""StalenessPolicy: trip reasons, disabled signals, aux-fraction probes."""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import pytest

from repro.maintain import StalenessPolicy, StalenessState, aux_fraction_of

from .conftest import fresh_estimator


class TestEvaluate:
    def test_fresh_state_trips_nothing(self):
        assert StalenessPolicy().evaluate(StalenessState()) == []

    def test_delta_count_trips_at_threshold(self):
        policy = StalenessPolicy(max_deltas=5)
        assert policy.evaluate(StalenessState(pending_deltas=4)) == []
        assert policy.evaluate(StalenessState(pending_deltas=5)) == ["delta_count"]

    def test_aux_fraction_trips_at_threshold(self):
        policy = StalenessPolicy(max_aux_fraction=0.5)
        assert policy.evaluate(StalenessState(aux_fraction=0.49)) == []
        assert policy.evaluate(StalenessState(aux_fraction=0.5)) == ["aux_fraction"]

    def test_probe_q_error_trips_only_when_finite_and_above(self):
        policy = StalenessPolicy(max_probe_q_error=2.0)
        assert policy.evaluate(StalenessState(probe_q_error=1.5)) == []
        assert policy.evaluate(StalenessState(probe_q_error=math.nan)) == []
        assert policy.evaluate(StalenessState(probe_q_error=2.5)) == [
            "q_error_drift"
        ]

    def test_none_disables_each_signal(self):
        policy = StalenessPolicy(
            max_deltas=None, max_aux_fraction=None, max_probe_q_error=None
        )
        saturated = StalenessState(
            pending_deltas=10**9, aux_fraction=1.0, probe_q_error=1e9
        )
        assert policy.evaluate(saturated) == []

    def test_multiple_reasons_accumulate(self):
        policy = StalenessPolicy(
            max_deltas=1, max_aux_fraction=0.1, max_probe_q_error=1.5
        )
        state = StalenessState(
            pending_deltas=10, aux_fraction=0.9, probe_q_error=3.0
        )
        assert policy.evaluate(state) == [
            "delta_count",
            "aux_fraction",
            "q_error_drift",
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_deltas": 0},
            {"max_aux_fraction": 0.0},
            {"max_probe_q_error": 0.5},
            {"min_interval_s": -1.0},
        ],
    )
    def test_invalid_thresholds_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            StalenessPolicy(**kwargs)


class TestSerialization:
    def test_state_as_dict_is_json_safe_without_a_probe(self):
        payload = StalenessState(pending_deltas=3, aux_fraction=0.1).as_dict()
        assert payload["probe_q_error"] is None
        json.dumps(payload)  # NaN would make strict JSON encoding fail

    def test_state_as_dict_keeps_finite_probe_values(self):
        payload = StalenessState(probe_q_error=1.25).as_dict()
        assert payload["probe_q_error"] == 1.25

    def test_policy_as_dict_round_trips_thresholds(self):
        policy = StalenessPolicy(max_deltas=7, max_aux_fraction=0.3)
        payload = policy.as_dict()
        assert payload["max_deltas"] == 7
        assert payload["max_aux_fraction"] == 0.3
        json.dumps(payload)


class TestAuxFraction:
    def test_trained_estimator_starts_clean_and_drifts_with_updates(
        self, collection
    ):
        estimator = fresh_estimator(collection, seed=21)
        baseline = aux_fraction_of(estimator)
        estimator.record_update((0, 1), 40)
        estimator.record_update((2, 3), 41)
        assert aux_fraction_of(estimator) > baseline

    @pytest.mark.parametrize(
        "facade", ["GuardedCardinalityEstimator", "GuardedPredicateSuite"]
    )
    def test_guarded_facade_measures_the_wrapped_structure(
        self, collection, truth, facade
    ):
        import repro.reliability

        estimator = fresh_estimator(collection, seed=22)
        estimator.record_update((0,), 9)
        guarded = getattr(repro.reliability, facade)(
            estimator, truth, max_query_size=3
        )
        assert aux_fraction_of(guarded) == aux_fraction_of(estimator) > 0.0

    def test_sharded_stub_takes_max_of_router_and_part_fractions(self):
        part = SimpleNamespace(
            auxiliary={(0,): 1.0},
            report=SimpleNamespace(num_training_subsets=4),
        )
        router = SimpleNamespace(
            parts=[part],
            plan=SimpleNamespace(num_sets=10),
            auxiliary={(1,): 2.0},
        )
        # Router layer: 1/10; the saturated part dominates at 1/4.
        assert aux_fraction_of(router) == pytest.approx(0.25)

    def test_structures_without_an_auxiliary_report_zero(self):
        assert aux_fraction_of(object()) == 0.0
