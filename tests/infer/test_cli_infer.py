"""CLI coverage for the freeze / scenario-trend verbs."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.cli import build_parser, main
from repro.infer import attached_plans
from repro.scenario import get_scenario
from repro.sets import SetCollection

from .conftest import SETS, fresh_estimator


@pytest.fixture
def estimator_pickle(tmp_path):
    collection = SetCollection(SETS)
    path = tmp_path / "est.pkl"
    with open(path, "wb") as handle:
        pickle.dump(fresh_estimator(collection, seed=3), handle)
    return path


class TestParser:
    def test_freeze_defaults(self):
        args = build_parser().parse_args(["freeze", "est.pkl"])
        assert args.dtypes == ["float64", "float32", "int8"]
        assert args.active == "float32"
        assert args.strict is False
        assert args.out is None

    def test_scenario_trend_defaults(self):
        args = build_parser().parse_args(["scenario", "trend"])
        assert args.drift_threshold == 0.2
        assert args.path is None


class TestFreeze:
    def test_freeze_attaches_and_repickles_in_place(
        self, estimator_pickle, capsys
    ):
        assert main(["freeze", str(estimator_pickle)]) == 0
        out = capsys.readouterr().out
        assert "accepted" in out
        with open(estimator_pickle, "rb") as handle:
            structure = pickle.load(handle)
        plans = attached_plans(structure)
        assert plans
        assert structure.estimate((1, 2)) >= 0.0

    def test_freeze_writes_to_out_path(self, estimator_pickle, tmp_path):
        target = tmp_path / "frozen.pkl"
        assert main(
            ["freeze", str(estimator_pickle), "--out", str(target)]
        ) == 0
        with open(target, "rb") as handle:
            assert attached_plans(pickle.load(handle))

    def test_strict_freeze_fails_on_impossible_gate(self, estimator_pickle):
        rc = main([
            "freeze", str(estimator_pickle),
            "--max-mean-qerror", "1.0", "--strict",
        ])
        assert rc == 1

    def test_missing_pickle_is_a_usage_error(self, tmp_path):
        assert main(["freeze", str(tmp_path / "nope.pkl")]) == 2


class TestScenarioTrend:
    def _write_records(self, path, fractions):
        budget = get_scenario("read-heavy").slo.max_p99_ms
        lines = [
            json.dumps({
                "bench": "scenario", "scenario": "read-heavy", "seed": 0,
                "fast": True, "passed": True, "violations": [],
                "observations": {"p99_ms": fraction * budget},
            })
            for fraction in fractions
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_stable_trend_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "BENCH_scenarios.json"
        self._write_records(path, [0.1, 0.12])
        assert main(["scenario", "trend", "--path", str(path)]) == 0
        assert "read-heavy" in capsys.readouterr().out

    def test_drifting_trend_exits_one_and_prints_flags(self, tmp_path, capsys):
        path = tmp_path / "BENCH_scenarios.json"
        self._write_records(path, [0.1, 0.6])
        assert main(["scenario", "trend", "--path", str(path)]) == 1
        assert "drifted" in capsys.readouterr().out

    def test_json_output_is_parseable(self, tmp_path, capsys):
        path = tmp_path / "BENCH_scenarios.json"
        self._write_records(path, [0.1, 0.6])
        main(["scenario", "trend", "--path", str(path), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert report["records"] == 2

    def test_missing_trajectory_file_exits_two(self, tmp_path):
        missing = tmp_path / "absent.json"
        assert main(["scenario", "trend", "--path", str(missing)]) == 2
