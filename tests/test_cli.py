"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import pickle
import re
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser, main
from repro.sets import SetCollection


@pytest.fixture
def collection_file(tmp_path):
    path = tmp_path / "sets.txt"
    SetCollection(
        [[1, 2, 3], [2, 3], [1, 4], [2, 3, 4], [5, 6], [1, 5, 6]]
    ).save(path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "imagenet", "out.txt"])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train", "cardinality", "a", "b"])
        assert args.kind == "clsm"
        assert args.epochs == 30

    def test_serve_auto_refresh_defaults(self):
        args = build_parser().parse_args(["serve", "model.pkl"])
        assert args.auto_refresh is False
        assert args.refresh_interval == 1.0
        assert args.refresh_max_deltas == 1000
        assert args.refresh_max_aux_fraction == 0.25
        assert args.refresh_min_interval == 30.0
        assert args.refresh_collection is None

    def test_refresh_status_requires_connect(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["refresh-status"])


class TestDatasetsAndStats:
    def test_datasets_lists_presets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("rw-small", "tweets", "sd"):
            assert name in out

    def test_generate_and_stats(self, tmp_path, capsys, monkeypatch):
        out_file = tmp_path / "sd.txt"
        assert main(["generate", "sd", str(out_file), "--scale", "0.05"]) == 0
        assert out_file.exists()
        assert main(["stats", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "uniq_elem" in out

    def test_stats_without_collection_or_connect_errors(self, capsys):
        assert main(["stats"]) == 2
        assert "--connect" in capsys.readouterr().err

    def test_stats_metrics_requires_connect(self, capsys):
        assert main(["stats", "--metrics"]) == 2
        assert "--connect" in capsys.readouterr().err

    def test_trace_dump_requires_connect(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace-dump"])

    def test_bad_connect_address_rejected(self):
        with pytest.raises(SystemExit):
            main(["stats", "--connect", "nota-port"])


class TestLiveTelemetryCommands:
    @pytest.fixture
    def live_server(self, collection_file, tmp_path, capsys):
        from repro.serve import SetServer, TcpServeFrontend

        model_file = tmp_path / "est.pkl"
        assert main([
            "train", "cardinality", str(collection_file), str(model_file),
            "--kind", "lsm", "--epochs", "2", "--no-hybrid",
        ]) == 0
        capsys.readouterr()
        with open(model_file, "rb") as handle:
            structure = pickle.load(handle)
        with SetServer(structure, cache_size=16) as server:
            frontend = TcpServeFrontend(server, port=0).start_background()
            server.query((1, 2))
            server.query((1, 2))
            host, port = frontend.address
            yield f"{host}:{port}"
            frontend.shutdown()

    def test_stats_connect_prints_json(self, live_server, capsys):
        import json

        assert main(["stats", "--connect", live_server]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["requests_served"] == 2
        assert report["cache"]["hits"] == 1

    def test_stats_connect_metrics_prints_exposition(self, live_server, capsys):
        assert main(["stats", "--connect", live_server, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_serve_requests_served_total counter" in out
        assert "repro_serve_latency_seconds_bucket" in out

    def test_trace_dump_prints_spans(self, live_server, capsys):
        assert main(["trace-dump", "--connect", live_server]) == 0
        out = capsys.readouterr().out
        assert "cache_lookup" in out
        assert "ms" in out

    def test_trace_dump_json(self, live_server, capsys):
        import json

        assert main([
            "trace-dump", "--connect", live_server, "--json", "--limit", "5"
        ]) == 0
        spans = json.loads(capsys.readouterr().out)
        assert isinstance(spans, list)
        assert 0 < len(spans) <= 5

    def test_refresh_status_without_maintainer_reports_disabled(
        self, live_server, capsys
    ):
        assert main(["refresh-status", "--connect", live_server]) == 1
        assert "not enabled" in capsys.readouterr().err


class TestRefreshStatusCommand:
    @pytest.fixture
    def maintained_server(self, collection_file, tmp_path, capsys):
        from repro.core import ModelConfig, TrainConfig
        from repro.maintain import BackgroundRefresher, default_rebuilder
        from repro.serve import SetServer, TcpServeFrontend

        model_file = tmp_path / "est.pkl"
        assert main([
            "train", "cardinality", str(collection_file), str(model_file),
            "--kind", "lsm", "--epochs", "2", "--no-hybrid",
        ]) == 0
        capsys.readouterr()
        with open(model_file, "rb") as handle:
            structure = pickle.load(handle)
        with SetServer(structure, cache_size=16) as server:
            frontend = TcpServeFrontend(server, port=0).start_background()
            refresher = BackgroundRefresher(
                server,
                default_rebuilder(
                    structure,
                    collection=SetCollection.load(collection_file),
                    model_config=ModelConfig(
                        kind="lsm", embedding_dim=2, phi_hidden=(4,),
                        rho_hidden=(4,),
                    ),
                    train_config=TrainConfig(epochs=1, batch_size=64),
                ),
            )
            host, port = frontend.address
            try:
                yield f"{host}:{port}"
            finally:
                refresher.close()
                refresher.delta.detach_all()
                server.maintainer = None
                frontend.shutdown()

    def test_json_status(self, maintained_server, capsys):
        import json

        assert main([
            "refresh-status", "--connect", maintained_server, "--json"
        ]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["auto_refresh"] is True
        assert status["kind"] == "cardinality"
        assert status["refreshes"] == 0

    def test_now_forces_a_refresh(self, maintained_server, capsys):
        assert main(["refresh-status", "--connect", maintained_server, "--now"]) == 0
        out = capsys.readouterr().out
        assert "refreshes 1" in out
        assert "snapshot v1" in out


class TestTrainAndQuery:
    def test_cardinality_roundtrip(self, collection_file, tmp_path, capsys):
        model_file = tmp_path / "est.pkl"
        assert main(
            [
                "train", "cardinality", str(collection_file), str(model_file),
                "--kind", "lsm", "--epochs", "5", "--no-hybrid",
            ]
        ) == 0
        assert model_file.exists()
        assert main(["estimate", str(model_file), "2", "3"]) == 0
        value = float(capsys.readouterr().out.strip().splitlines()[-1])
        assert value >= 1.0

    def test_index_roundtrip(self, collection_file, tmp_path, capsys):
        model_file = tmp_path / "idx.pkl"
        assert main(
            [
                "train", "index", str(collection_file), str(model_file),
                "--kind", "lsm", "--epochs", "5", "--no-hybrid",
            ]
        ) == 0
        assert main(["lookup", str(model_file), "2", "3"]) == 0
        answer = capsys.readouterr().out.strip().splitlines()[-1]
        assert answer == "0"  # first set containing {2, 3}

    def test_bloom_roundtrip(self, collection_file, tmp_path, capsys):
        model_file = tmp_path / "bf.pkl"
        assert main(
            [
                "train", "bloom", str(collection_file), str(model_file),
                "--kind", "lsm", "--epochs", "30",
            ]
        ) == 0
        assert main(["contains", str(model_file), "2", "3"]) == 0
        answer = capsys.readouterr().out.strip().splitlines()[-1]
        assert answer == "present"  # trained positive: guaranteed

    def test_wrong_structure_type_errors(self, collection_file, tmp_path, capsys):
        model_file = tmp_path / "est.pkl"
        main(
            [
                "train", "cardinality", str(collection_file), str(model_file),
                "--kind", "lsm", "--epochs", "2", "--no-hybrid",
            ]
        )
        assert main(["lookup", str(model_file), "1"]) == 2
        assert "not a set index" in capsys.readouterr().err

    def test_guarded_roundtrip_with_health_report(
        self, collection_file, tmp_path, capsys
    ):
        model_file = tmp_path / "guarded.pkl"
        assert main(
            [
                "train", "cardinality", str(collection_file), str(model_file),
                "--kind", "lsm", "--epochs", "3", "--no-hybrid", "--guarded",
            ]
        ) == 0
        assert "guarded" in capsys.readouterr().out
        assert main(["estimate", str(model_file), "2", "3"]) == 0
        captured = capsys.readouterr()
        assert float(captured.out.strip().splitlines()[-1]) >= 1.0
        assert "[health] cardinality" in captured.err

        with open(model_file, "rb") as handle:
            guarded = pickle.load(handle)
        assert guarded.estimate((900, 901)) == 0.0  # OOV: defined miss

    def test_guarded_index_and_bloom(self, collection_file, tmp_path, capsys):
        index_file = tmp_path / "idx.pkl"
        assert main(
            [
                "train", "index", str(collection_file), str(index_file),
                "--kind", "lsm", "--epochs", "3", "--no-hybrid", "--guarded",
            ]
        ) == 0
        assert main(["lookup", str(index_file), "2", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip().splitlines()[-1] == "0"
        assert "[health] index" in captured.err

        bloom_file = tmp_path / "bf.pkl"
        assert main(
            [
                "train", "bloom", str(collection_file), str(bloom_file),
                "--kind", "lsm", "--epochs", "10", "--guarded",
            ]
        ) == 0
        assert main(["contains", str(bloom_file), "2", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip().splitlines()[-1] == "present"
        assert "[health] bloom" in captured.err

    def test_unguarded_has_no_health_line(self, collection_file, tmp_path, capsys):
        model_file = tmp_path / "est.pkl"
        main(
            [
                "train", "cardinality", str(collection_file), str(model_file),
                "--kind", "lsm", "--epochs", "2", "--no-hybrid",
            ]
        )
        capsys.readouterr()
        assert main(["estimate", str(model_file), "2", "3"]) == 0
        assert "[health]" not in capsys.readouterr().err

    def test_pickled_structure_is_loadable(self, collection_file, tmp_path):
        model_file = tmp_path / "est.pkl"
        main(
            [
                "train", "cardinality", str(collection_file), str(model_file),
                "--kind", "clsm", "--epochs", "2", "--no-hybrid",
            ]
        )
        with open(model_file, "rb") as handle:
            structure = pickle.load(handle)
        assert structure.estimate((2, 3)) >= 1.0


class TestShardCli:
    def test_build_parser_defaults(self):
        args = build_parser().parse_args(["build", "cardinality", "a.txt", "b.pkl"])
        assert args.shards == 4
        assert args.workers == 1
        assert args.kind == "clsm"

    def test_sharded_cardinality_roundtrip(self, collection_file, tmp_path, capsys):
        model_file = tmp_path / "sharded.pkl"
        assert main(
            [
                "build", "cardinality", str(collection_file), str(model_file),
                "--shards", "2", "--kind", "lsm", "--epochs", "5",
                "--max-subset-size", "3",
            ]
        ) == 0
        assert "sharded cardinality" in capsys.readouterr().out
        assert main(["estimate", str(model_file), "2", "3"]) == 0
        value = float(capsys.readouterr().out.strip().splitlines()[-1])
        assert value >= 1.0
        with open(model_file, "rb") as handle:
            router = pickle.load(handle)
        assert router.num_shards == 2
        assert router.estimate((2, 3)) >= 1.0

    def test_sharded_index_roundtrip(self, collection_file, tmp_path, capsys):
        model_file = tmp_path / "idx.pkl"
        assert main(
            [
                "build", "index", str(collection_file), str(model_file),
                "--shards", "3", "--kind", "lsm", "--epochs", "5",
                "--max-subset-size", "3",
            ]
        ) == 0
        assert main(["lookup", str(model_file), "2", "3"]) == 0
        answer = capsys.readouterr().out.strip().splitlines()[-1]
        assert answer == "0"  # first set containing {2, 3}

    def test_guarded_sharded_bloom_roundtrip(self, collection_file, tmp_path, capsys):
        model_file = tmp_path / "bf.pkl"
        assert main(
            [
                "build", "bloom", str(collection_file), str(model_file),
                "--shards", "2", "--kind", "lsm", "--epochs", "5", "--guarded",
            ]
        ) == 0
        assert "guarded sharded bloom" in capsys.readouterr().out
        assert main(["contains", str(model_file), "2", "3"]) == 0
        answer = capsys.readouterr().out.strip().splitlines()[-1]
        assert answer == "present"  # stored subset: no false negatives


class TestServeCli:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "model.pkl"])
        assert args.port == 7007
        assert args.max_batch_size == 64
        assert args.overflow == "block"
        assert args.cache_size == 4096

    def test_bad_overflow_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "model.pkl", "--overflow", "panic"])


class TestDocsMatchCli:
    def test_documented_verbs_are_subcommands(self):
        """Every ``repro <verb>`` in README code blocks and in the CLI
        docstring is a real subcommand, and the docstring shows them all."""
        subcommands = set(next(
            action.choices for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ))
        verb = re.compile(r"(?:^|&&|\|)\s*repro\s+([a-z][\w-]*)", re.MULTILINE)
        readme = Path(__file__).resolve().parents[1] / "README.md"
        code_blocks = "\n".join(
            readme.read_text(encoding="utf-8").split("```")[1::2]
        )
        in_readme = set(verb.findall(code_blocks))
        in_docstring = set(verb.findall(repro.cli.__doc__))
        assert {"train", "serve"} <= in_readme
        assert in_readme - subcommands == set(), "README names unknown verbs"
        assert in_docstring - subcommands == set(), "docstring names unknown verbs"
        assert subcommands - in_docstring == set(), "docstring misses verbs"
