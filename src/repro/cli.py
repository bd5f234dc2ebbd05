"""Command-line interface: generate data, train structures, run queries.

Usage (installed as the ``repro`` console script, or
``python -m repro.cli``):

.. code-block:: bash

    repro datasets                              # list presets
    repro generate rw-small sets.txt --scale 0.5
    repro stats sets.txt
    repro train cardinality sets.txt est.pkl --kind clsm --epochs 30
    repro train index sets.txt idx.pkl
    repro train bloom sets.txt bf.pkl
    repro train predicate sets.txt suite.pkl   # one estimator per predicate
    repro build index sets.txt idx.pkl --shards 4 --workers 4
    repro estimate est.pkl 3 17 42             # cardinality of {3, 17, 42}
    repro estimate suite.pkl 3 17 --predicate "overlap>=2"
    repro estimate suite.pkl 3 17 --predicate superset
    repro lookup idx.pkl 3 17                  # first position containing {3, 17}
    repro contains bf.pkl 3 17                 # membership answer
    repro serve est.pkl --port 7007            # concurrent TCP query serving
    repro serve idx.pkl --auto-refresh         # + background staleness repair
    repro serve est.pkl --workers 4            # multi-process worker pool
    repro refresh-status --connect 127.0.0.1:7007   # maintenance status JSON
    repro stats --connect 127.0.0.1:7007       # live server telemetry (JSON)
    repro stats --connect 127.0.0.1:7007 --metrics   # Prometheus exposition
    repro trace-dump --connect 127.0.0.1:7007  # recent query-path spans
    repro scenario list                        # robustness scenario suite
    repro scenario run --all --seeds 3         # run + SLO-grade every scenario
    repro scenario run --fast                  # CI smoke subset, scaled down
    repro scenario trend                       # flag SLO-margin drift across runs
    repro freeze est.pkl                       # attach compiled inference plans

Performance is measured by the benchmark, ``python3 bench_spine/run.py``
(see ``bench_spine/README.md``), not by a CLI verb.

Trained structures are pickled whole (model + scaler + auxiliaries), which
matches the paper's memory-measurement methodology.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import pickle
import sys
from pathlib import Path

from .core import ModelConfig, OutlierRemovalConfig, TrainConfig, train_structure
from .datasets import DATASETS, load_dataset
from .reliability import GUARD_FOR_TASK, GuardedEstimator
from .sets import SetCollection

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing/docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Learned set structures (EDBT 2024 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("datasets", help="list the built-in dataset presets")

    generate = commands.add_parser("generate", help="write a preset dataset to a file")
    generate.add_argument("preset", choices=sorted(DATASETS))
    generate.add_argument("out", type=Path)
    generate.add_argument("--scale", type=float, default=None,
                          help="size multiplier (default: REPRO_SCALE or 1.0)")

    stats = commands.add_parser(
        "stats",
        help="print Table-2 statistics of a collection file, or live "
             "telemetry of a running server (--connect)",
    )
    stats.add_argument("collection", type=Path, nargs="?", default=None)
    stats.add_argument("--connect", metavar="HOST:PORT", default=None,
                       help="fetch telemetry from a running `repro serve` "
                            "instead of reading a collection file")
    stats.add_argument("--metrics", action="store_true",
                       help="with --connect: print the Prometheus-style "
                            "exposition (METRICS verb) instead of JSON stats")

    trace_dump = commands.add_parser(
        "trace-dump",
        help="dump recent query-path trace spans from a running server",
    )
    trace_dump.add_argument("--connect", metavar="HOST:PORT", required=True)
    trace_dump.add_argument("--limit", type=int, default=50,
                            help="maximum spans to fetch (newest kept)")
    trace_dump.add_argument("--json", action="store_true",
                            help="print the raw span JSON instead of the "
                                 "one-line-per-span summary")

    train = commands.add_parser("train", help="train a learned structure")
    train.add_argument("task", choices=("cardinality", "index", "bloom", "predicate"))
    train.add_argument("collection", type=Path)
    train.add_argument("out", type=Path)
    train.add_argument("--kind", choices=("lsm", "clsm"), default="clsm")
    train.add_argument("--embedding-dim", type=int, default=8)
    train.add_argument("--epochs", type=int, default=30)
    train.add_argument("--lr", type=float, default=5e-3)
    train.add_argument("--batch-size", type=int, default=1024)
    train.add_argument("--max-subset-size", type=int, default=4)
    train.add_argument("--max-training-samples", type=int, default=40_000)
    train.add_argument("--no-hybrid", action="store_true",
                       help="skip guided outlier removal (regression tasks)")
    train.add_argument("--guarded", action="store_true",
                       help="wrap the structure in the reliability facade "
                            "(exact fallback + health counters)")
    train.add_argument("--seed", type=int, default=0)

    build = commands.add_parser(
        "build",
        help="train a sharded structure (parallel per-shard training)",
    )
    build.add_argument("task", choices=("cardinality", "index", "bloom", "predicate"))
    build.add_argument("collection", type=Path)
    build.add_argument("out", type=Path)
    build.add_argument("--shards", type=int, default=4,
                       help="number of contiguous shards (clamped to the "
                            "collection size)")
    build.add_argument("--workers", type=int, default=1,
                       help="training process-pool size (1 = inline)")
    build.add_argument("--kind", choices=("lsm", "clsm"), default="clsm")
    build.add_argument("--embedding-dim", type=int, default=8)
    build.add_argument("--epochs", type=int, default=30)
    build.add_argument("--lr", type=float, default=5e-3)
    build.add_argument("--batch-size", type=int, default=1024)
    build.add_argument("--max-subset-size", type=int, default=4)
    build.add_argument("--max-training-samples", type=int, default=40_000)
    build.add_argument("--guarded", action="store_true",
                       help="wrap each shard in its reliability facade")
    build.add_argument("--seed", type=int, default=0)

    for name, help_text in (
        ("estimate", "estimate the cardinality of a query subset"),
        ("lookup", "find the first position containing a query subset"),
        ("contains", "answer a subset-membership query"),
    ):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("structure", type=Path)
        sub.add_argument("elements", type=int, nargs="+")
        if name == "estimate":
            sub.add_argument(
                "--predicate", default="subset",
                help="query semantics: subset (default), superset, "
                     "overlap>=K, or jaccard>=T (needs a structure "
                     "trained with `repro train predicate`)",
            )

    serve = commands.add_parser(
        "serve",
        help="serve a trained structure over TCP with micro-batching",
    )
    serve.add_argument("structure", type=Path)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7007)
    serve.add_argument("--workers", type=int, default=0,
                       help="serve through N worker processes with "
                            "shared-memory plan snapshots and an asyncio "
                            "frontend (0 = single-process threaded tier)")
    serve.add_argument("--max-respawns", type=int, default=None,
                       help="per-worker crash-respawn budget (--workers "
                            "only; default unlimited)")
    serve.add_argument("--max-batch-size", type=int, default=64)
    serve.add_argument("--max-wait-ms", type=float, default=2.0)
    serve.add_argument("--max-queue", type=int, default=1024)
    serve.add_argument("--overflow", choices=("block", "reject", "shed-to-exact"),
                       default="block")
    serve.add_argument("--cache-size", type=int, default=4096)
    serve.add_argument(
        "--auto-refresh", action="store_true",
        help="watch staleness (delta count / aux fraction) and retrain + "
             "hot-swap the structure in the background when a threshold trips",
    )
    serve.add_argument("--refresh-interval", type=float, default=1.0,
                       help="seconds between staleness checks")
    serve.add_argument("--refresh-max-deltas", type=int, default=1000,
                       help="refresh once this many mutations accumulate")
    serve.add_argument("--refresh-max-aux-fraction", type=float, default=0.25,
                       help="refresh once the auxiliary layer holds this "
                            "fraction of answers")
    serve.add_argument("--refresh-min-interval", type=float, default=30.0,
                       help="minimum seconds between two refreshes")
    serve.add_argument("--refresh-epochs", type=int, default=6,
                       help="training epochs per background rebuild")
    serve.add_argument("--refresh-workers", type=int, default=1,
                       help="per-shard rebuild process-pool size (sharded "
                            "structures only)")
    serve.add_argument("--refresh-collection", type=Path, default=None,
                       help="collection file backing rebuilds (needed for "
                            "unsharded cardinality/bloom structures, which "
                            "do not carry their training collection)")
    serve.add_argument("--refresh-backoff-base", type=float, default=0.5,
                       help="base seconds of exponential backoff after a "
                            "failed refresh (doubles per consecutive failure)")
    serve.add_argument("--refresh-breaker-failures", type=int, default=5,
                       help="consecutive refresh failures that open the "
                            "circuit breaker")
    serve.add_argument(
        "--adaptive", action="store_true",
        help="record the served workload and refresh adaptively: rebuilds "
             "are frequency-weighted toward observed queries, and with a "
             "sharded structure only drift-tripped shards are rebuilt "
             "(STALENESS for status; implies --auto-refresh)",
    )
    serve.add_argument("--adaptive-workload-capacity", type=int, default=4096,
                       help="distinct query keys the workload log retains "
                            "(lowest-frequency keys evict past this)")
    serve.add_argument("--adaptive-observe-every", type=int, default=16,
                       help="sample every N-th served query against exact "
                            "truth for observed q-error (0 disables)")
    serve.add_argument("--adaptive-max-local-q-error", type=float, default=4.0,
                       help="per-shard observed q-error that trips a "
                            "targeted shard rebuild")
    serve.add_argument("--adaptive-min-observations", type=int, default=8,
                       help="observations a shard needs in its window "
                            "before its local q-error can trip")
    serve.add_argument("--idle-timeout", type=float, default=300.0,
                       help="drop client connections idle this many seconds "
                            "(0 disables)")
    serve.add_argument("--max-line-bytes", type=int, default=65536,
                       help="longest accepted request line")
    serve.add_argument("--request-deadline", type=float, default=30.0,
                       help="per-query answer deadline in seconds (0 disables)")

    refresh_status = commands.add_parser(
        "refresh-status",
        help="query a running server's maintenance status (REFRESH verb)",
    )
    refresh_status.add_argument("--connect", metavar="HOST:PORT", required=True)
    refresh_status.add_argument("--now", action="store_true",
                                help="force a refresh before reporting")
    refresh_status.add_argument("--json", action="store_true",
                                help="print the raw status JSON instead of "
                                     "the human summary")

    scenario =commands.add_parser(
        "scenario",
        help="run the declarative robustness scenario suite with SLO grading",
    )
    scenario_commands = scenario.add_subparsers(
        dest="scenario_command", required=True
    )
    scenario_commands.add_parser(
        "list", help="list the built-in scenarios and their SLOs"
    )
    scenario_run = scenario_commands.add_parser(
        "run", help="run scenarios across seeds and grade each run"
    )
    scenario_run.add_argument(
        "names", nargs="*",
        help="scenario names to run (see 'repro scenario list')",
    )
    scenario_run.add_argument("--all", action="store_true",
                              help="run every built-in scenario")
    scenario_run.add_argument("--fast", action="store_true",
                              help="scaled-down variants (CI smoke); with "
                                   "no names, runs the fast subset")
    scenario_run.add_argument("--seeds", type=int, default=3,
                              help="number of seeds per scenario")
    scenario_run.add_argument("--seed", type=int, default=None,
                              help="base seed (default: REPRO_TEST_SEED "
                                   "env or 20260805)")
    scenario_run.add_argument("--out", type=Path, default=None,
                              help="JSONL trajectory path (default: "
                                   "results/BENCH_scenarios.json)")
    scenario_trend = scenario_commands.add_parser(
        "trend",
        help="diff recent runs in the scenario trajectory and flag "
             "SLO-margin drift",
    )
    scenario_trend.add_argument("--path", type=Path, default=None,
                                help="JSONL trajectory to analyze (default: "
                                     "results/BENCH_scenarios.json)")
    scenario_trend.add_argument("--drift-threshold", type=float, default=0.2,
                                help="flag when consumed SLO budget grows by "
                                     "more than this fraction between runs")
    scenario_trend.add_argument("--json", action="store_true",
                                help="print the full report as JSON")

    freeze = commands.add_parser(
        "freeze",
        help="compile a trained structure's model(s) into frozen "
             "inference plans (float64/float32/int8) and re-pickle it",
    )
    freeze.add_argument("structure", type=Path)
    freeze.add_argument("--out", type=Path, default=None,
                        help="output pickle (default: rewrite in place)")
    freeze.add_argument("--dtypes", nargs="+",
                        default=["float64", "float32", "int8"],
                        choices=("float64", "float32", "int8"))
    freeze.add_argument("--active", default="float32",
                        choices=("float64", "float32", "int8"),
                        help="variant the structure serves through")
    freeze.add_argument("--strict", action="store_true",
                        help="fail instead of skipping a variant whose "
                             "accuracy delta exceeds its gate")
    freeze.add_argument("--max-mean-qerror", type=float, default=None,
                        help="override the mean q-error gate for quantized "
                             "variants (regression structures)")
    freeze.add_argument("--max-flip-fraction", type=float, default=None,
                        help="override the decision-flip gate for quantized "
                             "variants (Bloom filters)")

    return parser


def _cmd_datasets(_args) -> int:
    for name, spec in DATASETS.items():
        print(f"{name:10s} {spec.paper_name:10s} base size {spec.base_num_sets}")
    return 0


def _cmd_generate(args) -> int:
    collection = load_dataset(args.preset, scale=args.scale)
    collection.save(args.out)
    print(f"wrote {len(collection)} sets to {args.out}")
    return 0


def _parse_address(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"error: --connect expects HOST:PORT, got {address!r}")
    return host, int(port)


def _fetch_from_server(address: str, verb: str) -> str:
    """Send one protocol verb to a running server and return its reply.

    ``METRICS`` replies are multi-line and terminated by ``# EOF``; every
    other verb answers on a single line.
    """
    import socket

    host, port = _parse_address(address)
    with socket.create_connection((host, port), timeout=10.0) as sock:
        stream = sock.makefile("rw", encoding="utf-8", newline="\n")
        stream.write(verb + "\n")
        stream.flush()
        if not verb.upper().startswith("METRICS"):
            return stream.readline().strip()
        lines = []
        for line in stream:
            if line.strip() == "# EOF":
                break
            lines.append(line.rstrip("\n"))
        return "\n".join(lines)


def _cmd_stats(args) -> int:
    if args.connect is not None:
        print(_fetch_from_server(args.connect, "METRICS" if args.metrics else "STATS"))
        return 0
    if args.metrics:
        print("error: --metrics requires --connect", file=sys.stderr)
        return 2
    if args.collection is None:
        print("error: pass a collection file or --connect HOST:PORT",
              file=sys.stderr)
        return 2
    collection = SetCollection.load(args.collection)
    stats = collection.stats()
    for key, value in stats.as_row().items():
        print(f"{key:10s} {value}")
    return 0


def _cmd_trace_dump(args) -> int:
    import json

    payload = _fetch_from_server(args.connect, f"TRACE {max(args.limit, 0)}")
    spans = json.loads(payload or "[]")
    if args.json:
        print(json.dumps(spans, indent=2, sort_keys=True))
        return 0
    if not spans:
        print("no spans recorded")
        return 0
    for span in spans:
        attrs = " ".join(
            f"{key}={value}" for key, value in sorted(span["attrs"].items())
        )
        parent = f" parent={span['parent_id']}" if span.get("parent_id") else ""
        print(
            f"#{span['span_id']:<6d} {span['name']:<14s} "
            f"{span['duration_ms']:9.3f}ms{parent}"
            f"{'  ' + attrs if attrs else ''}"
        )
    return 0


def _recipe_args(args) -> dict:
    """``train_structure`` / ``ShardedBuilder`` arguments described by ``args``
    (shared by train and build)."""
    bloom = args.task == "bloom"
    hybrid = not bloom and not getattr(args, "no_hybrid", False)
    return dict(
        model_config=ModelConfig(
            kind=args.kind, embedding_dim=args.embedding_dim, seed=args.seed
        ),
        train_config=TrainConfig(
            epochs=args.epochs,
            batch_size=args.batch_size,
            lr=args.lr,
            loss="mse",
            seed=args.seed,
        ),
        removal=OutlierRemovalConfig(
            percentile=90.0, at_epochs=(max(args.epochs * 2 // 3, 1),)
        ) if hybrid else None,
        max_subset_size=min(args.max_subset_size, 3) if bloom else args.max_subset_size,
        max_training_samples=args.max_training_samples,
    )


def _cmd_train(args) -> int:
    collection = SetCollection.load(args.collection)
    structure = train_structure(
        args.task,
        collection,
        num_negative_samples=args.max_training_samples // 2,
        **_recipe_args(args),
    )
    if args.guarded:
        structure = GUARD_FOR_TASK[args.task].for_collection(structure, collection)
    with open(args.out, "wb") as handle:
        pickle.dump(structure, handle, protocol=pickle.HIGHEST_PROTOCOL)
    size_kb = args.out.stat().st_size / 1e3
    guarded_note = " guarded" if args.guarded else ""
    print(
        f"trained{guarded_note} {args.task} structure ({args.kind}) "
        f"-> {args.out} ({size_kb:.1f} KB)"
    )
    return 0


def _cmd_build(args) -> int:
    from .shard import ShardedBuilder, ShardPlan

    collection = SetCollection.load(args.collection)
    plan = ShardPlan.contiguous(collection, args.shards)
    structure = ShardedBuilder(
        plan,
        workers=args.workers,
        base_seed=args.seed,
        guarded=args.guarded,
        **_recipe_args(args),
    ).build(args.task)
    with open(args.out, "wb") as handle:
        pickle.dump(structure, handle, protocol=pickle.HIGHEST_PROTOCOL)
    size_kb = args.out.stat().st_size / 1e3
    guarded_note = " guarded" if args.guarded else ""
    print(
        f"built{guarded_note} sharded {args.task} structure "
        f"({len(plan)} shards, {args.workers} workers) "
        f"-> {args.out} ({size_kb:.1f} KB)"
    )
    return 0


def _load_structure(path: Path):
    with open(path, "rb") as handle:
        return pickle.load(handle)


def _serves(structure, kind: str) -> bool:
    """Whether ``structure`` (raw, sharded or guarded) answers task ``kind``."""
    from .serve import detect_kind

    try:
        return detect_kind(structure) == kind
    except TypeError:
        return False


def _report_health(structure) -> None:
    """Print a guarded facade's health-report line (stderr, machine-greppable)."""
    if isinstance(structure, GuardedEstimator):
        print(structure.health.report_line(), file=sys.stderr)


def _cmd_estimate(args) -> int:
    from .sets import as_predicate

    structure = _load_structure(args.structure)
    if not _serves(structure, "cardinality"):
        print("error: structure is not a cardinality estimator", file=sys.stderr)
        return 2
    try:
        predicate = as_predicate(args.predicate)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if predicate.kind == "subset" and not getattr(
        structure, "supports_predicates", False
    ):
        print(f"{structure.estimate(args.elements):.2f}")
    else:
        try:
            value = structure.estimate(args.elements, predicate=predicate)
        except (KeyError, TypeError, ValueError) as exc:
            print(
                f"error: structure cannot answer predicate "
                f"{predicate.spec!r}: {exc}",
                file=sys.stderr,
            )
            return 2
        print(f"{value:.2f}")
    _report_health(structure)
    return 0


def _cmd_lookup(args) -> int:
    structure = _load_structure(args.structure)
    if not _serves(structure, "index"):
        print("error: structure is not a set index", file=sys.stderr)
        return 2
    position = structure.lookup(args.elements)
    print("not found" if position is None else str(position))
    _report_health(structure)
    return 0


def _cmd_contains(args) -> int:
    structure = _load_structure(args.structure)
    if not _serves(structure, "bloom"):
        print("error: structure is not a Bloom filter", file=sys.stderr)
        return 2
    print("present" if structure.contains(args.elements) else "absent")
    _report_health(structure)
    return 0


def _make_refresher(args, server, structure, workload=None):
    """Build and start the background refresher for ``repro serve``."""
    from .maintain import (
        BackgroundRefresher,
        StalenessPolicy,
        default_rebuilder,
        unwrap_structure,
    )

    collection = (
        SetCollection.load(args.refresh_collection)
        if args.refresh_collection is not None
        else None
    )
    train_config = TrainConfig(
        epochs=args.refresh_epochs,
        seed=args.seed if hasattr(args, "seed") else 0,
    )
    rebuild = default_rebuilder(
        structure,
        collection=collection,
        train_config=train_config,
        workers=args.refresh_workers,
    )
    adaptive = getattr(args, "adaptive", False) and workload is not None
    policy = StalenessPolicy(
        max_deltas=args.refresh_max_deltas,
        max_aux_fraction=args.refresh_max_aux_fraction,
        min_interval_s=args.refresh_min_interval,
        max_local_q_error=(
            args.adaptive_max_local_q_error if adaptive else None
        ),
    )
    extras = {}
    if adaptive:
        from .adapt import ShardStalenessTracker, workload_shard_rebuilder

        extras["workload"] = workload
        inner = unwrap_structure(structure)
        if getattr(inner, "plan", None) is not None:
            extras["tracker"] = ShardStalenessTracker(
                inner.plan.offsets(),
                min_observations=args.adaptive_min_observations,
            )
            extras["shard_rebuild"] = workload_shard_rebuilder(
                workload,
                train_config=train_config,
                base_seed=getattr(args, "seed", 0) or 0,
            )
    return BackgroundRefresher(
        server,
        rebuild,
        policy=policy,
        interval_s=args.refresh_interval,
        backoff_base_s=getattr(args, "refresh_backoff_base", 0.5),
        breaker_failures=getattr(args, "refresh_breaker_failures", 5),
        **extras,
    ).start()


def _cmd_serve(args) -> int:
    import json

    from .serve import (
        AsyncTcpFrontend,
        BatchPolicy,
        SetServer,
        TcpServeFrontend,
        WorkerPool,
    )

    structure = _load_structure(args.structure)
    policy = BatchPolicy(
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
        max_queue=args.max_queue,
        overflow=args.overflow,
    )
    workload = None
    if args.adaptive:
        from .adapt import WorkloadLog

        workload = WorkloadLog(
            capacity=args.adaptive_workload_capacity,
            observe_every=args.adaptive_observe_every,
        )
    if args.workers > 0:
        backend = WorkerPool(
            structure,
            workers=args.workers,
            policy=policy,
            cache_size=args.cache_size,
            max_respawns=args.max_respawns,
            workload=workload,
        )
        tier_note = f"{args.workers} worker processes, asyncio frontend"
    else:
        backend = SetServer(
            structure, policy=policy, cache_size=args.cache_size,
            workload=workload,
        )
        tier_note = "threaded tier"
    with backend:
        refresher = None
        if args.auto_refresh or args.adaptive:
            try:
                refresher = _make_refresher(
                    args, backend, structure, workload=workload
                )
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        frontend_class = (
            AsyncTcpFrontend if args.workers > 0 else TcpServeFrontend
        )
        frontend = frontend_class(
            backend,
            host=args.host,
            port=args.port,
            idle_timeout_s=args.idle_timeout or None,
            max_line_bytes=args.max_line_bytes,
            request_deadline_s=args.request_deadline or None,
        )
        if args.workers > 0:
            frontend.start_background()
        host, port = frontend.address
        if refresher is not None and workload is not None:
            refresh_note = "; adaptive refresh on (STALENESS for status)"
        elif refresher is not None:
            refresh_note = "; auto-refresh on (REFRESH for status)"
        else:
            refresh_note = ""
        print(
            f"serving {backend.kind} queries on {host}:{port} "
            f"({tier_note}; one query per line; STATS for telemetry, "
            f"QUIT to disconnect){refresh_note}"
        )
        try:
            if args.workers > 0:
                frontend.wait()
            else:
                frontend.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            frontend.shutdown()
            if refresher is not None:
                refresher.close()
        if args.workers > 0:
            print(
                json.dumps(backend.stats_dict().get("pool", {}), sort_keys=True),
                file=sys.stderr,
            )
        else:
            print(backend.stats.report_line(), file=sys.stderr)
        if refresher is not None:
            print(
                f"[maintain] refreshes={refresher.refreshes} "
                f"failures={refresher.failures} "
                f"replayed={refresher.replayed}",
                file=sys.stderr,
            )
    return 0


def _cmd_refresh_status(args) -> int:
    import json

    verb = "REFRESH NOW" if args.now else "REFRESH"
    payload = _fetch_from_server(args.connect, verb)
    if payload.startswith("error"):
        print(payload, file=sys.stderr)
        return 1
    status = json.loads(payload)
    if not status.get("auto_refresh", False):
        print("auto-refresh is not enabled on this server", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    state = status.get("state", {})
    print(
        f"{status['kind']} maintainer "
        f"{'running' if status.get('running') else 'stopped'} "
        f"(check interval {status.get('interval_s')}s)"
    )
    print(
        f"refreshes {status.get('refreshes', 0)} "
        f"(failures {status.get('failures', 0)}, "
        f"replayed deltas {status.get('replayed_deltas', 0)}); "
        f"serving snapshot v{status.get('snapshot_version')}"
    )
    print(
        f"pending deltas {state.get('pending_deltas', 0)}, "
        f"aux fraction {state.get('aux_fraction', 0.0):.3f}, "
        f"probe q-error {state.get('probe_q_error')}"
    )
    if status.get("last_reasons"):
        print(f"last refresh reasons: {', '.join(status['last_reasons'])}")
    if status.get("last_error"):
        print(f"last error: {status['last_error']}")
    return 0


def _cmd_scenario(args) -> int:
    from .scenario import (
        FAST_SUBSET,
        SCENARIOS,
        append_record,
        grade,
        make_record,
        run_scenario,
    )

    if args.scenario_command == "list":
        for name, spec in SCENARIOS.items():
            print(f"{name:12s} {spec.steps:3d} steps  {spec.description}")
        return 0

    if args.scenario_command == "trend":
        return _cmd_scenario_trend(args)

    if args.all:
        names = list(SCENARIOS)
    elif args.names:
        names = list(args.names)
    elif args.fast:
        names = list(FAST_SUBSET)
    else:
        print(
            "error: name at least one scenario, or use --all / --fast",
            file=sys.stderr,
        )
        return 2
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        print(
            f"error: unknown scenario(s) {', '.join(unknown)}; "
            f"available: {', '.join(SCENARIOS)}",
            file=sys.stderr,
        )
        return 2

    base_seed = args.seed
    if base_seed is None:
        base_seed = int(os.environ.get("REPRO_TEST_SEED", "20260805"))
    seeds = [base_seed + offset for offset in range(max(args.seeds, 1))]
    print(
        f"scenario suite: {len(names)} scenario(s) x {len(seeds)} seed(s), "
        f"base seed {base_seed}"
        + (" [fast]" if args.fast else "")
    )
    failures = 0
    for name in names:
        spec = SCENARIOS[name]
        for seed in seeds:
            obs = run_scenario(spec, seed, fast=args.fast)
            violations = grade(spec, obs)
            record = make_record(spec, seed, obs, violations, fast=args.fast)
            path = append_record(record, args.out)
            verdict = "PASS" if not violations else "FAIL"
            print(
                f"[{verdict}] {name} seed={seed} ops={obs['ops']} "
                f"p99={obs['p99_ms']:.1f}ms refreshes={obs['refreshes']} "
                f"wall={obs['wall_s']:.1f}s"
            )
            for violation in violations:
                print(f"       violation: {violation}")
            failures += bool(violations)
    print(f"appended {len(names) * len(seeds)} record(s) to {path}")
    if failures:
        print(f"{failures} run(s) violated their SLOs", file=sys.stderr)
    return 1 if failures else 0


def _cmd_scenario_trend(args) -> int:
    import json

    from .scenario import scenario_trend

    try:
        report = scenario_trend(
            path=args.path, drift_threshold=args.drift_threshold
        )
    except FileNotFoundError as exc:
        print(f"error: no scenario trajectory at {exc.filename}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if report["ok"] else 1
    print(
        f"{report['records']} record(s) across {len(report['keys'])} "
        f"(scenario, seed) key(s)"
        + (f"; skipped {report['skipped_lines']} bad line(s)"
           if report["skipped_lines"] else "")
    )
    for label, entry in report["keys"].items():
        budget = entry["slo_consumption"]
        headline = (
            f"p99 at {budget['p99_ms']:.0%} of budget"
            if "p99_ms" in budget else "no bounded SLOs"
        )
        drift = entry["drift"].get("p99_ms")
        drift_note = f", drift {drift:+.0%}" if drift is not None else ""
        status = "PASS" if entry["passed"] else "FAIL"
        print(f"  [{status}] {label}: {headline}{drift_note} "
              f"({entry['runs']} run(s))")
    if report["flags"]:
        print("flags:")
        for flag in report["flags"]:
            print(f"  ! {flag}")
    else:
        print("no SLO-margin drift detected")
    return 0 if report["ok"] else 1


def _cmd_freeze(args) -> int:
    from .infer import FreezeError, FrozenVariantRejected, GateConfig, freeze_structure

    try:
        structure = _load_structure(args.structure)
    except FileNotFoundError:
        print(f"error: no such structure pickle: {args.structure}",
              file=sys.stderr)
        return 2
    overrides = {}
    if args.max_mean_qerror is not None:
        overrides["max_mean_qerror"] = args.max_mean_qerror
    if args.max_flip_fraction is not None:
        overrides["max_flip_fraction"] = args.max_flip_fraction
    gates = dataclasses.replace(GateConfig(), **overrides)
    try:
        report = freeze_structure(
            structure,
            dtypes=tuple(args.dtypes),
            active=args.active,
            gates=gates,
            strict=args.strict,
        )
    except FrozenVariantRejected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FreezeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = args.out or args.structure
    with open(out, "wb") as handle:
        pickle.dump(structure, handle, protocol=pickle.HIGHEST_PROTOCOL)
    for index, part in enumerate(report.parts):
        for name, entry in sorted(part["reports"].items()):
            if entry.get("accepted"):
                plan = part["plans"].variants[name]
                active_note = " [active]" if name == part["plans"].active else ""
                print(
                    f"part {index}: {name:8s} accepted "
                    f"({plan.size_bytes() / 1e3:.1f} KB){active_note}"
                )
            else:
                print(
                    f"part {index}: {name:8s} rejected -- {entry.get('reason')}"
                )
    size_kb = Path(out).stat().st_size / 1e3
    print(f"froze {report.kind} structure -> {out} ({size_kb:.1f} KB)")
    return 0


_COMMANDS = {
    "datasets": _cmd_datasets,
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "trace-dump": _cmd_trace_dump,
    "train": _cmd_train,
    "build": _cmd_build,
    "estimate": _cmd_estimate,
    "lookup": _cmd_lookup,
    "contains": _cmd_contains,
    "serve": _cmd_serve,
    "refresh-status": _cmd_refresh_status,
    "freeze": _cmd_freeze,
    "scenario": _cmd_scenario,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
