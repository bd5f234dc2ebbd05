"""The benchmark's declared surface: workloads, metrics, bounds, interactions.

This table is the single source of the names.  ``BENCHMARK.json`` at the
repository root is rendered from it (``python3 bench_spine/spec.py --write``)
and ``selftest.py`` fails when the two disagree, so a metric cannot be added
to one and forgotten in the other.

Each per-layer metric records, besides unit and direction, the public call
the benchmark times (or the public counter it reads) and the
``end-to-end metric@workload`` pairs it is expected to move.  Those two
columns have no place in ``BENCHMARK.json`` (its per-layer entries carry
exactly name/unit/better), so they live here and in ``README.md``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Seconds one run measures; the driver passes it back as ``--seconds``.
RUN_SECONDS = 12

WORKLOADS = (
    ("direct_serial",
     "one caller, one guarded estimate/lookup/contains at a time (the paper's "
     "method): no serving code runs, so serve/pool/batcher changes predict no change"),
    ("wire_closed",
     "2 TCP clients, one request in flight each, 20000 keys over a 1024-entry cache: "
     "nearly all misses, so batch wait and the socket hop are the round trip"),
    ("pool_burst",
     "2 threads x 64 futures on WorkerPool.submit, Zipf(1.1) over 2000 keys that fit "
     "the worker caches: compute is free, pipe framing and wake-ups are the cost"),
    ("refresh_mixed",
     "64 in-flight reads on a guarded K=3 sharded server, every 50th op an update read "
     "back, a targeted shard retrain every 4 s: reads, writes and training contend"),
)

#: (name, unit, better, bound).  ``fail_ratio`` is the thirteenth end-to-end
#: number; the driver's contract carries it as ``failed``/``attempted`` in the
#: result line (a declared metric may never be 0, and this one must be).
END_TO_END = (
    ("qps", "1/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("card_ms", "ms", "lower", 0.25),
    ("index_ms", "ms", "lower", 0.25),
    ("bloom_ms", "ms", "lower", 0.25),
    ("card_qerror", "ratio", "lower", 0.05),
    ("bloom_fpr", "ratio", "lower", 0.10),
    ("structure_bytes", "bytes", "lower", 0.01),
    ("refresh_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
)

_ALL = ("direct_serial", "wire_closed", "pool_burst", "refresh_mixed")


def _on(metric: str, *workloads: str) -> tuple[str, ...]:
    return tuple(f"{metric}@{w}" for w in (workloads or _ALL))


#: (name, unit, better, public call timed / counter read, moves)
PER_LAYER = (
    # sets
    ("sets.canonical_us", "us", "lower", "canonical_query(q)",
     _on("qps", "refresh_mixed")),
    ("sets.exact_count_us", "us", "lower", "InvertedIndex.count_predicate(subset, q)",
     _on("card_ms") + _on("qps", "refresh_mixed")),
    # infer
    ("infer.plan_b1_us", "us", "lower", "estimate_many([q]) with the plan attached",
     _on("card_ms") + _on("bloom_ms")
     + _on("p50_ms", "wire_closed")),
    ("infer.plan_b8_us", "us", "lower", "estimate_many(8 queries) / 8",
     _on("qps", "refresh_mixed")),
    ("infer.plan_b64_us", "us", "lower", "estimate_many(64 queries) / 64",
     _on("qps", "refresh_mixed")),
    ("infer.plan_b1024_us", "us", "lower", "estimate_many(1024 queries) / 1024",
     _on("setup_s")),
    ("infer.autograd_b1_us", "us", "lower", "estimate_many([q]) after detach_plan()",
     _on("refresh_s")),
    ("infer.autograd_b64_us", "us", "lower", "estimate_many(64) / 64 after detach_plan()",
     _on("refresh_s")),
    ("infer.plan_hit_ratio", "ratio", "higher", "hits/(hits+fallbacks) over attached_plans()",
     _on("card_ms")),
    ("infer.freeze_s", "s", "lower", "freeze_structure() x3",
     _on("setup_s") + _on("refresh_s")),
    ("infer.plan_bytes", "bytes", "lower", "sum of attached plan size_bytes()",
     _on("structure_bytes")),
    # core.cardinality
    ("core.cardinality.aux_hit_ratio", "ratio", "higher", "share of queries in est.auxiliary",
     _on("card_ms") + _on("card_qerror")),
    ("core.cardinality.model_bytes", "bytes", "lower", "est.model_bytes()",
     _on("structure_bytes")),
    ("core.cardinality.aux_bytes", "bytes", "lower", "est.auxiliary_bytes()",
     _on("structure_bytes")),
    # core.index
    ("core.index.model_us", "us", "lower", "idx.predict_positions([q])",
     _on("index_ms")),
    ("core.index.search_us", "us", "lower", "idx.lookup_with_estimate(q, estimate)",
     _on("index_ms")),
    ("core.index.model_mean_us", "us", "lower", "mean of idx.predict_positions([q])",
     _on("index_ms")),
    ("core.index.search_mean_us", "us", "lower", "mean of idx.lookup_with_estimate",
     _on("index_ms")),
    ("core.index.call_mean_us", "us", "lower", "mean of guarded lookup(q), same queries",
     _on("index_ms")),
    ("core.index.scan_len", "count", "lower", "LookupStats.sets_scanned / lookups",
     _on("index_ms")),
    ("core.index.aux_hit_ratio", "ratio", "higher", "LookupStats.auxiliary_hits / lookups",
     _on("index_ms")),
    ("core.index.not_found_ratio", "ratio", "lower", "LookupStats.not_found / lookups",
     _on("index_ms")),
    ("core.index.mean_bound", "count", "lower", "idx.bounds.mean_bound()",
     _on("index_ms")),
    ("core.index.model_bytes", "bytes", "lower", "idx.model_bytes()",
     _on("structure_bytes")),
    ("core.index.aux_bytes", "bytes", "lower", "idx.auxiliary_bytes()",
     _on("structure_bytes")),
    ("core.index.error_bytes", "bytes", "lower", "idx.error_bytes()",
     _on("structure_bytes")),
    # core.membership
    ("core.membership.model_us", "us", "lower", "bf.score_many([q])",
     _on("bloom_ms")),
    ("core.membership.backup_us", "us", "lower", "bf.backup.contains_set(q)",
     _on("bloom_ms")),
    ("core.membership.backup_ratio", "ratio", "lower",
     "trained positives the model rejects and the backup answers",
     _on("bloom_ms") + _on("bloom_fpr")),
    ("core.membership.model_bytes", "bytes", "lower", "bf.model_bytes()",
     _on("structure_bytes")),
    ("core.membership.backup_bytes", "bytes", "lower", "bf.backup_bytes()",
     _on("structure_bytes")),
    # reliability
    ("reliability.guard_card_us", "us", "lower", "guarded estimate(q) - raw estimate(q)",
     _on("card_ms")),
    ("reliability.guard_index_us", "us", "lower", "guarded lookup(q) - raw lookup(q)",
     _on("index_ms")),
    ("reliability.guard_index_mean_us", "us", "lower", "the same difference of means",
     _on("index_ms")),
    ("reliability.guard_bloom_us", "us", "lower", "guarded contains(q) - raw contains(q)",
     _on("bloom_ms")),
    ("reliability.guard_b64_us", "us", "lower",
     "(guarded - raw) estimate_many(64) / 64",
     _on("qps", "refresh_mixed")),
    ("reliability.fallback_ratio", "ratio", "lower", "health.total_fallbacks / health.queries",
     _on("card_ms") + _on("index_ms")
     + _on("qps", "refresh_mixed")),
    # serve.cache
    ("serve.cache.hit_ratio", "ratio", "higher", "cache hits / (hits + misses), per workload",
     _on("qps", "pool_burst", "refresh_mixed")),
    ("serve.cache.get_us", "us", "lower", "QueryCache.get(present key) at fill 4096",
     _on("qps", "pool_burst")),
    ("serve.cache.put_us", "us", "lower", "QueryCache.put(new key) at fill 4096",
     _on("qps", "refresh_mixed")),
    ("serve.cache.evictions", "count", "lower", "QueryCache.evictions",
     _on("qps", "wire_closed")),
    ("serve.cache.invalidate_us", "us", "lower", "QueryCache.invalidate_related(q) at fill 4096",
     _on("qps", "refresh_mixed")),
    # serve.batcher
    ("serve.batcher.wait_ms", "ms", "lower",
     "one-caller SetServer.query(miss) - estimate_many([q])",
     _on("p50_ms", "wire_closed") + _on("qps", "wire_closed")),
    ("serve.batcher.mean_batch", "count", "higher", "stats_dict()['mean_batch_size']",
     _on("qps", "refresh_mixed")),
    ("serve.batcher.batches", "count", "lower", "stats_dict()['batches_dispatched']",
     _on("qps", "refresh_mixed")),
    # serve.server
    ("serve.server.submit_hit_us", "us", "lower", "SetServer.submit(cached key), caller side",
     _on("qps", "refresh_mixed")),
    ("serve.server.submit_miss_us", "us", "lower", "SetServer.submit(new key), caller side",
     _on("qps", "refresh_mixed")),
    ("serve.server.update_us", "us", "lower", "mutate_through(server, record_update)",
     _on("qps", "refresh_mixed")),
    ("serve.server.shed", "count", "lower", "stats_dict()['shed']",
     _on("qps", "refresh_mixed")),
    ("serve.server.rejected", "count", "lower", "stats_dict()['rejected']",
     _on("qps", "refresh_mixed")),
    ("serve.server.failed", "count", "lower", "stats_dict()['requests_failed']",
     _on("qps", "refresh_mixed")),
    ("serve.server.steady_qps", "1/s", "higher", "reads per second while no refresh runs",
     _on("qps", "refresh_mixed")),
    ("serve.server.refresh_qps", "1/s", "higher", "reads per second while a refresh runs",
     _on("qps", "refresh_mixed") + _on("p50_ms", "refresh_mixed")),
    ("serve.server.refresh_dip_ratio", "ratio", "higher", "refresh_qps / steady_qps",
     _on("qps", "refresh_mixed") + _on("p50_ms", "refresh_mixed")),
    # serve.net / serve.frontend
    ("serve.net.overhead_ms", "ms", "lower",
     "one-connection p50 through TcpServeFrontend - in-process query p50",
     _on("p50_ms", "wire_closed")),
    ("serve.frontend.overhead_ms", "ms", "lower",
     "one-connection p50 through AsyncTcpFrontend - in-process query p50",
     _on("p50_ms", "wire_closed")),
    ("serve.net.errors", "count", "lower", "'error ...' wire replies",
     _on("qps", "wire_closed")),
    # serve.pool
    ("serve.pool.start_s", "s", "lower", "WorkerPool(...).start()",
     _on("setup_s", "pool_burst")),
    ("serve.pool.submit_us", "us", "lower", "WorkerPool.submit(q), caller side",
     _on("qps", "pool_burst")),
    ("serve.pool.rtt_ms", "ms", "lower", "WorkerPool.query(cached key), one in flight",
     _on("p50_ms", "pool_burst") + _on("qps", "pool_burst")),
    ("serve.pool.mean_batch", "count", "higher", "per_worker mean_batch_size, mean over workers",
     _on("qps", "pool_burst")),
    ("serve.pool.worker_hit_ratio", "ratio", "higher", "per_worker cache hits / lookups",
     _on("qps", "pool_burst")),
    ("serve.pool.route_skew", "ratio", "lower", "max/min requests served per worker",
     _on("qps", "pool_burst") + _on("p50_ms", "pool_burst")),
    ("serve.pool.plan_bytes_shared", "bytes", "higher", "plan bytes published to shared memory",
     _on("peak_rss_mb", "pool_burst")),
    ("serve.pool.live_segments", "count", "lower", "plan_registry.status()['live_segments']",
     _on("peak_rss_mb", "pool_burst")),
    ("serve.pool.respawns", "count", "lower", "sum of workers_info() respawns",
     _on("qps", "pool_burst")),
    ("serve.pool.threaded_ratio", "ratio", "higher",
     "pool qps / threaded SetServer qps, same stream and window",
     _on("qps", "pool_burst")),
    ("serve.pool.serial_ratio", "ratio", "higher",
     "pool qps / serial estimate() loop qps, same stream and window",
     _on("qps", "pool_burst")),
    # shard
    ("shard.build_s", "s", "lower", "ShardedBuilder(K=3).build_cardinality() + freeze",
     _on("setup_s", "refresh_mixed")),
    ("shard.fanout_mean", "count", "lower", "fanout_stats(): shard_calls / queries",
     _on("qps", "refresh_mixed")),
    ("shard.router_b64_us", "us", "lower", "router.estimate_many(64) / 64",
     _on("qps", "refresh_mixed")),
    ("shard.overhead_ratio", "ratio", "lower", "router b64 / unsharded b64",
     _on("qps", "refresh_mixed")),
    # core.training
    ("core.training.pairs_s", "s", "lower", "cardinality_training_pairs(one shard's slice)",
     _on("refresh_s") + _on("setup_s")),
    ("core.training.fit_s", "s", "lower", "LearnedCardinalityEstimator.build(training_pairs=...)",
     _on("refresh_s") + _on("setup_s")),
    ("core.training.epoch_s", "s", "lower", "report.seconds_per_epoch of that build",
     _on("refresh_s") + _on("setup_s")),
    ("core.training.samples", "count", "lower", "report.num_training_subsets of that build",
     _on("refresh_s")),
    # maintain / adapt
    ("adapt.refresh_unloaded_s", "s", "lower", "targeted refresh_now() with no reads running",
     _on("refresh_s")),
    ("adapt.refresh_loaded_s", "s", "lower",
     "targeted refresh_now() under reads, from its due instant to the swap",
     _on("qps", "refresh_mixed") + _on("p50_ms", "refresh_mixed")),
    ("adapt.refresh_contention_ratio", "ratio", "lower", "refresh under reads / unloaded",
     _on("qps", "refresh_mixed") + _on("p50_ms", "refresh_mixed")),
    ("maintain.refresh_full_s", "s", "lower", "refresh_now(('manual',)) under reads",
     _on("refresh_s")),
    ("maintain.replayed", "count", "lower", "refresher.replayed",
     _on("refresh_s")),
    ("maintain.swap_stall_ms", "ms", "lower",
     "longest gap between read completions within 100 ms of a swap",
     _on("p50_ms", "refresh_mixed")),
    ("maintain.failures", "count", "lower", "refresher.failures",
     _on("refresh_s")),
    ("adapt.partial_refreshes", "count", "higher", "refresher.partial_refreshes",
     _on("refresh_s")),
    ("adapt.record_us", "us", "lower", "WorkloadLog.record(spec, q)",
     _on("qps", "refresh_mixed")),
    # bench
    ("bench.tail_p99_ms", "ms", "lower",
     "median over ten slices of the traced window of each slice's p99 latency",
     _on("p50_ms")),
    ("bench.trace_overhead_ratio", "ratio", "higher", "traced-window qps / untraced-window qps",
     _on("qps")),
    ("bench.refresh_late_s", "s", "lower", "how late the refresh schedule fired (max)",
     _on("refresh_s")),
)


def render() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench_spine/run.py"],
        "paths": ["bench_spine"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _call, _moves in PER_LAYER
        ],
    }


def workload_names() -> list[str]:
    return [name for name, _ in WORKLOADS]


def end_to_end_units() -> dict[str, str]:
    return {name: unit for name, unit, _b, _bound in END_TO_END}


def per_layer_units() -> dict[str, str]:
    return {name: unit for name, unit, _b, _c, _m in PER_LAYER}


def markdown() -> str:
    """The per-layer glossary of ``README.md`` (``spec.py --markdown``)."""
    lines = ["| metric | unit | better | public call timed / counter read | should move |",
             "|---|---|---|---|---|"]
    for name, unit, better, call, moves in PER_LAYER:
        targets: dict[str, list[str]] = {}
        for move in moves:
            metric, _, workload = move.partition("@")
            targets.setdefault(metric, []).append(workload)
        moved = "; ".join(
            f"`{metric}`@" + ("all" if len(w) == len(_ALL) else ",".join(w))
            for metric, w in targets.items())
        lines.append(f"| `{name}` | {unit} | {better} | {call} | {moved} |")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    if "--markdown" in sys.argv[1:]:
        sys.stdout.write(markdown())
    elif "--write" in sys.argv[1:]:
        BENCHMARK_JSON.write_text(json.dumps(render(), indent=2) + "\n", encoding="utf-8")
    else:
        sys.stdout.write(json.dumps(render(), indent=2) + "\n")
