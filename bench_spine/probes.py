"""Per-layer micro-timings: each layer measured from outside, call by call.

Every number here comes from timing a public function of one module over a
fixed slice of seeded queries, or from reading a public counter before and
after.  Medians are per query; ``*_mean_us`` exist because the index lookup
distribution is skewed and only means add up to the mean call time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from repro.adapt import WorkloadLog
from repro.bench.workbench import model_config
from repro.core import LearnedCardinalityEstimator
from repro.infer import attached_plans
from repro.maintain import mutate_through
from repro.serve import (
    AsyncTcpFrontend,
    BatchPolicy,
    QueryCache,
    SetServer,
    TcpServeFrontend,
    canonical_query,
)
from repro.sets.subsets import cardinality_training_pairs

import streams as gen
import workloads
from fixtures import REFRESH_TRAIN

SLICE = 2000


def per_call_us(fn: Callable, args: Sequence, chunk: int = 1) -> tuple[float, float]:
    """``(median, mean)`` microseconds per call; cheap calls are timed in chunks."""
    clock = time.perf_counter
    samples = []
    for low in range(0, len(args), chunk):
        part = args[low:low + chunk]
        started = clock()
        for arg in part:
            fn(arg)
        samples.append((clock() - started) / len(part))
    samples = np.asarray(samples) * 1e6
    return float(np.median(samples)), float(samples.mean())


def interleaved_us(fns: Sequence[Callable], args: Sequence) -> list[tuple[float, float]]:
    """``(median, mean)`` microseconds per call of each of ``fns``, timed back
    to back on every argument, so a drift of the host during the probe falls
    on all of them alike and cancels in their differences."""
    clock = time.perf_counter
    samples = np.empty((len(args), len(fns)))
    for row, arg in enumerate(args):
        for column, fn in enumerate(fns):
            started = clock()
            fn(arg)
            samples[row, column] = clock() - started
    samples *= 1e6
    return list(zip(np.median(samples, axis=0).tolist(), samples.mean(axis=0).tolist()))


def per_query_us(fn: Callable, queries: Sequence, batch: int) -> float:
    """Median microseconds per query of ``fn(batch of queries)``."""
    batches = [queries[i:i + batch] for i in range(0, len(queries) - batch + 1, batch)]
    return per_call_us(fn, batches)[0] / batch


def _cycled(keys: Sequence, count: int) -> list:
    return [keys[i % len(keys)] for i in range(count)]


@dataclass
class Probe:
    """What every probe gets: the fixture, fixed slices of trained keys per
    structure, the seed (for the probes that replay a workload's stream) and
    ``pace``, which shortens the timed windows for the smoke run."""

    fx: Any
    trained: dict[str, list]
    seed: int
    pace: float


def run_probes(fixture, seed: int, pace: float = 1.0) -> tuple[dict, dict]:
    """Every per-layer metric, from a fixture that has every tier started, and
    the wall seconds each layer's probe took."""
    picks = gen.direct_serial(seed, fixture, distinct=SLICE, key_seed=97)
    probe = Probe(fixture, {name: list(s.keys[:SLICE]) for name, s in picks.items()},
                  seed, pace)
    out: dict[str, float] = {}
    seconds: dict[str, float] = {}
    for layer in (_sets, _infer, _cardinality, _index, _membership, _reliability,
                  _cache, _server, _frontends, _pool, _shard, _training, _refresh):
        started = time.perf_counter()
        out.update(layer(probe))
        seconds[layer.__name__.lstrip("_")] = round(time.perf_counter() - started, 2)
    return out, seconds


def _sets(p: Probe) -> dict:
    keys = p.trained["card"]
    return {
        "sets.canonical_us": per_call_us(canonical_query, keys, chunk=50)[0],
        "sets.exact_count_us": per_call_us(
            partial(p.fx.truth.count_predicate, "subset"), keys)[0],
    }


def _infer(p: Probe) -> dict:
    est, keys = p.fx.est, p.trained["card"]
    # Auxiliary hits never reach the plan; time the model path only.
    model_keys = [q for q in keys if q not in est.auxiliary]
    out = {
        f"infer.plan_b{b}_us": per_query_us(est.estimate_many, _cycled(model_keys, n), b)
        for b, n in ((1, 2000), (8, 4000), (64, 6400), (1024, 10240))
    }
    plan = est.infer_plan
    est.detach_plan()
    try:
        out["infer.autograd_b1_us"] = per_query_us(est.estimate_many, model_keys[:300], 1)
        out["infer.autograd_b64_us"] = per_query_us(
            est.estimate_many, _cycled(model_keys, 1280), 64)
    finally:
        est.attach_plan(plan)
    plans = [a for s in (p.fx.est, p.fx.idx, p.fx.bf) for a in attached_plans(s)]
    hits = sum(a.hits for a in plans)
    out["infer.plan_hit_ratio"] = hits / max(hits + sum(a.fallbacks for a in plans), 1)
    out["infer.freeze_s"] = p.fx.stages["freeze"]
    out["infer.plan_bytes"] = float(sum(a.size_bytes() for a in plans))
    return out


def _cardinality(p: Probe) -> dict:
    keys = p.trained["card"]
    return {
        "core.cardinality.aux_hit_ratio":
            sum(q in p.fx.est.auxiliary for q in keys) / len(keys),
        "core.cardinality.model_bytes": float(p.fx.est.model_bytes()),
        "core.cardinality.aux_bytes": float(p.fx.est.auxiliary_bytes()),
    }


def _index(p: Probe) -> dict:
    idx, keys = p.fx.idx, p.trained["index"][:500]
    estimates = dict(zip(keys, idx.predict_positions(keys).tolist()))
    idx.reset_stats()
    model, search, raw, guarded = interleaved_us((
        lambda q: idx.predict_positions([q]),
        lambda q: idx.lookup_with_estimate(q, estimates[q]),
        idx.lookup,
        p.fx.g_idx.lookup,
    ), keys)
    stats = idx.stats
    return {
        "core.index.model_us": model[0],
        "core.index.search_us": search[0],
        "core.index.model_mean_us": model[1],
        "core.index.search_mean_us": search[1],
        "core.index.call_mean_us": guarded[1],
        "core.index.scan_len": stats.sets_scanned / max(stats.lookups, 1),
        "core.index.aux_hit_ratio": stats.auxiliary_hits / max(stats.lookups, 1),
        "core.index.not_found_ratio": stats.not_found / max(stats.lookups, 1),
        "core.index.mean_bound": idx.bounds.mean_bound(),
        "core.index.model_bytes": float(idx.model_bytes()),
        "core.index.aux_bytes": float(idx.auxiliary_bytes()),
        "core.index.error_bytes": float(idx.error_bytes()),
        "reliability.guard_index_us": guarded[0] - raw[0],
        "reliability.guard_index_mean_us": guarded[1] - raw[1],
    }


def _membership(p: Probe) -> dict:
    bf, keys = p.fx.bf, p.trained["bloom"]
    scores = bf.score_many(keys)
    backup = bf.backup
    return {
        "core.membership.model_us": per_call_us(lambda q: bf.score_many([q]), keys)[0],
        "core.membership.backup_us": per_call_us(
            lambda q: backup.contains_set(set(q)), keys, chunk=20)[0] if backup else 0.0,
        "core.membership.backup_ratio": float((scores < bf.threshold).mean()),
        "core.membership.model_bytes": float(bf.model_bytes()),
        "core.membership.backup_bytes": float(bf.backup_bytes()),
    }


def _reliability(p: Probe) -> dict:
    guards = (p.fx.g_est, p.fx.g_idx, p.fx.g_bf)
    before = [(g.health.queries, g.health.total_fallbacks) for g in guards]
    card, bloom = p.trained["card"], p.trained["bloom"]
    b64 = _cycled(card, 6400)
    batches = [b64[i:i + 64] for i in range(0, len(b64), 64)]
    raw_card, guarded_card = interleaved_us((p.fx.est.estimate, p.fx.g_est.estimate), card)
    raw_bloom, guarded_bloom = interleaved_us((p.fx.bf.contains, p.fx.g_bf.contains), bloom)
    raw_b64, guarded_b64 = interleaved_us(
        (p.fx.est.estimate_many, p.fx.g_est.estimate_many), batches)
    out = {
        "reliability.guard_card_us": guarded_card[0] - raw_card[0],
        "reliability.guard_bloom_us": guarded_bloom[0] - raw_bloom[0],
        "reliability.guard_b64_us": (guarded_b64[0] - raw_b64[0]) / 64,
    }
    p.fx.g_idx.lookup_many(p.trained["index"][:200])
    queries = sum(g.health.queries - b[0] for g, b in zip(guards, before))
    fallbacks = sum(g.health.total_fallbacks - b[1] for g, b in zip(guards, before))
    out["reliability.fallback_ratio"] = fallbacks / max(queries, 1)
    return out


def _cache(p: Probe) -> dict:
    pool = [("subset", q) for q in p.fx.card_pairs[0]]
    capacity = min(4096, len(pool) // 2)  # 4096 unless the smoke run's pool is small
    cache = QueryCache(capacity)
    for key in pool[:capacity]:
        cache.put(key, 1.0)
    get_us = per_call_us(cache.get, pool[:capacity][:SLICE], chunk=50)[0]
    put_us = per_call_us(lambda key: cache.put(key, 1.0),
                         pool[capacity:capacity + SLICE], chunk=50)[0]
    return {
        "serve.cache.get_us": get_us,
        "serve.cache.put_us": put_us,
        "serve.cache.evictions": float(cache.evictions),
        "serve.cache.invalidate_us": per_call_us(
            cache.invalidate_related, p.trained["card"][:200])[0],
    }


def _server(p: Probe) -> dict:
    """One caller against an in-process ``SetServer``: batch wait, submit cost."""
    est = p.fx.est
    model_keys = [q for q in p.trained["card"] if q not in est.auxiliary]
    misses, hits, fresh = model_keys[:300], model_keys[:300], model_keys[300:1300]
    out = {}
    with SetServer(est, BatchPolicy(), cache_size=1024) as server:
        before = server.stats_dict()
        query_ms = per_call_us(server.query, misses)[0] / 1000.0
        direct_ms = per_call_us(lambda q: est.estimate_many([q]), misses)[0] / 1000.0
        out["serve.batcher.wait_ms"] = query_ms - direct_ms
        out["serve.server.submit_hit_us"] = per_call_us(server.submit, hits, chunk=20)[0]
        futures = []
        out["serve.server.submit_miss_us"] = per_call_us(
            lambda q: futures.append(server.submit(q)), fresh, chunk=20)[0]
        for future in futures:
            future.result(timeout=30.0)
        updates = [(q, 7) for q in p.trained["card"][-200:]]
        out["serve.server.update_us"] = per_call_us(
            lambda kv: mutate_through(server, lambda inner: inner.record_update(*kv)),
            updates)[0]
        out.update(workloads.server_observed(before, server.stats_dict()))
    # The updates above wrote overrides into the shared estimator; drop them
    # so every later probe sees the structure as trained.
    for query, _value in updates:
        est.auxiliary.pop(tuple(sorted(set(query))), None)
    return out


def _wire_p50_ms(address, lines: list[bytes]) -> tuple[float, int]:
    clock = time.perf_counter
    latencies, errors = [], 0
    with workloads.wire_connection(address) as ask:
        for line in lines:
            started = clock()
            reply = ask(line)
            latencies.append(clock() - started)
            errors += reply.startswith(b"error")
    return float(np.median(latencies) * 1000.0), errors


def _frontends(p: Probe) -> dict:
    """The same one-connection miss stream through each frontend and in process."""
    model_keys = [q for q in p.trained["card"] if q not in p.fx.est.auxiliary]
    groups = [model_keys[i * 150:(i + 1) * 150] for i in range(3)]
    lines = [[(" ".join(map(str, q)) + "\n").encode() for q in g] for g in groups]
    with SetServer(p.fx.est, BatchPolicy(), cache_size=1024) as server:
        inprocess = per_call_us(server.query, groups[0])[0] / 1000.0
        threaded = TcpServeFrontend(server).start_background()
        try:
            net_ms, net_errors = _wire_p50_ms(threaded.address, lines[1])
        finally:
            threaded.shutdown()
        asyncio_frontend = AsyncTcpFrontend(server).start_background()
        try:
            async_ms, async_errors = _wire_p50_ms(asyncio_frontend.address, lines[2])
        finally:
            asyncio_frontend.shutdown()
            asyncio_frontend.wait()
    return {
        "serve.net.overhead_ms": net_ms - inprocess,
        "serve.frontend.overhead_ms": async_ms - inprocess,
        "serve.net.errors": float(net_errors + async_errors),
    }


def _burst_qps(submit, threads, seconds: float) -> float:
    """Completions per second of the ``pool_burst`` load shape on ``submit``."""
    end = time.perf_counter() + seconds
    logs = workloads.burst(submit, threads, lambda: time.perf_counter() < end)
    return sum(int((workloads.rows(log)[:, 0] < end).sum()) for log in logs) / seconds


def _pool(p: Probe) -> dict:
    pool, est = p.fx.pool, p.fx.est
    threads = gen.pool_burst(p.seed, p.fx)
    window = max(p.pace, 0.1)
    # Every tier answers from full caches, as in the workload: the pool and the
    # threaded server are handed every key once before they are timed.
    for future in pool.submit_many(threads[0].keys):
        future.result(timeout=30.0)
    before = pool.stats_dict()
    pool_qps = _burst_qps(pool.submit, threads, window)
    with SetServer(est, cache_size=4096) as server:
        server.query_many(threads[0].keys)
        threaded_qps = _burst_qps(server.submit, threads, window)
    keys, order = threads[0].keys, threads[0].order.tolist()
    end = time.perf_counter() + window
    serial = 0
    while time.perf_counter() < end:
        est.estimate(keys[order[serial % len(order)]])
        serial += 1
    out = workloads.pool_observed(pool, before)
    hot = keys[0]
    pool.query(hot)
    futures = []
    out.update({
        "serve.pool.start_s": p.fx.stages["pool_start"],
        "serve.pool.rtt_ms": per_call_us(pool.query, [hot] * 300)[0] / 1000.0,
        "serve.pool.submit_us": per_call_us(
            lambda q: futures.append(pool.submit(q)), keys[:1000], chunk=10)[0],
        "serve.pool.threaded_ratio": pool_qps / threaded_qps,
        "serve.pool.serial_ratio": pool_qps / (serial / window),
    })
    for future in futures:
        future.result(timeout=30.0)
    return out


def _shard(p: Probe) -> dict:
    router = p.fx.router.estimator
    b64 = _cycled(p.trained["card"], 6400)
    before = router.fanout_stats()
    router_us = per_query_us(router.estimate_many, b64, 64)
    after = router.fanout_stats()
    return {
        "shard.build_s": p.fx.stages["shard_build"],
        "shard.fanout_mean": (after["shard_calls"] - before["shard_calls"])
        / max(after["queries"] - before["queries"], 1),
        "shard.router_b64_us": router_us,
        "shard.overhead_ratio": router_us / per_query_us(p.fx.est.estimate_many, b64, 64),
    }


def _training(p: Probe) -> dict:
    """One shard's slice, unloaded: pair enumeration, then a refresh-sized fit."""
    collection = p.fx.router.estimator.plan[0].collection
    started = time.perf_counter()
    pairs = cardinality_training_pairs(
        collection, max_subset_size=4, max_samples=p.fx.shard_samples,
        rng=np.random.default_rng(7))
    pairs_s = time.perf_counter() - started
    started = time.perf_counter()
    part = LearnedCardinalityEstimator.build(
        collection, model_config=model_config("clsm", "cardinality"),
        train_config=REFRESH_TRAIN, training_pairs=pairs,
        rng=np.random.default_rng(7))
    return {
        "core.training.pairs_s": pairs_s,
        "core.training.fit_s": time.perf_counter() - started,
        "core.training.epoch_s": float(part.report.seconds_per_epoch),
        "core.training.samples": float(part.report.num_training_subsets),
    }


def _refresh(p: Probe) -> dict:
    """A targeted refresh alone, then a targeted and a full one under reads."""
    refresher = p.fx.refresher
    started = time.perf_counter()
    refresher.refresh_now(["local_q_error:shard0"])
    unloaded = time.perf_counter() - started
    loaded = workloads.run_refresh_mixed(
        p.fx, p.seed, warmup=0.3 * p.pace, seconds=max(4.5 * p.pace, 1.0),
        plan=[(0.2 * p.pace, ("local_q_error:shard1",)), (1.7 * p.pace, ("manual",))],
    )
    targeted_s, full_s = (done - begun for _due, begun, done in loaded.refreshes)
    # A default-sized log at capacity, then keys it has not seen: every such
    # record evicts.  (refresh_mixed sizes its log to hold the read set for
    # this reason; see fixtures.WORKLOAD_LOG_CAPACITY.)
    pool = p.fx.card_pairs[0]
    log = WorkloadLog(min(4096, len(pool) // 2))
    for query in pool[:log.capacity]:
        log.record("subset", query)
    keys = pool[log.capacity:log.capacity + 500]
    out = dict(loaded.observed)
    out.update({
        "adapt.refresh_unloaded_s": unloaded,
        "adapt.refresh_loaded_s": targeted_s,
        "adapt.refresh_contention_ratio": targeted_s / unloaded,
        "maintain.refresh_full_s": full_s,
        "adapt.record_us": per_call_us(partial(log.record, "subset"), keys)[0],
    })
    return out
