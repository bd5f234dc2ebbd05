"""The four workloads: load generation, the exact oracle, window statistics.

Each runner drives one warm-up (discarded) and one measured window in a
single continuous run, logs every completion as four floats ``(done,
latency, key, answer)``, and checks every answer after the window closes, so
the oracle costs the measured loop one array extend.  The load generator is
this one process, never more than two busy threads.
"""

from __future__ import annotations

import socket
import threading
import time
from array import array
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from repro.maintain import mutate_through

import streams as gen
from spans import SpanRecorder

#: Served vs direct answers may differ by float32 GEMM rounding: the frozen
#: plans are float32 and BLAS picks kernels by batch shape (4e-7 observed).
REL_TOL = 1e-5
REFRESH_PERIOD_S = 4.0
DEPTH = 64
UPDATE_EVERY = 50
SLICES = 10


@dataclass
class Result:
    """One window's end-to-end numbers plus what it observed of the layers."""

    attempted: int
    failed: int
    qps: float
    p50_ms: float
    p99_ms: float
    observed: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    #: ``(due, started, done)`` per refresh fired during the run.
    refreshes: list[tuple[float, float, float]] = field(default_factory=list)


def new_log() -> array:
    """A completion log: ``done, latency, key, answer`` as consecutive doubles.

    One flat array keeps a quarter-million completions in a few megabytes, so
    the benchmark's own bookkeeping stays out of ``peak_rss_mb``, and one
    ``extend`` of a 4-tuple is atomic under the interpreter lock, so several
    resolver threads can share a log.  A failed request logs ``nan``.
    """
    return array("d")


def rows(log: array) -> np.ndarray:
    return np.frombuffer(log, dtype=np.float64).reshape(-1, 4)


def window_stats(done, latency, ok, begin: float, seconds: float,
                 calls_per_sample: int = 1, slice_s: float = 1.0) -> Result:
    """qps, p50 and sliced p99 over completions inside the window.

    The window is cut into slices of ``slice_s`` seconds.  ``qps`` is the
    upper quartile of the slices' rates and ``p50_ms`` the lower quartile of
    the slices' median latencies: the reference host slows for a few seconds
    at a time, which only ever lowers a slice's rate, so the better quartile
    reads the same whether or not a slow stretch fell inside the window.
    ``p99_ms`` is the median over ``SLICES`` equal slices of each slice's own
    p99, so one scheduler hiccup moves one slice, not the reported tail.
    """
    done = np.asarray(done, dtype=np.float64)
    latency = np.asarray(latency, dtype=np.float64)
    ok = np.asarray(ok, dtype=bool)
    inside = (done >= begin) & (done < begin + seconds)
    attempted = int(inside.sum()) * calls_per_sample
    good = inside & ok
    if not good.any():
        return Result(max(attempted, 1), max(attempted, 1), 0.0, 0.0, 0.0)
    lat_ms = latency[good] * 1000.0
    offset = (done[good] - begin) / seconds
    slice_of = (offset * SLICES).astype(int)
    tails = [
        np.percentile(lat_ms[slice_of == s], 99)
        for s in range(SLICES)
        if (slice_of == s).any()
    ]
    count = max(int(round(seconds / slice_s)), 1)
    part_of = (offset * count).astype(int)
    rates = np.bincount(part_of, minlength=count) * calls_per_sample * count / seconds
    medians = [np.median(lat_ms[part_of == s]) for s in range(count)
               if (part_of == s).any()]
    succeeded = int(good.sum()) * calls_per_sample
    return Result(
        attempted=attempted,
        failed=attempted - succeeded,
        qps=float(np.percentile(rates, 75)),
        p50_ms=float(np.percentile(medians, 25)),
        p99_ms=float(np.median(tails)),
    )


def _close(a, b, slack: float = 0.0) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a - b) <= slack + REL_TOL * np.maximum(1.0, np.abs(b))


# -- direct calls ---------------------------------------------------------------

STRUCTURES = ("card", "index", "bloom")


def serial_calls(fixture, streams, until: Callable[[int], bool],
                 rec: SpanRecorder | None = None) -> dict[str, array]:
    """Round-robin guarded ``estimate`` / ``lookup`` / ``contains``, one at a time.

    Returns one completion log per structure; ``until(rounds)`` is asked
    after every round of three calls.  Answers are logged as doubles: the
    estimate, the position (``-1`` for none), the membership bit.
    """
    plan = [
        ("card", fixture.g_est.estimate, float),
        ("index", fixture.g_idx.lookup, lambda a: -1.0 if a is None else float(a)),
        ("bloom", fixture.g_bf.contains, float),
    ]
    plan = [(name, fn, encode, streams[name].keys, streams[name].order.tolist())
            for name, fn, encode in plan]
    logs = {name: new_log() for name in STRUCTURES}
    clock = time.perf_counter
    rounds = 0
    while True:
        for name, fn, encode, keys, order in plan:
            key = order[rounds % len(order)]
            started = clock()
            answer = fn(keys[key])
            ended = clock()
            logs[name].extend((ended, ended - started, key, encode(answer)))
            if rec is not None:
                rec.add(f"request.{name}", started, ended, request=rounds)
        rounds += 1
        if until(rounds):
            return logs


def check_direct(fixture, streams, logs) -> dict[str, np.ndarray]:
    """Per structure, one bool per logged call: did it satisfy the oracle?

    An estimate equals the batched guarded estimate; a lookup equals
    ``InvertedIndex.first_position``; a stored subset is never reported
    absent (false positives are the filter's contract, not a failure).
    """
    truth = fixture.truth
    table = {name: rows(logs[name]) for name in STRUCTURES}
    picked = {name: table[name][:, 2].astype(np.int64) for name in STRUCTURES}
    expected = np.asarray(fixture.g_est.estimate_many(streams["card"].keys))
    positions = np.array([
        -1.0 if p is None else float(p)
        for p in map(truth.first_position, streams["index"].keys)
    ])
    stored = np.array([truth.contains(q) for q in streams["bloom"].keys])
    return {
        "card": _close(table["card"][:, 3], expected[picked["card"]]),
        "index": table["index"][:, 3] == positions[picked["index"]],
        "bloom": (table["bloom"][:, 3] > 0) | ~stored[picked["bloom"]],
    }


def run_direct_serial(fixture, seed: int, warmup: float, seconds: float,
                      rec: SpanRecorder | None = None) -> Result:
    streams = gen.direct_serial(seed, fixture)
    guards = (fixture.g_est, fixture.g_idx, fixture.g_bf)
    before = [(g.health.queries, g.health.total_fallbacks) for g in guards]
    fixture.idx.reset_stats()
    begin = time.perf_counter() + warmup
    logs = serial_calls(
        fixture, streams, lambda _r: time.perf_counter() >= begin + seconds, rec
    )
    lookups = fixture.idx.stats
    queries = sum(g.health.queries - b[0] for g, b in zip(guards, before))
    fallbacks = sum(g.health.total_fallbacks - b[1] for g, b in zip(guards, before))
    ok = check_direct(fixture, streams, logs)
    table = [rows(logs[name]) for name in STRUCTURES]
    # One latency sample per round: the mean of its three calls.  Pooling the
    # calls instead would put the median on the edge between two of three
    # well-separated populations, where a 2 % shift moves it by 20 %.
    result = window_stats(
        table[-1][:, 0], sum(t[:, 1] for t in table) / 3.0,
        ok["card"] & ok["index"] & ok["bloom"], begin, seconds, calls_per_sample=3,
    )
    result.observed = {
        "core.index.scan_len": lookups.sets_scanned / max(lookups.lookups, 1),
        "core.index.aux_hit_ratio": lookups.auxiliary_hits / max(lookups.lookups, 1),
        "core.index.not_found_ratio": lookups.not_found / max(lookups.lookups, 1),
        "reliability.fallback_ratio": fallbacks / max(queries, 1),
    }
    result.digests = {name: s.digest for name, s in streams.items()}
    return result


# -- futures-based closed loops -------------------------------------------------


def _done(log: array, rec, key: int, started: float, submitted: float, future) -> None:
    ended = time.perf_counter()
    answer = float("nan") if future.exception() is not None else float(future.result())
    log.extend((ended, ended - started, key, answer))
    if rec is not None:
        request = rec.add("request", started, ended)
        rec.add("submit", started, submitted, parent=request, request=request)
        rec.add("wait", submitted, ended, parent=request, request=request)


def drive(submit, stream, depth: int, keep_going: Callable[[], bool], log: array,
          rec: SpanRecorder | None = None,
          tick: Callable[[int], None] | None = None) -> None:
    """Closed loop keeping at most ``depth`` futures outstanding on ``submit``."""
    keys, order = stream.keys, stream.order.tolist()
    inflight: deque = deque()
    clock = time.perf_counter
    issued = 0
    try:
        while keep_going():
            if tick is not None:
                tick(issued)
            key = order[issued % len(order)]
            issued += 1
            started = clock()
            future = submit(keys[key])
            submitted = clock()
            future.add_done_callback(partial(_done, log, rec, key, started, submitted))
            inflight.append(future)
            if len(inflight) >= depth:
                _await(inflight.popleft())
    finally:
        while inflight:
            _await(inflight.popleft())


def _await(future) -> None:
    try:
        future.result(timeout=30.0)
    except Exception:
        # Already logged as nan by the done callback; a timeout leaves the
        # request out of the log, so it never counts as a success.
        pass


def _served_stats(logs, expected: np.ndarray, begin: float, seconds: float,
                  slack: float = 0.0) -> Result:
    """Window statistics for logs of float answers checked against direct ones."""
    table = np.concatenate([rows(log) for log in logs])
    ok = _close(table[:, 3], expected[table[:, 2].astype(np.int64)], slack)
    return window_stats(table[:, 0], table[:, 1], ok, begin, seconds)


@contextmanager
def wire_connection(address):
    """One line-protocol connection; yields ``ask(line) -> reply line``.

    Leaves with ``QUIT`` and waits for the server to hang up, so no handler
    is cut short by a frontend shutting down right after.
    """
    with socket.create_connection(address, timeout=30.0) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        reader = sock.makefile("rb")

        def ask(line: bytes) -> bytes:
            sock.sendall(line)
            return reader.readline()

        yield ask
        sock.sendall(b"QUIT\n")
        reader.read()


def run_wire_closed(fixture, seed: int, warmup: float, seconds: float,
                    rec: SpanRecorder | None = None) -> Result:
    conns = gen.wire_closed(seed, fixture)
    keys = conns[0].keys
    lines = [(" ".join(map(str, q)) + "\n").encode() for q in keys]
    expected = np.asarray(fixture.est.estimate_many(keys))
    address = fixture.wire_frontend.address
    before = fixture.wire_server.stats_dict()
    begin = time.perf_counter() + warmup
    end = begin + seconds
    logs = [new_log() for _ in conns]
    errors = [0] * len(conns)

    def client(number: int) -> None:
        order, log = conns[number].order.tolist(), logs[number]
        clock = time.perf_counter
        with wire_connection(address) as ask:
            sent = 0
            while clock() < end:
                key = order[sent % len(order)]
                sent += 1
                started = clock()
                reply = ask(lines[key])
                ended = clock()
                try:
                    answer = float(reply)
                except ValueError:  # an "error ..." reply, or a closed socket
                    answer = float("nan")
                    errors[number] += 1
                log.extend((ended, ended - started, key, answer))
                if rec is not None:
                    request = rec.add("request", started, ended)
                    rec.add("wire", started, ended, parent=request, request=request)

    run_threads([partial(client, n) for n in range(len(conns))])
    after = fixture.wire_server.stats_dict()
    # The wire prints two decimals, so half a cent of slack on top of REL_TOL.
    result = _served_stats(logs, expected, begin, seconds, slack=0.005)
    result.observed = server_observed(before, after)
    result.observed["serve.net.errors"] = float(sum(errors))
    result.digests = {f"conn{i}": s.digest for i, s in enumerate(conns)}
    return result


def server_observed(before: dict, after: dict) -> dict[str, float]:
    """Cache/batcher/server counters a ``SetServer`` moved between two reads."""
    def moved(*path):
        a, b = after, before
        for part in path:
            a, b = a[part], b[part]
        return a - b

    lookups = moved("cache", "hits") + moved("cache", "misses")
    batches = moved("batches_dispatched")
    return {
        "serve.cache.hit_ratio": moved("cache", "hits") / max(lookups, 1),
        "serve.cache.evictions": float(moved("cache", "evictions")),
        "serve.batcher.mean_batch": moved("batched_requests") / max(batches, 1),
        "serve.batcher.batches": float(batches),
        "serve.server.shed": float(moved("shed")),
        "serve.server.rejected": float(moved("rejected")),
        "serve.server.failed": float(moved("requests_failed")),
    }


def run_threads(targets) -> None:
    failures: list[BaseException] = []

    def guarded(target) -> None:
        try:
            target()
        except BaseException as exc:  # re-raised on the main thread below
            failures.append(exc)

    threads = [threading.Thread(target=guarded, args=(t,), name=f"loadgen-{i}")
               for i, t in enumerate(targets)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]


def pool_observed(pool, before: dict) -> dict[str, float]:
    """Per-worker batching, caching and routing since ``before``, an earlier
    ``pool.stats_dict()``, from the pool's public stats."""
    stats = pool.stats_dict()

    def moved(worker: str, *path: str) -> float:
        a, b = stats["per_worker"][worker], before["per_worker"][worker]
        for part in path:
            a, b = a[part], b[part]
        return a - b

    workers = list(stats["per_worker"])
    served = [moved(w, "requests_served") for w in workers]
    batched = sum(moved(w, "batched_requests") for w in workers)
    batches = sum(moved(w, "batches_dispatched") for w in workers)
    hits = sum(moved(w, "cache", "hits") for w in workers)
    lookups = hits + sum(moved(w, "cache", "misses") for w in workers)
    registry = stats["plan_registry"]
    return {
        # A cache hit never reaches a worker's batcher, so on a stream of hits
        # there may be no batch at all; 1.0 then says "nothing was coalesced".
        "serve.pool.mean_batch": batched / batches if batches else 1.0,
        "serve.pool.worker_hit_ratio": hits / max(lookups, 1),
        "serve.cache.hit_ratio": hits / max(lookups, 1),
        "serve.pool.route_skew": max(served) / max(min(served), 1),
        "serve.pool.plan_bytes_shared": float(sum(
            g["bytes"] for g in registry["generations"] if not g["unlinked"])),
        "serve.pool.live_segments": float(registry["live_segments"]),
        "serve.pool.respawns": float(sum(w["respawns"] for w in pool.workers_info())),
    }


def burst(submit, threads, until: Callable[[], bool],
          rec: SpanRecorder | None = None) -> list[array]:
    """The ``pool_burst`` load shape on any ``submit``: one log per thread."""
    logs = [new_log() for _ in threads]
    run_threads([partial(drive, submit, s, DEPTH, until, l, rec)
                  for s, l in zip(threads, logs)])
    return logs


def run_pool_burst(fixture, seed: int, warmup: float, seconds: float,
                   rec: SpanRecorder | None = None) -> Result:
    threads = gen.pool_burst(seed, fixture)
    expected = np.asarray(fixture.est.estimate_many(threads[0].keys))
    # Fill the worker caches first: the keys fit them, so the steady state is
    # all hits, and a cold start would spend the window ramping up to it.
    for future in fixture.pool.submit_many(threads[0].keys):
        future.result(timeout=30.0)
    before = fixture.pool.stats_dict()
    begin = time.perf_counter() + warmup
    end = begin + seconds
    logs = burst(fixture.pool.submit, threads, lambda: time.perf_counter() < end, rec)
    result = _served_stats(logs, expected, begin, seconds)
    result.observed = pool_observed(fixture.pool, before)
    result.digests = {f"thread{i}": s.digest for i, s in enumerate(threads)}
    return result


# -- reads beside writes beside retraining --------------------------------------


def run_refresh_mixed(fixture, seed: int, warmup: float, seconds: float,
                      rec: SpanRecorder | None = None,
                      plan: list[tuple[float, tuple[str, ...]]] | None = None) -> Result:
    """``plan`` overrides the schedule: ``(offset into the window, reasons)``."""
    mixed = gen.refresh_mixed(seed, fixture)
    server, refresher = fixture.refresh_server, fixture.refresher
    shards = len(server.structure.estimator.parts)
    if plan is None:
        first = min(1.0, seconds / 8.0)
        plan = [
            (first + n * REFRESH_PERIOD_S, (f"local_q_error:shard{n % shards}",))
            for n in range(int((seconds - first) / REFRESH_PERIOD_S) + 1)
        ]
    before = server.stats_dict()
    counts_before = (refresher.replayed, refresher.failures, refresher.partial_refreshes)
    rebuilds_before = len(fixture.rebuild_log)

    begin = time.perf_counter() + warmup
    end = begin + seconds
    generations = [server.structure]
    refreshes: list[tuple[float, float, float]] = []
    refreshing = threading.Event()
    refreshing.set()

    def refresh_loop() -> None:
        try:
            for offset, reasons in plan:
                due = begin + offset
                time.sleep(max(due - time.perf_counter(), 0.0))
                started = time.perf_counter()
                refresher.refresh_now(list(reasons))
                refreshes.append((due, started, time.perf_counter()))
                generations.append(server.structure)
        finally:
            refreshing.clear()

    log = new_log()
    readbacks = new_log()
    update_keys = mixed.update_keys
    update_values = mixed.update_values.tolist()

    def write_then_read(issued: int) -> None:
        if issued % UPDATE_EVERY or not issued:
            return
        number = issued // UPDATE_EVERY
        slot = number % len(update_keys)
        value = update_values[slot] + number // len(update_keys)
        key = update_keys[slot]
        started = time.perf_counter()
        mutate_through(server, lambda inner: inner.record_update(key, value))
        try:
            answer = float(server.query(key, timeout=30.0))
        except Exception:
            answer = float("nan")
        ended = time.perf_counter()
        readbacks.extend((ended, ended - started, value, answer))

    # Reads keep flowing until an in-flight refresh completes, so the last
    # refresh is timed under the same load as the others; completions past
    # the window's end are not counted.
    run_threads([
        partial(drive, server.submit, mixed.reads, DEPTH,
                lambda: time.perf_counter() < end or refreshing.is_set(),
                log, rec, write_then_read),
        refresh_loop,
    ])

    observed = server_observed(before, server.stats_dict())
    # Fan-out and health counters restart with each swapped-in generation;
    # read the live one.
    fanout = server.structure.estimator.fanout_stats()
    observed["shard.fanout_mean"] = fanout["shard_calls"] / max(fanout["queries"], 1)
    live = server.structure.health
    observed["reliability.fallback_ratio"] = live.total_fallbacks / max(live.queries, 1)
    observed["maintain.replayed"] = float(refresher.replayed - counts_before[0])
    observed["maintain.failures"] = float(refresher.failures - counts_before[1])
    observed["adapt.partial_refreshes"] = float(
        refresher.partial_refreshes - counts_before[2])

    # Oracle: a read matches the direct answer of some generation that served
    # during the run; a read-back returns exactly the value just written.
    reads, written = rows(log), rows(readbacks)
    picked = reads[:, 2].astype(np.int64)
    ok = np.zeros(len(reads), dtype=bool)
    for generation in generations:
        direct = np.asarray(generation.estimate_many(mixed.reads.keys))
        ok |= _close(reads[:, 3], direct[picked])
    result = window_stats(
        np.concatenate([reads[:, 0], written[:, 0]]),
        np.concatenate([reads[:, 1], written[:, 1]]),
        np.concatenate([ok, written[:, 2] == written[:, 3]]),
        begin, seconds, slice_s=REFRESH_PERIOD_S,
    )
    observed["adapt.refresh_loaded_s"] = float(
        np.median([finished - due for due, _s, finished in refreshes]))
    observed.update(_refresh_observed(np.sort(reads[:, 0]), refreshes, begin, end))
    if rec is not None:
        _refresh_spans(rec, refreshes, fixture.rebuild_log[rebuilds_before:],
                       refresher.status()["last_refreeze_s"])
    result.observed = observed
    result.refreshes = refreshes
    result.digests = {"reads": mixed.reads.digest, "updates": mixed.digest}
    return result


def _refresh_observed(done: np.ndarray, refreshes, begin: float, end: float) -> dict:
    """Read rate with and without a refresh running, swap stall, lateness."""
    inside = done[(done >= begin) & (done < end)]
    busy_reads, busy_time = 0, 0.0
    for _due, started, finished in refreshes:
        lo, hi = max(started, begin), min(finished, end)
        if hi > lo:
            busy_time += hi - lo
            busy_reads += int(((inside >= lo) & (inside < hi)).sum())
    idle_time = (end - begin) - busy_time
    steady = (len(inside) - busy_reads) / idle_time if idle_time > 0 else 0.0
    during = busy_reads / busy_time if busy_time > 0 else 0.0
    stall = 0.0
    for _due, _started, finished in refreshes:
        near = done[(done >= finished - 0.1) & (done <= finished + 0.1)]
        if len(near) > 1:
            stall = max(stall, float(np.diff(near).max()))
    return {
        "serve.server.steady_qps": steady,
        "serve.server.refresh_qps": during,
        "serve.server.refresh_dip_ratio": during / steady if steady else 0.0,
        "maintain.swap_stall_ms": stall * 1000.0,
        "bench.refresh_late_s": max((s - due for due, s, _f in refreshes), default=0.0),
    }


def _refresh_spans(rec: SpanRecorder, refreshes, rebuilds, refreeze_s: float) -> None:
    """``refresh`` ⊃ ``rebuild_shard`` ⊃ ``pairs``/``fit``, then ``refreeze``, ``swap``.

    All outside timers: the rebuild wrapper's clock, the new part's public
    build report (fit seconds), the refresher's public ``last_refreeze_s``.
    """
    for number, (_due, started, finished) in enumerate(refreshes):
        parent = rec.add("refresh", started, finished, request=number)
        inner = [r for r in rebuilds if started <= r[1] and r[2] <= finished]
        cursor = started
        for _shard, r_start, r_end, fit_s in inner:
            rebuild = rec.add("rebuild_shard", r_start, r_end, parent, number)
            rec.add("pairs", r_start, max(r_end - fit_s, r_start), rebuild, number)
            rec.add("fit", max(r_end - fit_s, r_start), r_end, rebuild, number)
            cursor = r_end
        if inner:
            frozen = min(cursor + refreeze_s, finished)
            rec.add("refreeze", cursor, frozen, parent, number)
            rec.add("swap", frozen, finished, parent, number)


RUNNERS: dict[str, Callable[..., Result]] = {
    "direct_serial": run_direct_serial,
    "wire_closed": run_wire_closed,
    "pool_burst": run_pool_burst,
    "refresh_mixed": run_refresh_mixed,
}
