"""`WorkerPool`: the multi-process serving tier.

N worker processes each hold a full replica of the served structure and
answer query batches through a per-worker :class:`SetServer` core — the
same admission control, micro-batching, caching, stats, and METRICS/TRACE
surfaces as the threaded tier, but with real process-level parallelism
behind them.  Frozen :class:`~repro.infer.plan.InferencePlan` weights are
never duplicated per worker: the pool publishes them once into named
shared-memory segments through a :class:`~repro.serve.registry.PlanRegistry`
and workers attach zero-copy views (:mod:`repro.infer.shm`).

Layout of responsibilities:

* the **front-end process** owns the master structure (the mutation source
  of truth), the plan registry, routing, health tracking, and the shed
  path; it never runs model forwards for routed queries;
* each **worker process** unpickles a plan-stripped replica, attaches the
  published plan segments, and serves through its own ``SetServer``;
* requests are routed by **consistent hashing** of the canonical query, so
  each worker's result cache sees a stable slice of the keyspace and a
  respawned worker inherits exactly its predecessor's slice;
* **snapshot swaps** (:meth:`WorkerPool.swap`) publish a new plan
  generation into the registry, then broadcast the new replica to workers;
  a worker finishes its in-flight batches on the old generation before
  detaching it (pipe messages are handled in arrival order, and the old
  segments are closed only after a barrier request drains the dispatcher),
  and the registry unlinks the old generation only after every worker has
  released it — the cross-process analogue of the single-process
  torn-snapshot-free guarantee;
* a **dead worker** (crash, SIGKILL) is detected by its broken pipe and a
  liveness monitor; its in-flight requests fail over to the exact shed
  path (or a defined :class:`PoolError`), its plan-generation refcount is
  released, and it is respawned from a fresh pickle of the master — so a
  respawn also replays every mutation the dead replica had absorbed.

The pool duck-types the surface :class:`~repro.maintain.BackgroundRefresher`
expects of a server (``structure`` / ``swap`` / ``kind`` / ``registry`` /
``tracer`` / ``snapshot`` / ``maintainer``), so background refresh drives
the whole pool exactly as it drives one threaded server.
"""

from __future__ import annotations

import builtins
import itertools
import multiprocessing
import pickle
import signal
import threading
import time
from bisect import bisect_right
from concurrent.futures import Future
from hashlib import blake2b
from typing import Any, Iterable, Sequence

from ..infer.freeze import _raw_parts
from ..infer.shm import attach_plan
from ..obs.metrics import MetricsRegistry, merge_expositions
from ..obs.trace import Tracer, get_tracer
from ..sets.inverted import InvertedIndex
from ..sets.predicates import as_predicate
from .batcher import BatchPolicy
from .registry import PlanRegistry
from .server import (
    SetServer,
    canonical_query,
    detect_kind,
    exact_answer,
    observe_answer,
    supports_predicates,
)
from .snapshot import Snapshot, SnapshotHolder

__all__ = ["PoolError", "WorkerPool"]

#: Structure-level mutation ops a pool accepts, per task kind.
_MUTATION_OPS = {
    "record_update": "cardinality",
    "insert_update": "index",
    "insert": "bloom",
}


class PoolError(RuntimeError):
    """A pool-level serving failure (defined error, never a silent drop)."""


# -- consistent-hash ring ------------------------------------------------------


def _hash64(data: bytes) -> int:
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "big")


class _HashRing:
    """Consistent-hash ring over worker indices (``vnodes`` points each).

    Routing is a pure function of the query key and the worker *count* —
    independent of which workers are currently alive — so a respawned
    worker resumes exactly the keyspace slice its predecessor served and
    every front-end thread routes identically without coordination.
    """

    def __init__(self, workers: int, vnodes: int = 32):
        points = sorted(
            (_hash64(f"{worker}:{vnode}".encode()), worker)
            for worker in range(workers)
            for vnode in range(vnodes)
        )
        self._hashes = [point[0] for point in points]
        self._workers = [point[1] for point in points]

    def route(self, key: bytes) -> int:
        slot = bisect_right(self._hashes, _hash64(key)) % len(self._workers)
        return self._workers[slot]


# -- replica serialization -----------------------------------------------------


def _pickle_replica(structure: Any, exact: InvertedIndex | None) -> bytes:
    """Pickle ``(structure, exact)`` with attached plans stripped.

    Plans travel through shared memory, not through the pickle — workers
    re-attach them from the published segment names, so the (potentially
    large) frozen tables cross the process boundary exactly once.
    """
    raws = _raw_parts(structure)
    plans = [getattr(raw, "infer_plan", None) for raw in raws]
    try:
        for raw in raws:
            raw.infer_plan = None
        return pickle.dumps((structure, exact), protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        for raw, plan in zip(raws, plans):
            raw.infer_plan = plan


def _plan_payload(structure: Any) -> tuple[list[dict | None], list[int | None]]:
    """Per-part plan arrays and weight versions for registry publication."""
    arrays: list[dict | None] = []
    versions: list[int | None] = []
    for raw in _raw_parts(structure):
        plan = getattr(raw, "infer_plan", None)
        if plan is None:
            arrays.append(None)
            versions.append(None)
        else:
            arrays.append(plan.to_arrays())
            versions.append(plan.weights_version)
    return arrays, versions


def _materialize_replica(
    blob: bytes, names: Sequence[str | None], untrack: bool
) -> tuple[Any, InvertedIndex | None, list]:
    """Worker side: unpickle the replica and attach published plans.

    ``untrack`` follows the start method: a *forked* worker shares the
    publisher's resource tracker and must leave its bookkeeping alone; a
    *spawned* worker has its own tracker, which must be told it does not
    own the attached segments (or its exit would unlink a live
    generation).
    """
    structure, exact = pickle.loads(blob)
    segments = []
    raws = _raw_parts(structure)
    for raw, name in zip(raws, names):
        if name is None:
            continue
        segment, plan = attach_plan(name, untrack=untrack)
        raw.attach_plan(plan)
        segments.append(segment)
    return structure, exact, segments


def _send_error(exc: Exception) -> tuple:
    """Wire form of an exception: pickled when possible, else name+text."""
    try:
        return ("err", pickle.dumps(exc), type(exc).__name__, str(exc))
    except Exception:
        return ("err", None, type(exc).__name__, str(exc))


def _revive_error(payload: tuple) -> Exception:
    _tag, blob, name, message = payload
    if blob is not None:
        try:
            exc = pickle.loads(blob)
            if isinstance(exc, Exception):
                return exc
        except Exception:
            pass
    exc_type = getattr(builtins, name, None)
    if isinstance(exc_type, type) and issubclass(exc_type, Exception):
        try:
            return exc_type(message)
        except Exception:
            pass
    return PoolError(f"{name}: {message}")


# -- worker process ------------------------------------------------------------


def _pool_worker_main(
    conn,
    blob: bytes,
    names: Sequence[str | None],
    generation: int,
    policy: BatchPolicy | None,
    cache_size: int,
    worker_index: int,
    untrack: bool,
) -> None:
    """One worker: a ``SetServer`` replica behind a duplex pipe.

    The loop is single-threaded on purpose: a ``publish`` (snapshot swap)
    is handled strictly after the batch messages that arrived before it,
    and the old generation's segments are closed only once a barrier
    request has drained every batch dispatched against them — a reader
    attached to the old generation always finishes its batch before the
    publisher's unlink can take effect.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    structure, exact, segments = _materialize_replica(blob, names, untrack)
    server = SetServer(
        structure, policy=policy, cache_size=cache_size, exact=exact
    ).start()
    del structure

    def _barrier() -> None:
        # An empty query has defined semantics for every kind; its only
        # job is to ride the dispatcher FIFO behind the in-flight batches.
        try:
            server.submit(()).result(timeout=30.0)
        except Exception:
            pass

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            verb = message[0]
            if verb == "batch":
                futures = []
                for rid, spec, query in message[1]:
                    try:
                        # submit can raise synchronously (e.g. a predicate
                        # the structure does not route); that is this
                        # request's defined error, not a replica death.
                        futures.append((rid, server.submit(query, predicate=spec)))
                    except Exception as exc:
                        failed: Future = Future()
                        failed.set_exception(exc)
                        futures.append((rid, failed))
                replies = []
                for rid, future in futures:
                    try:
                        replies.append((rid, ("ok", future.result(timeout=30.0))))
                    except Exception as exc:
                        replies.append((rid, _send_error(exc)))
                conn.send(("batch", replies))
            elif verb == "ctl":
                _rid, ctl, payload = message[1], message[2], message[3]
                try:
                    if ctl == "mutate":
                        op, args = payload
                        getattr(server.structure, op)(*args)
                        reply = ("ok", None)
                    elif ctl == "publish":
                        new_blob, new_names, new_generation = payload
                        new_structure, _exact, new_segments = (
                            _materialize_replica(new_blob, new_names, untrack)
                        )
                        server.swap(new_structure)
                        _barrier()
                        for segment in segments:
                            segment.close()
                        segments = new_segments
                        generation = new_generation
                        reply = ("ok", generation)
                    elif ctl == "stats":
                        reply = ("ok", server.stats_dict())
                    elif ctl == "metrics":
                        reply = ("ok", server.metrics_text())
                    elif ctl == "trace":
                        reply = ("ok", server.trace_spans(payload))
                    elif ctl == "ping":
                        reply = ("ok", {"worker": worker_index,
                                        "generation": generation})
                    elif ctl == "stop":
                        conn.send(("ctl", _rid, ("ok", None)))
                        break
                    else:
                        reply = _send_error(PoolError(f"unknown ctl {ctl!r}"))
                except Exception as exc:
                    reply = _send_error(exc)
                if ctl != "stop":
                    conn.send(("ctl", _rid, reply))
    finally:
        try:
            server.close(timeout=5.0)
        finally:
            # Drop every replica reference before closing the mappings, so
            # the plan views become collectible and the unmap is clean.
            server = None
            import gc

            gc.collect()
            for segment in segments:
                segment.close()
            try:
                conn.close()
            except OSError:
                pass


# -- front-end -----------------------------------------------------------------


class _WorkerSlot:
    """Front-end bookkeeping for one worker process."""

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.conn = None
        self.receiver = None
        self.alive = False
        self.stopping = False
        self.generation = 0
        self.respawns = 0
        self.lock = threading.Lock()
        self.send_lock = threading.Lock()
        #: rid -> (future, query) for batches; rid -> (future, None) for ctl.
        self.pending: dict[int, tuple[Future, Any]] = {}


class WorkerPool:
    """Multi-process serving tier over one learned structure.

    Parameters
    ----------
    structure:
        The structure to serve (learned, guarded, or sharded).  The
        front-end keeps it as the *master* replica: mutations apply here
        first, workers replay them, and respawns re-pickle it — so a
        crashed replica can never forget a mutation.
    workers:
        Worker process count (>= 1).
    policy / cache_size:
        Per-worker :class:`SetServer` knobs (admission control included).
    exact:
        Exact index for the shed path; derived like :class:`SetServer`
        derives it when omitted.
    start_method:
        ``multiprocessing`` start method (default: the platform default).
    health_interval_s:
        Liveness-monitor poll period.
    max_respawns:
        Per-worker respawn budget (``None``: unlimited).  An exhausted
        slot stays down and its keyspace slice is shed to exact.
    workload:
        Optional :class:`repro.adapt.WorkloadLog` recording the routed
        stream on the front-end (same contract as :class:`SetServer`'s
        ``workload``); sampled answers are scored against the master's
        exact structure.
    """

    def __init__(
        self,
        structure: Any,
        workers: int = 2,
        policy: BatchPolicy | None = None,
        cache_size: int = 1024,
        exact: InvertedIndex | None = None,
        tracer: Tracer | None = None,
        start_method: str | None = None,
        health_interval_s: float = 0.25,
        max_respawns: int | None = None,
        registry_prefix: str | None = None,
        spawn_timeout_s: float = 60.0,
        publish_timeout_s: float = 60.0,
        workload: Any = None,
    ):
        if workers < 1:
            raise ValueError("a worker pool needs at least one worker")
        self.kind = detect_kind(structure)
        self.policy = policy or BatchPolicy()
        self.cache_size = int(cache_size)
        self.tracer = tracer if tracer is not None else get_tracer()
        self.plan_registry = PlanRegistry(prefix=registry_prefix)
        self._snapshots = SnapshotHolder(structure)
        if exact is None:
            exact = getattr(structure, "exact", None)
        if exact is None:
            collection = getattr(structure, "collection", None)
            if collection is not None:
                exact = InvertedIndex(collection)
        self._exact = exact
        self.workload = workload
        self.maintainer = None
        self._ctx = (
            multiprocessing.get_context(start_method)
            if start_method
            else multiprocessing.get_context()
        )
        # Forked workers share the publisher's resource tracker; spawned
        # workers own one and must untrack attaches (see attach_segment).
        self._untrack = self._ctx.get_start_method() != "fork"
        self._ring = _HashRing(workers)
        self._slots = [_WorkerSlot(index) for index in range(workers)]
        self._rids = itertools.count(1)
        self._swap_lock = threading.RLock()
        self._closing = threading.Event()
        self._monitor = None
        self._health_interval_s = float(health_interval_s)
        self._max_respawns = max_respawns
        self._spawn_timeout_s = float(spawn_timeout_s)
        self._publish_timeout_s = float(publish_timeout_s)
        self.registry = MetricsRegistry()
        self._register_metrics()

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Publish the initial plan generation and spawn every worker."""
        with self._swap_lock:
            arrays, versions = _plan_payload(self.structure)
            record = self.plan_registry.publish(arrays, versions)
            blob = _pickle_replica(self.structure, self._exact)
            for slot in self._slots:
                self._spawn(slot, blob, record.names, record.generation)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="pool-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def close(self, timeout: float = 10.0) -> None:
        """Stop workers, join them, and unlink every plan segment."""
        if self._closing.is_set():
            return
        self._closing.set()
        if self._monitor is not None:
            self._monitor.join(timeout=timeout)
        for slot in self._slots:
            with slot.lock:
                slot.stopping = True
                alive = slot.alive
            if alive:
                try:
                    self._ctl(slot, "stop", None).result(timeout=timeout)
                except Exception:
                    pass
        for slot in self._slots:
            process = slot.process
            if process is None:
                continue
            process.join(timeout=timeout)
            if process.is_alive():
                process.kill()
                process.join(timeout=timeout)
            if slot.conn is not None:
                try:
                    slot.conn.close()
                except OSError:
                    pass
            with slot.lock:
                slot.alive = False
                self._fail_over_locked(slot)
        self.plan_registry.close()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def running(self) -> bool:
        return not self._closing.is_set() and any(
            slot.alive for slot in self._slots
        )

    @property
    def num_workers(self) -> int:
        return len(self._slots)

    @property
    def workers_alive(self) -> int:
        return sum(1 for slot in self._slots if slot.alive)

    # -- structure access ------------------------------------------------------

    @property
    def snapshot(self) -> Snapshot:
        return self._snapshots.current

    @property
    def structure(self) -> Any:
        return self._snapshots.current.structure

    def swap(self, structure: Any) -> Snapshot:
        """Publish a new generation and roll every worker onto it.

        The registry flip is atomic and the old generation is unlinked
        only once the last worker has acked the new one — a worker
        mid-batch keeps valid mappings throughout (and closes them only
        after its dispatcher drains; see :func:`_pool_worker_main`).
        """
        if detect_kind(structure) != self.kind:
            raise TypeError(
                f"cannot swap a {detect_kind(structure)} structure into a "
                f"{self.kind} pool"
            )
        with self._swap_lock:
            arrays, versions = _plan_payload(structure)
            record = self.plan_registry.publish(arrays, versions)
            blob = _pickle_replica(structure, self._exact)
            snapshot = self._snapshots.swap(structure)
            pending = []
            for slot in self._slots:
                with slot.lock:
                    if not slot.alive:
                        continue
                self.plan_registry.acquire(record.generation)
                payload = (blob, record.names, record.generation)
                pending.append((slot, self._ctl(slot, "publish", payload)))
            for slot, future in pending:
                try:
                    future.result(timeout=self._publish_timeout_s)
                except Exception:
                    # The worker never acked the new generation; drop our
                    # reservation for it and recycle the worker — the
                    # respawn attaches the current generation cleanly.
                    self.plan_registry.release(record.generation)
                    self._kill_worker(slot)
                    continue
                with slot.lock:
                    previous, slot.generation = (
                        slot.generation, record.generation
                    )
                if previous:
                    self.plan_registry.release(previous)
            self._metric_swaps.inc()
        return snapshot

    # -- querying --------------------------------------------------------------

    def supports_predicates(self) -> bool:
        """Whether the replicated structure routes the non-subset predicates."""
        return supports_predicates(self.kind, self.structure)

    def submit(self, query: Iterable[int], predicate=None) -> Future:
        """Admit one query; returns a future resolving to its answer."""
        return self.submit_many([query], predicate=predicate)[0]

    def submit_many(
        self, queries: Sequence[Iterable[int]], predicate=None
    ) -> list[Future]:
        """Admit a client batch: route, group per worker, send one message
        per worker.  Queries routed to a down worker shed to the exact
        path immediately (or resolve to a defined :class:`PoolError`).
        ``predicate`` rides the batch message, so every replica answers —
        and caches — under the same ``(predicate, canonical)`` key the
        threaded tier uses."""
        spec = as_predicate(predicate).spec
        if spec != "subset" and not self.supports_predicates():
            raise ValueError(
                f"this {self.kind} pool cannot answer predicate "
                f"{spec!r}; serve a PredicateCardinalitySuite"
            )
        futures: list[Future] = []
        grouped: dict[int, list[tuple[int, Any, Future]]] = {}
        for query in queries:
            future: Future = Future()
            futures.append(future)
            self._metric_requests.inc()
            canonical = canonical_query(query)
            if canonical is not None and self.workload is not None:
                # Front-end recording covers every routed query, including
                # ones a replica answers from its own cache.
                if self.workload.record(spec, canonical):
                    future.add_done_callback(
                        lambda f, s=spec, c=canonical: self._observe_answer(s, c, f)
                    )
            routed = canonical if canonical is not None else query
            # Subset keys keep their historical shape so the ring routes
            # existing traffic identically across upgrades.
            key = repr(routed if spec == "subset" else (spec, routed)).encode()
            slot = self._slots[self._ring.route(key)]
            if not slot.alive or self._closing.is_set():
                self._resolve_shed(future, (spec, query))
                continue
            grouped.setdefault(slot.index, []).append(
                (next(self._rids), query, future)
            )
        for index, entries in grouped.items():
            slot = self._slots[index]
            with slot.lock:
                if not slot.alive:
                    for _rid, query, future in entries:
                        self._resolve_shed(future, (spec, query))
                    continue
                for rid, query, future in entries:
                    slot.pending[rid] = (future, (spec, query))
            try:
                with slot.send_lock:
                    slot.conn.send(
                        ("batch", [(rid, spec, query) for rid, query, _f in entries])
                    )
            except (OSError, ValueError):
                self._on_worker_down(slot)
        return futures

    def query(
        self, query: Iterable[int], timeout: float | None = 30.0, predicate=None
    ) -> Any:
        return self.submit(query, predicate=predicate).result(timeout)

    def query_many(
        self,
        queries: Sequence[Iterable[int]],
        timeout: float | None = 30.0,
        predicate=None,
    ) -> list[Any]:
        return [
            future.result(timeout)
            for future in self.submit_many(queries, predicate=predicate)
        ]

    def _observe_answer(
        self, spec: str, canonical: tuple[int, ...], future: Future
    ) -> None:
        """Score one resolved answer against exact truth (sampled); runs on
        the receiver thread via a done callback."""
        if future.cancelled() or future.exception() is not None:
            return
        observe_answer(
            self.workload, self.kind, self._exact, self.structure,
            spec, canonical, future.result(),
        )

    def _resolve_shed(self, future: Future, item: tuple[str, Any]) -> None:
        """Answer on the exact path (replica down / pool draining)."""
        spec, query = item
        self._metric_sheds.inc()
        if self._exact is None:
            future.set_exception(
                PoolError(
                    "worker unavailable and no exact fallback is configured"
                )
            )
            return
        try:
            with self.tracer.span("pool_shed_exact", kind=self.kind):
                future.set_result(
                    exact_answer(
                        self.kind, self._exact, self.structure, query,
                        predicate=spec,
                    )
                )
        except Exception as exc:
            future.set_exception(exc)

    # -- mutations -------------------------------------------------------------

    def record_update(self, subset: Iterable[int], value: float) -> None:
        """Cardinality update (§6): master first, then every replica."""
        self._mutate("record_update", (tuple(subset), value))

    def insert_update(self, subset: Iterable[int], position: int) -> None:
        """Index update: master first, then every replica."""
        self._mutate("insert_update", (tuple(subset), position))

    def insert(self, subset: Iterable[int]) -> None:
        """Bloom insert: master first, then every replica."""
        self._mutate("insert", (tuple(subset),))

    def _mutate(self, op: str, args: tuple) -> None:
        if _MUTATION_OPS[op] != self.kind:
            raise TypeError(f"{op} is not a {self.kind} mutation")
        with self._swap_lock:
            # Master first: it is the respawn source of truth, and its
            # validation errors must surface before any replica diverges.
            getattr(self.structure, op)(*args)
            pending = []
            for slot in self._slots:
                with slot.lock:
                    if not slot.alive:
                        continue  # its respawn re-pickles the mutated master
                pending.append((slot, self._ctl(slot, "mutate", (op, args))))
            errors = []
            for slot, future in pending:
                try:
                    future.result(timeout=self._publish_timeout_s)
                except Exception as exc:
                    errors.append((slot.index, exc))
            self._metric_mutations.inc()
        if errors:
            raise PoolError(
                "replica mutation failed on worker(s) "
                + ", ".join(f"{index} ({exc})" for index, exc in errors)
            )

    # -- worker plumbing -------------------------------------------------------

    def _spawn(
        self,
        slot: _WorkerSlot,
        blob: bytes,
        names: Sequence[str | None],
        generation: int,
    ) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_pool_worker_main,
            args=(
                child_conn, blob, list(names), generation,
                self.policy, self.cache_size, slot.index, self._untrack,
            ),
            name=f"repro-pool-worker-{slot.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        if generation:
            self.plan_registry.acquire(generation)
        with slot.lock:
            slot.process = process
            slot.conn = parent_conn
            slot.generation = generation
            slot.alive = True
            slot.stopping = False
        receiver = threading.Thread(
            target=self._receive_loop,
            args=(slot, parent_conn),
            name=f"pool-recv-{slot.index}",
            daemon=True,
        )
        slot.receiver = receiver
        receiver.start()
        # The worker is counted alive only once it answers: a replica
        # that dies while unpickling or attaching plans fails here, not
        # at first query.
        self._ctl(slot, "ping", None).result(timeout=self._spawn_timeout_s)

    def _receive_loop(self, slot: _WorkerSlot, conn) -> None:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message[0] == "batch":
                for rid, reply in message[1]:
                    self._resolve(slot, rid, reply)
            else:
                _kind, rid, reply = message
                self._resolve(slot, rid, reply)
        with slot.lock:
            stopping = slot.stopping
        if not stopping and not self._closing.is_set():
            self._on_worker_down(slot)

    def _resolve(self, slot: _WorkerSlot, rid: int, reply: tuple) -> None:
        with slot.lock:
            entry = slot.pending.pop(rid, None)
        if entry is None:
            return
        future, _query = entry
        if reply[0] == "ok":
            self._metric_served.inc()
            future.set_result(reply[1])
        else:
            self._metric_failed.inc()
            future.set_exception(_revive_error(reply))

    def _ctl(self, slot: _WorkerSlot, verb: str, payload: Any) -> Future:
        rid = next(self._rids)
        future: Future = Future()
        with slot.lock:
            if not slot.alive and verb != "stop":
                future.set_exception(
                    PoolError(f"worker {slot.index} is not running")
                )
                return future
            slot.pending[rid] = (future, None)
        try:
            with slot.send_lock:
                slot.conn.send(("ctl", rid, verb, payload))
        except (OSError, ValueError) as exc:
            with slot.lock:
                slot.pending.pop(rid, None)
            if not future.done():
                future.set_exception(
                    PoolError(f"worker {slot.index} pipe closed ({exc})")
                )
        return future

    def _monitor_loop(self) -> None:
        while not self._closing.wait(self._health_interval_s):
            for slot in self._slots:
                process = slot.process
                if slot.alive and process is not None and not process.is_alive():
                    self._on_worker_down(slot)

    def _kill_worker(self, slot: _WorkerSlot) -> None:
        process = slot.process
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=5.0)
        self._on_worker_down(slot)

    def _on_worker_down(self, slot: _WorkerSlot) -> None:
        """Fail over a dead worker's requests and respawn it."""
        with slot.lock:
            if not slot.alive:
                return
            slot.alive = False
            generation = slot.generation
            slot.generation = 0
            self._fail_over_locked(slot)
        if generation:
            self.plan_registry.release(generation)
        self._metric_deaths.inc()
        if self._closing.is_set() or slot.stopping:
            return
        if (
            self._max_respawns is not None
            and slot.respawns >= self._max_respawns
        ):
            return
        slot.respawns += 1
        self._metric_respawns.inc()
        try:
            with self._swap_lock:
                # Re-pickle the *current* master: the fresh replica starts
                # with every mutation and the latest generation applied.
                record = self.plan_registry.current
                names = record.names if record is not None else []
                generation = record.generation if record is not None else 0
                blob = _pickle_replica(self.structure, self._exact)
                self._spawn(slot, blob, names, generation)
        except Exception:
            with slot.lock:
                slot.alive = False

    def _fail_over_locked(self, slot: _WorkerSlot) -> None:
        """Resolve every pending request of a dead worker (slot locked).

        Queries shed to the exact path; ctl waiters get a defined error.
        No request is ever silently dropped.
        """
        pending, slot.pending = slot.pending, {}
        for future, item in pending.values():
            if future.done():
                continue
            if item is None:
                future.set_exception(
                    PoolError(f"worker {slot.index} died before acking")
                )
            else:
                self._resolve_shed(future, item)

    # -- reporting -------------------------------------------------------------

    def _register_metrics(self) -> None:
        reg = self.registry
        self._metric_requests = reg.counter(
            "repro_pool_requests_total", "Queries admitted by the pool"
        )
        self._metric_served = reg.counter(
            "repro_pool_served_total", "Queries answered by worker replicas"
        )
        self._metric_failed = reg.counter(
            "repro_pool_failed_total",
            "Queries whose worker answer was an error",
        )
        self._metric_sheds = reg.counter(
            "repro_pool_shed_total",
            "Queries answered on the exact path because a replica was down",
        )
        self._metric_deaths = reg.counter(
            "repro_pool_worker_deaths_total", "Worker processes lost"
        )
        self._metric_respawns = reg.counter(
            "repro_pool_respawns_total", "Worker processes respawned"
        )
        self._metric_swaps = reg.counter(
            "repro_pool_swaps_total", "Snapshot generations rolled out"
        )
        self._metric_mutations = reg.counter(
            "repro_pool_mutations_total", "Mutations broadcast to replicas"
        )
        reg.gauge_function(
            "repro_pool_workers", "Configured worker count",
            lambda: float(len(self._slots)),
        )
        reg.gauge_function(
            "repro_pool_workers_alive", "Workers currently serving",
            lambda: float(self.workers_alive),
        )
        reg.gauge_function(
            "repro_pool_generation", "Current plan generation",
            lambda: float(self.plan_registry.generation),
        )
        reg.gauge_function(
            "repro_pool_live_segments",
            "Shared-memory segments currently linked",
            lambda: float(len(self.plan_registry.live_segment_names())),
        )
        reg.gauge_function(
            "repro_pool_snapshot_version",
            "Generation of the currently served snapshot",
            lambda: float(self.snapshot.version),
        )

    def _gather_ctl(self, verb: str, payload: Any, timeout: float = 10.0):
        """``(worker_index, reply)`` from every live worker (dead: skip)."""
        pending = []
        for slot in self._slots:
            if slot.alive:
                pending.append((slot.index, self._ctl(slot, verb, payload)))
        out = []
        for index, future in pending:
            try:
                out.append((index, future.result(timeout=timeout)))
            except Exception:
                continue
        return out

    def stats_dict(self) -> dict:
        """Pool telemetry plus each live worker's full stats dict."""
        own = {
            name: family.value
            for name, family in (
                (n, self.registry.get(n))
                for n in self.registry.names()
            )
            if family is not None and not family.labelnames
        }
        return {
            "kind": self.kind,
            "workers": len(self._slots),
            "workers_alive": self.workers_alive,
            "snapshot_version": self.snapshot.version,
            "plan_registry": self.plan_registry.status(),
            "pool": own,
            "per_worker": {
                str(index): stats
                for index, stats in self._gather_ctl("stats", None)
            },
        }

    def metrics_text(self) -> str:
        """One exposition: pool metrics + every worker's, worker-labeled."""
        sections = [({}, self.registry.render_text())]
        for index, text in self._gather_ctl("metrics", None):
            sections.append(({"worker": str(index)}, text))
        return merge_expositions(sections)

    def trace_spans(self, limit: int | None = None) -> list[dict]:
        """Front-end spans plus recent spans from every live worker."""
        spans = list(self.tracer.snapshot(limit))
        for index, worker_spans in self._gather_ctl("trace", limit):
            for span in worker_spans:
                span = dict(span)
                span["worker"] = index
                spans.append(span)
        return spans

    def workers_info(self) -> list[dict]:
        """Per-worker liveness/pid/generation table (``WORKERS`` verb)."""
        out = []
        for slot in self._slots:
            process = slot.process
            out.append(
                {
                    "worker": slot.index,
                    "alive": slot.alive,
                    "pid": process.pid if process is not None else None,
                    "generation": slot.generation,
                    "respawns": slot.respawns,
                    "pending": len(slot.pending),
                }
            )
        return out
