"""`SetServer`: concurrent query serving for the learned set structures.

Ties the serving pieces together around one structure (learned or guarded):

* requests from any number of client threads enter through
  :meth:`SetServer.submit` (future-based) or :meth:`SetServer.query`
  (blocking) and are coalesced by a :class:`MicroBatcher` into vectorized
  ``estimate_many`` / ``lookup_many`` / ``contains_many`` calls;
* a :class:`QueryCache` answers repeated queries without touching the
  model, and is invalidated per key on structure updates (via
  :class:`repro.core.UpdateNotifier`) and wholesale on snapshot swap;
* a :class:`SnapshotHolder` lets a retrained structure replace the serving
  structure atomically — in-flight batches finish on the generation they
  started with, so a swap mid-traffic loses no requests;
* a :class:`ServerStats` surface aggregates throughput, latency
  percentiles, overflow outcomes, cache counters, and (for guarded
  structures) the reliability health counters.

The server itself never inspects query contents beyond canonicalization —
validation semantics belong to the structure (use the guarded facades for
untrusted input; a malformed query against a raw structure fails only its
own future, never its batchmates).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Any, Iterable, Sequence

from ..core import task_of
from ..core.qerror import q_error
from ..infer.freeze import _raw_parts
from ..obs.trace import Tracer, get_tracer
from ..reliability import unwrap
from ..sets.inverted import InvertedIndex
from ..sets.predicates import SUBSET, Predicate, as_predicate
from .batcher import BatchPolicy, MicroBatcher
from .cache import QueryCache
from .snapshot import Snapshot, SnapshotHolder
from .stats import ServerStats

__all__ = [
    "SetServer",
    "canonical_query",
    "detect_kind",
    "exact_answer",
    "observe_answer",
    "supports_predicates",
]

def detect_kind(structure: Any) -> str:
    """Task kind (``cardinality`` / ``index`` / ``bloom``) of a structure
    (a guarded facade has the kind of the structure it wraps; the
    predicate suite answers on the cardinality surface)."""
    task = task_of(structure)
    return "cardinality" if task == "predicate" else task


def _backup_filter(structure: Any):
    """The Bloom backup filter of a (possibly guarded) membership structure."""
    return getattr(unwrap(structure), "backup", None)


def canonical_query(query: Any) -> tuple[int, ...] | None:
    """Sorted de-duplicated int tuple, or ``None`` for malformed input."""
    try:
        return tuple(sorted({int(element) for element in query}))
    except (TypeError, ValueError):
        return None


def _auxiliary_override_of(
    structure: Any, canonical: tuple[int, ...], predicate: Predicate = SUBSET
) -> Any:
    """Post-build mutation recorded for ``canonical``, if any.

    The exact :class:`InvertedIndex` is built from the collection and
    never absorbs §6's updates — those live in the served structure's
    auxiliary override layer.  An exact-path answer must consult that
    layer first, or an inserted override would silently revert to its
    pre-insert answer whenever the model path is bypassed.  A predicate
    suite keeps one auxiliary map per member estimator, so the probe
    routes through ``estimator_for`` when the structure has one.
    """
    inner = unwrap(structure)
    member_of = getattr(inner, "estimator_for", None)
    if callable(member_of):
        try:
            inner = member_of(predicate)
        except Exception:
            return None
    elif predicate.kind != "subset":
        # A subset-only structure holds no overrides for other predicates.
        return None
    auxiliary = getattr(inner, "auxiliary", None)
    if auxiliary is None:
        return None
    return auxiliary.get(canonical)


def exact_answer(
    kind: str,
    exact: InvertedIndex,
    structure: Any,
    query: Any,
    predicate: Predicate | str | None = None,
) -> Any:
    """Exact answer mirroring the guarded facades' defined semantics.

    Shared by the threaded server's shed/degraded paths and the worker
    pool's shed-while-replica-down path, so every exact-path deployment
    answers identically: auxiliary overrides first, then the exact index,
    with the facades' defined empty/malformed semantics.  ``predicate``
    only changes cardinality answers (index/bloom are subset tasks).
    """
    predicate = as_predicate(predicate)
    canonical = canonical_query(query)
    if kind == "cardinality":
        if canonical is None:
            return 0.0
        if not canonical:
            return float(predicate.empty_query_count(exact.num_sets))
        override = _auxiliary_override_of(structure, canonical, predicate)
        if override is not None:
            return float(override)
        return float(exact.count_predicate(predicate, canonical))
    if kind == "index":
        if canonical is None:
            return None
        if not canonical:
            return 0 if exact.num_sets else None
        override = _auxiliary_override_of(structure, canonical)
        if override is not None:
            return int(override)
        return exact.first_position(canonical)
    if canonical is None:
        return False
    if not canonical:
        return exact.num_sets > 0
    if exact.contains(canonical):
        return True
    backup = _backup_filter(structure)
    return backup.contains_set(set(canonical)) if backup is not None else False


def supports_predicates(kind: str, structure: Any) -> bool:
    """Whether a served ``structure`` routes the non-subset predicates."""
    if kind != "cardinality":
        return False
    flag = getattr(structure, "supports_predicates", None)
    if flag is not None:
        return bool(flag)
    return hasattr(structure, "estimate_many_keyed")


def observe_answer(
    workload: Any,
    kind: str,
    exact: InvertedIndex | None,
    structure: Any,
    spec: str,
    key: tuple[int, ...],
    answer: Any,
) -> None:
    """Score one served answer against exact truth into ``workload``.

    Shared by both serving tiers; runs only when the log's
    ``observe_every`` sampling fires, so the exact intersection it costs
    is amortized over the stream.  Bloom answers have no graded error to
    observe; truth failures are swallowed — observation is telemetry,
    never a request-path hazard.
    """
    if workload is None or exact is None or kind == "bloom":
        return
    try:
        truth = exact_answer(kind, exact, structure, key, predicate=spec)
        if kind == "cardinality":
            error = float(q_error([float(answer)], [float(truth)])[0])
        elif answer is None and truth is None:
            error = 1.0
        elif answer is None or truth is None:
            # Missed an existing position (or found a phantom one):
            # maximal disagreement on the position axis.
            error = float(exact.num_sets) + 1.0
        else:
            # +1-shifted so position 0 is not floored away.
            error = float(q_error([float(answer) + 1.0], [float(truth) + 1.0])[0])
        workload.observe(spec, key, error)
    except Exception:
        pass


class SetServer:
    """Concurrent, batching, caching server over one learned structure.

    Parameters
    ----------
    structure:
        A learned structure or guarded facade; the task kind is detected
        from its type.
    policy:
        Micro-batching and admission-control knobs (:class:`BatchPolicy`).
    cache_size:
        LRU result-cache capacity (0 disables caching).
    exact:
        Exact :class:`InvertedIndex` used by the ``shed-to-exact`` overflow
        policy.  Optional when the structure is guarded (its paired exact
        index is reused) or is a :class:`LearnedSetIndex` (one is built
        from its collection); required otherwise for that policy.
    workload:
        Optional :class:`repro.adapt.WorkloadLog`.  Every well-formed
        submitted query is recorded (cache hits included — frequency is a
        property of the stream, not of the answer path), and when the
        log's ``observe_every`` sampling fires, the answer is scored
        against the exact structure and the observed q-error reported
        back.  Feeds the adaptive-refresh loop; ``None`` (the default)
        records nothing.
    degrade_after / degrade_window / degrade_probe_every:
        Graceful degradation under sustained model failure.  When the
        served structure is guarded and its exact fallback is available,
        the server watches the fallback fraction over sliding windows of
        ``degrade_window`` health-counted queries; once it reaches
        ``degrade_after`` the server *degrades*: new requests are answered
        on the caller's thread by the exact fallback path instead of
        queueing for a model that is failing every call.  While degraded,
        every ``degrade_probe_every``-th request still flows through the
        model path as a recovery probe; when the probed fallback fraction
        drops below ``degrade_after / 2`` the server un-degrades.
        ``degrade_after=None`` disables the mechanism.
    """

    def __init__(
        self,
        structure: Any,
        policy: BatchPolicy | None = None,
        cache_size: int = 1024,
        exact: InvertedIndex | None = None,
        tracer: Tracer | None = None,
        degrade_after: float | None = 0.95,
        degrade_window: int = 64,
        degrade_probe_every: int = 16,
        workload: Any = None,
    ):
        if degrade_after is not None and not 0.0 < degrade_after <= 1.0:
            raise ValueError("degrade_after must be in (0, 1] or None")
        if degrade_window < 1:
            raise ValueError("degrade_window must be >= 1")
        if degrade_probe_every < 2:
            raise ValueError("degrade_probe_every must be >= 2")
        self.kind = detect_kind(structure)
        self.policy = policy or BatchPolicy()
        self.stats = ServerStats()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.cache = QueryCache(cache_size)
        self._snapshots = SnapshotHolder(structure)
        if exact is None:
            exact = getattr(structure, "exact", None)
        if exact is None:
            # Index structures (unsharded or sharded) carry their
            # collection; an exact inverted index derives from it.
            collection = getattr(structure, "collection", None)
            if collection is not None:
                exact = InvertedIndex(collection)
        if exact is None and self.policy.overflow == "shed-to-exact":
            raise ValueError(
                "overflow='shed-to-exact' needs an exact InvertedIndex: pass "
                "exact=... or serve a guarded structure"
            )
        self._exact = exact
        # Optional served-stream recorder (repro.adapt.WorkloadLog); an
        # AdaptiveRefresher attaching later may install one here too.
        self.workload = workload
        # A mutation can change the answers of subset/superset queries too,
        # not just the exact key — the listener sweeps all related entries.
        self._listener = self.cache.invalidate_related
        # Set by a repro.maintain.BackgroundRefresher when auto-refresh is
        # enabled; the REFRESH protocol verb reports through it.
        self.maintainer = None
        self._degrade_after = degrade_after
        self._degrade_window = int(degrade_window)
        self._degrade_probe_every = int(degrade_probe_every)
        self._degrade_lock = threading.Lock()
        self._degraded = False
        self._degraded_count = 0
        self._degrade_activations = 0
        self._degraded_served = 0
        self._reset_degrade_marks(structure)
        self._attach_listener(structure)
        self._batcher = MicroBatcher(
            self._serve_batch,
            policy=self.policy,
            shed_fn=self._shed_answer if exact is not None else None,
            on_batch=self.stats.record_batch,
            on_shed=self.stats.record_shed,
            on_reject=self.stats.record_reject,
            tracer=self.tracer,
        )
        self._register_gauges()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "SetServer":
        self._batcher.start()
        return self

    def close(self, timeout: float | None = 10.0) -> None:
        self._batcher.close(timeout)

    def __enter__(self) -> "SetServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def running(self) -> bool:
        return self._batcher.running

    # -- structure access ------------------------------------------------------

    @property
    def snapshot(self) -> Snapshot:
        return self._snapshots.current

    @property
    def structure(self) -> Any:
        return self._snapshots.current.structure

    def swap(self, structure: Any) -> Snapshot:
        """Atomically replace the serving structure (hot snapshot swap).

        The new structure must serve the same task kind.  Batches already
        dispatched finish on the old generation; the result cache is
        cleared because a retrained model answers every query differently.
        """
        if detect_kind(structure) != self.kind:
            raise TypeError(
                f"cannot swap a {detect_kind(structure)} structure into a "
                f"{self.kind} server"
            )
        self._detach_listener(self.structure)
        snapshot = self._snapshots.swap(structure)
        self._attach_listener(structure)
        self.cache.clear()
        # A swap installs a freshly trained generation with fresh health
        # counters; degradation state restarts from a clean slate.
        with self._degrade_lock:
            self._degraded = False
            self._degraded_count = 0
            self._reset_degrade_marks(structure)
        self.stats.record_swap()
        return snapshot

    def _attach_listener(self, structure: Any) -> None:
        inner = unwrap(structure)
        if hasattr(inner, "add_update_listener"):
            inner.add_update_listener(self._listener)

    def _detach_listener(self, structure: Any) -> None:
        inner = unwrap(structure)
        try:
            inner.remove_update_listener(self._listener)
        except (AttributeError, ValueError):
            pass

    # -- graceful degradation (sustained model failure) ------------------------

    def _reset_degrade_marks(self, structure: Any) -> None:
        health = getattr(structure, "health", None)
        if health is None:
            self._degrade_mark = (0, 0)
        else:
            self._degrade_mark = (health.queries, health.total_fallbacks)

    @property
    def degraded(self) -> bool:
        """True while the server answers through the exact fallback path."""
        return self._degraded

    @property
    def degrade_activations(self) -> int:
        return self._degrade_activations

    def _maybe_degrade(self) -> bool:
        """Advance the degradation state machine for one request.

        Returns ``True`` when this request must be served on the caller's
        thread by the exact fallback.  The decision reads the guarded
        structure's health counters, which are advanced by the dispatcher
        thread — evaluation therefore lags submission by roughly one
        batch, which is fine: degradation is a sustained-failure response,
        not a per-request routing decision.
        """
        if self._degrade_after is None or self._exact is None:
            return False
        health = getattr(self.structure, "health", None)
        if health is None:
            return False
        with self._degrade_lock:
            queries = health.queries
            fallbacks = health.total_fallbacks
            window = queries - self._degrade_mark[0]
            if self._degraded:
                # Probes keep flowing through the model path; once enough
                # of them have been health-counted, re-evaluate recovery.
                if window >= max(self._degrade_window // 4, 4):
                    fraction = (fallbacks - self._degrade_mark[1]) / window
                    self._degrade_mark = (queries, fallbacks)
                    if fraction < self._degrade_after / 2.0:
                        self._degraded = False
                        return False
                self._degraded_count += 1
                if self._degraded_count % self._degrade_probe_every == 0:
                    return False
                return True
            if window >= self._degrade_window:
                fraction = (fallbacks - self._degrade_mark[1]) / window
                self._degrade_mark = (queries, fallbacks)
                if fraction >= self._degrade_after:
                    self._degraded = True
                    self._degraded_count = 0
                    self._degrade_activations += 1
                    self._metric_degrade_activations.inc()
                    return True
            return False

    def _serve_degraded(self, item: tuple[str, Any], started: float) -> Future:
        """Answer on the caller's thread via the exact fallback path."""
        future: Future = Future()
        self._degraded_served += 1
        self._metric_degraded_served.inc()
        try:
            with self.tracer.span("degraded_exact", kind=self.kind):
                future.set_result(self._shed_answer_inner(item))
        except Exception as exc:
            future.set_exception(exc)
            self.stats.record_failed()
        else:
            self.stats.record_served(time.monotonic() - started)
        return future

    # -- querying --------------------------------------------------------------

    def supports_predicates(self) -> bool:
        """Whether the served structure routes the non-subset predicates."""
        return supports_predicates(self.kind, self.structure)

    def submit(self, query: Iterable[int], predicate=None) -> Future:
        """Admit one query; returns a future resolving to its answer.

        Cache hits resolve immediately on the calling thread; misses are
        coalesced by the micro-batcher.  Overload outcomes (reject / shed)
        arrive through the future per the configured overflow policy.
        ``predicate`` selects the query semantics (cardinality servers
        whose structure routes the family); cache keys carry it, so the
        same canonical query under two predicates occupies two entries.
        """
        started = time.monotonic()
        predicate = as_predicate(predicate)
        if predicate.kind != "subset" and not self.supports_predicates():
            raise ValueError(
                f"this {self.kind} server cannot answer predicate "
                f"{predicate.spec!r}; serve a PredicateCardinalitySuite"
            )
        spec = predicate.spec
        self.stats.record_submitted()
        with self.tracer.span("encode", kind=self.kind):
            key = self._canonical(query)
        cache_key = (spec, key) if key is not None else None
        # Record before the cache check: frequency is a property of the
        # stream, and a hot cached key still deserves training weight.
        observe_due = (
            key is not None
            and self.workload is not None
            and self.workload.record(spec, key)
        )
        if key is not None:
            with self.tracer.span("cache_lookup") as span:
                found, value = self.cache.get(cache_key)
                span["attrs"]["hit"] = found
            if found:
                future: Future = Future()
                future.set_result(value)
                self.stats.record_served(time.monotonic() - started, from_cache=True)
                if observe_due:
                    self._observe_answer(spec, key, value)
                return future
            if self._maybe_degrade():
                # Degraded answers come from the exact path already; there
                # is no model error to observe, only frequency (recorded).
                return self._serve_degraded((spec, key), started)
        future = self._batcher.submit((spec, key if key is not None else query))

        def _resolved(f: Future) -> None:
            if f.cancelled() or f.exception() is not None:
                self.stats.record_failed()
                return
            if cache_key is not None:
                self.cache.put(cache_key, f.result())
            self.stats.record_served(time.monotonic() - started)
            if observe_due:
                self._observe_answer(spec, key, f.result())

        future.add_done_callback(_resolved)
        return future

    def query(
        self, query: Iterable[int], timeout: float | None = 30.0, predicate=None
    ) -> Any:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(query, predicate=predicate).result(timeout)

    def query_many(
        self,
        queries: Sequence[Iterable[int]],
        timeout: float | None = 30.0,
        predicate=None,
    ) -> list[Any]:
        """Submit a client-side batch and gather the answers in order."""
        futures = [self.submit(q, predicate=predicate) for q in queries]
        return [future.result(timeout) for future in futures]

    # -- workload observation (sampled truth) -----------------------------------

    def _observe_answer(
        self, spec: str, key: tuple[int, ...], answer: Any
    ) -> None:
        observe_answer(
            self.workload, self.kind, self._exact, self.structure, spec, key, answer
        )

    # -- batched execution (dispatcher thread) ---------------------------------

    def _serve_batch(self, items: Sequence[tuple[str, Any]]) -> Sequence[Any]:
        # One snapshot read per batch: a concurrent swap never tears a
        # batch across generations.  Items are (predicate_spec, query)
        # pairs; one flush may interleave predicates, so keyed structures
        # get the pairs and plain ones (submit admits only subset for
        # them) get the bare queries.
        snapshot = self._snapshots.current
        structure = snapshot.structure
        with self.tracer.span(
            "model_forward",
            kind=self.kind,
            batch_size=len(items),
            snapshot_version=snapshot.version,
        ):
            queries = [query for _, query in items]
            if self.kind == "cardinality":
                if hasattr(structure, "estimate_many_keyed"):
                    return [
                        float(v) for v in structure.estimate_many_keyed(list(items))
                    ]
                return [float(v) for v in structure.estimate_many(queries)]
            if self.kind == "index":
                return list(structure.lookup_many(queries))
            return [bool(v) for v in structure.contains_many(queries)]

    # -- degraded serving (caller thread, shed-to-exact) -----------------------

    def _shed_answer(self, item: tuple[str, Any]) -> Any:
        """Exact answer mirroring the guarded facades' defined semantics."""
        with self.tracer.span("guard_fallback", kind=self.kind, shed=True):
            return self._shed_answer_inner(item)

    def _shed_answer_inner(self, item: tuple[str, Any]) -> Any:
        spec, query = item
        return exact_answer(
            self.kind, self._exact, self.structure, query, predicate=spec
        )

    # -- reporting --------------------------------------------------------------

    @property
    def registry(self):
        """The server's :class:`MetricsRegistry` (owned by its stats)."""
        return self.stats.registry

    def _register_gauges(self) -> None:
        """Expose cache / health / fan-out / training state on the registry.

        Everything is callback-backed and reads through ``self.structure``,
        so a hot snapshot swap automatically redirects the exposition to
        the new generation — no re-registration on swap.
        """
        reg = self.stats.registry
        reg.gauge_function(
            "repro_serve_snapshot_version",
            "Generation of the currently served snapshot",
            lambda: self.snapshot.version,
        )
        reg.gauge_function(
            "repro_serve_degraded",
            "1 while the server answers through the exact fallback path "
            "(sustained model failure)",
            lambda: 1.0 if self._degraded else 0.0,
        )
        self._metric_degrade_activations = reg.counter(
            "repro_serve_degrade_activations_total",
            "Times the server entered degraded (exact-fallback) serving",
        )
        self._metric_degraded_served = reg.counter(
            "repro_serve_degraded_served_total",
            "Requests answered by the exact fallback while degraded",
        )
        for field in ("capacity", "entries", "hits", "misses", "hit_rate",
                      "evictions", "invalidations", "invalidation_misses"):
            reg.gauge_function(
                f"repro_cache_{field}",
                f"Result cache {field.replace('_', ' ')}",
                lambda f=field: self.cache.as_dict()[f],
            )
        for field in ("queries", "model_answers", "fallbacks",
                      "short_circuits", "fallback_fraction"):
            reg.gauge_function(
                f"repro_health_{field}",
                f"Guarded-structure {field.replace('_', ' ')} "
                "(0 when the served structure is unguarded)",
                lambda f=field: self._health_stat(f),
            )
        for field in ("num_shards", "queries", "shard_calls"):
            reg.gauge_function(
                f"repro_shard_fanout_{field}",
                f"Sharded router fan-out {field.replace('_', ' ')} "
                "(0 when the served structure is unsharded)",
                lambda f=field: self._fanout_stat(f),
            )
        for field in ("final_loss", "total_seconds", "seconds_per_epoch",
                      "num_outliers", "num_training_subsets"):
            reg.gauge_function(
                f"repro_training_{field}",
                f"Last build's training {field.replace('_', ' ')} "
                "(from the served structure's build report)",
                lambda f=field: self._training_stat(f),
            )
        for field, help_text in (
            ("attached", "Structure parts serving through a frozen plan"),
            ("parts", "Structure parts in total (shards, or 1)"),
            ("hits", "Batches answered by attached frozen plans"),
            ("fallbacks", "Plan-routed calls that fell back to autograd"),
            ("bits", "Weight bits of the attached plans (mean across parts; "
                     "0 when no plan is attached)"),
            ("quant_delta", "Worst gated accuracy delta of the attached "
                            "plans (mean q-error minus 1, or flip fraction)"),
        ):
            reg.gauge_function(
                f"repro_infer_plan_{field}",
                f"{help_text} (reads through the served snapshot)",
                lambda f=field: self._infer_stat(f),
            )

    def _health_stat(self, field: str) -> float:
        health = getattr(self.structure, "health", None)
        if health is None:
            return 0.0
        if field == "fallbacks":
            return float(health.total_fallbacks)
        if field == "short_circuits":
            return float(health.total_short_circuits)
        return float(getattr(health, field))

    def _fanout_stat(self, field: str) -> float:
        inner = unwrap(self.structure)
        probe = getattr(inner, "fanout_stats", None)
        if probe is None:
            return 0.0
        return float(probe()[field])

    def _training_stat(self, field: str) -> float:
        """Aggregate build-report telemetry across shards (sum; loss: mean)."""
        reports = [
            part.report
            for part in _raw_parts(self.structure)
            if getattr(part, "report", None) is not None
        ]
        if not reports:
            return 0.0
        values = [float(getattr(report, field, 0.0)) for report in reports]
        if field in ("final_loss", "seconds_per_epoch"):
            return sum(values) / len(values)
        return sum(values)

    def _infer_stat(self, field: str) -> float:
        """Frozen-plan telemetry aggregated across the served parts."""
        raw_parts = _raw_parts(self.structure)
        plans = [
            plan
            for plan in (getattr(part, "infer_plan", None) for part in raw_parts)
            if plan is not None
        ]
        if field == "parts":
            return float(len(raw_parts))
        if field == "attached":
            return float(len(plans))
        if not plans:
            return 0.0
        if field == "hits":
            return float(sum(plan.hits for plan in plans))
        if field == "fallbacks":
            return float(sum(plan.fallbacks for plan in plans))
        if field == "bits":
            return float(sum(plan.bits for plan in plans)) / len(plans)
        if field == "quant_delta":
            deltas = []
            for plan in plans:
                metrics = plan.meta.get("gate_metrics") or {}
                if "flip_fraction" in metrics:
                    deltas.append(float(metrics["flip_fraction"]))
                elif "mean_qerror" in metrics:
                    deltas.append(float(metrics["mean_qerror"]) - 1.0)
            return max(deltas) if deltas else 0.0
        return 0.0

    def metrics_text(self) -> str:
        """The Prometheus-style exposition (the ``METRICS`` verb's body)."""
        return self.stats.registry.render_text()

    def trace_spans(self, limit: int | None = None) -> list[dict]:
        """Recent query-path spans from the server's tracer (oldest first)."""
        return self.tracer.snapshot(limit)

    def stats_dict(self) -> dict:
        """Full telemetry snapshot, health counters folded in when guarded."""
        health = getattr(self.structure, "health", None)
        out = self.stats.as_dict(cache=self.cache, health=health)
        out["kind"] = self.kind
        out["snapshot_version"] = self.snapshot.version
        out["degraded"] = self._degraded
        out["degrade_activations"] = self._degrade_activations
        out["degraded_served"] = self._degraded_served
        fanout = getattr(unwrap(self.structure), "fanout_stats", None)
        if fanout is not None:
            out["shard_fanout"] = fanout()
        return out

    _canonical = staticmethod(canonical_query)
