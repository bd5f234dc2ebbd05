"""Background refresh: retrain a drifting structure and hot-swap it live.

The missing path from "the auxiliary structure is growing" (paper §6) back
to a freshly trained model.  :class:`BackgroundRefresher` watches one
:class:`~repro.serve.SetServer` through a :class:`DeltaBuffer` and a
:class:`StalenessPolicy`; when the policy trips it

1. retrains the served structure **off the serving thread** — per shard
   via :class:`~repro.shard.ShardedBuilder` when the structure is sharded
   (:func:`default_rebuilder`), or through any caller-provided ``rebuild``
   callable (warm starts, different configs, remote training);
2. **replays** every recorded post-build mutation onto the fresh
   structure (values read from the old structure's auxiliary layers, so
   a retrain never forgets an absorbed update — the Bloom
   no-false-negative guarantee survives the swap);
3. **rewraps** the guarded facade around the new inner structure (reusing
   the paired exact index — the collection itself never changes);
4. publishes through the server's existing :class:`SnapshotHolder` hot
   swap, which atomically installs the new generation and clears the
   query cache.

Step 1 follows a refresh *plan* chosen from the trip reasons — ``full``,
or ``shards[i...]``: retrain only the tripped parts and publish them
through ``router.with_parts`` (:meth:`BackgroundRefresher._plan` has the
rule).

Every step is observable: ``repro_maintain_*`` metrics on the server's
registry (``repro_adapt_*`` too once a workload is attached), a
``refresh`` span (with its trip reasons) in the server's tracer, and
:meth:`status` for the ``REFRESH`` protocol verb / ``repro
refresh-status``.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import replace
from typing import Any, Callable

from ..core.config import ModelConfig
from ..core.recipe import task_of, train_structure
from ..core.training import TrainConfig
from ..reliability import GuardedEstimator, unwrap
from .delta import DeltaBuffer
from .policy import StalenessPolicy, StalenessState, aux_fraction_of, tripped_shards

__all__ = [
    "BackgroundRefresher",
    "RefreshError",
    "default_rebuilder",
    "mutate_through",
    "replay_deltas",
    "rewrap_like",
    "unwrap_structure",
]


class RefreshError(RuntimeError):
    """A refresh attempt failed; the old generation keeps serving."""


#: The raw (possibly sharded) structure behind a guarded facade.
unwrap_structure = unwrap


def rewrap_like(old: Any, new_inner: Any) -> Any:
    """Wrap ``new_inner`` the way ``old`` was wrapped (or return it raw)."""
    return old.rewrap(new_inner) if isinstance(old, GuardedEstimator) else new_inner


def replay_deltas(
    kind: str, source: Any, target: Any, canonicals: list[tuple[int, ...]]
) -> int:
    """Re-apply recorded mutations onto a freshly trained structure.

    Values are read from ``source``'s auxiliary override layer (membership
    inserts carry no value — the canonical itself is the payload).  A
    canonical absent from the source auxiliary is skipped: either the
    structure absorbed it without storing (an index update inside its
    error window) or the mutation already landed on ``target`` directly.
    Returns the number of mutations applied.
    """
    applied = 0
    for canonical in canonicals:
        if kind == "bloom":
            target.insert(canonical)
            applied += 1
            continue
        auxiliary = getattr(source, "auxiliary", None)
        value = auxiliary.get(canonical) if auxiliary is not None else None
        if value is None:
            continue
        if kind == "cardinality":
            target.record_update(canonical, value)
        else:
            target.insert_update(canonical, value)
        applied += 1
    return applied


def mutate_through(server: Any, mutator: Callable[[Any], Any]) -> Any:
    """Apply ``mutator(inner_structure)`` so it survives a concurrent swap.

    A writer that reads ``server.structure`` and then mutates it races the
    hot swap: the mutation can land on a generation that just stopped
    serving, after the refresher's replay already read its state — the
    update would strand on the dead structure until the *next* refresh.
    This helper re-checks the served structure after mutating and
    re-applies on the new generation when a swap interleaved.  Mutations
    (auxiliary overrides, membership inserts) are idempotent, so applying
    to both generations is safe; the last application always targets the
    structure that is actually serving.
    """
    for _ in range(8):
        inner = unwrap_structure(server.structure)
        result = mutator(inner)
        if unwrap_structure(server.structure) is inner:
            return result
    raise RefreshError("mutation kept racing hot swaps; giving up after 8 tries")


def default_rebuilder(
    structure: Any,
    *,
    collection=None,
    model_config: ModelConfig | None = None,
    train_config: TrainConfig | None = None,
    removal=None,
    max_subset_size: int | None = 4,
    max_training_samples: int | None = None,
    num_negative_samples: int | None = None,
    workers: int = 1,
    base_seed: int = 1,
) -> Callable[[Any], Any]:
    """A ``rebuild`` callable that retrains ``structure``'s inner model.

    The task comes from :func:`repro.core.task_of` and the training from
    :func:`repro.core.train_structure`: sharded routers retrain per shard
    through :class:`~repro.shard.ShardedBuilder` over the router's
    existing plan (guarded parts stay guarded); unsharded structures
    retrain directly — the index carries its collection, every other
    structure needs ``collection`` passed here.

    Each rebuild uses seed ``base_seed + generation`` so successive
    refreshes explore fresh initializations rather than re-deriving the
    model that just drifted.
    """
    inner = unwrap_structure(structure)
    if not hasattr(inner, "parts") and getattr(inner, "collection", None) is None:
        if collection is None:
            raise ValueError(
                f"cannot rebuild a {type(inner).__name__} without its "
                "training collection: pass collection=..."
            )
    model_config = model_config or ModelConfig()
    train_config = train_config or TrainConfig(epochs=6)
    options = dict(
        removal=removal,
        max_subset_size=max_subset_size,
        max_training_samples=max_training_samples,
        num_negative_samples=num_negative_samples,
    )
    state = {"generation": 0}

    def rebuild(current_inner: Any) -> Any:
        state["generation"] += 1
        seed = base_seed + state["generation"]
        task = task_of(current_inner)
        parts = getattr(current_inner, "parts", None)
        # A suite retrains the predicate family it already routes.
        family = getattr(
            unwrap_structure(parts[0] if parts else current_inner), "predicates", None
        )
        if parts is not None:
            from ..shard import ShardedBuilder

            return ShardedBuilder(
                current_inner.plan,
                workers=workers,
                base_seed=seed,
                guarded=any(isinstance(part, GuardedEstimator) for part in parts),
                model_config=model_config,
                train_config=train_config,
                predicates=family,
                **options,
            ).build(task)
        coll = getattr(current_inner, "collection", None)
        if coll is None:
            coll = collection
        return train_structure(
            task,
            coll,
            replace(model_config, seed=seed),
            replace(train_config, seed=seed),
            predicates=family,
            **options,
        )

    return rebuild


class BackgroundRefresher:
    """Watches one server's staleness and hot-swaps retrained structures.

    Parameters
    ----------
    server:
        The :class:`~repro.serve.SetServer` to maintain.  The refresher
        registers itself as ``server.maintainer`` (served by the
        ``REFRESH`` protocol verb) and its metrics on the server's
        registry.
    rebuild:
        ``rebuild(inner_structure) -> new_inner_structure``; use
        :func:`default_rebuilder` for the standard retrain paths.
    policy / delta:
        Trip thresholds and the mutation log (fresh defaults when
        omitted).  The delta buffer is attached to the served structure's
        inner (unwrapped) structure immediately.
    interval_s:
        Background check period for :meth:`start`.
    probe:
        Optional ``() -> float`` returning an observed mean q-error for
        the drift signal (e.g. comparing served estimates against an
        exact :class:`InvertedIndex` over a probe workload).
    backoff_base_s / backoff_max_s:
        Exponential backoff after a failed refresh: the ``n``-th
        consecutive failure suspends policy-triggered refreshes for
        ``min(backoff_base_s * 2**(n-1), backoff_max_s)`` seconds.
        Without this, a persistently failing rebuild (bad training data,
        injected faults, a dead worker pool) re-triggers on every policy
        evaluation and burns a CPU retraining into the same wall while
        the old generation serves just fine.
    breaker_failures / breaker_cooldown_s:
        Circuit breaker over the backoff: after ``breaker_failures``
        consecutive failures the breaker *opens* and refreshes stay
        suspended for at least ``breaker_cooldown_s``; the first attempt
        after the cooldown runs *half-open* (one probe refresh) — success
        closes the breaker, failure re-opens it for another cooldown.
        Manual :meth:`refresh_now` calls bypass both mechanisms.
    workload:
        The :class:`~repro.adapt.WorkloadLog` the serving layer records
        into.  Registered as ``server.workload`` when the server has none
        (the serving hooks pick it up from there); attaching one also
        registers the ``repro_adapt_*`` series and the ``adaptive`` keys
        of :meth:`status` / :meth:`staleness_status`.
    tracker:
        Optional :class:`~repro.adapt.ShardStalenessTracker`.  When set
        (and the served structure is sharded), every staleness
        observation first runs :func:`~repro.adapt.probe_shard_errors`
        over the most recent workload entries, then reports the tracker's
        per-shard means as ``StalenessState.shard_q_errors``.
    shard_rebuild:
        ``shard_rebuild(router, shard_id) -> part``
        (:func:`repro.adapt.workload_shard_rebuilder`).  Required for the
        ``shards[i...]`` plan; without it every trip is a full rebuild.
    exact:
        Exact truth source for the tracker's probe; defaults to the
        server's paired exact structure.
    probe_entries:
        How many recent workload entries each tracker probe scores.
    """

    def __init__(
        self,
        server: Any,
        rebuild: Callable[[Any], Any],
        policy: StalenessPolicy | None = None,
        delta: DeltaBuffer | None = None,
        interval_s: float = 1.0,
        probe: Callable[[], float] | None = None,
        backoff_base_s: float = 0.5,
        backoff_max_s: float = 60.0,
        breaker_failures: int = 5,
        breaker_cooldown_s: float = 60.0,
        *,
        workload: Any = None,
        tracker: Any = None,
        shard_rebuild: Callable[[Any, int], Any] | None = None,
        exact: Any = None,
        probe_entries: int = 64,
    ):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if backoff_base_s <= 0 or backoff_max_s <= 0:
            raise ValueError("backoff durations must be positive")
        if breaker_failures < 1:
            raise ValueError("breaker_failures must be >= 1")
        if breaker_cooldown_s < 0:
            raise ValueError("breaker_cooldown_s cannot be negative")
        self.server = server
        self.rebuild = rebuild
        self.policy = policy or StalenessPolicy()
        self.delta = delta or DeltaBuffer()
        self.interval_s = float(interval_s)
        self.probe = probe
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_max_s = float(backoff_max_s)
        self.breaker_failures = int(breaker_failures)
        self.breaker_cooldown_s = float(breaker_cooldown_s)
        self.workload = workload
        self.tracker = tracker
        self.shard_rebuild = shard_rebuild
        self.exact = exact if exact is not None else getattr(server, "_exact", None)
        self.probe_entries = int(probe_entries)
        self._consecutive_failures = 0
        self._retry_at = 0.0  # monotonic instant policy refreshes resume
        self._breaker_tripped = False
        self.backoff_skips = 0
        self._refresh_lock = threading.RLock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._last_refresh_mark = 0
        self._last_refresh_at: float | None = None
        self._last_refresh_duration = 0.0
        self._last_refreeze_seconds = 0.0
        self._last_reasons: list[str] = []
        self._last_error: str | None = None
        #: Rolling window of failure messages (``last_error`` clears on the
        #: next success; post-mortems need the history).
        self.recent_errors: deque[str] = deque(maxlen=8)
        self._last_probe = math.nan
        self._last_replay_truncated = False
        self.checks = 0
        self.refreshes = 0
        self.failures = 0
        self.replayed = 0
        self.partial_refreshes = 0
        self.shards_rebuilt = 0
        self.delta.attach(unwrap_structure(server.structure))
        server.maintainer = self
        if workload is not None and getattr(server, "workload", None) is None:
            server.workload = workload
        self._register_metrics()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "BackgroundRefresher":
        """Start the background check loop (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-maintain-refresher", daemon=True
        )
        self._thread.start()
        return self

    def close(self, timeout: float | None = 10.0) -> None:
        """Stop the loop; an in-flight refresh finishes first."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
        self._thread = None

    def __enter__(self) -> "BackgroundRefresher":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.check_now()
            except RefreshError:
                pass  # already counted and recorded by refresh_now
            except Exception as exc:
                # Check failures must never kill the watchdog.
                self._record_failure(exc)

    def _record_failure(self, exc: BaseException) -> None:
        self.failures += 1
        self._last_error = f"{type(exc).__name__}: {exc}"
        self.recent_errors.append(self._last_error)
        self._metric_failures.inc()

    # -- staleness evaluation --------------------------------------------------

    def collect_state(self) -> StalenessState:
        """One staleness observation over the currently served structure."""
        if self.probe is not None:
            try:
                self._last_probe = float(self.probe())
            except Exception:
                self._last_probe = math.nan
        state = StalenessState(
            pending_deltas=self.delta.pending_since(self._last_refresh_mark),
            aux_fraction=aux_fraction_of(self.server.structure),
            probe_q_error=self._last_probe,
        )
        if self.tracker is not None:
            from ..adapt.tracker import probe_shard_errors

            inner = unwrap_structure(self.server.structure)
            if (
                self.workload is not None
                and self.exact is not None
                and getattr(inner, "parts", None) is not None
            ):
                probe_shard_errors(
                    inner,
                    self.exact,
                    self.workload.recent(self.probe_entries),
                    self.tracker,
                    max_queries=self.probe_entries,
                )
            state.shard_q_errors = self.tracker.q_errors() or None
        return state

    def check_now(self) -> bool:
        """Evaluate the policy once; refresh if it trips.  True on refresh.

        A tripped policy does not refresh while failure backoff is in
        effect (see ``backoff_base_s``): the skip is counted instead, and
        the old generation keeps serving until the backoff window — or the
        open breaker's cooldown — expires.
        """
        self.checks += 1
        self._metric_checks.inc()
        reasons = self.policy.evaluate(self.collect_state())
        if not reasons:
            return False
        if (
            self._last_refresh_at is not None
            and time.monotonic() - self._last_refresh_at < self.policy.min_interval_s
        ):
            return False
        if time.monotonic() < self._retry_at:
            self.backoff_skips += 1
            self._metric_backoff_skips.inc()
            return False
        self.refresh_now(reasons)
        return True

    # -- failure backoff / circuit breaker ------------------------------------

    @property
    def breaker_state(self) -> str:
        """``closed`` (healthy), ``open`` (cooling down after repeated
        failures), or ``half-open`` (cooldown over, next attempt probes)."""
        if not self._breaker_tripped:
            return "closed"
        return "open" if time.monotonic() < self._retry_at else "half-open"

    def backoff_remaining_s(self) -> float:
        """Seconds until policy-triggered refreshes resume (0 when none)."""
        return max(self._retry_at - time.monotonic(), 0.0)

    def _record_refresh_failure(self) -> None:
        self._consecutive_failures += 1
        delay = min(
            self.backoff_base_s * 2.0 ** (self._consecutive_failures - 1),
            self.backoff_max_s,
        )
        if self._consecutive_failures >= self.breaker_failures:
            self._breaker_tripped = True
            delay = max(delay, self.breaker_cooldown_s)
        self._retry_at = time.monotonic() + delay

    def _record_refresh_success(self) -> None:
        self._consecutive_failures = 0
        self._retry_at = 0.0
        self._breaker_tripped = False

    # -- the refresh itself ----------------------------------------------------

    def refresh_now(self, reasons: list[str] | tuple[str, ...] = ("manual",)):
        """Retrain, replay deltas, rewrap, and hot-swap; returns the snapshot.

        ``reasons`` select the refresh plan (:meth:`_plan`) once this call
        holds the refresh lock, so one queued behind a running refresh
        still runs the plan it was asked for.  Raises :class:`RefreshError`
        on failure — the old generation keeps serving and the failure is
        counted and recorded in :meth:`status`.
        """
        reasons = list(reasons)
        with self._refresh_lock:
            started = time.monotonic()
            try:
                with self._span("refresh", reasons=",".join(reasons)) as span:
                    snapshot = self._refresh(reasons, span)
            except Exception as exc:
                self._record_failure(exc)
                self._record_refresh_failure()
                raise RefreshError(
                    f"refresh failed ({', '.join(reasons)}): {exc}"
                ) from exc
            self._last_refresh_duration = time.monotonic() - started
            self._last_refresh_at = time.monotonic()
            self._last_reasons = reasons
            self._last_error = None
            self._record_refresh_success()
            self.refreshes += 1
            self._metric_refreshes.inc()
            return snapshot

    def _span(self, name: str, **attrs):
        """A traced span on the server's tracer (a bare dict without one)."""
        tracer = getattr(self.server, "tracer", None)
        if tracer is None:
            return nullcontext({"attrs": {}})
        return tracer.span(name, kind=self.server.kind, **attrs)

    def _plan(self, reasons: list[str], inner: Any) -> list[int] | None:
        """The refresh plan: shard ids to retrain, or ``None`` for full.

        Targeted only when *every* reason is a per-shard one — a global
        signal (deltas, aux fraction, probe drift) means the whole
        structure drifted — naming a strict subset of a sharded
        structure's parts, with a ``shard_rebuild`` to retrain them.
        """
        shard_ids = tripped_shards(reasons)
        parts = getattr(inner, "parts", None)
        targeted = (
            bool(shard_ids)
            and len(shard_ids) == len(reasons)
            and parts is not None
            and len(shard_ids) < len(parts)
            and self.shard_rebuild is not None
        )
        return shard_ids if targeted else None

    def _refresh(self, reasons: list[str], span: dict):
        old = self.server.structure
        old_inner = unwrap_structure(old)
        pre_mark = self.delta.mark()
        shard_ids = self._plan(reasons, old_inner)
        if shard_ids is None:
            new_inner = self.rebuild(old_inner)
        else:
            new_inner = old_inner.with_parts(
                {
                    shard_id: self.shard_rebuild(old_inner, shard_id)
                    for shard_id in shard_ids
                }
            )
        snapshot = self._publish(old, old_inner, new_inner, pre_mark, span)
        if self.tracker is not None:
            # The replaced parts' windows describe models that no longer
            # serve (a full rebuild replaces every part).
            stale = range(self.tracker.num_shards) if shard_ids is None else shard_ids
            for shard_id in stale:
                self.tracker.reset(shard_id)
        if shard_ids is not None:
            self.partial_refreshes += 1
            self.shards_rebuilt += len(shard_ids)
            if self.workload is not None:
                self._metric_partial.inc()
                self._metric_shards.inc(len(shard_ids))
            span["attrs"]["targeted_shards"] = ",".join(map(str, shard_ids))
        return snapshot

    def _publish(self, old: Any, old_inner: Any, new_inner: Any,
                 pre_mark: int, span: dict):
        """Refreeze, rewrap, replay, and hot-swap a rebuilt inner structure
        (either plan's: fully fresh, or a mix of fresh and reused parts)."""
        self._refreeze(old_inner, new_inner, span)
        new = rewrap_like(old, new_inner)
        # Replay the full mutation history: a rebuild retrains from the
        # collection, which never absorbed the post-build mutations — they
        # live only in the old structure's auxiliary layers.
        canonicals, truncated = self.delta.events_since(0)
        applied = replay_deltas(self.server.kind, old_inner, new_inner, canonicals)
        # Attach before the swap so no mutation window goes unrecorded.
        self.delta.attach(new_inner)
        snapshot = self.server.swap(new)
        # Mutations that raced the swap landed on the old structure after
        # the bulk replay read its state; replay that tail onto the new one.
        stragglers, late_truncated = self.delta.events_since(pre_mark)
        applied += replay_deltas(self.server.kind, old_inner, new_inner, stragglers)
        self.delta.detach(old_inner)
        self.replayed += applied
        self._metric_replayed.inc(applied)
        self._last_replay_truncated = truncated or late_truncated
        self._last_refresh_mark = self.delta.mark()
        span["attrs"]["replayed"] = applied
        span["attrs"]["snapshot_version"] = snapshot.version
        span["attrs"]["replay_truncated"] = self._last_replay_truncated
        return snapshot

    def _refreeze(self, old_inner: Any, new_inner: Any, span: dict) -> None:
        """Carry frozen inference plans onto the retrained generation.

        Re-freezing runs inside its own traced span and records its cost in
        ``repro_maintain_refreeze_seconds``, so freeze time after a retrain
        is visible and never silently extends the swap window.  A freeze
        failure is recorded but does not fail the refresh: the new
        generation then serves through the autograd path (the transparent
        fallback) instead of staying unpublished.
        """
        from ..infer import refreeze_like

        started = time.monotonic()
        try:
            with self._span("refreeze"):
                report = refreeze_like(old_inner, new_inner)
        except Exception as exc:
            self._last_error = f"refreeze failed: {type(exc).__name__}: {exc}"
            self.recent_errors.append(self._last_error)
            span["attrs"]["refrozen"] = False
        else:
            span["attrs"]["refrozen"] = report is not None
        finally:
            self._last_refreeze_seconds = time.monotonic() - started

    # -- reporting --------------------------------------------------------------

    def _register_metrics(self) -> None:
        registry = self.server.registry
        self._metric_checks = registry.counter(
            "repro_maintain_checks_total", "Staleness-policy evaluations"
        )
        self._metric_refreshes = registry.counter(
            "repro_maintain_refreshes_total",
            "Background refreshes published via hot swap",
        )
        self._metric_failures = registry.counter(
            "repro_maintain_refresh_failures_total",
            "Refresh attempts that failed (old generation kept serving)",
        )
        self._metric_replayed = registry.counter(
            "repro_maintain_replayed_deltas_total",
            "Recorded mutations re-applied onto refreshed structures",
        )
        self._metric_backoff_skips = registry.counter(
            "repro_maintain_backoff_skips_total",
            "Tripped policy evaluations suppressed by failure backoff",
        )
        registry.gauge_function(
            "repro_maintain_refresh_backoff",
            "Seconds until policy-triggered refreshes resume (0 when "
            "no backoff is in effect)",
            self.backoff_remaining_s,
        )
        registry.gauge_function(
            "repro_maintain_consecutive_refresh_failures",
            "Refresh failures since the last success",
            lambda: float(self._consecutive_failures),
        )
        registry.gauge_function(
            "repro_maintain_breaker_open",
            "1 while the refresh circuit breaker is open or half-open",
            lambda: 1.0 if self._breaker_tripped else 0.0,
        )
        registry.gauge_function(
            "repro_maintain_deltas_pending",
            "Mutations recorded since the last refresh",
            lambda: self.delta.pending_since(self._last_refresh_mark),
        )
        registry.gauge_function(
            "repro_maintain_aux_fraction",
            "Fraction of the served structure's answers coming from exact "
            "override layers",
            lambda: aux_fraction_of(self.server.structure),
        )
        registry.gauge_function(
            "repro_maintain_probe_q_error",
            "Last observed probe mean q-error (NaN without a probe)",
            lambda: self._last_probe,
        )
        registry.gauge_function(
            "repro_maintain_last_refresh_duration_seconds",
            "Wall-clock duration of the last successful refresh",
            lambda: self._last_refresh_duration,
        )
        registry.gauge_function(
            "repro_maintain_refreeze_seconds",
            "Wall-clock cost of re-freezing inference plans after the last "
            "rebuild (0 when the structure carries no plan)",
            lambda: self._last_refreeze_seconds,
        )
        registry.gauge_function(
            "repro_maintain_running",
            "1 while the background check loop is alive",
            lambda: 1.0 if self.running else 0.0,
        )
        if self.workload is None:
            return
        self._metric_partial = registry.counter(
            "repro_adapt_partial_refreshes_total",
            "Targeted refreshes that rebuilt only tripped shards",
        )
        self._metric_shards = registry.counter(
            "repro_adapt_shards_rebuilt_total",
            "Individual shard parts rebuilt by targeted refreshes",
        )
        registry.gauge_function(
            "repro_adapt_workload_keys",
            "Distinct (predicate, query) keys currently in the workload log",
            lambda: float(len(self.workload)),
        )
        registry.gauge_function(
            "repro_adapt_workload_records_total",
            "Queries recorded into the workload log over its lifetime",
            lambda: float(self.workload.total_records),
        )
        registry.gauge_function(
            "repro_adapt_workload_evictions_total",
            "Workload-log entries evicted by the capacity bound",
            lambda: float(self.workload.evictions),
        )
        registry.gauge_function(
            "repro_adapt_observed_q_error",
            "Mean q-error observed against exact truth (NaN before any "
            "sampled observation)",
            self.workload.mean_observed_q_error,
        )
        registry.gauge_function(
            "repro_adapt_tripped_shards",
            "Shards whose windowed local q-error currently exceeds the "
            "policy threshold",
            self._count_tripped,
        )

    def _count_tripped(self) -> float:
        if self.tracker is None or self.policy.max_local_q_error is None:
            return 0.0
        threshold = self.policy.max_local_q_error
        return float(
            sum(1 for value in self.tracker.q_errors().values() if value > threshold)
        )

    def status(self) -> dict:
        """Full maintainer state (the ``REFRESH`` verb's JSON body)."""
        status = {
            "auto_refresh": True,
            "running": self.running,
            "kind": self.server.kind,
            "interval_s": self.interval_s,
            "policy": self.policy.as_dict(),
            "state": self.collect_state().as_dict(),
            "checks": self.checks,
            "refreshes": self.refreshes,
            "failures": self.failures,
            "replayed_deltas": self.replayed,
            "last_refresh_duration_s": self._last_refresh_duration,
            "last_refreeze_s": self._last_refreeze_seconds,
            "last_reasons": list(self._last_reasons),
            "last_error": self._last_error,
            "recent_errors": list(self.recent_errors),
            "consecutive_failures": self._consecutive_failures,
            "backoff_remaining_s": self.backoff_remaining_s(),
            "backoff_skips": self.backoff_skips,
            "breaker_state": self.breaker_state,
            "last_replay_truncated": self._last_replay_truncated,
            "delta": self.delta.as_dict(),
            "snapshot_version": self.server.snapshot.version,
        }
        if self.workload is not None:
            status["adaptive"] = True
            status["partial_refreshes"] = self.partial_refreshes
            status["shards_rebuilt"] = self.shards_rebuilt
        return status

    def staleness_status(self) -> dict:
        """The ``STALENESS`` verb's JSON body."""
        if self.workload is None:
            return {"adaptive": False}
        state = self.collect_state()
        return {
            "adaptive": True,
            "policy": self.policy.as_dict(),
            "state": state.as_dict(),
            "tripped": self.policy.evaluate(state),
            "workload": self.workload.as_dict(),
            "tracker": self.tracker.as_dict() if self.tracker else None,
            "partial_refreshes": self.partial_refreshes,
            "shards_rebuilt": self.shards_rebuilt,
        }
