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

Every step is observable: ``repro_maintain_*`` metrics on the server's
registry, a ``refresh`` span (with its trip reasons) in the server's
tracer, and :meth:`status` for the ``REFRESH`` protocol verb /
``repro refresh-status``.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import replace
from typing import Any, Callable

from ..core.cardinality import LearnedCardinalityEstimator
from ..core.config import ModelConfig
from ..core.index import LearnedSetIndex
from ..core.membership import LearnedBloomFilter
from ..core.training import TrainConfig
from ..reliability import GuardedEstimator, unwrap
from .delta import DeltaBuffer
from .policy import StalenessPolicy, StalenessState, aux_fraction_of

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


def unwrap_structure(structure: Any) -> Any:
    """The raw (possibly sharded) structure behind a guarded facade."""
    return unwrap(structure)


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


_ROUTER_TASKS = {
    "ShardedCardinalityEstimator": "cardinality",
    "ShardedSetIndex": "index",
    "ShardedBloomFilter": "bloom",
}

_UNSHARDED_TASKS = {
    LearnedCardinalityEstimator: "cardinality",
    LearnedSetIndex: "index",
    LearnedBloomFilter: "bloom",
}


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

    * sharded routers retrain per shard through
      :class:`~repro.shard.ShardedBuilder` over the router's existing
      plan (guarded parts stay guarded);
    * unsharded structures retrain through their ``build`` classmethods —
      the index carries its collection, the estimator and Bloom filter
      need ``collection`` passed here.

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
    state = {"generation": 0}

    def rebuild(current_inner: Any) -> Any:
        state["generation"] += 1
        seed = base_seed + state["generation"]
        parts = getattr(current_inner, "parts", None)
        if parts is not None:
            from ..shard import ShardedBuilder

            task = _ROUTER_TASKS.get(type(current_inner).__name__)
            if task is None:
                raise RefreshError(
                    f"unknown sharded router {type(current_inner).__name__}"
                )
            guarded_parts = any(isinstance(part, GuardedEstimator) for part in parts)
            builder = ShardedBuilder(
                current_inner.plan,
                workers=workers,
                base_seed=seed,
                guarded=guarded_parts,
                model_config=model_config,
                train_config=train_config,
                removal=removal,
                max_subset_size=max_subset_size,
                max_training_samples=max_training_samples,
                num_negative_samples=num_negative_samples,
            )
            return builder.build(task)
        task = _UNSHARDED_TASKS.get(type(current_inner))
        if task is None:
            raise RefreshError(
                f"cannot rebuild a {type(current_inner).__name__}; pass a "
                "custom rebuild callable"
            )
        coll = getattr(current_inner, "collection", None)
        if coll is None:
            coll = collection
        seeded_model = replace(model_config, seed=seed)
        seeded_train = replace(train_config, seed=seed)
        if task == "cardinality":
            return LearnedCardinalityEstimator.build(
                coll,
                model_config=seeded_model,
                train_config=seeded_train,
                removal=removal,
                max_subset_size=max_subset_size,
                max_training_samples=max_training_samples,
            )
        if task == "index":
            return LearnedSetIndex.build(
                coll,
                model_config=seeded_model,
                train_config=seeded_train,
                removal=removal,
                max_subset_size=max_subset_size,
                max_training_samples=max_training_samples,
            )
        return LearnedBloomFilter.build(
            coll,
            model_config=seeded_model,
            train_config=replace(seeded_train, loss="bce"),
            max_subset_size=max_subset_size,
            max_positive_samples=max_training_samples,
            num_negative_samples=num_negative_samples,
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
        self.delta.attach(unwrap_structure(server.structure))
        server.maintainer = self
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
        return StalenessState(
            pending_deltas=self.delta.pending_since(self._last_refresh_mark),
            aux_fraction=aux_fraction_of(self.server.structure),
            probe_q_error=self._last_probe,
        )

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

        Raises :class:`RefreshError` on failure — the old generation keeps
        serving and the failure is counted and recorded in :meth:`status`.
        """
        reasons = list(reasons)
        with self._refresh_lock:
            started = time.monotonic()
            tracer = getattr(self.server, "tracer", None)
            span_ctx = (
                tracer.span("refresh", kind=self.server.kind,
                            reasons=",".join(reasons))
                if tracer is not None
                else _null_span()
            )
            try:
                with span_ctx as span:
                    snapshot = self._refresh(span)
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

    def _refresh(self, span: dict):
        old = self.server.structure
        old_inner = unwrap_structure(old)
        pre_mark = self.delta.mark()
        new_inner = self.rebuild(old_inner)
        return self._publish(old, old_inner, new_inner, pre_mark, span)

    def _publish(self, old: Any, old_inner: Any, new_inner: Any,
                 pre_mark: int, span: dict):
        """Refreeze, rewrap, replay, and hot-swap a rebuilt inner structure.

        Shared by the full-rebuild path above and the targeted per-shard
        path (:class:`repro.adapt.AdaptiveRefresher`), which assembles
        ``new_inner`` from a mix of fresh and reused shard parts.
        """
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
            tracer = getattr(self.server, "tracer", None)
            ctx = (
                tracer.span("refreeze", kind=self.server.kind)
                if tracer is not None
                else _null_span()
            )
            with ctx:
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

    def status(self) -> dict:
        """Full maintainer state (the ``REFRESH`` verb's JSON body)."""
        return {
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


class _null_span:
    """Stand-in context manager when the server has no tracer."""

    def __enter__(self) -> dict:
        return {"attrs": {}}

    def __exit__(self, *exc_info) -> None:
        return None
