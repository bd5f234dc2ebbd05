"""Staleness policy: when does a live structure need a refresh?

The paper gives the retraining trigger only qualitatively ("when accuracy
deteriorates", §7.2); serving needs concrete, observable thresholds.
:class:`StalenessPolicy` trips on any of three signals, each mirroring a
way the hybrid design degrades:

* **delta count** — mutations recorded since the last refresh (the
  auxiliary structure absorbing §6's updates one by one);
* **auxiliary fraction** — how much of the structure's answer mass now
  comes from the exact override layers instead of the model (§6's
  degenerate worst case is a fraction of 1.0);
* **probe q-error** — observed estimation drift measured by an optional
  probe workload (Algorithm 2's error bounds are computed at build time;
  drift past them means the recorded bounds no longer describe the model);
* **local q-error** — the same drift signal *bucketed by shard offsets*
  (Algorithm 2's local bounds applied to the observed workload): each
  shard of a ``Sharded*`` router gets its own observed mean q-error, and
  the per-shard reasons (``local_q_error:shard3``) let the refresher
  retrain only the shards that actually degraded.

``evaluate`` returns the *reasons* that tripped, so refreshes are
attributable in metrics and trace spans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..reliability import unwrap

__all__ = [
    "StalenessPolicy",
    "StalenessState",
    "aux_fraction_of",
    "tripped_shards",
]

_LOCAL_REASON_PREFIX = "local_q_error:shard"


@dataclass
class StalenessState:
    """One point-in-time staleness observation fed to the policy."""

    pending_deltas: int = 0
    aux_fraction: float = 0.0
    probe_q_error: float = field(default=math.nan)
    # Per-shard observed mean q-error (Algorithm 2's local bounds bucketed
    # by shard offsets); None when the structure is unsharded or no
    # per-shard observations exist yet.
    shard_q_errors: dict[int, float] | None = None

    def as_dict(self) -> dict:
        return {
            "pending_deltas": self.pending_deltas,
            "aux_fraction": self.aux_fraction,
            # NaN (no probe) serializes as null so the dict is JSON-safe.
            "probe_q_error": (
                self.probe_q_error if math.isfinite(self.probe_q_error) else None
            ),
            "shard_q_errors": (
                {
                    str(shard_id): (value if math.isfinite(value) else None)
                    for shard_id, value in sorted(self.shard_q_errors.items())
                }
                if self.shard_q_errors is not None
                else None
            ),
        }


@dataclass
class StalenessPolicy:
    """Refresh thresholds; ``None`` disables a signal entirely.

    ``min_interval_s`` is a refresh rate limiter enforced by the
    refresher, not by :meth:`evaluate` — a policy evaluation is pure.
    """

    max_deltas: int | None = 1000
    max_aux_fraction: float | None = 0.25
    max_probe_q_error: float | None = None
    max_local_q_error: float | None = None
    min_interval_s: float = 0.0

    def __post_init__(self):
        if self.max_deltas is not None and self.max_deltas < 1:
            raise ValueError("max_deltas must be >= 1 (or None)")
        if self.max_aux_fraction is not None and not 0.0 < self.max_aux_fraction:
            raise ValueError("max_aux_fraction must be positive (or None)")
        if self.max_probe_q_error is not None and self.max_probe_q_error < 1.0:
            raise ValueError("max_probe_q_error must be >= 1.0 (or None)")
        if self.max_local_q_error is not None and self.max_local_q_error < 1.0:
            raise ValueError("max_local_q_error must be >= 1.0 (or None)")
        if self.min_interval_s < 0.0:
            raise ValueError("min_interval_s cannot be negative")

    def evaluate(self, state: StalenessState) -> list[str]:
        """The reasons ``state`` warrants a refresh (empty: it does not)."""
        reasons: list[str] = []
        if self.max_deltas is not None and state.pending_deltas >= self.max_deltas:
            reasons.append("delta_count")
        if (
            self.max_aux_fraction is not None
            and state.aux_fraction >= self.max_aux_fraction
        ):
            reasons.append("aux_fraction")
        if (
            self.max_probe_q_error is not None
            and math.isfinite(state.probe_q_error)
            and state.probe_q_error > self.max_probe_q_error
        ):
            reasons.append("q_error_drift")
        if self.max_local_q_error is not None and state.shard_q_errors:
            for shard_id in sorted(state.shard_q_errors):
                value = state.shard_q_errors[shard_id]
                if math.isfinite(value) and value > self.max_local_q_error:
                    reasons.append(f"{_LOCAL_REASON_PREFIX}{shard_id}")
        return reasons

    def as_dict(self) -> dict:
        return {
            "max_deltas": self.max_deltas,
            "max_aux_fraction": self.max_aux_fraction,
            "max_probe_q_error": self.max_probe_q_error,
            "max_local_q_error": self.max_local_q_error,
            "min_interval_s": self.min_interval_s,
        }


def tripped_shards(reasons: Iterable[str]) -> list[int]:
    """Shard ids named by per-shard ``local_q_error:shard<i>`` reasons.

    Returns a sorted list; reasons that are not per-shard are ignored.
    The inverse of the reason formatting in :meth:`StalenessPolicy.evaluate`,
    used by the targeted-refresh path to decide *which* parts to retrain.
    """
    shard_ids: set[int] = set()
    for reason in reasons:
        if reason.startswith(_LOCAL_REASON_PREFIX):
            suffix = reason[len(_LOCAL_REASON_PREFIX):]
            try:
                shard_ids.add(int(suffix))
            except ValueError:
                continue
    return sorted(shard_ids)


def aux_fraction_of(structure: Any) -> float:
    """How much of ``structure``'s answers come from exact override layers.

    * unsharded index — its own ``auxiliary_fraction`` (aux entries over
      trained subsets);
    * unsharded estimator — auxiliary entries over trained subsets;
    * sharded routers — router-level override entries over the collection
      size, plus the maximum per-part fraction (a single saturated shard
      should trip a per-shard policy even when the router override layer
      is small);
    * anything without an enumerable auxiliary (the Bloom filters, whose
      insert filters are not enumerable) — 0.0; staleness for those is
      driven by the delta count.
    """
    structure = unwrap(structure)  # guarded facades: measure what they wrap
    parts = getattr(structure, "parts", None)
    if parts is not None:
        plan = getattr(structure, "plan", None)
        num_sets = getattr(plan, "num_sets", 0) or 1
        router_aux = getattr(structure, "auxiliary", None)
        fraction = len(router_aux) / num_sets if router_aux is not None else 0.0
        part_fractions = [aux_fraction_of(part) for part in parts]
        return max([fraction] + part_fractions)
    probe = getattr(structure, "auxiliary_fraction", None)
    if probe is not None:
        return float(probe)
    auxiliary = getattr(structure, "auxiliary", None)
    if auxiliary is not None:
        report = getattr(structure, "report", None)
        trained = getattr(report, "num_training_subsets", 0) or 1
        return len(auxiliary) / trained
    return 0.0
