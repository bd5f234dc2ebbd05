"""Bounded, thread-safe record of the served query stream.

The workload-feedback loop (ROADMAP item 5) starts here: every query the
serving layer answers is recorded as a ``(predicate spec, canonical
query)`` key with a frequency count, plus — on a sampled basis — the
q-error actually observed against the paired exact structure.  The log is
the ground truth for

* :func:`repro.adapt.workload_shard_rebuilder` — frequency-weighted
  refresh training sets;
* :func:`repro.adapt.probe_shard_errors` — attributing observed error to
  individual shards (Algorithm 2's local bounds over shard offsets).

Memory is bounded: past ``capacity`` distinct keys, the lowest-frequency
entry (oldest last-seen among ties) is evicted, so sustained skew keeps
exactly the hot keys — the ones refresh training should care about.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Iterable

__all__ = ["WorkloadEntry", "WorkloadLog"]


@dataclass
class WorkloadEntry:
    """One observed ``(spec, canonical)`` key and its aggregates."""

    spec: str
    canonical: tuple[int, ...]
    count: int
    last_seq: int
    q_error_sum: float = 0.0
    q_error_count: int = 0
    q_error_max: float = 0.0

    @property
    def mean_q_error(self) -> float:
        """Mean observed q-error (NaN before any truth observation)."""
        if self.q_error_count == 0:
            return math.nan
        return self.q_error_sum / self.q_error_count

    def as_dict(self) -> dict:
        return {
            "spec": self.spec,
            "query": list(self.canonical),
            "count": self.count,
            "mean_q_error": (
                self.mean_q_error if self.q_error_count else None
            ),
            "max_q_error": self.q_error_max if self.q_error_count else None,
        }


class WorkloadLog:
    """Bounded frequency/error sketch over the served query stream.

    Thread-safe: the serving layer records from request threads and pool
    dispatchers while the refresher reads snapshots concurrently.  Keys
    are ``(predicate spec, canonical query)`` — the same query under two
    predicates is two independent entries, matching the serving cache.

    ``observe_every``: when positive, :meth:`record` returns ``True`` for
    every N-th recorded query, asking the caller to compute the exact
    answer and report the observed q-error back via :meth:`observe`.
    Truth sampling is the expensive half (an exact intersection per
    observation); the frequency half is a dict bump.
    """

    def __init__(self, capacity: int = 4096, observe_every: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if observe_every < 0:
            raise ValueError("observe_every cannot be negative")
        self.capacity = int(capacity)
        self.observe_every = int(observe_every)
        self._lock = threading.Lock()
        self._entries: dict[tuple[str, tuple[int, ...]], WorkloadEntry] = {}
        self._seq = 0
        self._total = 0
        self._evictions = 0

    # -- recording -------------------------------------------------------------

    @staticmethod
    def _canonical(query: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted(set(query)))

    def record(self, spec: str, query: Iterable[int]) -> bool:
        """Count one served query; True when a truth observation is due."""
        canonical = self._canonical(query)
        key = (str(spec), canonical)
        with self._lock:
            self._seq += 1
            self._total += 1
            entry = self._entries.get(key)
            if entry is None:
                self._entries[key] = WorkloadEntry(
                    spec=key[0], canonical=canonical, count=1, last_seq=self._seq
                )
                self._evict_locked()
            else:
                entry.count += 1
                entry.last_seq = self._seq
            return (
                self.observe_every > 0
                and self._seq % self.observe_every == 0
            )

    def observe(self, spec: str, query: Iterable[int], q_error: float) -> None:
        """Report the q-error observed for one served answer.

        Non-finite values are dropped (a failed truth computation must not
        poison the aggregates).  The key is created if eviction already
        dropped it — an observation is also an occurrence signal.
        """
        if not math.isfinite(q_error):
            return
        canonical = self._canonical(query)
        key = (str(spec), canonical)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._seq += 1
                entry = self._entries[key] = WorkloadEntry(
                    spec=key[0], canonical=canonical, count=1, last_seq=self._seq
                )
                self._evict_locked()
            entry.q_error_sum += float(q_error)
            entry.q_error_count += 1
            entry.q_error_max = max(entry.q_error_max, float(q_error))

    def _evict_locked(self) -> None:
        while len(self._entries) > self.capacity:
            victim = min(
                self._entries, key=lambda k: (
                    self._entries[k].count, self._entries[k].last_seq
                )
            )
            del self._entries[victim]
            self._evictions += 1

    # -- reading ---------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def total_records(self) -> int:
        """Queries recorded over the log's lifetime (evictions included)."""
        with self._lock:
            return self._total

    @property
    def evictions(self) -> int:
        with self._lock:
            return self._evictions

    def entries(self) -> list[WorkloadEntry]:
        """A point-in-time copy of every entry (unordered)."""
        with self._lock:
            return [
                WorkloadEntry(**vars(entry)) for entry in self._entries.values()
            ]

    def top(self, n: int | None = None) -> list[WorkloadEntry]:
        """Entries by descending frequency (ties: most recently seen)."""
        snapshot = self.entries()
        snapshot.sort(key=lambda e: (-e.count, -e.last_seq))
        return snapshot if n is None else snapshot[:n]

    def recent(self, n: int | None = None) -> list[WorkloadEntry]:
        """Entries by recency (the *current* observed distribution)."""
        snapshot = self.entries()
        snapshot.sort(key=lambda e: -e.last_seq)
        return snapshot if n is None else snapshot[:n]

    def mean_observed_q_error(self) -> float:
        """Count-of-observations-weighted mean q-error (NaN without any)."""
        with self._lock:
            total = sum(e.q_error_sum for e in self._entries.values())
            count = sum(e.q_error_count for e in self._entries.values())
        return total / count if count else math.nan

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def as_dict(self, top: int = 8) -> dict:
        """JSON-safe summary (the ``STALENESS`` verb's workload section)."""
        mean = self.mean_observed_q_error()
        return {
            "capacity": self.capacity,
            "observe_every": self.observe_every,
            "distinct_keys": len(self),
            "total_records": self.total_records,
            "evictions": self.evictions,
            "mean_observed_q_error": mean if math.isfinite(mean) else None,
            "top": [entry.as_dict() for entry in self.top(top)],
        }
