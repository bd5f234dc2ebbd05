"""Scatter-gather query routers over per-shard learned structures.

Each router holds one trained structure per shard (raw or guarded) and
recombines per-shard answers into the global answer the unsharded
structure would give:

* :class:`ShardedCardinalityEstimator` — cardinalities are counts over
  disjoint slices, so the global estimate is the **sum** of per-shard
  estimates;
* :class:`ShardedSetIndex` — shards are contiguous and scanned in plan
  order, so the **first shard that finds the query** holds the global
  first position (local position + shard offset); later shards are
  skipped (early exit);
* :class:`ShardedBloomFilter` — a subset is stored iff some shard stores
  it, so membership is the **OR** across shards; each shard's backup
  filter preserves its own no-false-negative guarantee, and OR preserves
  the global one.

All three expose the same ``*_many`` batch entry points as the unsharded
structures, so :class:`repro.serve.SetServer`, the guarded facades, and
the query engine serve sharded structures unchanged.

Shard skipping: each shard's trained universe ends at that shard's largest
element id.  A query containing a larger id cannot be a subset of any set
in that shard, so the router answers the shard's contribution exactly
(0 / not-found / absent) without touching its model — this both saves the
forward pass and keeps per-shard models from seeing ids outside their
embedding range.

Post-training updates target *global* answers that are not decomposable
onto one shard, so the routers keep their own override layers (mirroring
the unsharded structures' auxiliary maps): an exact auxiliary map for
cardinality and index updates, and a lazy insert Bloom filter for
membership inserts.  All updates fire the :class:`UpdateNotifier` hooks so
serving caches invalidate exactly as they do for unsharded structures.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Sequence

import numpy as np

from ..baselines.bloom import BloomFilter
from ..core.hooks import UpdateNotifier
from ..obs.trace import get_tracer
from ..sets.predicates import SUBSET, Predicate, as_predicate
from .plan import ShardPlan

__all__ = [
    "ShardedCardinalityEstimator",
    "ShardedSetIndex",
    "ShardedBloomFilter",
]


def _canonical(query: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(query)))


def _part_ceiling(part: Any) -> int | None:
    """Largest element id a shard structure can answer for (None: unknown)."""
    probe = getattr(part, "max_known_id", None)
    if callable(probe):
        try:
            ceiling = probe()
        except Exception:
            return None
        return int(ceiling) if ceiling is not None else None
    return None


class _ShardedBase(UpdateNotifier):
    """Plan/parts bookkeeping shared by the three routers."""

    def __init__(self, plan: ShardPlan, parts: Sequence[Any]):
        if len(parts) != len(plan):
            raise ValueError(
                f"got {len(parts)} per-shard structures for a "
                f"{len(plan)}-shard plan"
            )
        self.plan = plan
        self.parts = list(parts)
        # Shard-skip ceilings: prefer what the structure reports (its model
        # embedding range), fall back to the shard's own data.
        self._ceilings = [
            ceiling if ceiling is not None else shard.max_element_id()
            for ceiling, shard in zip(map(_part_ceiling, parts), plan)
        ]
        self._fanout_lock = threading.Lock()
        self._fanout_queries = 0
        self._fanout_shard_calls = 0

    def __getstate__(self):
        state = super().__getstate__()
        state.pop("_fanout_lock", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._fanout_lock = threading.Lock()

    def _record_fanout(self, queries: int, shard_calls: int) -> None:
        """Account one scatter-gather: ``queries`` routed, shards touched."""
        with self._fanout_lock:
            self._fanout_queries += queries
            self._fanout_shard_calls += shard_calls

    def fanout_stats(self) -> dict:
        """Scatter-gather telemetry (scraped into the server's registry)."""
        with self._fanout_lock:
            return {
                "num_shards": len(self.parts),
                "queries": self._fanout_queries,
                "shard_calls": self._fanout_shard_calls,
            }

    @property
    def num_shards(self) -> int:
        return len(self.parts)

    def with_parts(self, replacements: dict[int, Any]) -> "_ShardedBase":
        """A new router of the same type with some parts replaced.

        ``replacements`` maps shard ids to freshly trained per-shard
        structures; every other part is the *same object* as in this
        router.  Router-level mutation layers carry over: the auxiliary
        override map is copied (the straggler replay after a hot swap
        covers writes that race the copy) and the membership insert filter
        is shared (inserts are monotone, so both generations seeing them
        is safe).  This is the copy-and-swap half of targeted refresh —
        readers holding the old router never observe a torn parts list,
        and untouched parts stay byte-identical.
        """
        parts = list(self.parts)
        for shard_id, part in replacements.items():
            if not 0 <= shard_id < len(parts):
                raise IndexError(
                    f"shard id {shard_id} outside the {len(parts)}-shard plan"
                )
            parts[shard_id] = part
        clone = type(self)(self.plan, parts)
        auxiliary = getattr(self, "auxiliary", None)
        if auxiliary is not None:
            clone.auxiliary = dict(auxiliary)
        inserted = getattr(self, "_inserted", None)
        if inserted is not None:
            clone._inserted = inserted
        return clone

    @property
    def collection(self):
        """The parent collection the plan partitions."""
        return self.plan.collection

    def max_known_id(self) -> int:
        """Largest element id any shard can answer for (the global universe)."""
        return max(self._ceilings)

    def _shard_can_match(
        self,
        shard_id: int,
        canonical: tuple[int, ...],
        predicate: Predicate = SUBSET,
    ) -> bool:
        """False only when the query *provably* misses the shard.

        ``subset``: a query element larger than every element in the shard
        cannot be contained by any of its sets.  The other predicates only
        need a non-empty intersection (superset of a non-empty ``s``,
        overlap ``>= 1``, Jaccard ``> 0``), which is impossible exactly
        when even the *smallest* query element exceeds the shard ceiling.
        """
        if not canonical:
            return True
        if predicate.kind == "subset":
            return canonical[-1] <= self._ceilings[shard_id]
        return canonical[0] <= self._ceilings[shard_id]


class ShardedCardinalityEstimator(_ShardedBase):
    """Sum of per-shard cardinality estimates (disjoint slices add up).

    Per-shard estimators floor their estimates at 1 (the unsharded
    convention), so shards that cannot be skipped contribute at least 1
    each; shards skipped by the element-id ceiling contribute an exact 0.
    The empty query is answered exactly (every stored set contains it).
    """

    kind = "cardinality"

    def __init__(self, plan: ShardPlan, parts: Sequence[Any]):
        super().__init__(plan, parts)
        self.auxiliary: dict[tuple[int, ...], int] = {}

    @property
    def supports_predicates(self) -> bool:
        """Non-subset predicates need every shard structure to route them."""
        return all(
            getattr(part, "supports_predicates", False) for part in self.parts
        )

    def estimate(self, query: Iterable[int], predicate=None) -> float:
        return float(self.estimate_many([query], predicate=predicate)[0])

    def estimate_many(
        self, queries: Sequence[Iterable[int]], predicate=None
    ) -> np.ndarray:
        """Vectorized estimates: one batched fan-out per shard.

        Queries are canonicalized and de-duplicated once at the router, so
        a batch of repeats costs each shard a single forward row (the
        shard's own dedupe then sees already-unique queries).  All four
        predicates are per-set tests, so counts stay additive over the
        plan's disjoint shards; only the skip rule changes
        (:meth:`_ShardedBase._shard_can_match`).
        """
        predicate = as_predicate(predicate)
        if predicate.kind != "subset" and not self.supports_predicates:
            raise ValueError(
                f"per-shard structures do not support predicate "
                f"{predicate.spec!r}; shard a PredicateCardinalitySuite"
            )
        canonicals = [_canonical(q) for q in queries]
        out = np.empty(len(canonicals), dtype=np.float64)
        unique_sets: list[tuple[int, ...]] = []
        unique_slot: dict[tuple[int, ...], int] = {}
        model_rows: list[int] = []
        model_slots: list[int] = []
        for row, canonical in enumerate(canonicals):
            if predicate.kind == "subset":
                # Router-level overrides are recorded subset counts.
                exact = self.auxiliary.get(canonical)
                if exact is not None:
                    out[row] = float(exact)
                    continue
            if not canonical:
                out[row] = float(predicate.empty_query_count(self.plan.num_sets))
                continue
            slot = unique_slot.get(canonical)
            if slot is None:
                slot = unique_slot[canonical] = len(unique_sets)
                unique_sets.append(canonical)
            model_rows.append(row)
            model_slots.append(slot)
        if unique_sets:
            totals = np.zeros(len(unique_sets), dtype=np.float64)
            with get_tracer().span(
                "shard_fanout", kind="cardinality",
                shards=len(self.parts), queries=len(unique_sets),
            ) as span:
                shard_calls = 0
                for shard_id, part in enumerate(self.parts):
                    rows = [
                        slot
                        for slot, canonical in enumerate(unique_sets)
                        if self._shard_can_match(shard_id, canonical, predicate)
                    ]
                    if not rows:
                        continue
                    shard_queries = [unique_sets[slot] for slot in rows]
                    if predicate.kind != "subset":
                        # Elements above the shard ceiling never occur in
                        # the shard, so they cannot change any intersection
                        # there; dropping them keeps the member model inside
                        # its per-shard embedding universe.  The skip rule
                        # guarantees at least one element survives.
                        ceiling = self._ceilings[shard_id]
                        shard_queries = [
                            tuple(e for e in q if e <= ceiling)
                            for q in shard_queries
                        ]
                    if predicate.kind == "subset" and not getattr(
                        part, "supports_predicates", False
                    ):
                        raw = part.estimate_many(shard_queries)
                    else:
                        raw = part.estimate_many(shard_queries, predicate=predicate)
                    totals[rows] += np.asarray(raw, dtype=np.float64)
                    shard_calls += 1
                span["attrs"]["shard_calls"] = shard_calls
            self._record_fanout(len(unique_sets), shard_calls)
            out[model_rows] = totals[model_slots]
        return out

    def estimate_many_keyed(
        self, items: Sequence[tuple[str, Iterable[int]]]
    ) -> np.ndarray:
        """Mixed ``(predicate_spec, query)`` batch: one fan-out per predicate."""
        out = np.empty(len(items), dtype=np.float64)
        groups: dict[str, tuple[list[int], list]] = {}
        for row, (spec, query) in enumerate(items):
            spec = as_predicate(spec).spec
            rows, group_queries = groups.setdefault(spec, ([], []))
            rows.append(row)
            group_queries.append(query)
        for spec, (rows, group_queries) in groups.items():
            out[rows] = self.estimate_many(group_queries, predicate=spec)
        return out

    def record_update(self, subset: Iterable[int], cardinality: int) -> None:
        """Record a post-training global cardinality for ``subset``.

        Global counts are not decomposable onto shards, so the override
        lives at the router (consulted before any fan-out), exactly like
        the unsharded estimator's auxiliary map.
        """
        if cardinality < 0:
            raise ValueError("cardinality cannot be negative")
        canonical = _canonical(subset)
        self.auxiliary[canonical] = int(cardinality)
        self._notify_update(canonical)


class ShardedSetIndex(_ShardedBase):
    """Global first position: first shard (in plan order) with a hit.

    Shards are contiguous, so positions in shard ``i`` all precede
    positions in shard ``i+1``; scanning shards in order with early exit
    therefore yields the *exact* global first position — provided each
    shard answers exhaustively within itself, which is why per-shard
    lookups always run with their fallback scan enabled regardless of the
    router-level ``fallback_scan`` flag (a shard-local window miss must
    not leak a later shard's position as the global minimum).
    """

    kind = "index"

    def __init__(self, plan: ShardPlan, parts: Sequence[Any]):
        super().__init__(plan, parts)
        self.auxiliary: dict[tuple[int, ...], int] = {}

    def lookup(self, query: Iterable[int], fallback_scan: bool = True) -> int | None:
        return self.lookup_many([query], fallback_scan)[0]

    def lookup_many(
        self, queries: Sequence[Iterable[int]], fallback_scan: bool = True
    ) -> list[int | None]:
        """Vectorized lookups: per-shard batched fan-out with early exit.

        ``fallback_scan`` is accepted for signature compatibility with the
        unsharded index; per-shard searches are always exhaustive (see the
        class docstring), so it does not change answers.
        """
        canonicals = [_canonical(q) for q in queries]
        results: list[int | None] = [None] * len(canonicals)
        pending: dict[tuple[int, ...], list[int]] = {}
        for row, canonical in enumerate(canonicals):
            exact = self.auxiliary.get(canonical)
            if exact is not None:
                results[row] = exact
                continue
            if not canonical:
                # The empty set is contained in every set: first position 0.
                results[row] = 0 if self.plan.num_sets else None
                continue
            pending.setdefault(canonical, []).append(row)
        routed = len(pending)
        with get_tracer().span(
            "shard_fanout", kind="index",
            shards=len(self.parts), queries=routed,
        ) as span:
            shard_calls = 0
            for shard_id, part in enumerate(self.parts):
                if not pending:
                    break
                shard_queries = [
                    canonical
                    for canonical in pending
                    if self._shard_can_match(shard_id, canonical)
                ]
                if not shard_queries:
                    continue
                found = part.lookup_many(shard_queries)
                shard_calls += 1
                offset = self.plan[shard_id].offset
                for canonical, local in zip(shard_queries, found):
                    if local is None:
                        continue
                    for row in pending.pop(canonical):
                        results[row] = int(local) + offset
            span["attrs"]["shard_calls"] = shard_calls
        self._record_fanout(routed, shard_calls)
        return results

    def insert_update(self, subset: Iterable[int], new_position: int) -> None:
        """Record a post-training global position for ``subset``.

        Stored at the router (consulted before the fan-out): a global
        position belongs to no single shard's local coordinate space.
        """
        canonical = _canonical(subset)
        self.auxiliary[canonical] = int(new_position)
        self._notify_update(canonical)

    @property
    def stats(self):
        """Aggregate per-shard lookup telemetry (sum of part counters)."""
        from ..core.index import LookupStats

        total = LookupStats()
        for part in self.parts:
            part_stats = getattr(part, "stats", None)
            inner = getattr(part, "index", None)
            if part_stats is None and inner is not None:
                part_stats = getattr(inner, "stats", None)
            if part_stats is None:
                continue
            total.lookups += part_stats.lookups
            total.auxiliary_hits += part_stats.auxiliary_hits
            total.sets_scanned += part_stats.sets_scanned
            total.not_found += part_stats.not_found
        return total


class _BackupUnion:
    """Read-only OR-view over the shards' backup filters (+ router inserts).

    Quacks like :class:`BloomFilter` for the one method consumers use
    (``contains_set``), so guarded facades and the serving layer treat a
    sharded membership structure exactly like an unsharded one.
    """

    def __init__(self, filters: Sequence[Any]):
        self._filters = list(filters)

    def contains_set(self, elements) -> bool:
        return any(f.contains_set(elements) for f in self._filters)

    def size_bytes(self) -> int:
        return sum(f.size_bytes() for f in self._filters)


class ShardedBloomFilter(_ShardedBase):
    """OR across per-shard membership answers.

    A subset is stored in the collection iff it is stored in some shard,
    and each per-shard filter admits no false negatives over its shard's
    indexed universe — so the OR admits no false negatives globally.
    False positives remain one-sided, as for any Bloom filter.
    """

    kind = "bloom"

    def __init__(self, plan: ShardPlan, parts: Sequence[Any]):
        super().__init__(plan, parts)
        self._inserted: BloomFilter | None = None

    def contains(self, query: Iterable[int]) -> bool:
        return bool(self.contains_many([query])[0])

    def __contains__(self, query: Iterable[int]) -> bool:
        return self.contains(query)

    def contains_many(self, queries: Sequence[Iterable[int]]) -> np.ndarray:
        """Vectorized membership: per-shard batched fan-out, early exit on hit."""
        canonicals = [_canonical(q) for q in queries]
        answers = np.zeros(len(canonicals), dtype=bool)
        pending: dict[tuple[int, ...], list[int]] = {}
        for row, canonical in enumerate(canonicals):
            if not canonical:
                # Vacuous truth: the empty set is in every stored set.
                answers[row] = self.plan.num_sets > 0
                continue
            if self._inserted is not None and self._inserted.contains_set(
                set(canonical)
            ):
                answers[row] = True
                continue
            pending.setdefault(canonical, []).append(row)
        routed = len(pending)
        with get_tracer().span(
            "shard_fanout", kind="bloom",
            shards=len(self.parts), queries=routed,
        ) as span:
            shard_calls = 0
            for shard_id, part in enumerate(self.parts):
                if not pending:
                    break
                shard_queries = [
                    canonical
                    for canonical in pending
                    if self._shard_can_match(shard_id, canonical)
                ]
                if not shard_queries:
                    continue
                found = part.contains_many(shard_queries)
                shard_calls += 1
                for canonical, hit in zip(shard_queries, found):
                    if not hit:
                        continue
                    for row in pending.pop(canonical):
                        answers[row] = True
            span["attrs"]["shard_calls"] = shard_calls
        self._record_fanout(routed, shard_calls)
        return answers

    def insert(self, subset: Iterable[int], expected_inserts: int = 1024) -> None:
        """Index a new subset without retraining any shard.

        Inserts land in a router-level Bloom filter (created lazily), the
        same degradation path the unsharded filter uses — the no-false-
        negative guarantee extends to inserted subsets immediately.
        """
        if self._inserted is None:
            self._inserted = BloomFilter(capacity=expected_inserts, fp_rate=0.01)
        self._inserted.add_set(set(subset))
        self._notify_update(_canonical(subset))

    @property
    def backup(self):
        """Union view over shard backups and router inserts (or ``None``).

        Mirrors ``LearnedBloomFilter.backup`` so guarded facades and the
        serving layer's shed path consult post-training inserts through
        the same attribute.
        """
        filters = []
        for part in self.parts:
            inner = getattr(part, "filter", part)
            part_backup = getattr(inner, "backup", None)
            if part_backup is not None:
                filters.append(part_backup)
        if self._inserted is not None:
            filters.append(self._inserted)
        return _BackupUnion(filters) if filters else None
