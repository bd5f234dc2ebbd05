"""Learned set index (paper §4.1 and §6, evaluated in §8.3).

Maps a query subset to the *first* position in the (unordered!) collection
whose set contains it.  Because no sort order exists, a plain regression
model produces large errors; the production configuration is the hybrid:

1. guided training evicts hard subsets into an exact auxiliary map;
2. per-range **local error bounds** (Algorithm 2) confine the sequential
   search around the predicted position;
3. the search scans ``[est - e_r, est + e_r]`` left to right and returns
   the first set containing the query; a 64-bit signature per stored set
   (:meth:`SetCollection.signatures`) masks the window in one numpy step so
   only sets that may contain the query are verified.

For subsets seen during training this is exact: either the auxiliary holds
them, or their true position is within the recorded bound of their
prediction by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..nn.data import RaggedArray
from ..nn.serialize import pickled_size_bytes, state_dict_bytes
from ..reliability.faults import corrupt_prediction, corrupt_predictions
from ..sets.collection import SetCollection
from ..sets.subsets import index_training_pairs
from .config import ModelConfig
from .hooks import UpdateNotifier
from .hybrid import LocalErrorBounds, OutlierRemovalConfig, guided_fit
from .scaling import LogMinMaxScaler
from .training import TrainConfig

__all__ = ["LearnedSetIndex", "LookupStats"]


@dataclass
class LookupStats:
    """Aggregate search-cost telemetry (Table 8's local-vs-global story)."""

    lookups: int = 0
    auxiliary_hits: int = 0
    sets_scanned: int = 0
    not_found: int = 0

    @property
    def mean_scan_length(self) -> float:
        model_lookups = self.lookups - self.auxiliary_hits
        return self.sets_scanned / model_lookups if model_lookups else 0.0


@dataclass
class _BuildReport:
    num_training_subsets: int = 0
    num_outliers: int = 0
    seconds_per_epoch: float = 0.0
    total_seconds: float = 0.0
    final_loss: float = field(default=float("nan"))


class LearnedSetIndex(UpdateNotifier):
    """Hybrid learned index over an unordered collection of sets."""

    def __init__(
        self,
        collection: SetCollection,
        model,
        scaler: LogMinMaxScaler,
        bounds: LocalErrorBounds,
        use_local_errors: bool = True,
    ):
        self.collection = collection
        self.model = model
        self.scaler = scaler
        self.bounds = bounds
        self.use_local_errors = use_local_errors
        self.auxiliary: dict[tuple[int, ...], int] = {}
        self.stats = LookupStats()
        self.report = _BuildReport()
        self.infer_plan = None

    # -- compiled inference ----------------------------------------------------

    def attach_plan(self, plan) -> None:
        """Serve position estimates through a frozen plan (None detaches)."""
        self.infer_plan = plan

    def detach_plan(self) -> None:
        """Drop the attached plan; queries return to the autograd path."""
        self.infer_plan = None

    def _predict_scaled(self, sets) -> np.ndarray:
        plan = self.infer_plan
        if plan is not None:
            scaled = plan.predict_scaled(self.model, sets)
            if scaled is not None:
                return scaled
        return self.model.predict(sets)

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        collection: SetCollection,
        model_config: ModelConfig | None = None,
        train_config: TrainConfig | None = None,
        removal: OutlierRemovalConfig | None = None,
        max_subset_size: int | None = 6,
        max_training_samples: int | None = None,
        error_range_length: int = 100,
        use_local_errors: bool = True,
        rng: np.random.Generator | None = None,
        training_pairs: tuple[Sequence[tuple[int, ...]], np.ndarray] | None = None,
        sample_weights: np.ndarray | None = None,
    ) -> "LearnedSetIndex":
        """Train the index over all (capped) subsets of ``collection``.

        The paper generates *all* subsets for the index task to guarantee
        every query is findable; ``max_training_samples`` exists for
        scaled-down experiments, at the cost of that guarantee for
        unsampled subsets (lookups then fall back to a full scan).
        ``training_pairs`` reuses a pre-enumerated ``(subsets, positions)``
        corpus; ``sample_weights`` (aligned with it) weight the training
        loss per sample for the workload-adaptive refresh path.
        """
        model_config = model_config or ModelConfig()
        train_config = train_config or TrainConfig()
        rng = rng or np.random.default_rng(train_config.seed)
        if training_pairs is not None:
            subsets, positions = training_pairs
        else:
            subsets, positions = index_training_pairs(
                collection,
                max_subset_size=max_subset_size,
                max_samples=max_training_samples,
                rng=rng,
            )
        scaler = LogMinMaxScaler.for_positions(len(collection))
        model = model_config.build(collection.max_element_id())
        ragged = RaggedArray(subsets)
        result = guided_fit(
            model,
            ragged,
            positions.astype(np.float64),
            scaler,
            train_config,
            removal=removal,
            rng=rng,
            sample_weights=sample_weights,
        )
        # Error bounds cover the *retained* (non-outlier) subsets: outliers
        # are answered exactly by the auxiliary map and must not inflate
        # anyone else's search window.
        retained = np.setdiff1d(
            np.arange(len(subsets)), result.outlier_indices, assume_unique=True
        )
        bounds = LocalErrorBounds(
            estimates=result.final_predictions[retained],
            truths=positions[retained].astype(np.float64),
            range_length=error_range_length,
            min_value=0.0,
            max_value=float(len(collection) - 1),
        )
        index = cls(collection, model, scaler, bounds, use_local_errors)
        for row in result.outlier_indices:
            index.auxiliary[tuple(subsets[row])] = int(positions[row])
        index.report = _BuildReport(
            num_training_subsets=len(subsets),
            num_outliers=result.num_outliers,
            seconds_per_epoch=result.history.seconds_per_epoch,
            total_seconds=result.history.total_seconds,
            final_loss=result.history.final_loss,
        )
        return index

    # -- queries --------------------------------------------------------------

    def max_known_id(self) -> int:
        """Largest element id the model can embed (the trained universe)."""
        if hasattr(self.model, "vocab_size"):
            return self.model.vocab_size - 1
        return self.model.compressor.max_value

    def predict_position(self, query: Iterable[int]) -> float:
        """Raw model estimate of the first position (no search)."""
        canonical = tuple(sorted(set(query)))
        scaled = corrupt_prediction(float(self._predict_scaled([canonical])[0]))
        return float(self.scaler.inverse(np.asarray([scaled]))[0])

    def predict_positions(self, queries: Sequence[Iterable[int]]) -> np.ndarray:
        """Vectorized raw position estimates (no search).

        Duplicate queries are collapsed to their unique canonical forms
        before the forward pass and scattered back, mirroring
        :meth:`LearnedCardinalityEstimator.estimate_many`.
        """
        canonicals = [tuple(sorted(set(q))) for q in queries]
        unique_sets: list[tuple[int, ...]] = []
        unique_slot: dict[tuple[int, ...], int] = {}
        slots = np.empty(len(canonicals), dtype=np.int64)
        for row, canonical in enumerate(canonicals):
            slot = unique_slot.get(canonical)
            if slot is None:
                slot = unique_slot[canonical] = len(unique_sets)
                unique_sets.append(canonical)
            slots[row] = slot
        if not unique_sets:
            return np.empty(0, dtype=np.float64)
        scaled = corrupt_predictions(self._predict_scaled(unique_sets))
        return self.scaler.inverse(scaled)[slots]

    def lookup(self, query: Iterable[int], fallback_scan: bool = True) -> int | None:
        """First position ``i`` with ``query ⊆ S[i]`` (Algorithm 2).

        ``fallback_scan`` controls behaviour for queries outside the
        trained/bounded universe: scan the whole collection (exact, slow)
        or return ``None``.
        """
        canonical = tuple(sorted(set(query)))
        self.stats.lookups += 1
        exact = self.auxiliary.get(canonical)
        if exact is not None:
            self.stats.auxiliary_hits += 1
            return exact
        estimate = self.predict_position(canonical)
        return self._search_from_estimate(canonical, estimate, fallback_scan)

    def lookup_with_estimate(
        self, query: Iterable[int], estimate: float, fallback_scan: bool = True
    ) -> int | None:
        """Bounded search around a pre-computed position ``estimate``.

        The batched serving path predicts positions for a whole batch in
        one forward pass (:meth:`predict_positions`) and then resolves each
        query through this method, which performs exactly the search half
        of :meth:`lookup` (auxiliary check included, telemetry counted).
        """
        canonical = tuple(sorted(set(query)))
        self.stats.lookups += 1
        exact = self.auxiliary.get(canonical)
        if exact is not None:
            self.stats.auxiliary_hits += 1
            return exact
        return self._search_from_estimate(canonical, estimate, fallback_scan)

    def lookup_many(
        self, queries: Sequence[Iterable[int]], fallback_scan: bool = True
    ) -> list[int | None]:
        """Vectorized :meth:`lookup`: one model call, per-query search.

        Agrees elementwise with ``[self.lookup(q) for q in queries]`` and
        maintains the same :class:`LookupStats` telemetry.
        """
        canonicals = [tuple(sorted(set(q))) for q in queries]
        results: list[int | None] = [None] * len(canonicals)
        model_rows: list[int] = []
        for row, canonical in enumerate(canonicals):
            self.stats.lookups += 1
            exact = self.auxiliary.get(canonical)
            if exact is not None:
                self.stats.auxiliary_hits += 1
                results[row] = exact
            else:
                model_rows.append(row)
        if model_rows:
            estimates = self.predict_positions([canonicals[r] for r in model_rows])
            for row, estimate in zip(model_rows, estimates):
                results[row] = self._search_from_estimate(
                    canonicals[row], float(estimate), fallback_scan
                )
        return results

    def _window(self, estimate: float) -> tuple[int, int, float] | None:
        """Algorithm 2's search window ``(low, high, radius)`` around ``estimate``.

        ``[low, high]`` is ``[est - e_r, est + e_r]`` rounded outward and
        clipped to the collection.  A non-finite estimate (e.g. an injected
        NaN) has no meaningful window and yields ``None``.
        """
        if not np.isfinite(estimate):
            return None
        radius = (
            self.bounds.bound(estimate)
            if self.use_local_errors
            else self.bounds.global_error
        )
        low = max(int(np.floor(estimate - radius)), 0)
        high = min(int(np.ceil(estimate + radius)), len(self.collection) - 1)
        return low, high, radius

    def _search_from_estimate(
        self, canonical: tuple[int, ...], estimate: float, fallback_scan: bool
    ) -> int | None:
        """Window scan around ``estimate`` plus the optional full rescan.

        A non-finite estimate degrades to the fallback scan (or a miss),
        never to an ``IndexError``.
        """
        window = self._window(estimate)
        if window is not None:
            found = self._scan(canonical, window[0], window[1])
            if found is not None:
                return found
        if fallback_scan:
            found = self._scan(canonical, 0, len(self.collection) - 1)
            if found is not None:
                return found
        self.stats.not_found += 1
        return None

    def _scan(self, query: tuple[int, ...], low: int, high: int) -> int | None:
        """First position in ``collection[low..high]`` whose set contains ``query``.

        A signature mask over the window keeps only the sets that *may*
        contain the query; those are verified left to right.  Telemetry
        counts what the sequential scan would have read: ``offset + 1`` on
        a hit, the window length on a miss.
        """
        if high < low:
            return None
        qsig = SetCollection.signature(query)
        window = self.collection.signatures()[low : high + 1]
        q = frozenset(query)
        sets = self.collection.sets()
        for offset in np.flatnonzero((window & qsig) == qsig).tolist():
            if q.issubset(sets[low + offset]):
                self.stats.sets_scanned += offset + 1
                return low + offset
        self.stats.sets_scanned += high - low + 1
        return None

    def _scan_equal(
        self, canonical: tuple[int, ...], low: int, high: int
    ) -> int | None:
        """First position in ``collection[low..high]`` equal to ``canonical``."""
        if high < low:
            return None
        window = self.collection.signatures()[low : high + 1]
        sets = self.collection.sets()
        candidates = np.flatnonzero(window == SetCollection.signature(canonical))
        for offset in candidates.tolist():
            if sets[low + offset] == canonical:
                return low + offset
        return None

    def lookup_equal(self, query: Iterable[int], fallback_scan: bool = True) -> int | None:
        """First position whose stored set *equals* ``query`` (equality mode).

        Degrades like :meth:`lookup`: a non-finite estimate skips the window
        and goes straight to the fallback scan (or a miss).
        """
        canonical = tuple(sorted(set(query)))
        exact = self.auxiliary.get(canonical)
        if exact is not None and self.collection[exact] == canonical:
            return exact
        window = self._window(self.predict_position(canonical))
        if window is not None:
            found = self._scan_equal(canonical, window[0], window[1])
            if found is not None:
                return found
        if fallback_scan:
            return self._scan_equal(canonical, 0, len(self.collection) - 1)
        return None

    # -- updates (paper §7.2) ---------------------------------------------------

    def insert_update(self, subset: Iterable[int], new_position: int) -> None:
        """Record a post-training position change.

        If the new position still falls inside the query-time search window
        nothing needs storing; otherwise — or when the estimate is
        non-finite and there is no window — the subset joins the auxiliary
        structure, which is consulted before the model (§7.2).  After many
        updates the structure degenerates towards a traditional index —
        callers should rebuild when ``auxiliary_fraction`` grows large.
        """
        canonical = tuple(sorted(set(subset)))
        estimate = self.predict_position(canonical)
        window = self._window(estimate)
        if window is None or abs(estimate - new_position) > window[2]:
            self.auxiliary[canonical] = int(new_position)
        self._notify_update(canonical)

    @property
    def auxiliary_fraction(self) -> float:
        trained = max(self.report.num_training_subsets, 1)
        return len(self.auxiliary) / trained

    # -- accounting ------------------------------------------------------------

    def model_bytes(self) -> int:
        """Float32 weight footprint (the Model column of Table 7)."""
        return state_dict_bytes(self.model)

    def auxiliary_bytes(self) -> int:
        """Pickled size of the outlier map (the Aux.Str. column)."""
        return pickled_size_bytes(self.auxiliary) if self.auxiliary else 0

    def error_bytes(self) -> int:
        """Size of the local error-bound list (the Err. column)."""
        return self.bounds.size_bytes()

    def total_bytes(self) -> int:
        """Full hybrid footprint: model + auxiliary + error bounds."""
        return self.model_bytes() + self.auxiliary_bytes() + self.error_bytes()

    def reset_stats(self) -> None:
        """Clear the lookup telemetry counters."""
        self.stats = LookupStats()
