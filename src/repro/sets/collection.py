"""The ordered collection of sets ``S = [X_1, ..., X_N]`` (paper §1.1).

The collection preserves insertion order (the paper stresses that sets are
stored in an *arbitrary, unsortable* order — that is what makes the learned
index hard), may contain duplicate sets, and each set holds distinct
elements.  Sets are stored as sorted int tuples: hashable, compact, and the
sorted order is an internal canonical form only — models never rely on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .vocab import Vocabulary

__all__ = ["SetCollection", "CollectionStats"]


@dataclass(frozen=True)
class CollectionStats:
    """The Table 2 row for one dataset."""

    num_sets: int
    num_unique_elements: int
    max_cardinality: int
    min_set_size: int
    max_set_size: int

    def as_row(self) -> dict[str, int]:
        return {
            "n": self.num_sets,
            "uniq_elem": self.num_unique_elements,
            "max_card": self.max_cardinality,
            "min_size": self.min_set_size,
            "max_size": self.max_set_size,
        }


class SetCollection:
    """An ordered, duplicable collection of element-id sets.

    Parameters
    ----------
    sets:
        Iterable of iterables of non-negative ints.  Each inner iterable is
        de-duplicated and canonicalized to a sorted tuple.
    vocab:
        Optional :class:`Vocabulary` when the collection was built from
        string tokens; kept so queries can be posed as token sets.
    """

    def __init__(
        self,
        sets: Iterable[Iterable[int]],
        vocab: Vocabulary | None = None,
    ):
        self._sets: list[tuple[int, ...]] = []
        for raw in sets:
            canonical = tuple(sorted(set(int(e) for e in raw)))
            if not canonical:
                raise ValueError("sets must be non-empty")
            if canonical[0] < 0:
                raise ValueError("element ids must be non-negative")
            self._sets.append(canonical)
        self.vocab = vocab

    @classmethod
    def from_token_sets(cls, token_sets: Iterable[Iterable[str]]) -> "SetCollection":
        """Build a collection (and vocabulary) from string-token sets."""
        vocab = Vocabulary()
        encoded = [vocab.add_set(tokens) for tokens in token_sets]
        return cls(encoded, vocab=vocab)

    # -- sequence protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._sets)

    def __getitem__(self, index: int) -> tuple[int, ...]:
        return self._sets[index]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._sets)

    def sets(self) -> Sequence[tuple[int, ...]]:
        """The underlying list (do not mutate)."""
        return self._sets

    # -- 64-bit set signatures -------------------------------------------------

    @staticmethod
    def signature(elements: Iterable[int]) -> np.uint64:
        """Bit ``e & 63`` set for every element ``e``.

        ``A ⊆ B`` implies ``signature(A) & ~signature(B) == 0``, so a
        signature mismatch proves a set cannot contain (or equal) a query.
        """
        bits = 0
        for element in elements:
            bits |= 1 << (int(element) & 63)
        return np.uint64(bits)

    def signatures(self) -> np.ndarray:
        """One ``uint64`` :meth:`signature` per stored set, in order.

        Computed on first use and cached; a read-only summary of the data
        (8 B per set) that is left out of the pickled state.
        """
        cached = getattr(self, "_signatures", None)
        if cached is None:
            sizes = np.fromiter(map(len, self._sets), np.int64, len(self._sets))
            flat = np.fromiter(
                chain.from_iterable(self._sets), np.int64, int(sizes.sum())
            )
            bits = np.left_shift(np.uint64(1), (flat & 63).astype(np.uint64))
            # Sets are non-empty, so every reduceat segment is too.
            starts = np.cumsum(sizes) - sizes
            cached = np.bitwise_or.reduceat(bits, starts) if len(starts) else bits
            cached.flags.writeable = False
            self._signatures = cached
        return cached

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_signatures", None)
        return state

    # -- element facts ---------------------------------------------------------

    def max_element_id(self) -> int:
        """Largest element id present (the compression divisor input)."""
        return max(s[-1] for s in self._sets)

    def element_frequencies(self) -> np.ndarray:
        """``freq[e]`` = number of sets containing element ``e``."""
        freq = np.zeros(self.max_element_id() + 1, dtype=np.int64)
        for s in self._sets:
            freq[list(s)] += 1
        return freq

    def stats(self) -> CollectionStats:
        """Compute the Table 2 statistics for this collection.

        ``max_cardinality`` follows the paper's definition: the largest
        cardinality of any single element, which upper-bounds the
        cardinality of every subset query (§4.2).
        """
        sizes = [len(s) for s in self._sets]
        frequencies = self.element_frequencies()
        return CollectionStats(
            num_sets=len(self._sets),
            num_unique_elements=int((frequencies > 0).sum()),
            max_cardinality=int(frequencies.max()),
            min_set_size=min(sizes),
            max_set_size=max(sizes),
        )

    # -- slow-path exact operations (ground truth; the inverted index in
    # -- :mod:`repro.sets.inverted` provides the fast path) -----------------

    def first_position(self, query: Iterable[int]) -> int | None:
        """First index ``i`` with ``query ⊆ S[i]`` by linear scan."""
        q = frozenset(query)
        for index, candidate in enumerate(self._sets):
            if q.issubset(candidate):
                return index
        return None

    def cardinality(self, query: Iterable[int]) -> int:
        """Number of sets containing ``query`` by linear scan."""
        q = frozenset(query)
        return sum(1 for candidate in self._sets if q.issubset(candidate))

    def contains_subset(self, query: Iterable[int]) -> bool:
        """Whether any stored set contains ``query``."""
        return self.first_position(query) is not None

    # -- persistence -------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write one space-separated id line per set."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in self._sets:
                handle.write(" ".join(map(str, s)))
                handle.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "SetCollection":
        sets = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    sets.append(tuple(int(tok) for tok in line.split()))
        return cls(sets)
