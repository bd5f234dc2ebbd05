"""Seeded input generators.  ``--seed`` reaches this file and no other.

The program under test receives only what these functions return — query
tuples, update values, an order — never the seed.  Every stream carries a
hash of its exact content so two runs can prove they served the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b
from typing import Sequence

import numpy as np

Query = tuple[int, ...]

#: Draws per stream.  A window that outlasts a stream cycles it.
STREAM_LEN = 200_000


@dataclass
class Stream:
    """``order`` indexes into ``keys``; the i-th request is ``keys[order[i]]``."""

    keys: list[Query]
    order: np.ndarray
    digest: str


def _digest(keys: Sequence[Query], *arrays: np.ndarray) -> str:
    h = blake2b(digest_size=8)
    h.update(repr(list(keys)).encode())
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def _stream(keys: list[Query], order: np.ndarray) -> Stream:
    return Stream(keys, order, _digest(keys, order))


def _pick(rng: np.random.Generator, pool: Sequence[Query], count: int) -> list[Query]:
    chosen = rng.choice(len(pool), size=min(count, len(pool)), replace=False)
    return [pool[i] for i in chosen]


def absent_combos(
    rng: np.random.Generator, fixture, count: int, oov_share: float = 0.25
) -> list[Query]:
    """Element combinations no stored set contains; a share uses unknown ids."""
    truth = fixture.truth
    top = fixture.collection.max_element_id()
    out: set[Query] = set()
    while len(out) < count:
        size = int(rng.integers(2, 5))
        combo = set(rng.integers(0, top + 1, size=size).tolist())
        if rng.random() < oov_share:
            combo.add(top + 1 + int(rng.integers(0, 1000)))
        query = tuple(sorted(combo))
        if len(query) >= 2 and not truth.contains(query):
            out.add(query)
    return sorted(out)


def direct_serial(seed: int, fixture, distinct: int = 6000,
                  key_seed: int | None = None) -> dict[str, Stream]:
    """Per structure: ``distinct`` trained subsets plus 10 % absent/OOV combos.

    Keys come from each structure's own trained universe: the paper's
    guarantees (first position inside the local window, no false negative)
    are stated for trained subsets, and at 20 000 sampled pairs an unsampled
    subset can legitimately resolve to a later position.  With ``key_seed``
    the key set is that fixed slice and only the order follows ``seed``, so a
    median over the slice does not move with the sample of keys.
    """
    rng = np.random.default_rng([seed, 1])
    key_rng = rng if key_seed is None else np.random.default_rng(key_seed)
    absent = absent_combos(key_rng, fixture, distinct // 10)
    pools = {
        "card": fixture.card_pairs[0],
        "index": fixture.index_pairs[0],
        "bloom": fixture.bf.trained_positives,
    }
    streams = {}
    for name, pool in pools.items():
        keys = _pick(key_rng, pool, distinct) + absent
        streams[name] = _stream(keys, rng.permutation(len(keys)))
    return streams


def wire_closed(seed: int, fixture, connections: int = 2) -> list[Stream]:
    """Uniform draws over the whole trained universe (~20x the server cache)."""
    keys = list(fixture.card_pairs[0])
    return [
        _stream(keys, np.random.default_rng([seed, 2, c]).integers(
            0, len(keys), size=STREAM_LEN))
        for c in range(connections)
    ]


def pool_burst(seed: int, fixture, threads: int = 2, distinct: int = 2000) -> list[Stream]:
    """Zipf(1.1) over ``distinct`` keys, which fit the per-worker caches.

    The key set and its popularity ranking are fixed; the seed drives the
    draws.  Which worker the consistent-hash ring hands the few hottest keys
    decides the pool's balance, so a ranking that changed with the seed would
    measure a different balance on every run.
    """
    keys = _pick(np.random.default_rng(96), fixture.card_pairs[0], distinct)
    weights = 1.0 / np.arange(1, len(keys) + 1) ** 1.1
    weights /= weights.sum()
    return [
        _stream(keys, np.random.default_rng([seed, 3, t]).choice(
            len(keys), size=STREAM_LEN, p=weights))
        for t in range(threads)
    ]


@dataclass
class MixedStream:
    """Reads (``Stream``) plus the keys and values of the interleaved updates."""

    reads: Stream
    update_keys: list[Query]
    update_values: np.ndarray
    digest: str


def refresh_mixed(seed: int, fixture, hot: int = 64, updates: int = 4000) -> MixedStream:
    """Uniform reads with 10 % hot repeats; update keys disjoint from read keys.

    Updated keys are never read except for their own read-back, so every
    other answer stays checkable against a generation's direct estimate.
    """
    rng = np.random.default_rng([seed, 4])
    pool = list(fixture.card_pairs[0])
    update_at = set(rng.choice(len(pool), size=min(updates, len(pool) // 5),
                               replace=False).tolist())
    keys = [q for i, q in enumerate(pool) if i not in update_at]
    update_keys = [pool[i] for i in sorted(update_at)]
    order = rng.integers(0, len(keys), size=STREAM_LEN)
    hot_keys = rng.choice(len(keys), size=min(hot, len(keys)), replace=False)
    repeat = rng.random(STREAM_LEN) < 0.10
    order[repeat] = hot_keys[rng.integers(0, len(hot_keys), size=int(repeat.sum()))]
    values = rng.integers(1, 1000, size=len(update_keys))
    reads = _stream(keys, order)
    return MixedStream(
        reads, update_keys, values,
        _digest(update_keys, values, order),
    )
