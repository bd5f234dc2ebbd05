"""Randomized property suite for CLSM compression (Algorithm 1).

Dependency-free property testing (no hypothesis): each test draws its
cases from a seeded generator and embeds the seed in every assertion
message, so a CI failure is reproducible locally with
``REPRO_TEST_SEED=<seed> pytest tests/core/test_clsm_properties.py``.
The CI ``seeded-parity`` job rotates the seed per run.

Covered properties, per the paper's Section 5 / Algorithm 1:

* decompose/recompose identity for every sampled id, for every
  ``ns in {1, 2, 3, 4}`` and ``max_id in {1, 2, prime, 2**20}``;
* divisor-boundary ids (``sv_d - 1``, ``sv_d``, ``sv_d ** k``) where the
  carry between sub-elements changes shape;
* every sub-element stays inside its declared embedding vocabulary;
* the vectorized ``compress_array`` agrees with the scalar path.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.compression import (
    ElementCompressor,
    compress_element,
    decompress_element,
    optimal_divisor,
)

SEED = int(os.environ.get("REPRO_TEST_SEED", "20260805"))

NS_VALUES = (1, 2, 3, 4)
# 104729 is the 10000th prime: a universe size sharing no factors with any
# small divisor; 2**20 exercises the large-universe carry chains.
MAX_IDS = (1, 2, 104729, 2**20)

SAMPLES_PER_CASE = 250


def _sample_ids(rng: np.random.Generator, max_id: int) -> list[int]:
    """Random ids plus the universe edges (0 and ``max_id`` always)."""
    sampled = rng.integers(0, max_id + 1, size=SAMPLES_PER_CASE)
    return sorted({0, max_id, *(int(e) for e in sampled)})


def _boundary_ids(divisor: int, ns: int, max_id: int) -> list[int]:
    """Ids hugging the divisor boundaries: ``sv_d - 1``, ``sv_d``,
    ``sv_d ** k`` and their neighbours, clipped to the universe."""
    candidates = {divisor - 1, divisor, divisor + 1}
    for k in range(1, ns + 2):
        power = divisor**k
        candidates.update({power - 1, power, power + 1})
    return sorted(c for c in candidates if 0 <= c <= max_id)


@pytest.mark.parametrize("max_id", MAX_IDS)
@pytest.mark.parametrize("ns", NS_VALUES)
def test_roundtrip_identity_sampled(ns: int, max_id: int):
    rng = np.random.default_rng(SEED + ns * 1_000_003 + max_id)
    compressor = ElementCompressor(max_id, ns=ns)
    vocab = compressor.vocab_sizes()
    for element in _sample_ids(rng, max_id):
        parts = compressor.compress(element)
        context = (
            f"seed={SEED} ns={ns} max_id={max_id} "
            f"divisor={compressor.divisor} element={element} parts={parts}"
        )
        assert len(parts) == ns, context
        for position, part in enumerate(parts):
            assert 0 <= part < vocab[position], (
                f"{context}: sub-element {position} escapes its vocabulary "
                f"of {vocab[position]}"
            )
        assert compressor.decompress(parts) == element, context


@pytest.mark.parametrize("max_id", MAX_IDS)
@pytest.mark.parametrize("ns", NS_VALUES)
def test_roundtrip_identity_divisor_boundaries(ns: int, max_id: int):
    compressor = ElementCompressor(max_id, ns=ns)
    for element in _boundary_ids(compressor.divisor, ns, max_id):
        parts = compressor.compress(element)
        context = (
            f"seed={SEED} ns={ns} max_id={max_id} "
            f"divisor={compressor.divisor} boundary element={element}"
        )
        assert compressor.decompress(parts) == element, context


@pytest.mark.parametrize("ns", NS_VALUES)
def test_roundtrip_identity_exhaustive_small_universes(ns: int):
    """Every id of every small universe roundtrips — no sampling gaps."""
    for max_id in range(0, 65):
        compressor = ElementCompressor(max_id, ns=ns)
        for element in range(max_id + 1):
            parts = compressor.compress(element)
            assert compressor.decompress(parts) == element, (
                f"seed={SEED} ns={ns} max_id={max_id} "
                f"divisor={compressor.divisor} element={element}"
            )


@pytest.mark.parametrize("max_id", MAX_IDS)
@pytest.mark.parametrize("ns", NS_VALUES)
def test_compress_array_matches_scalar(ns: int, max_id: int):
    rng = np.random.default_rng(SEED + ns * 7_368_787 + max_id)
    compressor = ElementCompressor(max_id, ns=ns)
    ids = _sample_ids(rng, max_id)
    rows = compressor.compress_array(np.asarray(ids))
    assert rows.shape == (ns, len(ids))
    for column, element in enumerate(ids):
        scalar = compressor.compress(element)
        vectorized = tuple(int(rows[i, column]) for i in range(ns))
        assert vectorized == scalar, (
            f"seed={SEED} ns={ns} max_id={max_id} element={element}: "
            f"array path {vectorized} != scalar path {scalar}"
        )


@pytest.mark.parametrize("ns", NS_VALUES)
def test_optimal_divisor_covers_universe(ns: int):
    """``sv_d ** ns`` reaches ``max_id`` so the final quotient fits its
    declared vocabulary (the float-undershoot guard of optimal_divisor)."""
    rng = np.random.default_rng(SEED + ns)
    universes = {int(m) for m in rng.integers(1, 2**20, size=64)} | set(MAX_IDS)
    for max_id in sorted(universes):
        divisor = optimal_divisor(max_id, ns)
        context = f"seed={SEED} ns={ns} max_id={max_id} divisor={divisor}"
        assert divisor >= 2, context
        if ns > 1:
            assert divisor**ns >= max_id, context
        compressor = ElementCompressor(max_id, ns=ns, divisor=divisor)
        parts = compressor.compress(max_id)
        assert parts[-1] < compressor.vocab_sizes()[-1], context


@pytest.mark.parametrize("max_id", MAX_IDS)
def test_tuned_divisors_stay_lossless(max_id: int):
    """Table 6 tunes ``sv_d`` away from optimal; any divisor >= 2 must
    stay lossless for every ns."""
    rng = np.random.default_rng(SEED + max_id)
    divisors = sorted(
        {2, 3, optimal_divisor(max_id, 2), max(2, max_id), max(2, max_id + 1)}
    )
    for ns in NS_VALUES:
        for divisor in divisors:
            ids = _sample_ids(rng, max_id)[:50]
            for element in ids:
                parts = compress_element(element, divisor, ns)
                assert decompress_element(parts, divisor) == element, (
                    f"seed={SEED} ns={ns} max_id={max_id} "
                    f"divisor={divisor} element={element}"
                )
