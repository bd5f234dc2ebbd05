"""Raw plan parity: frozen forward vs the autograd forward, per variant.

The float64 plan must track the autograd model to float-noise level
(pooling is re-associated, so bitwise equality is not required); float32
to single-precision noise; int8 within the quantization-grid error.  The
error *contract* — which queries raise, with which message — must be
bit-identical on every variant, or the transparent fallback in the
structures would change behavior under load.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.clsm import CompressedDeepSetsModel
from repro.core.compression import ElementCompressor
from repro.core.deepsets import DeepSetsModel
from repro.infer import DEFAULT_FOLD_LIMIT, InferencePlan, freeze

TOLERANCES = {"float64": 1e-12, "float32": 1e-5, "int8": 0.02}

POOLINGS = ("sum", "mean", "max")


def _queries(vocab: int, rng, count: int = 32, max_size: int = 4):
    out = []
    for _ in range(count):
        size = int(rng.integers(1, max_size + 1))
        out.append(
            tuple(sorted(set(rng.integers(0, vocab, size=size).tolist())))
        )
    return out


def _lsm(pooling: str) -> DeepSetsModel:
    return DeepSetsModel(
        vocab_size=60, embedding_dim=4, phi_hidden=(8,), rho_hidden=(8,),
        pooling=pooling,
    )


#: Largest element id per plan layout: 800 ids fold into one table, while
#: 70 000 decompose to a cap of 70 008 ids, above ``DEFAULT_FOLD_LIMIT``, so
#: those plans keep the per-position sub-tables.
MAX_VALUE = {"folded": 800, "unfolded": 70_000}

#: Layout cases, each id naming the largest fold limit that still yields the
#: layout: a cap of 800 folds under ``DEFAULT_FOLD_LIMIT``, and a limit of 0
#: folds nothing.
LAYOUTS = [
    pytest.param("unfolded", id="0"),
    pytest.param("folded", id=str(DEFAULT_FOLD_LIMIT)),
]


def _clsm(pooling: str, fuse: bool, layout: str = "folded") -> CompressedDeepSetsModel:
    return CompressedDeepSetsModel(
        ElementCompressor(max_value=MAX_VALUE[layout], divisor=8),
        embedding_dim=4, phi_hidden=(8,), rho_hidden=(8,), pooling=pooling,
        fuse_subelements=fuse,
    )


class TestNumericParity:
    @pytest.mark.parametrize("pooling", POOLINGS)
    def test_lsm_all_variants(self, pooling):
        model = _lsm(pooling)
        queries = _queries(60, np.random.default_rng(1))
        reference = model.predict(queries)
        for name, plan in freeze(model).items():
            delta = np.max(np.abs(plan(queries) - reference))
            assert delta <= TOLERANCES[name], f"{name} off by {delta}"

    @pytest.mark.parametrize("pooling", POOLINGS)
    @pytest.mark.parametrize("fuse", [True, False])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_clsm_all_variants(self, pooling, fuse, layout):
        model = _clsm(pooling, fuse, layout)
        queries = _queries(MAX_VALUE[layout], np.random.default_rng(2))
        reference = model.predict(queries)
        plans = freeze(model)
        assert plans["float64"].meta["folded"] is (layout == "folded")
        for name, plan in plans.items():
            delta = np.max(np.abs(plan(queries) - reference))
            assert delta <= TOLERANCES[name], f"{name} off by {delta}"

    def test_large_sets_take_the_reduceat_path(self):
        # Sets wider than the padded-pool fanout cap exercise the fallback.
        model = _lsm("sum")
        rng = np.random.default_rng(3)
        queries = [
            tuple(int(v) for v in rng.integers(0, 60, size=30))
            for _ in range(8)
        ]
        assert max(map(len, queries)) > InferencePlan._PAD_POOL_MAX_LEN
        reference = model.predict(queries)
        plan = freeze(model, dtypes=("float64",))["float64"]
        np.testing.assert_allclose(plan(queries), reference, atol=1e-12)

    def test_generators_and_sets_are_accepted(self):
        model = _lsm("sum")
        plan = freeze(model, dtypes=("float64",))["float64"]
        from_tuples = plan([(1, 2), (3,)])
        from_sets = plan([{1, 2}, {3}])
        from_generators = plan(iter([iter((1, 2)), iter((3,))]))
        np.testing.assert_array_equal(from_tuples, from_sets)
        np.testing.assert_array_equal(from_tuples, from_generators)

    def test_forward_flat_matches_call(self):
        model = _lsm("mean")
        plan = freeze(model, dtypes=("float64",))["float64"]
        queries = [(1, 2, 3), (4,), (5, 6)]
        elements = np.asarray([1, 2, 3, 4, 5, 6], dtype=np.int64)
        segment_ids = np.asarray([0, 0, 0, 1, 2, 2], dtype=np.int64)
        np.testing.assert_array_equal(
            plan.forward_flat(elements, segment_ids, 3), plan(queries)
        )


class TestErrorContract:
    @pytest.mark.parametrize("bad", [[()], [(1,), ()], [set(), (1,)]])
    def test_empty_sets_raise_like_autograd(self, bad):
        plan = freeze(_lsm("sum"), dtypes=("float64",))["float64"]
        with pytest.raises(ValueError, match="sets must be non-empty"):
            plan(bad)

    @pytest.mark.parametrize("bad", [1_000_000, -3])
    def test_lsm_oov_message_matches_autograd(self, bad):
        model = _lsm("sum")
        plan = freeze(model, dtypes=("float64",))["float64"]
        with pytest.raises(IndexError) as autograd_error:
            model.predict([(5, bad)])
        with pytest.raises(IndexError) as plan_error:
            plan([(5, bad)])
        assert str(plan_error.value) == str(autograd_error.value)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("bad", [1_000_000, -3])
    def test_clsm_oov_message_matches_autograd(self, layout, bad):
        model = _clsm("sum", True, layout)
        plan = freeze(model, dtypes=("float64",))["float64"]
        with pytest.raises(IndexError) as autograd_error:
            model.predict([(5, bad)])
        with pytest.raises(IndexError) as plan_error:
            plan([(5, bad)])
        assert str(plan_error.value) == str(autograd_error.value)

    def test_clsm_overflow_acceptance_matches_autograd(self):
        """Ids above max_value but inside the decomposition cap are accepted
        by the autograd model (the quotient row exists); the plan must
        accept exactly the same id range, not the advertised max_value."""
        model = _clsm("sum", True)
        cap = model.compressor.divisor ** (model.compressor.ns - 1)
        cap *= model.compressor.vocab_sizes()[-1]
        plan = freeze(model, dtypes=("float64",))["float64"]
        assert plan.vocab_size == cap
        edge = cap - 1
        np.testing.assert_allclose(
            plan([(edge,)]), model.predict([(edge,)]), atol=1e-12
        )
        with pytest.raises(IndexError):
            model.predict([(cap,)])
        with pytest.raises(IndexError):
            plan([(cap,)])


class TestStalenessAndRouting:
    def test_matches_tracks_weight_version(self):
        model = _lsm("sum")
        plan = freeze(model, dtypes=("float64",))["float64"]
        assert plan.matches(model)
        model.bump_weights_version()
        assert not plan.matches(model)

    def test_predict_scaled_falls_back_when_stale(self):
        model = _lsm("sum")
        plan = freeze(model, dtypes=("float64",))["float64"]
        assert plan.predict_scaled(model, [(1, 2)]) is not None
        assert plan.hits == 1
        model.bump_weights_version()
        assert plan.predict_scaled(model, [(1, 2)]) is None
        assert plan.fallbacks == 1

    def test_matches_rejects_a_different_architecture(self):
        plan = freeze(_lsm("sum"), dtypes=("float64",))["float64"]
        other = DeepSetsModel(
            vocab_size=60, embedding_dim=3, phi_hidden=(8,), rho_hidden=(8,)
        )
        assert not plan.matches(other)


class TestSerialization:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_to_from_arrays_roundtrip(self, layout):
        model = _clsm("mean", True, layout)
        queries = _queries(MAX_VALUE[layout], np.random.default_rng(4))
        for name, plan in freeze(model).items():
            clone = InferencePlan.from_arrays(plan.to_arrays())
            np.testing.assert_array_equal(clone(queries), plan(queries))
            assert clone.matches(model) == plan.matches(model)

    def test_pickle_roundtrip_drops_locks_but_keeps_math(self):
        model = _lsm("sum")
        plan = freeze(model, dtypes=("float32",))["float32"]
        queries = _queries(60, np.random.default_rng(5))
        clone = pickle.loads(pickle.dumps(plan))
        np.testing.assert_array_equal(clone(queries), plan(queries))
        clone.record_hit()  # fresh lock works
        assert clone.hits == plan.hits + 1

    def test_concurrent_callers_get_private_scratch(self):
        import threading

        model = _lsm("sum")
        plan = freeze(model, dtypes=("float64",))["float64"]
        queries = _queries(60, np.random.default_rng(6), count=64)
        reference = plan(queries)
        failures = []

        def worker():
            for _ in range(20):
                if not np.array_equal(plan(queries), reference):
                    failures.append("diverged")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
