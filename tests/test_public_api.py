"""Public-API surface tests: exports exist, are documented, and cohere."""

from __future__ import annotations

import importlib
import inspect

import pytest

import repro

SUBPACKAGES = (
    "repro.nn",
    "repro.sets",
    "repro.baselines",
    "repro.core",
    "repro.datasets",
    "repro.engine",
    "repro.obs",
    "repro.serve",
    "repro.infer",
    "repro.scenario",
    "repro.bench",
    "repro.maintain",
    "repro.adapt",
    "repro.shard",
    "repro.reliability",
)


class TestExports:
    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_version(self):
        assert repro.__version__


class TestDocumentation:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_every_public_item_documented(self, module_name):
        """Every exported class/function carries a docstring."""
        module = importlib.import_module(module_name)
        undocumented = []
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not inspect.getdoc(obj):
                    undocumented.append(f"{module_name}.{name}")
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_public_classes_have_documented_methods(self):
        """Spot-check the main user-facing classes."""
        from repro import (
            LearnedBloomFilter,
            LearnedCardinalityEstimator,
            LearnedSetIndex,
            SetCollection,
        )

        for cls in (
            SetCollection,
            LearnedCardinalityEstimator,
            LearnedSetIndex,
            LearnedBloomFilter,
        ):
            for name, member in inspect.getmembers(cls, inspect.isfunction):
                if name.startswith("_"):
                    continue
                assert inspect.getdoc(member), f"{cls.__name__}.{name} undocumented"


class TestCrossModuleCoherence:
    def test_quickstart_from_readme(self):
        """The README quickstart snippet runs as written."""
        from repro import InvertedIndex, SetCollection

        collection = SetCollection.from_token_sets(
            [
                ["#pizza", "#dinner", "#foodie"],
                ["#date", "#dinner"],
                ["#pizza", "#dinner", "#date"],
                ["#pizza", "#dinner", "#italian"],
            ]
        )
        query = collection.vocab.encode(["#pizza", "#dinner"])
        assert InvertedIndex(collection).cardinality(query) == 3

    def test_model_config_builds_both_model_classes(self):
        from repro import CompressedDeepSetsModel, DeepSetsModel, ModelConfig

        assert isinstance(ModelConfig(kind="lsm").build(10), DeepSetsModel)
        assert isinstance(ModelConfig(kind="clsm").build(10), CompressedDeepSetsModel)
