"""BENCH_infer — frozen-plan speedup vs the autograd forward.

Times batched inference through the autograd ``model.predict`` path and
through each frozen plan variant on the same query batch, for all three
learned structures, and verifies the variants' gate metrics while at it.
The headline number is the float32-plan speedup at batch >= 256 (ROADMAP
item 1 targets >= 10x); the CI smoke reruns this with a small model and a
relaxed ``min_speedup`` so container jitter cannot flake the build.
"""

from __future__ import annotations

import json
import time
from typing import Sequence

import numpy as np

from ..core.config import ModelConfig
from ..core.recipe import train_structure
from ..core.training import TrainConfig
from ..infer import GateConfig, freeze_structure
from ..sets.collection import SetCollection
from .reporting import print_table, results_dir

__all__ = ["run_infer_bench"]


def _synthetic_collection(num_sets: int, universe: int, seed: int) -> SetCollection:
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(num_sets):
        size = int(rng.integers(2, 7))
        sets.append(tuple(sorted(set(rng.integers(0, universe, size=size).tolist()))))
    return SetCollection(sets)


def _query_batch(universe: int, batch_size: int, seed: int) -> list[tuple[int, ...]]:
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(batch_size):
        size = int(rng.integers(1, 5))
        queries.append(tuple(sorted(set(rng.integers(0, universe, size=size).tolist()))))
    return queries


def _best_ms(fn, repeats: int) -> float:
    """Best-of-N wall clock in milliseconds (robust to scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


def _bench_structure(structure, kind: str, queries, repeats: int,
                     gates: GateConfig) -> dict:
    report = freeze_structure(structure, gates=gates)
    part = report.parts[0]
    plans = part["plans"]
    model = structure.model
    model.predict(queries)  # warm both paths before timing
    autograd_ms = _best_ms(lambda: model.predict(queries), repeats)
    reference = model.predict(queries)
    variants = {}
    for name, plan in sorted(plans.variants.items()):
        plan(queries)
        plan_ms = _best_ms(lambda: plan(queries), repeats)
        variants[name] = {
            "ms": plan_ms,
            "speedup": autograd_ms / plan_ms if plan_ms > 0 else float("inf"),
            "max_abs_delta": float(np.max(np.abs(plan(queries) - reference))),
            "size_bytes": plan.size_bytes(),
            "bits": plan.bits,
            "accepted": True,
            "metrics": part["reports"][name]["metrics"],
        }
    for name, entry in part["reports"].items():
        if name not in variants:
            variants[name] = {
                "accepted": False,
                "reason": entry["reason"],
                "metrics": entry["metrics"],
            }
    return {
        "kind": kind,
        "folded": plans.active_plan.meta.get("folded"),
        "active": plans.active,
        "autograd_ms": autograd_ms,
        "variants": variants,
    }


def run_infer_bench(
    num_sets: int = 400,
    universe: int = 500,
    batch_size: int = 1024,
    repeats: int = 7,
    epochs: int = 3,
    seed: int = 0,
    min_speedup: float = 10.0,
    structures: Sequence[str] = ("cardinality", "index", "bloom"),
    model_config: ModelConfig | None = None,
    write_json: bool = True,
) -> dict:
    """Build, freeze, and time all three structures; returns the report.

    The verdict requires the float32 plan to beat the autograd path by
    ``min_speedup`` on every benchmarked structure AND every published
    variant to sit inside its accuracy gate.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    collection = _synthetic_collection(num_sets, universe, seed)
    queries = _query_batch(universe, batch_size, seed + 1)
    gates = GateConfig(probe_seed=seed)
    # A representative paper config (deep phi, 64-wide MLPs): folding the
    # whole per-element phi stack into the plan table is exactly where the
    # frozen path pulls ahead of the per-layer autograd forward.
    model_config = model_config or ModelConfig(
        embedding_dim=64, phi_hidden=(128, 64), rho_hidden=(64,)
    )
    train = TrainConfig(epochs=epochs, seed=seed)
    results = {}
    for task, max_subset_size in (("cardinality", 3), ("index", 2), ("bloom", 3)):
        if task in structures:
            structure = train_structure(
                task, collection, model_config, train,
                max_subset_size=max_subset_size,
            )
            results[task] = _bench_structure(structure, task, queries, repeats, gates)

    speedups = [
        entry["variants"]["float32"]["speedup"] for entry in results.values()
    ]
    all_accepted = all(
        variant.get("accepted", False)
        for entry in results.values()
        for variant in entry["variants"].values()
    )
    passed = bool(speedups) and min(speedups) >= min_speedup and all_accepted
    report = {
        "bench": "infer",
        "batch_size": batch_size,
        "model_config": {
            "embedding_dim": model_config.embedding_dim,
            "phi_hidden": list(model_config.phi_hidden),
            "rho_hidden": list(model_config.rho_hidden),
        },
        "repeats": repeats,
        "seed": seed,
        "min_speedup": min_speedup,
        "min_float32_speedup": min(speedups) if speedups else 0.0,
        "all_variants_accepted": all_accepted,
        "passed": passed,
        "structures": results,
    }

    rows = []
    for kind, entry in results.items():
        for name, variant in sorted(entry["variants"].items()):
            if not variant.get("accepted"):
                rows.append([kind, name, "-", "-", "rejected"])
                continue
            rows.append([
                kind,
                name,
                variant["ms"],
                variant["speedup"],
                variant["max_abs_delta"],
            ])
        rows.append([kind, "autograd", entry["autograd_ms"], 1.0, 0.0])
    print_table(
        ["structure", "path", "batch ms", "speedup", "max |delta|"],
        rows,
        title=f"BENCH_infer (batch={batch_size})",
    )
    if write_json:
        path = results_dir() / "BENCH_infer.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {path}")
    return report
