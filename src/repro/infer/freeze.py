"""Freezing trained models into plans, and the accuracy gates.

:func:`freeze` exports one trained DeepSets model (LSM or CLSM) into the
requested weight variants.  Where the element universe is small enough
(at most ``DEFAULT_FOLD_LIMIT`` ids), the entire
``phi(embed(decompose(x)))`` prefix is folded into a single per-element
table at freeze time — inference then gathers one row per element.  Larger CLSM universes keep the per-position
sub-tables and run the fused decompose → gather → concat → ``phi``
pipeline, preserving the compression paper's memory advantage.

:func:`freeze_structure` applies this to a built structure (raw, guarded,
or sharded), runs every variant through its **accuracy gate** against the
autograd float64 reference on a seeded probe workload, attaches the
chosen serving variant, and returns a :class:`FreezeReport`.  A variant
whose q-error (cardinality/index) or decision behaviour (Bloom: flipped
decisions, FPR increase, new false negatives on the trained positives)
degrades beyond the configured bound is refused publication.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Any, Iterable, Sequence

import numpy as np

from ..nn.layers import (
    Identity,
    LeakyReLU,
    Linear,
    MLP,
    ReLU,
    Sequential,
    Sigmoid,
    Softplus,
    Tanh,
)
from ..reliability import unwrap
from .plan import InferencePlan, PlanSet, model_signature
from .quantize import dequantize, quantize_per_tensor

__all__ = [
    "DEFAULT_FOLD_LIMIT",
    "FreezeError",
    "FreezeReport",
    "FrozenVariantRejected",
    "GateConfig",
    "freeze",
    "freeze_structure",
    "refreeze_like",
    "attached_plans",
]

#: Largest folded-table row count; beyond it CLSM plans stay unfolded so
#: freezing never undoes the compression the model exists to provide.
DEFAULT_FOLD_LIMIT = 1 << 16

DEFAULT_DTYPES = ("float64", "float32", "int8")


class FreezeError(RuntimeError):
    """A model could not be exported into a plan."""


class FrozenVariantRejected(FreezeError):
    """A weight variant failed its accuracy gate and was not published."""

    def __init__(self, dtype: str, reason: str):
        super().__init__(f"frozen {dtype} variant rejected: {reason}")
        self.dtype = dtype
        self.reason = reason


@dataclass(frozen=True)
class GateConfig:
    """Accuracy-delta bounds a quantized variant must satisfy to publish.

    ``max_mean_qerror`` bounds the mean q-error of variant outputs against
    the float64 reference on the probe workload (cardinality estimates and
    index positions).  The Bloom gates bound the fraction of probe
    decisions that flip at the threshold, the false-positive-rate increase
    on probe negatives, and — hard invariant — the number of *new* false
    negatives over the trained positives (default zero: quantization may
    never cost the no-false-negative guarantee a backup filter cannot
    cover).
    """

    max_mean_qerror: float = 1.05
    max_flip_fraction: float = 0.02
    max_fpr_delta: float = 0.02
    max_new_false_negatives: int = 0
    probe_queries: int = 256
    probe_seed: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class FreezeReport:
    """What :func:`freeze_structure` froze, accepted, and rejected."""

    kind: str
    parts: list[dict]

    @property
    def plansets(self) -> list[PlanSet]:
        return [part["plans"] for part in self.parts]

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "parts": [
                {
                    "active": part["plans"].active,
                    "variants": sorted(part["plans"].variants),
                    "reports": part["reports"],
                }
                for part in self.parts
            ],
        }


# -- model walking -------------------------------------------------------------


def _mlp_layers(module) -> list[tuple]:
    """Flatten an MLP/Identity module stack into plan layer tuples."""
    if module is None or isinstance(module, Identity):
        return []
    if not isinstance(module, Sequential):
        raise FreezeError(
            f"cannot freeze a {type(module).__name__}; expected MLP/Identity"
        )
    layers: list[tuple] = []
    for layer in module:
        if isinstance(layer, Linear):
            bias = layer.bias.data.copy() if layer.bias is not None else None
            layers.append(("linear", layer.weight.data.copy(), bias))
        elif isinstance(layer, ReLU):
            layers.append(("relu",))
        elif isinstance(layer, Sigmoid):
            layers.append(("sigmoid",))
        elif isinstance(layer, Tanh):
            layers.append(("tanh",))
        elif isinstance(layer, Identity):
            layers.append(("identity",))
        elif isinstance(layer, LeakyReLU):
            layers.append(("leaky_relu", float(layer.negative_slope)))
        elif isinstance(layer, Softplus):
            layers.append(("softplus",))
        else:
            raise FreezeError(
                f"cannot freeze layer {type(layer).__name__}; "
                "no plan equivalent"
            )
    return layers


def _run_layers_f64(layers: list[tuple], x: np.ndarray) -> np.ndarray:
    from .plan import _apply_activation

    for layer in layers:
        if layer[0] == "linear":
            x = x @ layer[1]
            if layer[2] is not None:
                x = x + layer[2]
        else:
            x = _apply_activation(layer, x.copy())
    return x


def _model_anatomy(model) -> dict:
    """Extract the freeze-relevant pieces of an LSM or CLSM model."""
    rho_layers = _mlp_layers(model.rho)
    if hasattr(model, "compressor"):
        compressor = model.compressor
        vocabs = compressor.vocab_sizes()
        # Every id below this cap decomposes into in-range sub-elements,
        # and every id at or above it overflows the final quotient table —
        # exactly the acceptance set of the autograd forward.
        cap = compressor.divisor ** (compressor.ns - 1) * vocabs[-1]
        return {
            "ns": compressor.ns,
            "divisor": compressor.divisor,
            "cap": int(cap),
            "tables": [e.weight.data.copy() for e in model.embeddings],
            "phi_layers": _mlp_layers(model.phi),
            "rho_layers": rho_layers,
            "pooling": model.pooling,
        }
    return {
        "ns": 1,
        "divisor": 2,
        "cap": int(model.vocab_size),
        "tables": [model.embedding.weight.data.copy()],
        "phi_layers": _mlp_layers(model.phi),
        "rho_layers": rho_layers,
        "pooling": model.pooling,
    }


def _fold_table(anatomy: dict) -> np.ndarray:
    """Precompute ``phi(concat(sub_embeds(decompose(id))))`` for every id."""
    ids = np.arange(anatomy["cap"], dtype=np.int64)
    ns, divisor = anatomy["ns"], anatomy["divisor"]
    pieces = []
    current = ids.copy()
    for position, table in enumerate(anatomy["tables"]):
        if position < ns - 1:
            sub = current % divisor
            current //= divisor
        else:
            sub = current
        pieces.append(table[sub])
    concat = pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=1)
    return np.ascontiguousarray(_run_layers_f64(anatomy["phi_layers"], concat))


def _cast_layers(layers: list[tuple], dtype) -> list[tuple]:
    out = []
    for layer in layers:
        if layer[0] == "linear":
            bias = layer[2].astype(dtype) if layer[2] is not None else None
            out.append(("linear", np.ascontiguousarray(layer[1], dtype=dtype), bias))
        else:
            out.append(layer)
    return out


def _quantize_layers(layers: list[tuple]) -> list[tuple]:
    """Dequantize-once int8: float32 matrices snapped to the int8 grid."""
    out = []
    for layer in layers:
        if layer[0] == "linear":
            q, scale, zero = quantize_per_tensor(layer[1])
            weight = np.ascontiguousarray(dequantize(q, scale, zero, np.float32))
            bias = layer[2].astype(np.float32) if layer[2] is not None else None
            out.append(("linear", weight, bias))
        else:
            out.append(layer)
    return out


def _self_check(plan: InferencePlan, model) -> None:
    """Freeze-time differential check of the float64 plan vs autograd."""
    rng = np.random.default_rng(0)
    universe = plan.vocab_size
    probes = [
        tuple(sorted(set(rng.integers(0, universe, size=int(rng.integers(1, 4))).tolist())))
        for _ in range(8)
    ]
    reference = model.predict(probes)
    fused = plan(probes)
    if not np.allclose(fused, reference, rtol=1e-9, atol=1e-9):
        raise FreezeError(
            "fused float64 plan diverged from the autograd forward "
            f"(max delta {np.max(np.abs(fused - reference)):.3e})"
        )


def freeze(
    model,
    dtypes: Sequence[str] = DEFAULT_DTYPES,
) -> dict[str, InferencePlan]:
    """Export a trained model into the requested plan variants.

    Returns ``{dtype_name: InferencePlan}``.  The plans are folded when the
    model's decomposition cap is at most ``DEFAULT_FOLD_LIMIT`` and keep
    the per-position CLSM sub-tables otherwise.  The float64 variant is
    differential-checked against the autograd forward at freeze time, so
    a fused-math bug can never ship silently.  No accuracy gating happens
    here — that is :func:`freeze_structure`'s job, where the structure
    semantics (q-error, FPR) are known.
    """
    unknown = [d for d in dtypes if d not in ("float64", "float32", "int8")]
    if unknown:
        raise FreezeError(f"unknown plan dtypes {unknown}")
    anatomy = _model_anatomy(model)
    folded = anatomy["cap"] <= DEFAULT_FOLD_LIMIT
    common = dict(
        pooling=anatomy["pooling"],
        vocab_size=anatomy["cap"],
        ns=anatomy["ns"],
        divisor=anatomy["divisor"],
        weights_version=int(model.weights_version()),
        signature=model_signature(model),
    )
    table64 = _fold_table(anatomy) if folded else None
    plans: dict[str, InferencePlan] = {}
    for name in dtypes:
        if folded:
            plans[name] = _folded_variant(name, table64, anatomy, common)
        else:
            plans[name] = _unfolded_variant(name, anatomy, common)
        plans[name].meta["folded"] = folded
    if "float64" in plans:
        _self_check(plans["float64"], model)
    return plans


def _folded_variant(name, table64, anatomy, common) -> InferencePlan:
    if name == "int8":
        q, scale, zero = quantize_per_tensor(table64)
        return InferencePlan(
            kind="folded",
            dtype_name=name,
            table=q,
            table_qparams=(scale, zero),
            rho_layers=_quantize_layers(_cast_layers(anatomy["rho_layers"], np.float32)),
            **common,
        )
    dtype = np.float64 if name == "float64" else np.float32
    return InferencePlan(
        kind="folded",
        dtype_name=name,
        table=np.ascontiguousarray(table64, dtype=dtype),
        rho_layers=_cast_layers(anatomy["rho_layers"], dtype),
        **common,
    )


def _unfolded_variant(name, anatomy, common) -> InferencePlan:
    shared = dict(kind="clsm", dtype_name=name, **common)
    if name == "int8":
        tables, qparams = [], []
        for table in anatomy["tables"]:
            q, scale, zero = quantize_per_tensor(table)
            tables.append(q)
            qparams.append((scale, zero))
        return InferencePlan(
            tables=tables,
            tables_qparams=qparams,
            phi_layers=_quantize_layers(_cast_layers(anatomy["phi_layers"], np.float32)),
            rho_layers=_quantize_layers(_cast_layers(anatomy["rho_layers"], np.float32)),
            **shared,
        )
    dtype = np.float64 if name == "float64" else np.float32
    return InferencePlan(
        tables=[np.ascontiguousarray(t, dtype=dtype) for t in anatomy["tables"]],
        phi_layers=_cast_layers(anatomy["phi_layers"], dtype),
        rho_layers=_cast_layers(anatomy["rho_layers"], dtype),
        **shared,
    )


# -- structure traversal -------------------------------------------------------


def _raw_parts(structure: Any) -> list[Any]:
    """The raw leaf structures: one for unsharded, K for a sharded router."""
    inner = unwrap(structure)
    parts = getattr(inner, "parts", None)
    if parts is not None:
        return [unwrap(part) for part in parts]
    return [inner]


def _structure_kind(raw: Any) -> str:
    if hasattr(raw, "threshold") and hasattr(raw, "model"):
        return "bloom"
    if hasattr(raw, "bounds") and hasattr(raw, "model"):
        return "index"
    if hasattr(raw, "scaler") and hasattr(raw, "model"):
        return "cardinality"
    raise FreezeError(
        f"cannot freeze a {type(raw).__name__}: not a learned structure"
    )


def attached_plans(structure: Any) -> list[InferencePlan]:
    """Every plan attached below ``structure`` (guarded/sharded aware)."""
    plans = []
    for raw in _raw_parts(structure):
        plan = getattr(raw, "infer_plan", None)
        if plan is not None:
            plans.append(plan)
    return plans


# -- gates ---------------------------------------------------------------------


def _probe_sets(raw: Any, kind: str, gates: GateConfig) -> list[tuple[int, ...]]:
    rng = np.random.default_rng(gates.probe_seed)
    universe = raw.max_known_id() + 1
    probes: list[tuple[int, ...]] = []
    if kind == "bloom":
        probes.extend(raw.trained_positives[: gates.probe_queries])
    for _ in range(gates.probe_queries):
        size = int(rng.integers(1, 5))
        probes.append(
            tuple(sorted(set(rng.integers(0, universe, size=size).tolist())))
        )
    return probes


def _gate_metrics(
    kind: str,
    raw: Any,
    plan: InferencePlan,
    probes: list[tuple[int, ...]],
    reference_scaled: np.ndarray,
    num_positives: int,
) -> dict[str, float]:
    from ..core.qerror import mean_q_error

    variant_scaled = plan(probes)
    metrics: dict[str, float] = {
        "max_scaled_abs_delta": float(
            np.max(np.abs(variant_scaled - reference_scaled))
        )
        if len(probes)
        else 0.0,
    }
    if kind == "bloom":
        threshold = raw.threshold
        ref_decision = reference_scaled >= threshold
        var_decision = variant_scaled >= threshold
        flips = ref_decision != var_decision
        metrics["flip_fraction"] = float(flips.mean()) if len(probes) else 0.0
        negatives = ~ref_decision
        metrics["fpr_delta"] = (
            float((var_decision & negatives).sum() / max(negatives.sum(), 1))
        )
        new_fn = 0
        backup = raw.backup
        for row in range(num_positives):
            if ref_decision[row] and not var_decision[row]:
                if backup is None or not backup.contains_set(set(probes[row])):
                    new_fn += 1
        metrics["new_false_negatives"] = float(new_fn)
        return metrics
    scaler = raw.scaler
    reference_values = scaler.inverse(reference_scaled)
    variant_values = scaler.inverse(variant_scaled)
    if kind == "cardinality":
        reference_values = np.maximum(reference_values, 1.0)
        variant_values = np.maximum(variant_values, 1.0)
    metrics["mean_qerror"] = float(
        mean_q_error(variant_values, reference_values)
    )
    return metrics


def _gate_verdict(
    dtype_name: str, kind: str, metrics: dict[str, float], gates: GateConfig
) -> tuple[bool, str | None]:
    if dtype_name == "float64":
        return True, None  # the reference itself is never gated out
    if kind == "bloom":
        if metrics["new_false_negatives"] > gates.max_new_false_negatives:
            return False, (
                f"{int(metrics['new_false_negatives'])} new false negatives "
                f"on trained positives (max "
                f"{gates.max_new_false_negatives})"
            )
        if metrics["flip_fraction"] > gates.max_flip_fraction:
            return False, (
                f"decision flip fraction {metrics['flip_fraction']:.4f} "
                f"exceeds {gates.max_flip_fraction}"
            )
        if metrics["fpr_delta"] > gates.max_fpr_delta:
            return False, (
                f"false-positive-rate delta {metrics['fpr_delta']:.4f} "
                f"exceeds {gates.max_fpr_delta}"
            )
        return True, None
    if metrics["mean_qerror"] > gates.max_mean_qerror:
        return False, (
            f"mean q-error vs float64 reference {metrics['mean_qerror']:.4f} "
            f"exceeds {gates.max_mean_qerror}"
        )
    return True, None


# -- structure-level freezing --------------------------------------------------


def freeze_structure(
    structure: Any,
    *,
    dtypes: Sequence[str] = DEFAULT_DTYPES,
    active: str = "float32",
    gates: GateConfig | dict | None = None,
    attach: bool = True,
    strict: bool = False,
) -> FreezeReport:
    """Freeze, gate, and (by default) attach plans for a built structure.

    Works on raw structures, guarded facades, and sharded routers (each
    shard part is frozen and gated independently against its own model).
    ``active`` names the variant the structure serves through; a rejected
    or unavailable ``active`` falls back to float32 then float64.  With
    ``strict=True`` a gate rejection raises :class:`FrozenVariantRejected`
    instead of silently dropping the variant.
    """
    if isinstance(gates, dict):
        gates = GateConfig(**gates)
    gates = gates or GateConfig()
    dtypes = tuple(dict.fromkeys(tuple(dtypes) + ("float64",)))
    options = {
        "dtypes": list(dtypes),
        "active": active,
        "gates": gates.as_dict(),
    }
    parts = []
    kind = None
    for raw in _raw_parts(structure):
        kind = _structure_kind(raw)
        plans = freeze(raw.model, dtypes=dtypes)
        probes = _probe_sets(raw, kind, gates)
        num_positives = (
            len(raw.trained_positives[: gates.probe_queries])
            if kind == "bloom"
            else 0
        )
        reference_scaled = raw.model.predict(probes)
        variants: dict[str, InferencePlan] = {}
        reports: dict[str, dict] = {}
        for name, plan in plans.items():
            plan.structure_kind = kind
            metrics = _gate_metrics(
                kind, raw, plan, probes, reference_scaled, num_positives
            )
            accepted, reason = _gate_verdict(name, kind, metrics, gates)
            plan.meta.update(
                {"freeze_options": options, "gate_metrics": metrics}
            )
            reports[name] = {
                "dtype": name,
                "accepted": accepted,
                "reason": reason,
                "metrics": metrics,
                "size_bytes": plan.size_bytes(),
                "bits": plan.bits,
            }
            if accepted:
                variants[name] = plan
            elif strict:
                raise FrozenVariantRejected(name, reason or "gate failed")
        chosen = active
        if chosen not in variants:
            if strict and active in dtypes:
                raise FrozenVariantRejected(
                    active, "requested active variant was not published"
                )
            chosen = "float32" if "float32" in variants else "float64"
        planset = PlanSet(variants, chosen, reports)
        if attach:
            raw.attach_plan(planset.active_plan)
        parts.append({"plans": planset, "reports": reports})
    return FreezeReport(kind=kind or "unknown", parts=parts)


def refreeze_like(old_structure: Any, new_structure: Any) -> FreezeReport | None:
    """Re-freeze ``new_structure`` with the options ``old_structure`` used.

    The :class:`~repro.maintain.BackgroundRefresher` calls this after a
    rebuild so retrained generations keep serving through a plan.  Returns
    ``None`` when the old structure carried no plan (nothing to carry
    forward).
    """
    options = None
    for plan in attached_plans(old_structure):
        options = plan.meta.get("freeze_options")
        if options is not None:
            break
    if options is None:
        return None
    return freeze_structure(
        new_structure,
        dtypes=tuple(options.get("dtypes", DEFAULT_DTYPES)),
        active=options.get("active", "float32"),
        gates=options.get("gates"),
        attach=True,
    )
