"""Versioned JSON checkpoint holding the hyper block, every named parameter
tensor and the normalization statistics. JSON float repr round-trips float64
exactly, so load(save(model)) reproduces parameters bit for bit.
"""

from __future__ import annotations

import json

import numpy as np

from .baselines import AnnHyper, AnnModel
from .data import NormStats
from .model import McdcModel, ModelHyper

__all__ = ["CheckpointError", "load_checkpoint", "save_checkpoint"]

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Raised for unreadable or incompatible checkpoint files."""


def save_checkpoint(path, model, norm_stats: NormStats | None = None) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "model_kind": model.kind,
        "seed": model.seed,
        "hyper": model.hyper.to_dict(),
        "norm_stats": norm_stats.to_dict() if norm_stats else None,
        "params": {name: arr.tolist() for name, arr in model.parameter_arrays().items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path):
    """Returns (model, norm_stats_or_None)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    kind = payload.get("model_kind")
    hyper = payload["hyper"]
    seed = payload.get("seed", 0)
    if kind in ("mcdc", "mcdc-matrix"):
        model = McdcModel(ModelHyper(**hyper), seed)
    elif kind == "ann":
        model = AnnModel(AnnHyper(**hyper), seed)
    else:
        raise CheckpointError(f"{path}: unknown model kind {kind!r}")
    try:
        model.load_parameter_arrays(payload["params"])
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    stats = NormStats.from_dict(payload["norm_stats"]) if payload.get("norm_stats") else None
    if stats is not None:
        for name, values in (("mean", stats.mean), ("std", stats.std)):
            if not np.all(np.isfinite(values)):
                raise CheckpointError(f"{path}: norm_stats {name}: non-finite values {values.tolist()}")
        if np.any(stats.std <= 0):
            raise CheckpointError(f"{path}: norm_stats std: values must be > 0, got {stats.std.tolist()}")
    return model, stats
