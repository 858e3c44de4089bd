"""Versioned JSON checkpoint holding the hyper block, every named parameter
tensor and the normalization statistics. JSON float repr round-trips float64
exactly, so load(save(model)) reproduces parameters bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields

import numpy as np

from .baselines import MODEL_KINDS, kind_of
from .data import NormStats

__all__ = ["CheckpointError", "load_checkpoint", "save_checkpoint"]

FORMAT_VERSION = 2


class CheckpointError(ValueError):
    """Raised for unreadable or incompatible checkpoint files."""


def save_checkpoint(path, model, norm_stats: NormStats | None = None) -> None:
    """Write the model as one line of JSON: json.dumps with sort_keys, no
    indent and the default ", " and ": " separators, then "\n". These are the
    bytes json.dump writes, encoded in one C call instead of json.dump's
    pure-Python encoder."""
    payload = {
        "format_version": FORMAT_VERSION,
        "model_kind": kind_of(model),
        "seed": model.seed,
        "hyper": asdict(model.hyper),
        "norm_stats": norm_stats.to_dict() if norm_stats else None,
        "params": {name: arr.tolist() for name, arr in model.parameter_arrays().items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def load_checkpoint(path):
    """Returns (model, norm_stats_or_None). `model_kind` picks the MODEL_KINDS
    row, and the hyper block must hold every field that row pins as it pins it."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    kind = payload.get("model_kind")
    if kind not in MODEL_KINDS:
        raise CheckpointError(f"{path}: unknown model kind {kind!r}")
    for block in ("hyper", "params"):
        if not isinstance(payload.get(block), dict):
            raise CheckpointError(f"{path}: missing {block} block")
    model_cls, hyper_cls, pinned = MODEL_KINDS[kind]
    hyper = payload["hyper"]
    unknown = sorted(set(hyper) - {f.name for f in fields(hyper_cls)})
    if unknown:
        raise CheckpointError(f"{path}: unknown hyper keys {unknown}")
    clash = {name: hyper.get(name) for name, value in pinned.items() if hyper.get(name) != value}
    if clash:
        raise CheckpointError(f"{path}: model_kind {kind!r} pins {pinned}, but the hyper block has {clash}")
    try:
        model = model_cls(hyper_cls(**hyper), payload.get("seed", 0))
        model.load_parameter_arrays(payload["params"])
        stats = NormStats.from_dict(payload["norm_stats"]) if payload.get("norm_stats") else None
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    if stats is not None:
        for name, values in (("mean", stats.mean), ("std", stats.std)):
            if not np.all(np.isfinite(values)):
                raise CheckpointError(f"{path}: norm_stats {name}: non-finite values {values.tolist()}")
        if np.any(stats.std <= 0):
            raise CheckpointError(f"{path}: norm_stats std: values must be > 0, got {stats.std.tolist()}")
    return model, stats
