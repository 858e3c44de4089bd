"""Versioned JSON checkpoint holding the hyper block, every named parameter
tensor and the normalization statistics. JSON float repr round-trips float64
exactly, so load(save(model)) reproduces parameters bit for bit.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import asdict, fields

from .baselines import MODEL_KINDS, kind_of
from .data import NormStats
from .training import TrainConfig

__all__ = ["CheckpointError", "load_checkpoint", "save_checkpoint"]

FORMAT_VERSION = 2


class CheckpointError(ValueError):
    """Raised for unreadable or incompatible checkpoint files."""


def save_checkpoint(path, model, norm_stats: NormStats) -> None:
    """Write the model as one line of JSON: json.dumps with sort_keys, no
    indent and the default ", " and ": " separators, then "\n". These are the
    bytes json.dump writes, encoded in one C call instead of json.dump's
    pure-Python encoder."""
    payload = {
        "format_version": FORMAT_VERSION,
        "model_kind": kind_of(model),
        "seed": model.seed,
        "hyper": asdict(model.hyper),
        "norm_stats": norm_stats.to_dict(),
        "params": {name: arr.tolist() for name, arr in model.parameter_arrays().items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def load_checkpoint(path):
    """Returns (model, norm_stats). `model_kind` picks the MODEL_KINDS row,
    and the hyper block must hold every field that row pins as it pins it.
    Every refusal is a CheckpointError that starts with the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError(f"a checkpoint must hold a JSON object, got {reprlib.repr(payload)}")
        version = payload.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        unknown = sorted(set(payload) - {"format_version", "model_kind", "seed", "hyper", "norm_stats", "params"})
        if unknown:
            raise ValueError(f"unknown checkpoint keys {unknown}")
        kind = payload.get("model_kind")
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        for block in ("hyper", "norm_stats", "params"):
            if not isinstance(payload.get(block), dict):
                raise ValueError(f"missing {block} block: want a JSON object, got {reprlib.repr(payload.get(block))}")
        model_cls, hyper_cls, pinned = MODEL_KINDS[kind]
        hyper = payload["hyper"]
        unknown = sorted(set(hyper) - {f.name for f in fields(hyper_cls)})
        if unknown:
            raise ValueError(f"unknown hyper keys {unknown}")
        clash = {name: hyper.get(name) for name, value in pinned.items() if hyper.get(name) != value}
        if clash:
            raise ValueError(f"model_kind {kind!r} pins {pinned}, but the hyper block has {clash}")
        stats = NormStats(payload["norm_stats"].get("mean"), payload["norm_stats"].get("std"))
        model = model_cls(hyper_cls(**hyper), TrainConfig(seed=payload.get("seed")).seed)
        model.load_parameter_arrays(payload["params"])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return model, stats
