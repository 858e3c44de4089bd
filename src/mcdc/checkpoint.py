"""Versioned JSON checkpoint holding the hyper block, every named parameter
tensor and the normalization statistics. JSON float repr round-trips float64
exactly, so load(save(model)) reproduces parameters bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .baselines import MODEL_KINDS, kind_of
from .data import NormStats
from .model import check_fields, one_of, read_object, setting, setting_of
from .training import TrainConfig

__all__ = ["CheckpointError", "load_checkpoint", "save_checkpoint"]

FORMAT_VERSION = 2


class CheckpointError(ValueError):
    """Raised for unreadable or incompatible checkpoint files."""


@dataclass(frozen=True)
class _Document:
    """A checkpoint's top-level keys and their rules; each is required."""

    format_version: int = setting(one_of((FORMAT_VERSION,)))
    model_kind: str = setting(one_of(tuple(MODEL_KINDS)))
    seed: int = setting_of(TrainConfig, "seed")
    hyper: dict
    norm_stats: dict
    params: dict

    __post_init__ = check_fields


def save_checkpoint(path, model, norm_stats: NormStats) -> None:
    """Write the model as one line of JSON: json.dumps with sort_keys, no
    indent and the default ", " and ": " separators, then "\n". These are the
    bytes json.dump writes, encoded in one C call instead of json.dump's
    pure-Python encoder."""
    document = _Document(
        format_version=FORMAT_VERSION,
        model_kind=kind_of(model),
        seed=model.seed,
        hyper=asdict(model.hyper),
        norm_stats=norm_stats.to_dict(),
        params={name: arr.tolist() for name, arr in model.parameter_arrays().items()},
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(vars(document), sort_keys=True) + "\n")


def load_checkpoint(path):
    """Returns (model, norm_stats). `model_kind` picks the MODEL_KINDS row,
    and the hyper block must hold every field that row pins as it pins it.
    Every refusal is a CheckpointError that starts with the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            document = read_object(_Document, json.load(fh), "checkpoint")
        model_cls, hyper_cls, pinned = MODEL_KINDS[document.model_kind]
        hyper = read_object(hyper_cls, document.hyper, "hyper")
        clash = {name: document.hyper.get(name) for name, value in pinned.items() if document.hyper.get(name) != value}
        if clash:
            raise ValueError(f"model_kind {document.model_kind!r} pins {pinned}, but the hyper block has {clash}")
        stats = read_object(NormStats, document.norm_stats, "norm_stats")
        model = model_cls(hyper, document.seed)
        model.load_parameter_arrays(document.params)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return model, stats
