"""Discrete baseline: a three-layer sigmoid feedforward net over gas readings.

The net consumes either the last day of a window (the discrete reading, the
default) or the flattened window, and trains under exactly the same Adam
machinery and normalized pipeline as the staged model. The matrix-attention
variant of the staged model is built by the shared factory below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conditions import N_CONDITIONS
from .model import Classifier, McdcModel, ModelHyper, N_CHANNELS
from .tensor import (
    DimensionError, Tensor, add, glorot, matmul, parameter, reshape, sigmoid, softmax_axis, tensor, transpose,
)

__all__ = ["AnnHyper", "AnnModel", "MODEL_KINDS", "kind_of", "make_hyper", "make_model"]

INPUT_MODES = ("last_day", "window")


@dataclass(frozen=True)
class AnnHyper:
    temporal_len: int = 12
    input_mode: str = "last_day"  # or "window"
    hidden1: int = 32
    hidden2: int = 16
    n_classes: int = N_CONDITIONS

    def __post_init__(self):
        for name in ("temporal_len", "hidden1", "hidden2"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.input_mode not in INPUT_MODES:
            raise ValueError(f"input_mode must be one of {INPUT_MODES}, got {self.input_mode!r}")


class AnnModel(Classifier):
    """Three weight layers; sigmoid after the two hidden pre-activations,
    softmax over the output layer."""

    def __init__(self, hyper: AnnHyper, seed: int):
        self.hyper = hyper
        self.seed = seed
        in_dim = N_CHANNELS if hyper.input_mode == "last_day" else N_CHANNELS * hyper.temporal_len
        rng = np.random.default_rng(seed)
        sizes = [(hyper.hidden1, in_dim), (hyper.hidden2, hyper.hidden1), (hyper.n_classes, hyper.hidden2)]
        self._weights = []
        self._biases = []
        for rows, cols in sizes:
            self._weights.append(glorot(rng, rows, cols))
            self._biases.append(parameter(np.zeros((rows, 1))))

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for i, (w, b) in enumerate(zip(self._weights, self._biases), start=1):
            out.append((f"ann_w{i}", w))
            out.append((f"ann_b{i}", b))
        return out

    def _input_column(self, window: np.ndarray) -> Tensor:
        """The input column of one 5 x T window, or of each window of a stack."""
        if window.ndim not in (2, 3) or window.shape[-2:] != (N_CHANNELS, self.hyper.temporal_len):
            raise DimensionError(
                f"window shape {window.shape} is not ({N_CHANNELS}, {self.hyper.temporal_len}) or a stack of those"
            )
        if self.hyper.input_mode == "last_day":
            return tensor(np.ascontiguousarray(window[..., -1:]))
        return reshape(tensor(window), (N_CHANNELS * self.hyper.temporal_len, 1))

    def forward(self, window: np.ndarray) -> Tensor:
        x = self._input_column(np.asarray(window, dtype=np.float64))
        h1 = sigmoid(add(matmul(self._weights[0], x), self._biases[0]))
        h2 = sigmoid(add(matmul(self._weights[1], h1), self._biases[1]))
        logits = add(matmul(self._weights[2], h2), self._biases[2])
        return transpose(softmax_axis(logits, "col"))


MODEL_KINDS = {
    "mcdc": (McdcModel, ModelHyper, {"attention": "conv"}),
    "mcdc-matrix": (McdcModel, ModelHyper, {"attention": "matrix"}),
    "ann": (AnnModel, AnnHyper, {}),
}


def make_hyper(kind: str, temporal_len: int, **overrides):
    """`kind`'s hyper dataclass with the fields its row pins; overrides feed the rest."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}, expected one of {tuple(MODEL_KINDS)}")
    _, hyper_cls, pinned = MODEL_KINDS[kind]
    return hyper_cls(temporal_len=temporal_len, **pinned, **overrides)


def make_model(kind: str, temporal_len: int, seed: int, **overrides):
    """Shared factory for the comparison harness and the CLI. A kind is one
    row of MODEL_KINDS, (model class, hyper class, pinned hyper fields), and
    make_model, checkpoints and run configs read only that table."""
    hyper = make_hyper(kind, temporal_len, **overrides)
    return MODEL_KINDS[kind][0](hyper, seed)


def kind_of(model) -> str:
    """The MODEL_KINDS row that builds `model`: its class, with every pinned field as the row pins it."""
    for kind, (model_cls, _, pinned) in MODEL_KINDS.items():
        if type(model) is model_cls and all(getattr(model.hyper, k) == v for k, v in pinned.items()):
            return kind
    raise ValueError(f"no model kind builds a {type(model).__name__} with {model.hyper}")
