"""Discrete baseline: a three-layer sigmoid feedforward net over gas readings.

The net consumes either the last day of a window (the discrete reading, the
default) or the flattened window, and trains under exactly the same Adam
machinery and normalized pipeline as the staged model. The matrix-attention
variant of the staged model is built by the shared factory below.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .conditions import N_CONDITIONS
from .model import Classifier, McdcModel, ModelHyper, N_CHANNELS
from .tensor import (
    DimensionError, Tensor, add, glorot, matmul, parameter, reshape, sigmoid, softmax_axis, tensor, transpose,
)

__all__ = ["AnnHyper", "AnnModel", "make_model"]


@dataclass(frozen=True)
class AnnHyper:
    temporal_len: int = 12
    input_mode: str = "last_day"  # or "window"
    hidden1: int = 32
    hidden2: int = 16
    n_classes: int = N_CONDITIONS

    def to_dict(self) -> dict:
        return asdict(self)


class AnnModel(Classifier):
    """Three weight layers; sigmoid after the two hidden pre-activations,
    softmax over the output layer."""

    kind = "ann"

    def __init__(self, hyper: AnnHyper, seed: int):
        if hyper.input_mode not in ("last_day", "window"):
            raise ValueError(f"unknown input mode {hyper.input_mode!r}")
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
        if window.shape != (N_CHANNELS, self.hyper.temporal_len):
            raise DimensionError(
                f"window shape {window.shape} != ({N_CHANNELS}, {self.hyper.temporal_len})"
            )
        if self.hyper.input_mode == "last_day":
            return tensor(window[:, -1].reshape(-1, 1))
        return reshape(tensor(window), (window.size, 1))

    def forward(self, window: np.ndarray) -> Tensor:
        x = self._input_column(np.asarray(window, dtype=np.float64))
        h1 = sigmoid(add(matmul(self._weights[0], x), self._biases[0]))
        h2 = sigmoid(add(matmul(self._weights[1], h1), self._biases[1]))
        logits = add(matmul(self._weights[2], h2), self._biases[2])
        return transpose(softmax_axis(logits, "col"))


def make_model(kind: str, temporal_len: int, seed: int, **overrides):
    """Shared factory for the comparison harness and the CLI.

    kind is one of "mcdc", "mcdc-matrix", "ann"; overrides feed the matching
    hyper dataclass.
    """
    if kind in ("mcdc", "mcdc-matrix"):
        hyper = ModelHyper(
            temporal_len=temporal_len,
            attention="conv" if kind == "mcdc" else "matrix",
            **overrides,
        )
        return McdcModel(hyper, seed)
    if kind == "ann":
        return AnnModel(AnnHyper(temporal_len=temporal_len, **overrides), seed)
    raise ValueError(f"unknown model kind {kind!r}, expected mcdc, mcdc-matrix or ann")
