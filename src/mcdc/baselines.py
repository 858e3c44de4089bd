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
from .model import AT_LEAST_1, Classifier, McdcModel, ModelHyper, N_CHANNELS, check_fields, one_of, setting
from .tensor import (
    Tensor, add, glorot, matmul, parameter, reshape, sigmoid, softmax_cols, tensor, transpose,
)

__all__ = ["AnnHyper", "AnnModel", "MODEL_KINDS", "kind_of", "make_hyper", "make_model"]

INPUT_MODES = ("last_day", "window")


@dataclass(frozen=True)
class AnnHyper:
    temporal_len: int = setting(AT_LEAST_1, default=12)
    input_mode: str = setting(one_of(INPUT_MODES), default="last_day")
    hidden1: int = setting(AT_LEAST_1, default=32)
    hidden2: int = setting(AT_LEAST_1, default=16)
    n_classes: int = setting(one_of((N_CONDITIONS,)), default=N_CONDITIONS)

    __post_init__ = check_fields


class AnnModel(Classifier):
    """Three weight layers; sigmoid after the two hidden pre-activations,
    softmax over the output layer."""

    def __init__(self, hyper: AnnHyper, seed: int):
        self.hyper = hyper
        self.seed = seed
        in_dim = N_CHANNELS if hyper.input_mode == "last_day" else N_CHANNELS * hyper.temporal_len
        rng = np.random.default_rng(seed)
        sizes = [(hyper.hidden1, in_dim), (hyper.hidden2, hyper.hidden1), (hyper.n_classes, hyper.hidden2)]
        self.params = {}
        for i, (rows, cols) in enumerate(sizes, start=1):
            self.params[f"ann_w{i}"] = glorot(rng, rows, cols)
            self.params[f"ann_b{i}"] = parameter(np.zeros((rows, 1)))

    def _input_column(self, window: np.ndarray) -> Tensor:
        """The input column of one 5 x T window, or of each window of a stack."""
        self._check_window(window.shape)
        if self.hyper.input_mode == "last_day":
            return tensor(np.ascontiguousarray(window[..., -1:]))
        return reshape(tensor(window), window.shape[:-2] + (-1, 1))

    def forward(self, window: np.ndarray) -> Tensor:
        p = self.params
        x = self._input_column(np.asarray(window, dtype=np.float64))
        h1 = sigmoid(add(matmul(p["ann_w1"], x), p["ann_b1"]))
        h2 = sigmoid(add(matmul(p["ann_w2"], h1), p["ann_b2"]))
        logits = add(matmul(p["ann_w3"], h2), p["ann_b3"])
        return transpose(softmax_cols(logits))


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
