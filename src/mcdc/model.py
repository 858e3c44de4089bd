"""Four-stage classifier over a 5-channel gas window: embed with sinusoidal
positions, attend across time, attend across channels, then project to the
seven condition classes. Residual sums connect consecutive stages so a dead
stage passes its input through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attention
from .conditions import ConditionLabel, N_CONDITIONS, by_code
from .tensor import (
    DimensionError,
    Tensor,
    add,
    glorot,
    matmul,
    merge_stack,
    parameter,
    reshape,
    sigmoid,
    softmax_axis,
    tensor,
    transpose,
)

__all__ = ["Classifier", "ModelHyper", "McdcModel", "positional_encoding"]

N_CHANNELS = 5
ATTENTIONS = ("conv", "matrix")


@dataclass(frozen=True)
class ModelHyper:
    temporal_len: int = 12
    heads: int = 4
    kernel_temporal: int = 5
    kernel_channel: int = 6
    ffn_hidden: int = 64
    n_classes: int = N_CONDITIONS
    attention: str = "conv"  # "conv" or "matrix"

    def __post_init__(self):
        for name in ("temporal_len", "heads", "kernel_temporal", "kernel_channel", "ffn_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.attention not in ATTENTIONS:
            raise ValueError(f"attention must be one of {ATTENTIONS}, got {self.attention!r}")
        # a longer kernel has taps that only ever see padding and never get a gradient
        for name, features in (("kernel_temporal", N_CHANNELS), ("kernel_channel", self.temporal_len)):
            if getattr(self, name) > features:
                raise ValueError(
                    f"{name} must be <= {features}, the feature length its route slides along, got {getattr(self, name)}"
                )


def positional_encoding(d_channel: int, length: int) -> np.ndarray:
    """Sinusoidal position map: row 2i is sin(t / 10000^(2i/d)), row 2i+1 the
    matching cos; with an odd channel count the last sin row stands alone."""
    pe = np.zeros((d_channel, length))
    t = np.arange(length, dtype=np.float64)
    for i in range((d_channel + 1) // 2):
        arg = t / (10000.0 ** (2.0 * i / d_channel))
        pe[2 * i, :] = np.sin(arg)
        if 2 * i + 1 < d_channel:
            pe[2 * i + 1, :] = np.cos(arg)
    return pe


class Classifier:
    """Parameter storage and prediction shared by every model kind. Subclasses
    define parameters() -> [(name, Tensor)] and forward(x), which maps one
    5 x T window to 1 x n_classes and a stack B x 5 x T to B x 1 x n_classes."""

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.parameters()}

    def load_parameter_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Overwrite every parameter in place from exactly this model's names, all finite."""
        params = self.parameters()
        expected = {name for name, _ in params}
        unknown = sorted(set(arrays) - expected)
        missing = sorted(expected - set(arrays))
        if unknown or missing:
            raise ValueError(f"parameter names differ: unknown {unknown}, missing {missing}")
        for name, p in params:
            src = np.asarray(arrays[name], dtype=np.float64)
            if src.shape != p.data.shape:
                raise DimensionError(f"parameter {name}: stored {src.shape} != expected {p.data.shape}")
            if not np.isfinite(src).all():
                raise ValueError(f"parameter {name}: non-finite values")
            p.data[...] = src

    def predict_proba(self, x) -> np.ndarray:
        """(n_classes,) probabilities for one 5 x T window, (B, n_classes) for
        a stack of B windows; row i of a stack equals window i scored alone."""
        probs = self.forward(x).data
        return probs.reshape(probs.shape[:-2] + (-1,)).copy()

    def predict(self, x) -> ConditionLabel:
        """The condition of one 5 x T window; a stack is refused."""
        probs = self.predict_proba(x)
        if probs.ndim != 1:
            raise DimensionError(f"predict takes one window, not a stack of {len(probs)}; use predict_proba")
        # np.argmax takes the first maximum, i.e. the lowest class code on ties
        return by_code(int(np.argmax(probs)))


class McdcModel(Classifier):
    """Holds all learnable parameters and runs the staged forward pass.

    Construction draws every parameter from one seeded generator in a fixed
    order, so a (hyper, seed) pair pins the model bit for bit.
    """

    def __init__(self, hyper: ModelHyper, seed: int):
        self.hyper = hyper
        self.seed = seed
        rng = np.random.default_rng(seed)
        h = hyper.heads
        t_len = hyper.temporal_len

        def qkv_entry(kernel: int, features: int) -> tuple[int, int]:
            """A head's q, k or v: a 1 x kernel conv kernel or a square projection."""
            return (1, kernel) if hyper.attention == "conv" else (features, features)

        # temporal route: tokens are time steps, features are the 5 channels
        self.temporal_qkv = attention.new_qkv(rng, h, *qkv_entry(hyper.kernel_temporal, N_CHANNELS))
        self.mix_temporal = glorot(rng, N_CHANNELS, h * N_CHANNELS)
        # channel route: tokens are the 5 channels, features are time steps
        self.channel_qkv = attention.new_qkv(rng, h, *qkv_entry(hyper.kernel_channel, t_len))
        self.mix_channel = glorot(rng, h * t_len, t_len)
        flat = N_CHANNELS * t_len
        self.ffn_w1 = glorot(rng, hyper.ffn_hidden, flat)
        self.ffn_b1 = parameter(np.zeros((hyper.ffn_hidden, 1)))
        self.ffn_w2 = glorot(rng, hyper.n_classes, hyper.ffn_hidden)
        self.ffn_b2 = parameter(np.zeros((hyper.n_classes, 1)))
        self._pe = tensor(positional_encoding(N_CHANNELS, t_len))

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [
            ("temporal_qkv", self.temporal_qkv),
            ("temporal_mix", self.mix_temporal),
            ("channel_qkv", self.channel_qkv),
            ("channel_mix", self.mix_channel),
            ("ffn_w1", self.ffn_w1),
            ("ffn_b1", self.ffn_b1),
            ("ffn_w2", self.ffn_w2),
            ("ffn_b2", self.ffn_b2),
        ]

    # stage operations

    def embed(self, x: Tensor) -> Tensor:
        if x.data.ndim not in (2, 3) or x.shape[-2:] != (N_CHANNELS, self.hyper.temporal_len):
            raise DimensionError(
                f"input shape {x.shape} is not ({N_CHANNELS}, {self.hyper.temporal_len}) or a stack of those"
            )
        return add(x, self._pe)

    def _route(self, x: Tensor, qkv: Tensor, tokens: str) -> Tensor:
        """All heads of a route on the 5 x T map `x` (or a stack), whose tokens
        are its "cols" (time steps) or its "rows" (channels): (..., H, d, n).
        The conv route takes tokens on rows and the matrix route features on
        rows, so `x` is transposed only when it arrives the other way round."""
        if self.hyper.attention == "conv":
            return attention.cnn_attention(x if tokens == "rows" else transpose(x), qkv)
        return attention.matrix_attention(transpose(x) if tokens == "rows" else x, qkv)

    def temporal_interaction(self, embedded: Tensor) -> Tensor:
        heads = self._route(embedded, self.temporal_qkv, "cols")
        return matmul(self.mix_temporal, merge_stack(heads, "rows"))

    def channel_interaction(self, mixed: Tensor) -> Tensor:
        heads = self._route(mixed, self.channel_qkv, "rows")
        return matmul(merge_stack(transpose(heads), "cols"), self.mix_channel)

    def project_logits(self, z: Tensor) -> Tensor:
        flat = reshape(z, (N_CHANNELS * self.hyper.temporal_len, 1))
        hidden = sigmoid(add(matmul(self.ffn_w1, flat), self.ffn_b1))
        return add(matmul(self.ffn_w2, hidden), self.ffn_b2)

    def project(self, z: Tensor) -> Tensor:
        return transpose(softmax_axis(self.project_logits(z), "col"))

    def _stages(self, x) -> dict[str, Tensor]:
        embedded = self.embed(x if isinstance(x, Tensor) else tensor(x))
        temporal = self.temporal_interaction(embedded)
        mixed = add(temporal, embedded)
        channel = self.channel_interaction(mixed)
        return {
            "embedded": embedded,
            "temporal": temporal,
            "temporal_plus_embedded": mixed,
            "channel": channel,
            "channel_plus_temporal": add(channel, temporal),
        }

    def forward(self, x) -> Tensor:
        """Probability row vector (1 x n_classes) for one 5 x T window, or a
        stack of them (B x 1 x n_classes) for a stack of B windows."""
        return self.project(self._stages(x)["channel_plus_temporal"])

    def export_activations(self, x) -> dict[str, np.ndarray]:
        """Copies of every stage output, for external feature analysis."""
        stages = self._stages(x)
        out = {name: t.data.copy() for name, t in stages.items()}
        out["logits"] = transpose(self.project_logits(stages["channel_plus_temporal"])).data.copy()
        return out
