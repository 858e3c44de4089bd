"""Four-stage classifier over a 5-channel gas window: embed with sinusoidal
positions, attend across time, attend across channels, then project to the
seven condition classes. Residual sums connect consecutive stages so a dead
stage passes its input through unchanged.
"""

from __future__ import annotations

import functools
import reprlib
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import attention
from .conditions import ConditionLabel, N_CONDITIONS, by_code
from .tensor import (
    DimensionError,
    Tensor,
    add,
    glorot,
    matmul,
    parameter,
    reshape,
    sigmoid,
    softmax_cols,
    tensor,
    transpose,
)

__all__ = ["Classifier", "ModelHyper", "McdcModel", "positional_encoding"]

N_CHANNELS = 5
ATTENTIONS = ("conv", "matrix")
_SLIDES = ", the feature length its route slides along"


def of_type(*types):
    return lambda v: isinstance(v, types) and not isinstance(v, bool)


def list_of(v, n: int, *types) -> bool:
    return isinstance(v, (list, tuple, np.ndarray)) and len(v) == n and all(map(of_type(*types), v))


def _is_decay(v) -> bool:
    pair_types = ([int, int], [int, float])  # exact types, so a bool is neither
    return isinstance(v, (list, tuple)) and all(isinstance(p, (list, tuple)) and [*map(type, p)] in pair_types for p in v)


def one_of(options: tuple) -> tuple:
    return f"one of {options}", lambda v: v in options


AT_LEAST_1 = (">= 1", lambda v: v >= 1)
# a field's annotation -> the (domain, test) rule its value meets before the field's own; a bool is no number
_TYPE_RULES = {
    "int": ("an integer", of_type(int)),
    "float": ("a number", of_type(int, float)),
    "str": ("a string", of_type(str)),
    "str | None": ("a string or null", of_type(str, type(None))),
    "dict": ("a JSON object", of_type(dict)),
    "list[int]": ("a list of integers", lambda v: isinstance(v, list) and set(map(type, v)) <= {int}),
    "list[list[int]]": (
        "a list of lists of integers",
        lambda v: isinstance(v, list) and all(isinstance(x, list) and set(map(type, x)) <= {int} for x in v),
    ),
    "list[str]": ("a list of strings", lambda v: isinstance(v, list) and set(map(type, v)) <= {str}),
    "tuple[tuple[int, float], ...]": ("[epoch, rate] pairs of an integer and a number", _is_decay),
}


def setting(*rules: tuple, default=MISSING, default_factory=MISSING):
    """A config dataclass field: check_fields refuses a value unless it passes each (domain, test) rule."""
    return field(default=default, default_factory=default_factory, metadata={"rules": rules})


def setting_of(cls, name: str):
    """`cls`'s field `name`, default and rules, for a config that holds it under its own key."""
    source = cls.__dataclass_fields__[name]
    return field(default=source.default, metadata={**source.metadata, "of": cls, "name": name})


@functools.cache
def _field_rules(cls) -> tuple[tuple[str, tuple], ...]:
    """(name, rules) for each field of the config class `cls`: its annotation's type rule, then its own."""
    return tuple(
        (f.name, ((_TYPE_RULES[f.type],) if f.type in _TYPE_RULES else ()) + f.metadata.get("rules", ()))
        for f in fields(cls)
    )


def check_fields(config) -> None:
    """Refuse the first field that fails its annotation's type rule or one of its own rules, by name."""
    for name, rules in _field_rules(type(config)):
        value = getattr(config, name)
        for domain, test in rules:
            if not test(value):
                raise ValueError(f"{name} must be {domain}, got {reprlib.repr(value)}")


def read_object(cls, block, what: str, **given):
    """The config class `cls` built from the JSON object `block`, named `what`
    in a refusal, with the values the caller supplies in `given` over the
    block's. A block that is not an object, a key `cls` has no field for and
    a field without a default that neither holds are refused before the
    fields' own rules run."""
    if not isinstance(block, dict):
        raise ValueError(f"{what} must be a JSON object, got {reprlib.repr(block)}")
    unknown = sorted(block.keys() - cls.__dataclass_fields__.keys())
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}")
    required = {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}
    missing = sorted(required - block.keys() - given.keys())
    if missing:
        raise ValueError(f"missing {what} keys {missing}")
    return cls(**{**block, **given})


@dataclass(frozen=True)
class ModelHyper:
    temporal_len: int = setting(AT_LEAST_1, default=12)
    heads: int = setting(AT_LEAST_1, default=4)
    kernel_temporal: int = setting(AT_LEAST_1, (f"<= {N_CHANNELS}{_SLIDES}", lambda v: v <= N_CHANNELS), default=5)
    kernel_channel: int = setting(AT_LEAST_1, default=6)
    ffn_hidden: int = setting(AT_LEAST_1, default=64)
    n_classes: int = setting(one_of((N_CONDITIONS,)), default=N_CONDITIONS)
    attention: str = setting(one_of(ATTENTIONS), default="conv")

    def __post_init__(self):
        check_fields(self)
        # a longer kernel has taps that only ever see padding and never get a gradient
        if self.kernel_channel > self.temporal_len:
            raise ValueError(f"kernel_channel must be <= {self.temporal_len}{_SLIDES}, got {self.kernel_channel}")


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
    """Parameter storage and prediction shared by every model kind. A subclass
    fills `self.params`, one name -> Tensor table in draw order whose names
    are the checkpoint's, and defines forward(x), which maps one 5 x T window
    to 1 x n_classes and a stack B x 5 x T to B x 1 x n_classes. A parameter
    left out of the table exists nowhere else."""

    def parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.params.items())

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_parameter_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Overwrite every parameter in place from exactly this model's names, all finite."""
        unknown = sorted(set(arrays) - set(self.params))
        missing = sorted(set(self.params) - set(arrays))
        if unknown or missing:
            raise ValueError(f"parameter names differ: unknown {unknown}, missing {missing}")
        for name, p in self.params.items():
            try:
                src = np.asarray(arrays[name], dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"parameter {name}: {exc}") from None
            if src.shape != p.data.shape:
                raise DimensionError(f"parameter {name}: stored {src.shape} != expected {p.data.shape}")
            if not np.isfinite(src).all():
                raise ValueError(f"parameter {name}: non-finite values")
            p.data[...] = src

    def _check_window(self, shape: tuple[int, ...]) -> None:
        """Refuse any shape but one 5 x T window or a stack of those."""
        want = (N_CHANNELS, self.hyper.temporal_len)
        if len(shape) not in (2, 3) or shape[-2:] != want:
            raise DimensionError(f"window shape {shape} is not {want} or a stack of those")

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

        self.params = {
            # temporal route: tokens are time steps, features are the 5 channels
            "temporal_qkv": attention.new_qkv(rng, h, *qkv_entry(hyper.kernel_temporal, N_CHANNELS)),
            "temporal_mix": glorot(rng, N_CHANNELS, h * N_CHANNELS),
            # channel route: tokens are the 5 channels, features are time steps
            "channel_qkv": attention.new_qkv(rng, h, *qkv_entry(hyper.kernel_channel, t_len)),
            "channel_mix": glorot(rng, h * t_len, t_len),
            "ffn_w1": glorot(rng, hyper.ffn_hidden, N_CHANNELS * t_len),
            "ffn_b1": parameter(np.zeros((hyper.ffn_hidden, 1))),
            "ffn_w2": glorot(rng, hyper.n_classes, hyper.ffn_hidden),
            "ffn_b2": parameter(np.zeros((hyper.n_classes, 1))),
        }
        self._pe = tensor(positional_encoding(N_CHANNELS, t_len))

    # stage operations

    def embed(self, x: Tensor) -> Tensor:
        self._check_window(x.shape)
        return add(x, self._pe)

    def _route(self, x: Tensor, qkv: Tensor, tokens: str) -> Tensor:
        """All heads of a route on the 5 x T map `x` (or a stack), whose tokens
        are its "cols" (time steps) or its "rows" (channels), each head's d x n
        matrix joined end to end along the rows: (..., H*d, n). The conv route
        takes tokens on rows and the matrix route features on rows, so `x` is
        transposed only when it arrives the other way round."""
        if self.hyper.attention == "conv":
            heads = attention.cnn_attention(x if tokens == "rows" else transpose(x), qkv)
        else:
            heads = attention.matrix_attention(transpose(x) if tokens == "rows" else x, qkv)
        return reshape(heads, heads.shape[:-3] + (-1, heads.shape[-1]))

    def temporal_interaction(self, embedded: Tensor) -> Tensor:
        return matmul(self.params["temporal_mix"], self._route(embedded, self.params["temporal_qkv"], "cols"))

    def channel_interaction(self, mixed: Tensor) -> Tensor:
        """Heads (..., H, T, 5) joined along rows, transposed and mixed to 5 x T."""
        return matmul(transpose(self._route(mixed, self.params["channel_qkv"], "rows")), self.params["channel_mix"])

    def project(self, z: Tensor) -> Tensor:
        p = self.params
        flat = reshape(z, z.shape[:-2] + (-1, 1))
        hidden = sigmoid(add(matmul(p["ffn_w1"], flat), p["ffn_b1"]))
        return transpose(softmax_cols(add(matmul(p["ffn_w2"], hidden), p["ffn_b2"])))

    def forward(self, x) -> Tensor:
        """Probability row vector (1 x n_classes) for one 5 x T window, or a
        stack of them (B x 1 x n_classes) for a stack of B windows."""
        embedded = self.embed(tensor(x))
        temporal = self.temporal_interaction(embedded)
        channel = self.channel_interaction(add(temporal, embedded))
        return self.project(add(channel, temporal))
