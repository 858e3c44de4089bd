"""Attention over tokens, with conv-derived or matrix-projected Q/K/V.

The conv variant slides one short kernel per projection along each token's
feature vector, so it takes its input tokens-on-rows, features-on-columns
(n x d): the rows the kernels slide along. The matrix variant left-multiplies
by a square learned matrix, so it takes features-on-rows, tokens-on-columns
(d x n). Either input is one matrix or a stack of them, one per sample. Both
give Q, K and V as d x n and feed the same scaled dot-product map, so they
are drop-ins for each other at equal route and width.

The heads of a route run as one stack, and each route returns (..., H, d, n)
with head h at index h. The conv variant makes one conv1d per route: the q,
k and v kernels of every head, taken from the heads' own parameters inside
the forward pass, form one (3H, 1, k) bank, which conv1d slides at stride 1
with same-length padding, so features' == features. The matrix variant
makes one matmul per projection. Either way a route has one attention map
and one attend, whatever its head count. The heads themselves only hold
their parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import (
    DimensionError,
    Tensor,
    conv1d,
    glorot,
    matmul,
    scale,
    softmax_axis,
    split,
    stack,
    transpose,
)

__all__ = [
    "CnnAttentionHead",
    "MatrixAttentionHead",
    "attend",
    "attention_map",
    "cnn_attention",
    "cnn_qkv",
    "head_parameter_count",
    "matrix_attention",
    "new_cnn_head",
    "new_matrix_head",
]


@dataclass
class CnnAttentionHead:
    """Three independent conv kernels producing Query, Key and Value."""

    kernel_q: Tensor
    kernel_k: Tensor
    kernel_v: Tensor

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("kq", self.kernel_q), ("kk", self.kernel_k), ("kv", self.kernel_v)]


@dataclass
class MatrixAttentionHead:
    """Square projection matrices over the feature axis (conventional attention)."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("wq", self.w_q), ("wk", self.w_k), ("wv", self.w_v)]


def new_cnn_head(kernel_size: int, rng: np.random.Generator) -> CnnAttentionHead:
    kq, kk, kv = (glorot(rng, 1, kernel_size) for _ in range(3))
    return CnnAttentionHead(kq, kk, kv)


def new_matrix_head(feature_dim: int, rng: np.random.Generator) -> MatrixAttentionHead:
    wq, wk, wv = (glorot(rng, feature_dim, feature_dim) for _ in range(3))
    return MatrixAttentionHead(wq, wk, wv)


def head_parameter_count(head) -> int:
    return sum(p.data.size for _, p in head.parameters())


def cnn_qkv(inp: Tensor, heads: list[CnnAttentionHead]) -> tuple[Tensor, Tensor, Tensor]:
    """Convolve each token's feature vector with every head's three kernels.

    `inp` is tokens x features (n x d, or a stack of those). One conv1d per
    route: all 3H kernels, the q kernels of every head, then the k and then
    the v kernels, run as one bank over the rows of `inp`; one transpose
    turns the (..., 3H, n, d) result into d x n matrices, which are split
    into one (..., H, d, n) stack per projection.
    """
    bank = stack([getattr(head, name) for name in ("kernel_q", "kernel_k", "kernel_v") for head in heads])
    qkv = transpose(conv1d(inp, bank))
    q, k, v = split(qkv, 3)
    return q, k, v


def attention_map(q: Tensor, k: Tensor) -> Tensor:
    """Column-stochastic token-to-token weights: softmax(K^T Q / sqrt(d)).

    d is the shared feature-axis length of Q and K; column j holds the
    weights with which token j draws on every value token.
    """
    if q.shape != k.shape:
        raise DimensionError(f"query/key shapes differ: {q.shape} vs {k.shape}")
    d = q.shape[-2]
    scores = scale(matmul(transpose(k), q), 1.0 / math.sqrt(d))
    return softmax_axis(scores, "col")


def attend(v: Tensor, amap: Tensor) -> Tensor:
    """Weighted sum of value tokens: V @ map, one convex mix per column."""
    if amap.shape[-2] != amap.shape[-1] or v.shape[-1] != amap.shape[-2]:
        raise DimensionError(f"value/map shapes incompatible: {v.shape} vs {amap.shape}")
    return matmul(v, amap)


def cnn_attention(inp: Tensor, heads: list[CnnAttentionHead]) -> Tensor:
    """All heads of a conv route on `inp` (n x d or a stack): (..., H, d, n)."""
    q, k, v = cnn_qkv(inp, heads)
    return attend(v, attention_map(q, k))


def matrix_attention(inp: Tensor, heads: list[MatrixAttentionHead]) -> Tensor:
    """All heads of a matrix route on `inp` (d x n or a stack): (..., H, d, n).

    Each projection is one matmul of the (H, d, d) matrix stack with the
    input given a head axis of length 1, which broadcasts it over the heads.
    """
    x = stack([inp])
    q, k, v = (
        matmul(stack([getattr(head, name) for head in heads]), x) for name in ("w_q", "w_k", "w_v")
    )
    return attend(v, attention_map(q, k))
