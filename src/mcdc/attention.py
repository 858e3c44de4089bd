"""Attention over token columns, with conv-derived or matrix-projected Q/K/V.

Inputs are oriented features-on-rows, tokens-on-columns: one matrix, or a
stack of them with one matrix per sample. The conv variant
slides one short kernel per projection along each token's feature vector;
the matrix variant left-multiplies by a square learned matrix. Both feed the
same scaled dot-product map, so they are shape-compatible drop-ins for each
other at equal route and width.

The heads of a route run as one stack: their kernels (or matrices) are
stacked into one bank per projection inside the forward pass, so a route
costs one conv1d (or matmul) per projection, one attention map and one
attend whatever its head count, and returns (..., H, d, n) with head h at
index h. The heads themselves only hold their parameters.
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
    "same_padding",
]


def same_padding(kernel_size: int) -> tuple[int, int]:
    """Zero-pad counts keeping output length equal to input at stride 1.

    Even kernels need one more pad on the right than on the left.
    """
    left = (kernel_size - 1) // 2
    return left, kernel_size - 1 - left


@dataclass
class CnnAttentionHead:
    """Three independent conv kernels producing Query, Key and Value."""

    kernel_q: Tensor
    kernel_k: Tensor
    kernel_v: Tensor
    kernel_size: int

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
    return CnnAttentionHead(kq, kk, kv, kernel_size)


def new_matrix_head(feature_dim: int, rng: np.random.Generator) -> MatrixAttentionHead:
    wq, wk, wv = (glorot(rng, feature_dim, feature_dim) for _ in range(3))
    return MatrixAttentionHead(wq, wk, wv)


def head_parameter_count(head) -> int:
    return sum(p.data.size for _, p in head.parameters())


def cnn_qkv(inp: Tensor, heads: list[CnnAttentionHead]) -> tuple[Tensor, Tensor, Tensor]:
    """Convolve each token's feature vector with every head's three kernels.

    `inp` is features x tokens (d x n, or a stack of those); the result is
    one (..., H, d, n) stack per projection. The kernels slide along the
    feature axis of every token, so the conv runs on the transposed input
    row-wise, once per projection with all H kernels stacked, and the
    result is transposed back. Same-padding keeps features' == features.
    """
    tokens_rows = transpose(inp)
    pad = same_padding(heads[0].kernel_size)
    q, k, v = (
        transpose(conv1d(tokens_rows, stack([getattr(head, name) for head in heads]), padding=pad))
        for name in ("kernel_q", "kernel_k", "kernel_v")
    )
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
    """All heads of a conv route on `inp` (d x n or a stack): (..., H, d, n)."""
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
