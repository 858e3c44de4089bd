"""Attention over token columns, with conv-derived or matrix-projected Q/K/V.

Inputs are oriented features-on-rows, tokens-on-columns: one matrix, or a
stack of them with one matrix per sample. The conv variant
slides one short kernel per projection along each token's feature vector;
the matrix variant left-multiplies by a square learned matrix. Both feed the
same scaled dot-product map, so they are shape-compatible drop-ins for each
other at equal route and width.
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

    def __call__(self, inp: Tensor) -> Tensor:
        return cnn_attention(inp, self)


@dataclass
class MatrixAttentionHead:
    """Square projection matrices over the feature axis (conventional attention)."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("wq", self.w_q), ("wk", self.w_k), ("wv", self.w_v)]

    def __call__(self, inp: Tensor) -> Tensor:
        return matrix_attention(inp, self)


def new_cnn_head(kernel_size: int, rng: np.random.Generator) -> CnnAttentionHead:
    kq, kk, kv = (glorot(rng, 1, kernel_size) for _ in range(3))
    return CnnAttentionHead(kq, kk, kv, kernel_size)


def new_matrix_head(feature_dim: int, rng: np.random.Generator) -> MatrixAttentionHead:
    wq, wk, wv = (glorot(rng, feature_dim, feature_dim) for _ in range(3))
    return MatrixAttentionHead(wq, wk, wv)


def head_parameter_count(head) -> int:
    return sum(p.data.size for _, p in head.parameters())


def cnn_qkv(inp: Tensor, head: CnnAttentionHead) -> tuple[Tensor, Tensor, Tensor]:
    """Convolve each token's feature vector with the head's three kernels.

    `inp` is features x tokens; the kernel slides along the feature axis of
    every token, so the conv runs on the transposed matrix row-wise and the
    result is transposed back. Same-padding keeps features' == features.
    """
    tokens_rows = transpose(inp)
    pad = same_padding(head.kernel_size)
    q = transpose(conv1d(tokens_rows, head.kernel_q, padding=pad))
    k = transpose(conv1d(tokens_rows, head.kernel_k, padding=pad))
    v = transpose(conv1d(tokens_rows, head.kernel_v, padding=pad))
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


def cnn_attention(inp: Tensor, head: CnnAttentionHead) -> Tensor:
    q, k, v = cnn_qkv(inp, head)
    return attend(v, attention_map(q, k))


def matrix_attention(inp: Tensor, head: MatrixAttentionHead) -> Tensor:
    q = matmul(head.w_q, inp)
    k = matmul(head.w_k, inp)
    v = matmul(head.w_v, inp)
    return attend(v, attention_map(q, k))

