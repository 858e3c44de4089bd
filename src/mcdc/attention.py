"""Attention over tokens, with conv-derived or matrix-projected Q/K/V.

Both variants take features on rows and tokens on columns (d x n), one
matrix or a stack of them, one per sample. The conv variant slides one
short kernel per projection down each token's feature vector; the matrix
variant left-multiplies by a square learned matrix. Both give Q, K and V as
d x n and feed the same scaled dot-product map, so they are drop-ins for
each other at equal route and width.

A route's parameter is the one (3H, rows, cols) stack its forward consumes,
the q entries of every head first, then the k and then the v entries, and
each route returns (..., H, d, n) with head h at index h. The conv variant's
stack is the (3H, 1, k) kernel bank of its one conv1d, which slides it at
stride 1 with same-length padding, so features' == features, and whose
(..., 3H, d, n) result is the Q/K/V stack as it is. That block is a view of
the C-contiguous (3H, d, ..., n) buffer conv1d's tap sums ran in, and its
gradient, which `split` adds up, keeps that layout, so neither the forward
nor the backward copies the block. The matrix variant
splits its (3H, d, d) stack into one (H, d, d) part per projection and makes
one matmul per projection, against a `reshape` of the input with a unit head
axis. Either way a route has one attention map and one attend, whatever its
head count. The map is one tape node, `tensor.scaled_dot_softmax`, which
reads K^T as a view of K and keeps only the normalized weights. Their
buffer is keys-first, (n, ..., n) with the key index first, and the map is
its (..., n, n) view, so the softmax over the keys runs along the buffer's
leading axis; `attend` and the tape see only the (..., n, n) map.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    DimensionError,
    Tensor,
    conv1d,
    glorot,
    matmul,
    parameter,
    reshape,
    scaled_dot_softmax,
    split,
)

__all__ = [
    "attend",
    "attention_map",
    "cnn_attention",
    "cnn_qkv",
    "matrix_attention",
    "new_qkv",
]


def new_qkv(rng: np.random.Generator, heads: int, rows: int, cols: int) -> Tensor:
    """A route's Q/K/V parameter: a (3H, rows, cols) stack holding the q entry
    of every head, then the k entries, then the v entries; (1, k) kernels for
    the conv route, (d, d) matrices for the matrix route.

    The entries are drawn head by head, q, k and v within a head, each a
    Glorot draw of its own (rows, cols) fans, and then reordered."""
    drawn = glorot(rng, heads, 3, rows, cols).data
    return parameter(drawn.swapaxes(0, 1).reshape(3 * heads, rows, cols))


def cnn_qkv(inp: Tensor, bank: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """Convolve each token's feature vector, a column of `inp` (d x n, or a
    stack of those), with every kernel of a route's (3H, 1, k) bank (see
    new_qkv): one (..., H, d, n) stack per projection, all views of conv1d's
    (..., 3H, d, n) block, which is itself a view of the one C-contiguous
    (3H, d, ..., n) buffer of its tap sums. split adds the three gradients
    into one buffer of that layout, which conv1d's backward reads in the
    sums' order without a copy."""
    return tuple(split(conv1d(inp, bank), 3))


def attention_map(q: Tensor, k: Tensor) -> Tensor:
    """Column-stochastic token-to-token weights: softmax(K^T Q / sqrt(d)).

    d is the shared feature-axis length of Q and K; column j holds the
    weights with which token j draws on every value token. It is one tape
    node, `scaled_dot_softmax`, which refuses q and k of different shapes
    and keeps neither K^T nor the unnormalized scores.
    """
    return scaled_dot_softmax(q, k)


def attend(v: Tensor, amap: Tensor) -> Tensor:
    """Weighted sum of value tokens: V @ map, one convex mix per column."""
    if amap.shape[-2] != amap.shape[-1] or v.shape[-1] != amap.shape[-2]:
        raise DimensionError(f"value/map shapes incompatible: {v.shape} vs {amap.shape}")
    return matmul(v, amap)


def cnn_attention(inp: Tensor, bank: Tensor) -> Tensor:
    """All heads of a conv route on `inp` (d x n or a stack): (..., H, d, n)."""
    q, k, v = cnn_qkv(inp, bank)
    return attend(v, attention_map(q, k))


def matrix_attention(inp: Tensor, weights: Tensor) -> Tensor:
    """All heads of a matrix route on `inp` (d x n or a stack): (..., H, d, n).

    `weights` is the route's (3H, d, d) stack (see new_qkv). Each projection
    is one matmul of its (H, d, d) part with a view of the input that has a
    unit head axis before its matrix axes, which broadcasts it over the heads.
    """
    x = reshape(inp, inp.shape[:-2] + (1,) + inp.shape[-2:])
    q, k, v = (matmul(w, x) for w in split(weights, 3))
    return attend(v, attention_map(q, k))
