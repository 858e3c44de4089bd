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
stack is the (3H, 1, k) kernel bank of its one conv1d, whose (..., 3H, d, n)
result `split` cuts into Q, K and V. The matrix variant splits its
(3H, d, d) stack into one (H, d, d) part per projection and makes one
matmul per projection, against a `reshape` of the input with a unit head
axis. Either way a route has one attention map, `scaled_dot_softmax`, and
one weighted sum of the values, `matmul(v, map)`, whatever its head count.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
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
    "cnn_attention",
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


def cnn_attention(inp: Tensor, bank: Tensor) -> Tensor:
    """All heads of a conv route on `inp` (d x n or a stack): (..., H, d, n).

    `bank` is the route's (3H, 1, k) kernel stack (see new_qkv); each kernel
    slides down every token's feature vector at stride 1 with same-length
    padding, so Q, K and V keep the input's d x n shape."""
    q, k, v = split(conv1d(inp, bank), 3)
    return matmul(v, scaled_dot_softmax(q, k))


def matrix_attention(inp: Tensor, weights: Tensor) -> Tensor:
    """All heads of a matrix route on `inp` (d x n or a stack): (..., H, d, n).

    `weights` is the route's (3H, d, d) stack (see new_qkv). Each projection
    is one matmul of its (H, d, d) part with a view of the input that has a
    unit head axis before its matrix axes, which broadcasts it over the heads.
    """
    x = reshape(inp, inp.shape[:-2] + (1,) + inp.shape[-2:])
    q, k, v = (matmul(w, x) for w in split(weights, 3))
    return matmul(v, scaled_dot_softmax(q, k))
