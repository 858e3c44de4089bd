"""Plain reference ops that the package does not ship: joining separate
tensors end to end along the rows or the columns of their matrices, scaling
a tensor by a constant, and undoing a normalization.

The model joins a route's heads along the rows with `tensor.reshape`,
which is held to `concat_rows` (tests/test_tensor.py). The per-head
reference forward (tests/test_attention.py) joins the temporal route's
heads with `concat_rows` and the channel route's with `concat_cols`, where
the model transposes its row join instead. `scale` is a node of its own:
the per-window reference of a batch loss (tests/test_batching.py) scales
the summed window losses by 1/B with it, and `tensor.scaled_dot_softmax`,
the attention map as one node, is held to `transpose`, `matmul`, `scale`
and `softmax_cols` as separate nodes (tests/test_tensor.py). They record
on the active tape like any engine op.

`reference_write_series_csv` is the dataset CSV writer as first written, a
csv.writer row loop, which tests/test_data.py and
tests/test_artifact_writers.py hold `data.write_series_csv` to.
"""

from __future__ import annotations

import csv

import numpy as np

from mcdc.data import CSV_HEADER, NormStats
from mcdc.tensor import DimensionError, Tensor, _accum, _record, _tracking


def _concat(parts: list[Tensor], axis: int, name: str) -> Tensor:
    """Join on `axis` (-2 or -1); every other axis must agree."""
    def off_axis(shape):
        return shape[:-2] + shape[-1:] if axis == -2 else shape[:-1]

    first = off_axis(parts[0].data.shape)
    for p in parts:
        if off_axis(p.data.shape) != first:
            raise DimensionError(f"{name} shapes differ off the joined axis: {parts[0].shape} vs {p.shape}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    if not _tracking(tuple(parts)):
        return out
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accum(p, g[..., lo:hi, :] if axis == -2 else g[..., lo:hi])

    return _record(out, tuple(parts), bw)


def concat_rows(parts: list[Tensor]) -> Tensor:
    return _concat(parts, -2, "concat_rows")


def concat_cols(parts: list[Tensor]) -> Tensor:
    return _concat(parts, -1, "concat_cols")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)
    if not _tracking((a,)):
        return out

    def bw(g):
        _accum(a, g * c)

    return _record(out, (a,), bw)


def invert(stats: NormStats, values: np.ndarray) -> np.ndarray:
    """The raw readings that `stats.apply` maps to `values`."""
    return values * stats.std[:, None] + stats.mean[:, None]


def reference_write_series_csv(series, path):
    """The CSV writer as first written: one row and one repr per value."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for s in sorted(series, key=lambda s: s.transformer_id):
            for i, day in enumerate(s.days):
                writer.writerow(
                    [s.transformer_id, s.voltage_kv, s.condition.name, int(day)]
                    + [repr(float(v)) for v in s.readings[:, i]]
                )
