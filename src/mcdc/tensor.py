"""Dense 2-D float64 tensors with reverse-mode differentiation.

Every value in the model is a 2-D matrix (scalars are 1x1, vectors are 1xN
or Nx1). Operations executed while a Tape is active record themselves onto
it in creation order, which is automatically a topological order; backward()
walks the tape once in reverse. With no active tape the same functions run
as plain numpy compute, which is the evaluation fast path.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "DimensionError",
    "GeometryError",
    "Tape",
    "Tensor",
    "add",
    "add_n",
    "backward",
    "concat_cols",
    "concat_rows",
    "conv1d",
    "cross_entropy",
    "glorot",
    "grad_check",
    "matmul",
    "mul",
    "parameter",
    "reshape",
    "scale",
    "sigmoid",
    "softmax_axis",
    "sum_all",
    "tensor",
    "transpose",
]


class DimensionError(ValueError):
    """Raised when operand shapes are incompatible."""


class GeometryError(ValueError):
    """Raised when a convolution geometry admits no output."""


_TAPE_STACK: list["Tape"] = []

# Self-test hook: verify --inject-fault corrupts the named gradient rule so
# the gradient checker can be shown to catch a broken backward pass.
_FAULT: str | None = None


def set_fault_injection(kind: str | None) -> None:
    global _FAULT
    _FAULT = kind


class Tape:
    """Ordered record of operations for one forward pass (define-by-run)."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[Tensor] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _TAPE_STACK.pop()
        return False


class Tensor:
    """A 2-D float64 matrix, optionally carrying a gradient accumulator."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise DimensionError(f"tensors are 2-D, got ndim={arr.ndim}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.flat[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)


def tensor(data) -> Tensor:
    """Constant tensor (no gradient tracking)."""
    return Tensor(data)


def parameter(data) -> Tensor:
    """Leaf tensor that accumulates gradients."""
    return Tensor(data, requires_grad=True)


def glorot(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    """Glorot-uniform parameter: one draw of U(-b, b) with b = sqrt(6 / (rows + cols))."""
    bound = math.sqrt(6.0 / (rows + cols))
    return parameter(rng.uniform(-bound, bound, size=(rows, cols)))


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.requires_grad:
        t.grad = g.copy() if t.grad is None else t.grad + g


def _record(out: Tensor, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Put `out` on the active tape if any parent tracks gradients."""
    if _TAPE_STACK:
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._backward = backward_fn
                _TAPE_STACK[-1].nodes.append(out)
                break
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add shapes differ: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)

    def bw(g):
        _accum(a, g)
        _accum(b, g)

    return _record(out, (a, b), bw)


def add_n(parts: list[Tensor]) -> Tensor:
    """Elementwise sum of same-shape tensors as a single node."""
    if not parts:
        raise DimensionError("add_n needs at least one tensor")
    shape = parts[0].shape
    for p in parts:
        if p.shape != shape:
            raise DimensionError(f"add_n shapes differ: {shape} vs {p.shape}")
    total = parts[0].data.copy()
    for p in parts[1:]:
        total += p.data
    out = Tensor(total)

    def bw(g):
        for p in parts:
            _accum(p, g)

    return _record(out, tuple(parts), bw)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)

    def bw(g):
        _accum(a, g * c)

    return _record(out, (a,), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"mul shapes differ: {a.shape} vs {b.shape}")
    out = Tensor(a.data * b.data)

    def bw(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _record(out, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dims differ: {a.shape} vs {b.shape}")
    out = Tensor(a.data @ b.data)

    def bw(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _record(out, (a, b), bw)


def transpose(a: Tensor) -> Tensor:
    out = Tensor(a.data.T.copy())

    def bw(g):
        _accum(a, g.T)

    return _record(out, (a,), bw)


def reshape(a: Tensor, shape: tuple[int, int]) -> Tensor:
    if a.data.size != shape[0] * shape[1]:
        raise DimensionError(f"cannot reshape {a.shape} to {shape}")
    out = Tensor(a.data.reshape(shape).copy())

    def bw(g):
        _accum(a, g.reshape(a.shape))

    return _record(out, (a,), bw)


def concat_rows(parts: list[Tensor]) -> Tensor:
    cols = parts[0].shape[1]
    for p in parts:
        if p.shape[1] != cols:
            raise DimensionError(f"concat_rows column counts differ: {cols} vs {p.shape[1]}")
    out = Tensor(np.vstack([p.data for p in parts]))
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accum(p, g[lo:hi, :])

    return _record(out, tuple(parts), bw)


def concat_cols(parts: list[Tensor]) -> Tensor:
    rows = parts[0].shape[0]
    for p in parts:
        if p.shape[0] != rows:
            raise DimensionError(f"concat_cols row counts differ: {rows} vs {p.shape[0]}")
    out = Tensor(np.hstack([p.data for p in parts]))
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accum(p, g[:, lo:hi])

    return _record(out, tuple(parts), bw)


def _pad_pair(padding) -> tuple[int, int]:
    if isinstance(padding, tuple):
        left, right = int(padding[0]), int(padding[1])
    else:
        left = right = int(padding)
    if left < 0 or right < 0:
        raise GeometryError(f"negative padding {padding}")
    return left, right


def conv1d(signal: Tensor, kernel: Tensor, stride: int = 1, padding=0) -> Tensor:
    """Correlate every row of `signal` with the 1-D `kernel`.

    `padding` is a zero-pad count, either symmetric (int) or an explicit
    (left, right) pair; output length is floor((L + pads - k)/stride) + 1.
    Gradients w.r.t. both the signal and the kernel are recorded.
    """
    kern = kernel.data.ravel()
    k = kern.size
    if k < 1:
        raise GeometryError("kernel must have length >= 1")
    if stride < 1:
        raise GeometryError(f"stride must be >= 1, got {stride}")
    left, right = _pad_pair(padding)
    n_rows, length = signal.shape
    if length + left + right < k:
        raise GeometryError(
            f"signal length {length} with padding {padding} is shorter than kernel {k}"
        )
    taps, back_taps = _conv_taps(length, k, stride, left, right)
    # extended[:, taps][r, j, t] is padded row r under output j's tap t
    extended = _with_zero_column(signal.data)
    out = Tensor(_tap_sum(extended[:, taps] * kern))

    def bw(g):
        if kernel.requires_grad:
            # one contiguous row of g * tap-t window per tap, summed like a
            # whole-array .sum() of that product
            prods = np.ascontiguousarray((extended[:, taps] * g[:, :, None]).transpose(2, 0, 1))
            dk = prods.reshape(k, -1).sum(axis=1)
            if _FAULT == "conv-kernel-grad":
                dk = dk * 1.01 + 1e-3
            _accum(kernel, dk.reshape(kernel.shape))
        if signal.requires_grad:
            _accum(signal, _tap_sum(_with_zero_column(g)[:, back_taps] * kern))

    return _record(out, (signal, kernel), bw)


@functools.lru_cache(maxsize=256)
def _conv_taps(length: int, k: int, stride: int, left: int, right: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather indices for conv1d over a row extended by one zero column.

    taps[j, t] is the signal column under tap t of output j; back_taps[p, t]
    is the output column whose tap t covers signal column p. Positions that
    fall in the padding, or that no output covers, point at the zero column.
    """
    out_len = (length + left + right - k) // stride + 1
    tap = np.arange(k)
    col = np.arange(out_len)[:, None] * stride + tap - left
    taps = np.where((col >= 0) & (col < length), col, length)
    out_col, rem = np.divmod(np.arange(length)[:, None] + left - tap, stride)
    back_taps = np.where((rem == 0) & (out_col >= 0) & (out_col < out_len), out_col, out_len)
    taps.setflags(write=False)
    back_taps.setflags(write=False)
    return taps, back_taps


def _with_zero_column(a: np.ndarray) -> np.ndarray:
    return np.concatenate((a, np.zeros((a.shape[0], 1))), axis=1)


def _tap_sum(terms: np.ndarray) -> np.ndarray:
    """Sum the last axis in tap order, one running total per element.

    That is the order of a naive tap loop started at zero, so the result is
    elementwise bit-exact against it: terms from the zero column only add
    signed zeros, and the final + 0.0 gives a zero total the loop's sign.
    """
    return np.add.accumulate(terms, axis=2)[:, :, -1] + 0.0


def softmax_axis(x: Tensor, axis: str) -> Tensor:
    """Softmax over each row ("row") or each column ("col"), max-stabilized."""
    if axis == "col":
        shifted = x.data - x.data.max(axis=0, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=0, keepdims=True)
        red = 0
    elif axis == "row":
        shifted = x.data - x.data.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=1, keepdims=True)
        red = 1
    else:
        raise ValueError(f"axis must be 'row' or 'col', got {axis!r}")
    out = Tensor(y)

    def bw(g):
        dot = (y * g).sum(axis=red, keepdims=True)
        _accum(x, y * (g - dot))

    return _record(out, (x,), bw)


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    y = np.empty_like(d)
    pos = d >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    y[~pos] = ex / (1.0 + ex)
    out = Tensor(y)

    def bw(g):
        _accum(x, g * y * (1.0 - y))

    return _record(out, (x,), bw)


_LOG_FLOOR = 1e-12


def cross_entropy(probs: Tensor, label: int) -> Tensor:
    """-ln(probs[label]) with a 1e-12 floor before the log.

    `probs` is a probability vector (1xV or Vx1) that must sum to 1 within
    1e-6; `label` indexes the class.
    """
    if min(probs.shape) != 1:
        raise DimensionError(f"probs must be a vector, got shape {probs.shape}")
    flat = probs.data.ravel()
    if abs(flat.sum() - 1.0) > 1e-6:
        raise ValueError(f"probs sum to {flat.sum():.9f}, not 1")
    if not 0 <= label < flat.size:
        raise IndexError(f"label {label} outside [0, {flat.size})")
    p = max(flat[label], _LOG_FLOOR)
    out = Tensor(-np.log(p))

    def bw(g):
        d = np.zeros_like(probs.data)
        d.flat[label] = -g[0, 0] / p
        _accum(probs, d)

    return _record(out, (probs,), bw)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum())

    def bw(g):
        _accum(x, np.full_like(x.data, g[0, 0]))

    return _record(out, (x,), bw)


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate dloss/dleaf into every reachable leaf's .grad.

    Clears all gradients reachable from the tape first, so repeated calls on
    the same tape reproduce identical gradients bit for bit.
    """
    if loss.shape != (1, 1):
        raise ValueError(f"backward seed must be scalar, got shape {loss.shape}")
    for node in tape.nodes:
        node.grad = None
        for p in node._parents:
            p.grad = None
    loss.grad = np.ones((1, 1))
    for node in reversed(tape.nodes):
        if node.grad is not None and node._backward is not None:
            node._backward(node.grad)


def grad_check(f, params: list[Tensor], step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` rebuilds its computation from `params` on every call and returns a
    scalar Tensor. Relative error uses max(|analytic|, |cd|, 1e-8) as the
    denominator.
    """
    with Tape() as tape:
        loss = f()
        backward(tape, loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = f().item()
            flat[i] = orig - step
            dn = f().item()
            flat[i] = orig
            cd = (up - dn) / (2.0 * step)
            a = ana.ravel()[i]
            err = abs(a - cd) / max(abs(a), abs(cd), 1e-8)
            worst = max(worst, err)
    return worst
