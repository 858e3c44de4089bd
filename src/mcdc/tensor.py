"""Dense float64 tensors with reverse-mode differentiation.

A value is a 2-D matrix (scalars are 1x1, vectors are 1xN or Nx1) or a stack
of equal-shape matrices (..., rows, cols), one per sample of a batch and, in
attention, one per head. Every op works on the last two axes and treats the
leading ones as the stack, so a batch of windows is one graph, not one graph
per window. The stack axes of `add` and `matmul` operands broadcast as in
numpy (a 2-D parameter over a batch, an (H, r, c) head stack over a
(B, 1, r, c) batch); a broadcast operand's gradient is summed back to its
shape before it reaches the operand. `conv1d` has one form, the one the
attention routes build: a (K, 1, k) kernel bank slid one column at a time
over a signal zero-padded to keep its length.

Operations executed while a Tape is active record themselves onto it in
creation order, which is automatically a topological order; backward()
walks the tape once in reverse. With no active tape the same functions run
as plain numpy compute, which is the evaluation fast path.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DimensionError",
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
    "merge_stack",
    "mul",
    "parameter",
    "reshape",
    "scale",
    "sigmoid",
    "softmax_axis",
    "split",
    "stack",
    "sum_all",
    "tensor",
    "transpose",
]


class DimensionError(ValueError):
    """Raised when operand shapes are incompatible."""


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
    """A float64 matrix or stack of matrices, optionally carrying a gradient accumulator."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.flat[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


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
    """Add `g` into t.grad. A first gradient is stored as it is, not copied,
    so t.grad may alias another node's gradient: never add into it in place
    without owning it first (see split)."""
    if t.requires_grad:
        if g.shape != t.data.shape:  # t was broadcast over stack axes
            lead = g.ndim - t.data.ndim
            ones = tuple(lead + i for i, n in enumerate(t.data.shape[:-2]) if n == 1 and g.shape[lead + i] != 1)
            g = g.sum(axis=tuple(range(lead)) + ones).reshape(t.data.shape)
        t.grad = g if t.grad is None else t.grad + g


def _stacks_differ(a: Tensor, b: Tensor) -> bool:
    """True when the operands' stack axes do not broadcast against each other."""
    for m, n in zip(reversed(a.shape[:-2]), reversed(b.shape[:-2])):
        if m != n and m != 1 and n != 1:
            return True
    return False


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
    if a.shape[-2:] != b.shape[-2:] or _stacks_differ(a, b):
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
    if a.data.shape[-1] != b.data.shape[-2] or _stacks_differ(a, b):
        raise DimensionError(f"matmul inner dims differ: {a.shape} vs {b.shape}")
    out = Tensor(a.data @ b.data)

    def bw(g):
        _accum(a, g @ b.data.swapaxes(-1, -2))
        _accum(b, a.data.swapaxes(-1, -2) @ g)

    return _record(out, (a, b), bw)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    out = Tensor(a.data.swapaxes(-1, -2).copy())

    def bw(g):
        _accum(a, g.swapaxes(-1, -2))

    return _record(out, (a,), bw)


def reshape(a: Tensor, shape: tuple[int, int]) -> Tensor:
    """Reshape each matrix of the stack to `shape`; leading axes stay."""
    if a.shape[-2] * a.shape[-1] != shape[0] * shape[1]:
        raise DimensionError(f"cannot reshape {a.shape} to {shape}")
    out = Tensor(a.data.reshape(a.shape[:-2] + tuple(shape)).copy())

    def bw(g):
        _accum(a, g.reshape(a.shape))

    return _record(out, (a,), bw)


def _concat(parts: list[Tensor], axis: int, name: str) -> Tensor:
    """Join on `axis` (-2 or -1); every other axis must agree."""
    def off_axis(shape):
        return shape[:-2] + shape[-1:] if axis == -2 else shape[:-1]

    first = off_axis(parts[0].data.shape)
    for p in parts:
        if off_axis(p.data.shape) != first:
            raise DimensionError(f"{name} shapes differ off the joined axis: {parts[0].shape} vs {p.shape}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accum(p, g[..., lo:hi, :] if axis == -2 else g[..., lo:hi])

    return _record(out, tuple(parts), bw)


def concat_rows(parts: list[Tensor]) -> Tensor:
    return _concat(parts, -2, "concat_rows")


def concat_cols(parts: list[Tensor]) -> Tensor:
    return _concat(parts, -1, "concat_cols")


def stack(parts: list[Tensor]) -> Tensor:
    """Stack same-shape tensors on a new axis just before the matrix axes:
    S parts of shape (..., r, c) give (..., S, r, c)."""
    shape = parts[0].shape
    for p in parts:
        if p.shape != shape:
            raise DimensionError(f"stack shapes differ: {shape} vs {p.shape}")
    # np.array of 2-D parts (the per-forward kernel and matrix banks) is
    # several times faster than np.stack; parts with stack axes move the
    # new axis from the front to just before the matrix axes
    data = np.array([p.data for p in parts])  # (S, ..., r, c)
    if data.ndim > 3:
        data = np.ascontiguousarray(np.moveaxis(data, 0, -3))
    out = Tensor(data)

    def bw(g):
        for i, p in enumerate(parts):
            _accum(p, g[..., i, :, :])

    return _record(out, tuple(parts), bw)


def merge_stack(x: Tensor, axis: str) -> Tensor:
    """Join the S matrices of the innermost stack axis into one matrix:
    (..., S, r, c) gives (..., S*r, c) for "rows", with matrix s in row block
    s, or (..., r, S*c) for "cols", with matrix s in column block s. The
    result is C-contiguous, as concat_rows/concat_cols of the S parts is."""
    if axis not in ("rows", "cols"):
        raise ValueError(f"axis must be 'rows' or 'cols', got {axis!r}")
    if x.data.ndim < 3:
        raise DimensionError(f"merge_stack needs a stack, got shape {x.shape}")
    *lead, s, r, c = x.shape
    if axis == "rows":
        out = Tensor(x.data.reshape(*lead, s * r, c).copy())
    else:
        out = Tensor(np.ascontiguousarray(np.moveaxis(x.data, -3, -2)).reshape(*lead, r, s * c))

    def bw(g):
        if axis == "rows":
            _accum(x, g.reshape(x.shape))
        else:
            _accum(x, np.moveaxis(g.reshape(*lead, r, s, c), -2, -3))

    return _record(out, (x,), bw)


def split(x: Tensor, parts: int) -> list[Tensor]:
    """Cut the innermost stack axis into `parts` equal runs, the inverse of
    stack: (..., P*S, r, c) gives P views (..., S, r, c), part p holding
    matrices p*S to p*S + S - 1. Each part is one node; their gradients are
    added into one buffer of x's shape, each into its own run."""
    if x.data.ndim < 3:
        raise DimensionError(f"split needs a stack, got shape {x.shape}")
    if parts < 1 or x.shape[-3] % parts:
        raise DimensionError(f"cannot split {x.shape[-3]} stacked matrices into {parts} equal parts")
    size = x.shape[-3] // parts
    owned = None  # the buffer this split allocated or copied for x.grad
    out = []
    for lo in range(0, x.shape[-3], size):
        run = (..., slice(lo, lo + size), slice(None), slice(None))

        def bw(g, run=run):
            nonlocal owned
            if x.grad is None or x.grad is not owned:  # x.grad may alias another node's
                owned = np.zeros(x.shape) if x.grad is None else x.grad.copy()
                x.grad = owned
            x.grad[run] += g

        out.append(_record(Tensor(x.data[run]), (x,), bw))
    return out


def conv1d(signal: Tensor, bank: Tensor) -> Tensor:
    """Correlate every row of `signal` with each kernel of a (K, 1, k) bank.

    The result is (..., K, rows, L), kernel i's rows at index i, as long as
    the signal: the signal is zero-padded by (k - 1) // 2 on the left and the
    rest of k - 1 on the right, so an even kernel has one more pad on the
    right. Every output starts at zero and adds its taps' products in tap
    order, as a naive tap loop does, so each (kernel, row) pair is computed
    exactly as that row with that kernel on its own. Gradients w.r.t. both
    the signal and the bank are recorded.

    The sums run with the convolved axis first, (L, ..., rows): a tap's
    view of every output is then one slice of whole (..., rows) blocks, so
    each step is one long elementwise run rather than one per row.
    """
    if bank.data.ndim != 3 or bank.shape[1] != 1 or 0 in bank.shape:
        raise DimensionError(f"conv1d needs a (K, 1, k) kernel bank with K, k >= 1, got shape {bank.shape}")
    k = bank.shape[-1]
    left = (k - 1) // 2
    length = signal.data.shape[-1]
    kernels = bank.data.reshape(-1, k)  # (K, k)
    lead = signal.data.shape[:-1]  # (..., rows)
    taps = kernels.T.reshape((k, -1) + (1,) * len(lead))  # taps[t]: tap t of every kernel, (K, 1, ..., 1)
    cols = np.zeros((length + k - 1,) + lead)  # the zero-padded signal, convolved axis first
    cols[left:left + length] = np.moveaxis(signal.data, -1, 0)
    out = np.zeros((kernels.shape[0], length) + lead)
    term = np.empty(out.shape)
    for t in range(k):
        np.multiply(cols[t:t + length], taps[t][:, None], out=term)
        out += term
    out = Tensor(np.moveaxis(out, (0, 1), (-3, -1)))  # (..., K, rows, L)

    def bw(g):
        scratch = np.empty(g.size)  # one tap's products, for either gradient
        if bank.requires_grad:
            # kernel i's tap-t gradient is the whole-array sum of g[..., i, :, :]
            # times tap t's window; each tap's products are written kernel-major,
            # so every kernel's are one contiguous row and summed as .sum() would
            padded = np.zeros(lead + (length + k - 1,))
            padded[..., left:left + length] = signal.data
            by_kernel = np.moveaxis(g, -3, 0)
            prod = scratch.reshape(by_kernel.shape)
            dk = np.empty(kernels.shape)
            for t in range(k):
                np.multiply(by_kernel, np.ascontiguousarray(padded[..., t:t + length]), out=prod)
                dk[:, t] = prod.reshape(kernels.shape[0], -1).sum(axis=1)
            if _FAULT == "conv-kernel-grad":
                dk = dk * 1.01 + 1e-3
            _accum(bank, dk.reshape(bank.shape))
        if signal.requires_grad:
            # per kernel, g times tap t added tap by tap from zero into the
            # padded signal, convolved axis first; then the kernels' gradients
            # added in kernel order
            g_cols = np.ascontiguousarray(np.moveaxis(g, (-1, -3), (0, 1)))  # (L, K, ..., rows)
            d_cols = np.zeros((length + k - 1,) + g_cols.shape[1:])
            term = scratch.reshape(g_cols.shape)
            for t in range(k):
                np.multiply(g_cols, taps[t], out=term)
                d_cols[t:t + length] += term
            d_cols = d_cols[left:left + length]
            d_signal = d_cols[:, 0].copy()
            for i in range(1, d_cols.shape[1]):
                d_signal += d_cols[:, i]
            _accum(signal, np.moveaxis(d_signal, 0, -1))

    return _record(out, (signal, bank), bw)


def softmax_axis(x: Tensor, axis: str) -> Tensor:
    """Softmax over each row ("row") or each column ("col") of every matrix
    of the stack, max-stabilized."""
    if axis not in ("row", "col"):
        raise ValueError(f"axis must be 'row' or 'col', got {axis!r}")
    red = -2 if axis == "col" else -1
    e = np.exp(x.data - x.data.max(axis=red, keepdims=True))
    y = e / e.sum(axis=red, keepdims=True)
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


def cross_entropy(probs: Tensor, label) -> Tensor:
    """-ln(probs[label]) with a 1e-12 floor before the log.

    `probs` is a probability vector (1xV or Vx1) that must sum to 1 within
    1e-6; `label` indexes the class. For a batch, `probs` is a stack
    (B, 1, V) of such vectors and `label` a length-B vector; the result is
    the mean over the batch, as one node.
    """
    if not isinstance(label, (int, np.integer)):
        return _mean_cross_entropy(probs, np.asarray(label))
    if probs.data.ndim != 2 or min(probs.shape) != 1:
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


def _mean_cross_entropy(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Batch form of cross_entropy: the one-vector form, written out on its
    own so that the per-window path stays an independent reference."""
    if probs.data.ndim != 3 or probs.shape[1] != 1 or labels.shape != probs.shape[:1]:
        raise DimensionError(f"probs {probs.shape} must be (B, 1, V) for {labels.shape} labels")
    rows = probs.data[:, 0, :]
    sums = rows.sum(axis=1)
    worst = int(np.argmax(np.abs(sums - 1.0)))
    if abs(sums[worst] - 1.0) > 1e-6:
        raise ValueError(f"probs row {worst} sums to {sums[worst]:.9f}, not 1")
    if np.any((labels < 0) | (labels >= rows.shape[1])):
        raise IndexError(f"labels {labels.tolist()} outside [0, {rows.shape[1]})")
    n = labels.size
    picked = np.maximum(rows[np.arange(n), labels], _LOG_FLOOR)
    out = Tensor(-np.log(picked).sum() / n)

    def bw(g):
        d = np.zeros_like(probs.data)
        d[np.arange(n), 0, labels] = -g[0, 0] / (n * picked)
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
