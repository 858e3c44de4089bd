"""Dense float64 tensors with reverse-mode differentiation.

A value is a 2-D matrix (scalars are 1x1, vectors are 1xN or Nx1) or a stack
of equal-shape matrices (..., rows, cols), one per sample of a batch and, in
attention, one per head. Every op works on the last two axes and treats the
leading ones as the stack, so a batch of windows is one graph, not one graph
per window. The stack axes of `add` and `matmul` operands broadcast as in
numpy (a 2-D parameter over a batch, an (H, r, c) head stack over a
(B, 1, r, c) batch); a broadcast operand's gradient is summed back to its
shape before it reaches the operand. `conv1d` has one form, the one the
attention routes hold: a (K, 1, k) kernel bank slid down every column of a
signal, one token's feature vector each, zero-padded to keep its length.
`scaled_dot_softmax` is attention's map as one node: it reads k^T as a
view of k and runs the scale and the softmax in the scores' own buffer, so
a step keeps neither k^T nor the unnormalized scores. That buffer is
keys-first, (n_key, ..., n_query), under the (..., n, n) view every caller
sees, so the softmax and its gradient reduce along its leading axis.

Operations executed while a Tape is active, on an operand that tracks
gradients, record themselves onto it in creation order, which is
automatically a topological order; backward() walks the tape once in
reverse. Every other call runs as plain numpy compute: it wraps its result
without converting it again and builds no backward rule, which is the
evaluation fast path. On a 2-vCPU host with one BLAS thread, a one-window
forward at T = 12 takes about 117 us for the stock conv model and 96 us
for its matrix twin.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

__all__ = [
    "DimensionError",
    "Tape",
    "Tensor",
    "add",
    "add_n",
    "backward",
    "conv1d",
    "cross_entropy",
    "glorot",
    "grad_check",
    "matmul",
    "mul",
    "parameter",
    "reshape",
    "scaled_dot_softmax",
    "sigmoid",
    "softmax_cols",
    "split",
    "sum_all",
    "tensor",
    "transpose",
]


class DimensionError(ValueError):
    """Raised when operand shapes are incompatible."""


_TAPE_STACK: list["Tape"] = []

# Self-test hook: verify --inject-fault corrupts the named gradient rule so
# the gradient checker can be shown to catch a broken backward pass.
FAULT_KINDS = ("conv-kernel-grad",)
_FAULT: str | None = None


def set_fault_injection(kind: str | None) -> None:
    """Corrupt the gradient rule `kind` names (one of FAULT_KINDS); None turns it off."""
    global _FAULT
    if kind is not None and kind not in FAULT_KINDS:
        raise ValueError(f"inject_fault must be one of {FAULT_KINDS}, got {kind!r}")
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

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        """Wrap `data`, a float64 array of rank 2 or more, as it is; tensor()
        and parameter() convert any other value first."""
        self.data = data
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


def _matrix(data) -> np.ndarray:
    """`data` as a float64 array: a scalar as 1x1, a vector as 1xN."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        return arr.reshape(1, 1)
    if arr.ndim == 1:
        return arr.reshape(1, -1)
    return arr


def tensor(data) -> Tensor:
    """Constant tensor (no gradient tracking)."""
    return Tensor(_matrix(data))


def parameter(data) -> Tensor:
    """Leaf tensor that accumulates gradients."""
    return Tensor(_matrix(data), requires_grad=True)


def glorot(rng: np.random.Generator, *shape: int) -> Tensor:
    """Glorot-uniform parameter of `shape` (..., rows, cols): one draw of
    U(-b, b) with b = sqrt(6 / (rows + cols)), the fans of one matrix. A stack
    draws its matrices in order, so it equals that many single draws stacked."""
    bound = math.sqrt(6.0 / (shape[-2] + shape[-1]))
    return parameter(rng.uniform(-bound, bound, size=shape))


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
    if a.data.ndim == 2 or b.data.ndim == 2:
        return False
    for m, n in zip(reversed(a.shape[:-2]), reversed(b.shape[:-2])):
        if m != n and m != 1 and n != 1:
            return True
    return False


def _tracking(parents: tuple[Tensor, ...]) -> bool:
    """True when a tape is active and a parent tracks gradients: the one case
    in which an op's result goes on the tape. Every op tests it before it
    builds its backward rule, so a call that records nothing builds none."""
    if _TAPE_STACK:
        for p in parents:
            if p.requires_grad:
                return True
    return False


def _record(out: Tensor, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Put `out` on the active tape; every op calls it only once _tracking holds."""
    out.requires_grad = True
    out._parents = parents
    out._backward = backward_fn
    _TAPE_STACK[-1].nodes.append(out)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[-2:] != b.shape[-2:] or _stacks_differ(a, b):
        raise DimensionError(f"add shapes differ: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)
    if not _tracking((a, b)):
        return out

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
    if not _tracking(tuple(parts)):
        return out

    def bw(g):
        for p in parts:
            _accum(p, g)

    return _record(out, tuple(parts), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"mul shapes differ: {a.shape} vs {b.shape}")
    out = Tensor(a.data * b.data)
    if not _tracking((a, b)):
        return out

    def bw(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _record(out, (a, b), bw)


def _fold(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The sum over the stack of x_s^T @ y_s, for stacks x (..., r, m) and
    y (..., r, n) of equal stack shape, as one (m, r*S) @ (r*S, n) product."""
    return x.reshape(-1, x.shape[-1]).T @ y.reshape(-1, y.shape[-1])


def _grad_product(x: np.ndarray, y: np.ndarray, operand: np.ndarray, g: np.ndarray) -> np.ndarray:
    """x @ y as the gradient of `operand`, for the output gradient g. An
    operand that is neither C-contiguous nor broadcast over g's stack (the
    keys-first attention map) gets it in its own layout, the others in a
    fresh C-contiguous buffer; the bytes are the same either way."""
    if operand.flags.c_contiguous or operand.shape[:-2] != g.shape[:-2]:
        return x @ y
    return np.matmul(x, y, out=np.empty_like(operand))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b on every matrix of the stack.

    A 2-D operand broadcast over the other's stack (a parameter over a
    batch) gets its gradient as one product that contracts the stack axes
    and the inner axis together, so no per-sample stack of gradients is
    formed and summed: for a, g (..., m, p) against b (..., n, p); for b,
    a (..., m, n) against g (..., m, p). A one-column g makes a's product
    g[..., 0].T @ b[..., 0], with no copy. Any other operand's gradient is
    the stacked product, summed over the axes it was broadcast on; an
    operand that is neither C-contiguous nor broadcast, such as the
    keys-first attention map, gets it in its own layout. An operand that
    tracks no gradient gets none computed.
    """
    if a.data.shape[-1] != b.data.shape[-2] or _stacks_differ(a, b):
        raise DimensionError(f"matmul inner dims differ: {a.shape} vs {b.shape}")
    out = Tensor(a.data @ b.data)
    if not _tracking((a, b)):
        return out

    def bw(g):
        if a.requires_grad:
            if a.data.ndim == 2 < g.ndim:
                _accum(a, _fold(g.swapaxes(-1, -2), b.data.swapaxes(-1, -2)))
            else:
                _accum(a, _grad_product(g, b.data.swapaxes(-1, -2), a.data, g))
        if b.requires_grad:
            if b.data.ndim == 2 < g.ndim:
                _accum(b, _fold(a.data, g))
            else:
                _accum(b, _grad_product(a.data.swapaxes(-1, -2), g, b.data, g))

    return _record(out, (a, b), bw)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes into C-contiguous data: a view of `a` when its
    data already holds that layout, else a copy."""
    out = Tensor(np.ascontiguousarray(a.data.swapaxes(-1, -2)))
    if not _tracking((a,)):
        return out

    def bw(g):
        _accum(a, g.swapaxes(-1, -2))

    return _record(out, (a,), bw)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """`a` under the whole new `shape`, by numpy's rules (at most one -1): a
    view of C-contiguous data, else a C-contiguous copy. It gives a stack a
    unit axis, joins its matrices along the rows or flattens each matrix."""
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise DimensionError(f"cannot reshape {a.shape} to {tuple(shape)}") from None
    out = Tensor(np.ascontiguousarray(data))
    if not _tracking((a,)):
        return out

    def bw(g):
        _accum(a, g.reshape(a.shape))

    return _record(out, (a,), bw)


def split(x: Tensor, parts: int) -> list[Tensor]:
    """Cut the innermost stack axis into `parts` equal runs: (..., P*S, r, c)
    gives P views (..., S, r, c), part p holding matrices p*S to p*S + S - 1.
    Each part is one node; their gradients are added into one buffer of x's
    shape, each into its own run."""
    if x.data.ndim < 3:
        raise DimensionError(f"split needs a stack, got shape {x.shape}")
    if parts < 1 or x.shape[-3] % parts:
        raise DimensionError(f"cannot split {x.shape[-3]} stacked matrices into {parts} equal parts")
    size = x.shape[-3] // parts
    runs = [(..., slice(lo, lo + size), slice(None), slice(None)) for lo in range(0, x.shape[-3], size)]
    out = [Tensor(x.data[run]) for run in runs]
    if not _tracking((x,)):
        return out
    # a weak reference to the buffer this split allocated or copied for
    # x.grad, so that the rules do not keep it alive once backward clears x.grad
    owned = None
    for part, run in zip(out, runs):

        def bw(g, run=run):
            nonlocal owned
            if x.grad is None or owned is None or x.grad is not owned():  # x.grad may alias another node's
                x.grad = np.zeros(x.shape) if x.grad is None else x.grad.copy()
                owned = weakref.ref(x.grad)
            x.grad[run] += g

        _record(part, (x,), bw)
    return out


def conv1d(signal: Tensor, bank: Tensor) -> Tensor:
    """Correlate every column of `signal` with each kernel of a (K, 1, k) bank.

    The signal is (..., L, cols), one token's feature vector per column, and
    each kernel slides down the L rows. The result is the C-contiguous
    (..., K, L, cols) block, kernel i's at index i, as long as the signal:
    each column is zero-padded by (k - 1) // 2 above and the rest of k - 1
    below, so an even kernel has one more pad below. Every output starts at
    zero and adds its taps' products in tap order, as a naive tap loop does,
    so each (kernel, column) pair is computed exactly as that column with
    that kernel on its own. Gradients w.r.t. both the signal and the bank are
    recorded.

    Layouts: the signal's n = prod(..., cols) columns are one zero-padded
    (L + k - 1, n) block, the convolved axis first. The sums run in a
    (K, L, n) buffer against a (k, K, 1, 1) view of the bank's taps, so a tap
    is one product of an (L, n) row slice with one scalar per kernel and one
    add. The sums are copied as the result into the products' buffer. The
    columns are kept for the kernel gradient. The signal gradient sums the L
    padded rows it keeps in the (K, L, n) layout and adds the kernels' parts
    with one reduce over the kernel axis. The backward makes the kernel
    gradient first and frees its kernel-major copy of the output gradient
    before it allocates the signal gradient's buffers.
    """
    if bank.data.ndim != 3 or bank.shape[1] != 1 or 0 in bank.shape:
        raise DimensionError(f"conv1d needs a (K, 1, k) kernel bank with K, k >= 1, got shape {bank.shape}")
    n_kernels, _, k = bank.shape
    left = (k - 1) // 2
    lead, (length, width) = signal.data.shape[:-2], signal.data.shape[-2:]
    n = math.prod(lead) * width
    s = len(lead)  # the signal's stack axes are 0 to s - 1
    taps = bank.data.reshape(n_kernels, k).T[:, :, None, None]  # taps[t]: tap t of every kernel
    padded = np.zeros((length + k - 1,) + lead + (width,))
    padded[left:left + length] = signal.data.transpose((s, *range(s), s + 1))  # (L, ..., cols)
    cols = padded.reshape(length + k - 1, n)
    sums = np.zeros((n_kernels, length, n))
    term = np.empty(sums.shape)
    for t in range(k):
        np.multiply(cols[t:t + length], taps[t], out=term)
        sums += term
    # (K, L, ..., cols) -> (..., K, L, cols), into term's buffer; sums is freed on return
    to_out = (*range(2, s + 2), 0, 1, s + 2)
    out = Tensor(term.reshape(lead + (n_kernels, length, width)))
    np.copyto(out.data, sums.reshape((n_kernels, length) + lead + (width,)).transpose(to_out))
    if not _tracking((signal, bank)):
        return out

    def bw(g):
        scratch = np.empty(g.size)  # one tap's products, for either gradient
        if bank.requires_grad:
            # kernel i's tap-t gradient is the whole-array sum of g[..., i, :, :]
            # times tap t's window; each tap's products are written kernel-major,
            # so every kernel's are one contiguous row and summed as .sum() would
            # (..., K, L, cols) -> (K, ..., cols, L)
            by_kernel = np.ascontiguousarray(g.transpose((s, *range(s), s + 2, s + 1)))
            prod = scratch.reshape(by_kernel.shape)
            dk = np.empty((n_kernels, k))
            for t in range(k):
                window = np.ascontiguousarray(cols[t:t + length].T).reshape(lead + (width, length))
                np.multiply(by_kernel, window, out=prod)
                dk[:, t] = prod.reshape(n_kernels, -1).sum(axis=1)
            del by_kernel, prod, window  # freed before the signal gradient's buffers
            if _FAULT == "conv-kernel-grad":
                dk = dk * 1.01 + 1e-3
            _accum(bank, dk.reshape(bank.shape))
        if signal.requires_grad:
            # per kernel, g times tap t added tap by tap from zero into the
            # padded signal's kept rows, left to left + L - 1; then the kernels
            # added in order by one reduce. A spare zero row in d_cols keeps
            # the reduce's output at two or more elements: numpy adds a reduce
            # axis in order across those, but pairwise into a lone element.
            # (..., K, L, cols) -> (K, L, ..., cols), the forward's layout
            g_cols = np.ascontiguousarray(g.transpose((s, s + 1, *range(s), s + 2))).reshape(n_kernels, length, n)
            d_cols = np.zeros((n_kernels, length + 1, n))
            for t in range(k):
                lo, hi = max(t - left, 0), min(t - left, 0) + length  # the kept rows tap t reaches
                if lo < hi:
                    term = scratch[:n_kernels * (hi - lo) * n].reshape(n_kernels, hi - lo, n)
                    np.multiply(g_cols[:, lo + left - t:hi + left - t], taps[t], out=term)
                    d_cols[:, lo:hi] += term
            # (L, ..., cols) -> (..., L, cols)
            d_signal = np.add.reduce(d_cols, axis=0)[:length].reshape((length,) + lead + (width,))
            _accum(signal, d_signal.transpose((*range(1, s + 1), 0, s + 1)))

    return _record(out, (signal, bank), bw)


def _softmax_cols_in_place(y: np.ndarray, axis: int = -2) -> np.ndarray:
    """Overwrite y with its max-stabilized softmax along `axis`, e = exp(y - max)
    then y = e / sum(e), and return y. The default normalizes every column of
    every matrix; the map's keys-first buffer passes axis 0."""
    y -= np.maximum.reduce(y, axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=axis, keepdims=True)
    return y


def _softmax_cols_grad(y: np.ndarray, g: np.ndarray, axis: int = -2) -> np.ndarray:
    """y * (g - sum(y * g)) along `axis`, for a softmax y and its output
    gradient g, in one fresh C-contiguous buffer, so that the sum runs along
    `axis` in its order whatever g's layout."""
    t = np.multiply(y, g, order="C")
    dot = np.add.reduce(t, axis=axis, keepdims=True)
    np.subtract(g, dot, out=t)
    t *= y
    return t


def softmax_cols(x: Tensor) -> Tensor:
    """Softmax over each column of every matrix of x, max-stabilized.

    The forward and the backward each fill one fresh buffer in place, with
    the bytes of the out-of-place formulas e = exp(x - max), y = e / sum(e)
    and y * (g - sum(y * g))."""
    y = _softmax_cols_in_place(np.copy(x.data))
    out = Tensor(y)
    if not _tracking((x,)):
        return out

    def bw(g):
        _accum(x, _softmax_cols_grad(y, g))

    return _record(out, (x,), bw)


def scaled_dot_softmax(q: Tensor, k: Tensor) -> Tensor:
    """softmax_cols(k^T @ q / sqrt(d)) as one node, for q and k of one shape
    (..., d, n): the attention map, whose column j weighs every token for
    token j.

    The map lives keys-first: its buffer is one C-contiguous (n, ..., n)
    array, key index first, and the node's data is that buffer's (..., n, n)
    view. The forward writes k^T @ q into the view, reading k^T as a view of
    k, and runs the scale and the softmax in place on the buffer, so its
    reductions over the keys run along the buffer's leading axis, one
    whole-array row at a time, and only the map is kept. The backward takes
    the output gradient keys-first as well, fills one keys-first buffer with
    the softmax gradient times 1/sqrt(d) and multiplies its view with q and
    k as they are. The bytes are those of transpose, matmul, a scale node
    and softmax_cols in a row."""
    if q.shape != k.shape:
        raise DimensionError(f"query/key shapes differ: {q.shape} vs {k.shape}")
    factor = 1.0 / math.sqrt(q.shape[-2])
    s, n = q.data.ndim - 2, q.shape[-1]  # the stack axes are 0 to s - 1
    keys_last = (*range(1, s + 1), 0, s + 1)
    scores = np.empty((n,) + q.shape[:-2] + (n,))  # (n_key, ..., n_query)
    y = scores.transpose(keys_last)
    np.matmul(k.data.swapaxes(-1, -2), q.data, out=y)
    scores *= factor
    _softmax_cols_in_place(scores, axis=0)
    out = Tensor(y)
    if not _tracking((q, k)):
        return out

    def bw(g):
        keys_first = (s, *range(s), s + 1)
        ds = _softmax_cols_grad(y.transpose(keys_first), g.transpose(keys_first), axis=0)
        ds *= factor
        ds = ds.transpose(keys_last)
        if k.requires_grad:
            _accum(k, (ds @ q.data.swapaxes(-1, -2)).swapaxes(-1, -2))
        if q.requires_grad:
            _accum(q, k.data @ ds)

    return _record(out, (q, k), bw)


def sigmoid(x: Tensor) -> Tensor:
    """1 / (1 + e^-x), from e = exp(-|x|) so that no exp overflows: 1 / (1 + e)
    where x >= 0 and e / (1 + e) elsewhere. That is the same bytes as the
    masked form, which takes exp(-x) on the x >= 0 entries and exp(x) on the
    rest, with one exp over the whole array and no boolean indexing."""
    d = x.data
    e = np.exp(-np.abs(d))
    denom = 1.0 + e
    y = np.where(d >= 0, 1.0 / denom, e / denom)
    out = Tensor(y)
    if not _tracking((x,)):
        return out

    def bw(g):
        _accum(x, g * y * (1.0 - y))

    return _record(out, (x,), bw)


_LOG_FLOOR = 1e-12


def cross_entropy(probs: Tensor, labels) -> Tensor:
    """Mean over the rows of -ln(row[label]), with a 1e-12 floor before the log.

    `probs` is a (B, 1, V) stack of probability rows, each summing to 1
    within 1e-6, and `labels` a length-B vector of class indices, B >= 1.
    One (1, V) row with an int label is a stack of one. The result is one
    1x1 node.
    """
    one = isinstance(labels, (int, np.integer))
    labels = np.array([int(labels)]) if one else np.asarray(labels)
    stack = probs.data[None] if one else probs.data  # one row is a stack of one
    if stack.ndim != 3 or stack.shape[1] != 1 or labels.shape != stack.shape[:1] or not labels.size:
        raise DimensionError(f"probs {probs.shape} must be a (B, 1, V) stack for B >= 1 labels, or a (1, V) row "
                             f"for an int label; labels have shape {labels.shape}")
    rows = stack[:, 0, :]
    sums = rows.sum(axis=1)
    worst = int(np.argmax(np.abs(sums - 1.0)))
    if abs(sums[worst] - 1.0) > 1e-6:
        raise ValueError(f"probs row {worst} sums to {sums[worst]:.9f}, not 1")
    if np.any((labels < 0) | (labels >= rows.shape[1])):
        raise IndexError(f"labels {labels.tolist()} outside [0, {rows.shape[1]})")
    n = labels.size
    picked = np.maximum(rows[np.arange(n), labels], _LOG_FLOOR)
    out = Tensor(np.reshape(-np.log(picked).sum() / n, (1, 1)))
    if not _tracking((probs,)):
        return out

    def bw(g):
        d = np.zeros(rows.shape)
        d[np.arange(n), labels] = -g[0, 0] / (n * picked)
        _accum(probs, d.reshape(probs.shape))

    return _record(out, (probs,), bw)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.reshape(x.data.sum(), (1, 1)))
    if not _tracking((x,)):
        return out

    def bw(g):
        _accum(x, np.full_like(x.data, g[0, 0]))

    return _record(out, (x,), bw)


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate dloss/dleaf into every reachable leaf's .grad.

    Clears all gradients reachable from the tape first, so repeated calls on
    the same tape reproduce identical gradients bit for bit. A tape node's
    gradient is released as soon as its backward rule has run, so no
    intermediate gradient outlives the step that consumes it: afterwards no
    tape node holds a .grad, and only leaves (parameters, and tensors not on
    the tape) keep theirs. The nodes' values and the data their rules read
    stay until the tape and the loss are dropped.
    """
    if loss.shape != (1, 1):
        raise ValueError(f"backward seed must be scalar, got shape {loss.shape}")
    for node in tape.nodes:
        node.grad = None
        for p in node._parents:
            p.grad = None
    loss.grad = np.ones((1, 1))
    for node in reversed(tape.nodes):
        if node.grad is not None:
            node._backward(node.grad)
            node.grad = None


def grad_check(f, params: list[Tensor]) -> float:
    """Max relative error between analytic and central-difference gradients, 1e-5 each side.

    `f` rebuilds its computation from `params` on every call and returns a
    scalar Tensor. Relative error uses max(|analytic|, |cd|, 1e-8) as the
    denominator.
    """
    step = 1e-5
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
