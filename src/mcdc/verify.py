"""Self-verification: gradient checks, attention-map stochasticity, oracle
equivalences and determinism, runnable from a fresh checkout in a couple of
minutes. Each check returns (name, passed, detail); the CLI turns any failure
into a nonzero exit code.

The backward check also requires that backward leaves no gradient on a
tape node, only on the leaves. The conv gradient checks double as a
negative control: with fault injection armed (verify --inject-fault
conv-kernel-grad) the finite-difference check and the conv oracle's
kernel-gradient comparison must both fail.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .attention import attention_map, cnn_qkv, new_qkv
from .baselines import make_model
from .conditions import by_code
from .data import CdgdWindow
from .evaluation import roc_auc, wilcoxon_rank_sum
from .tensor import Tape, backward, conv1d, cross_entropy, grad_check, matmul, mul, parameter, sigmoid, sum_all, tensor
from .training import TrainConfig, train_fold

__all__ = ["run_checks"]


def _naive_conv(signal, kernel):
    """The tap loop of a same-length correlation: (k - 1) // 2 zeros on the
    left of each row, the rest of k - 1 on the right."""
    rows, length = signal.shape
    left = (kernel.size - 1) // 2
    padded = np.zeros((rows, length + kernel.size - 1))
    padded[:, left:left + length] = signal
    out = np.zeros((rows, length))
    for r in range(rows):
        for j in range(length):
            for t in range(kernel.size):
                out[r, j] += padded[r, j + t] * kernel[t]
    return out


def _naive_conv_grads(signal, bank, g):
    """Both gradients of conv1d(signal, bank) under the output gradient `g`,
    as tap loops: kernel i's tap t is the whole-array sum of g[..., i, :, :]
    times tap t's window of the padded signal; the signal's is, per kernel,
    g times each tap added tap by tap from zero into the padded signal, then
    the kernels added in order."""
    kernels = bank.reshape(bank.shape[0], -1)
    k, length = kernels.shape[1], signal.shape[-1]
    left = (k - 1) // 2
    padded = np.zeros(signal.shape[:-1] + (length + k - 1,))
    padded[..., left:left + length] = signal
    d_bank = np.array([
        [(g[..., i, :, :] * padded[..., t:t + length]).sum() for t in range(k)] for i in range(kernels.shape[0])
    ])
    d_padded = np.zeros_like(padded)
    for i in range(kernels.shape[0]):
        one = np.zeros_like(padded)
        for t in range(k):
            one[..., t:t + length] += g[..., i, :, :] * kernels[i, t]
        d_padded += one
    return d_padded[..., left:left + length], d_bank.reshape(bank.shape)


def _check_conv_oracle():
    """Banks of 1 to 12 kernels (so K = 1 and a route's 3H bank at H <= 4)
    over signals with or without a stack axis: every (kernel, row) pair of
    the forward, and both gradients byte for byte."""
    rng = np.random.default_rng(100)
    for _ in range(90):
        length, k, kernels = int(rng.integers(1, 12)), int(rng.integers(1, 7)), int(rng.integers(1, 13))
        lead = (int(rng.integers(1, 5)),) * int(rng.integers(0, 2))
        sig = rng.normal(size=lead + (int(rng.integers(1, 9)), length))
        bank = rng.normal(size=(kernels, 1, k))
        s, b = parameter(sig), parameter(bank)
        with Tape() as tape:
            out = conv1d(s, b)
            g = rng.normal(size=out.shape)
            backward(tape, sum_all(mul(out, tensor(g))))
        for idx in np.ndindex(*lead):
            for i in range(kernels):
                if not np.array_equal(out.data[idx + (i,)], _naive_conv(sig[idx], bank[i, 0])):
                    return False, f"forward mismatch at K={kernels} L={length} k={k} kernel {i}"
        d_sig, d_bank = _naive_conv_grads(sig, bank, g)
        if b.grad.tobytes() != d_bank.tobytes():
            return False, f"kernel gradient mismatch at K={kernels} L={length} k={k}"
        if s.grad.tobytes() != d_sig.tobytes():
            return False, f"signal gradient mismatch at K={kernels} L={length} k={k}"
    return True, "90 banks of 1 to 12 kernels exact, forward and both gradients, over stacked and unstacked signals"


def _check_matmul_oracle():
    rng = np.random.default_rng(101)
    for _ in range(20):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        ours = matmul(tensor(a), tensor(b)).data
        naive = np.array([[sum(a[i, t] * b[t, j] for t in range(4)) for j in range(2)] for i in range(3)])
        if not np.allclose(ours, naive, atol=1e-12):
            return False, "matmul mismatch"
    return True, "20 instances within 1e-12"


def _grad_check_model(model, window, label):
    """`window` is one 5 x T window with an int label, or a stack with a label vector."""
    params = [p for _, p in model.parameters()]
    return grad_check(lambda: cross_entropy(model.forward(window), label), params)


def _check_gradients():
    rng = np.random.default_rng(102)
    window = rng.normal(size=(5, 8))
    stack = rng.normal(size=(3, 5, 8))
    small = {"heads": 2, "kernel_temporal": 3, "kernel_channel": 4, "ffn_hidden": 4}
    worst = 0.0
    for kind in ("mcdc", "mcdc-matrix"):
        model = make_model(kind, 8, 7, **small)
        worst = max(worst, _grad_check_model(model, window, 2))
        worst = max(worst, _grad_check_model(model, stack, np.array([2, 0, 6])))
    ann = make_model("ann", 8, 8, hidden1=4, hidden2=3)
    worst = max(worst, _grad_check_model(ann, window, 5))
    return worst < 1e-4, f"max relative error {worst:.2e}"


def _check_attention_stochastic():
    """Both conv routes with all four heads at once, on stacks of 10 inputs."""
    rng = np.random.default_rng(103)
    bank_t = new_qkv(np.random.default_rng(9), 4, 1, 5)
    bank_c = new_qkv(np.random.default_rng(10), 4, 1, 6)
    for _ in range(20):
        x = rng.normal(scale=3.0, size=(10, 5, 8))
        for inp, bank in ((x.swapaxes(-1, -2), bank_t), (x, bank_c)):
            q, k, _ = cnn_qkv(tensor(inp), bank)
            amap = attention_map(q, k).data
            if not np.allclose(amap.sum(axis=-2), 1.0, atol=1e-9):
                return False, "column sums off"
            if amap.min() < 0.0 or amap.max() > 1.0:
                return False, "entries outside [0,1]"
    return True, "200 inputs x 4 heads per route"


def _check_auc_rank_equivalence():
    rng = np.random.default_rng(104)
    for _ in range(30):
        n = int(rng.integers(5, 25))
        scores = rng.integers(0, 8, size=n) / 8.0
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        probs = np.stack([1.0 - scores, scores], axis=1)
        auc = roc_auc(labels, probs)["per_class_auc"][1]
        pos, neg = scores[labels == 1], scores[labels == 0]
        u = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
        if abs(auc - u / (len(pos) * len(neg))) > 1e-9:
            return False, "trapezoid vs rank statistic mismatch"
    return True, "30 score sets within 1e-9"


def _check_wilcoxon_oracle():
    rng = np.random.default_rng(105)
    for n1 in range(1, 6):
        for n2 in range(1, 6):
            a = rng.integers(0, 5, size=n1).astype(float)
            b = rng.integers(0, 5, size=n2).astype(float)
            pooled = np.concatenate([a, b])
            order = np.argsort(pooled, kind="stable")
            ranks = np.empty(pooled.size)
            i = 0
            while i < pooled.size:
                j = i
                while j + 1 < pooled.size and pooled[order[j + 1]] == pooled[order[i]]:
                    j += 1
                ranks[order[i:j + 1]] = np.mean(np.arange(i, j + 1) + 1.0)
                i = j + 1
            mu = n1 * (pooled.size + 1) / 2.0
            observed = abs(ranks[:n1].sum() - mu)
            hits = total = 0
            for subset in combinations(range(pooled.size), n1):
                total += 1
                if abs(ranks[list(subset)].sum() - mu) >= observed - 1e-9:
                    hits += 1
            if abs(wilcoxon_rank_sum(a, b) - hits / total) > 1e-12:
                return False, f"exact branch mismatch at n1={n1} n2={n2}"
    return True, "all n1,n2 <= 5 match enumeration"


def _toy_windows():
    rng = np.random.default_rng(106)
    windows = []
    for code in (0, 1):
        for i in range(8):
            values = (2.0 * code - 1.0) + 0.2 * rng.normal(size=(5, 8))
            windows.append(CdgdWindow(f"t{code}{i}", i, values, by_code(code)))
    return windows


def _check_training_determinism():
    def run():
        model = make_model("mcdc", 8, 11, heads=1, kernel_temporal=3, kernel_channel=3, ffn_hidden=4)
        windows = _toy_windows()
        train_fold(model, windows, windows, TrainConfig(seed=12, epochs=4, batch_size=8))
        return model.parameter_arrays()

    a, b = run(), run()
    same = all(np.array_equal(a[k], b[k]) for k in a)
    return same, "two runs bit-identical" if same else "parameter drift between runs"


def _check_backward_determinism():
    rng = np.random.default_rng(107)
    x = tensor(rng.normal(size=(4, 4)))
    w = tensor(rng.normal(size=(4, 4)))
    w.requires_grad = True
    with Tape() as tape:
        loss = sum_all(sigmoid(matmul(w, x)))
        backward(tape, loss)
        first = w.grad.copy()
        backward(tape, loss)
        second = w.grad
    held = sum(node.grad is not None for node in tape.nodes)
    if held:
        return False, f"{held} of {len(tape.nodes)} tape nodes still hold a gradient after backward"
    same = np.array_equal(first, second)
    return same, "repeat backward identical" if same else "gradient differs between passes"


def _check_forward_finite():
    rng = np.random.default_rng(108)
    model = make_model("mcdc", 8, 13, heads=2, kernel_temporal=3, kernel_channel=4, ffn_hidden=6)
    for _ in range(50):
        probs = model.predict_proba(rng.uniform(-50, 50, size=(5, 8)))
        if not np.all(np.isfinite(probs)) or abs(probs.sum() - 1.0) > 1e-9:
            return False, "non-finite or unnormalized output"
    return True, "50 extreme inputs"


def run_checks() -> list[tuple[str, bool, str]]:
    checks = [
        ("conv-naive-oracle", _check_conv_oracle),
        ("matmul-naive-oracle", _check_matmul_oracle),
        ("gradient-finite-differences", _check_gradients),
        ("attention-map-stochastic", _check_attention_stochastic),
        ("auc-rank-equivalence", _check_auc_rank_equivalence),
        ("wilcoxon-exact-enumeration", _check_wilcoxon_oracle),
        ("training-determinism", _check_training_determinism),
        ("backward-determinism", _check_backward_determinism),
        ("forward-finite", _check_forward_finite),
    ]
    results = []
    for name, fn in checks:
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, passed, detail))
    return results
