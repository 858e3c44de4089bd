"""Adam training with the stepped learning-rate decay, mini-batching,
validation-loss early stopping and the 4-fold cross-validation loop.

Every stochastic choice derives from the config seed (batch order reseeds
as seed+epoch), so a (config, dataset) pair reproduces its history and final
parameters bit for bit.
"""

from __future__ import annotations

import gc
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .data import CdgdWindow, fold_sets
from .model import AT_LEAST_1, check_fields, setting
from .tensor import Tape, backward, cross_entropy, tensor

__all__ = [
    "AdamState",
    "CrossValResult",
    "EpochStats",
    "TrainConfig",
    "TrainHistory",
    "adam_step",
    "cross_validate",
    "evaluate_windows",
    "history_to_csv",
    "lr_schedule",
    "score_windows",
    "train_fold",
]

# Windows per predict_proba call when scoring a set. One stack of a whole
# 3,197-window set took 36 MB more peak memory; a 64-window stack about 1 MB.
SCORE_CHUNK = 64


# a rate of 0 never moves, a negative one climbs the loss and an infinite one ends in NaN
_RATE = (("> 0", lambda v: v > 0), ("finite", math.isfinite))
_DECAY = ("pairs with strictly increasing epochs and finite rates > 0", lambda pairs: all(
    a[0] < b[0] for a, b in zip(pairs, pairs[1:])) and all(0 < rate < math.inf for _, rate in pairs))
# Adam's moment decays: each bias correction 1 - beta**t is 0 at 1 and changes sign above
_MOMENT_DECAY = ("in [0, 1)", lambda v: 0 <= v < 1)


@dataclass(frozen=True)
class TrainConfig:
    seed: int = setting(("an integer >= 0", lambda v: v >= 0))
    epochs: int = setting(AT_LEAST_1, default=1000)
    batch_size: int = setting(AT_LEAST_1, default=200)
    lr0: float = setting(*_RATE, default=0.01)
    lr_decay: tuple[tuple[int, float], ...] = setting(_DECAY, default=((500, 0.001), (750, 0.0002)))
    beta1: float = setting(_MOMENT_DECAY, default=0.9)
    beta2: float = setting(_MOMENT_DECAY, default=0.999)
    eps: float = setting(*_RATE, default=1e-8)
    patience: int = setting(AT_LEAST_1, default=50)
    folds: int = setting((">= 2, one of them held out for validation", lambda v: v >= 2), default=4)

    __post_init__ = check_fields


def lr_schedule(epoch: int, config: TrainConfig) -> float:
    """Piecewise-constant rate; each decay applies from its epoch onward."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    lr = config.lr0
    for at, value in config.lr_decay:
        if epoch >= at:
            lr = value
    return lr


class AdamState:
    """First/second moment accumulators for one named parameter list.

    The first step lays the moments of all parameters out in one flat buffer
    each, next to two flat scratch buffers, so a step costs a fixed number of
    ufunc calls over all parameters at once instead of a dozen per parameter.
    """

    def __init__(self):
        self.t = 0
        self._names: list[str] = []  # the parameter list's names, in its order
        self._flat: tuple[np.ndarray, ...] = ()  # m, v, step, denom
        self._bounds: list[int] = []  # parameter i is [bounds[i], bounds[i + 1]) of each buffer

    def _layout(self, params) -> None:
        self._names = [name for name, _ in params]
        self._bounds = np.cumsum([0] + [p.data.size for _, p in params]).tolist()
        self._flat = tuple(np.zeros(self._bounds[-1]) for _ in range(4))


def adam_step(params, grads: dict[str, np.ndarray], state: AdamState, lr: float, config: TrainConfig) -> None:
    """One bias-corrected Adam update, in place on the parameter tensors:

        m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
        p -= lr (m / bc1) / (sqrt(v / bc2) + eps)

    Every term is computed in place in the state's flat buffers, with the
    operations of that formula in its order, so no step allocates more than
    the flat gradient. A state serves one parameter list, in one order.
    """
    names = [name for name, _ in params]
    for name, p in params:
        if grads[name].shape != p.data.shape:
            raise ValueError(f"gradient shape {grads[name].shape} != parameter {name} shape {p.data.shape}")
    if not state._flat:
        state._layout(params)
    elif names != state._names:
        raise ValueError(f"adam_step got parameters {names}, but this state holds {state._names}")
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    m, v, step, denom = state._flat
    g = np.concatenate([grads[name].ravel() for name in names])
    m *= b1
    m += np.multiply(1.0 - b1, g, out=step)
    v *= b2
    v += np.multiply(np.multiply(1.0 - b2, g, out=step), g, out=step)
    np.multiply(lr, np.divide(m, bc1, out=step), out=step)
    np.add(np.sqrt(np.divide(v, bc2, out=denom), out=denom), config.eps, out=denom)
    np.divide(step, denom, out=step)
    for (_, p), lo, hi in zip(params, state._bounds, state._bounds[1:]):
        p.data -= step[lo:hi].reshape(p.data.shape)


@dataclass
class EpochStats:
    epoch: int
    loss: float
    val_accuracy: float
    val_loss: float
    lr: float
    seconds: float


@dataclass
class TrainHistory:
    rows: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1


def score_windows(model, windows: list[CdgdWindow]) -> np.ndarray:
    """(N, n_classes) probabilities of `model.predict_proba`, called on
    stacks of at most SCORE_CHUNK windows, each stacked only when scored.
    An empty window list is refused with a ValueError."""
    if not windows:
        raise ValueError("score_windows needs at least one window, got an empty window list")
    return np.concatenate([
        model.predict_proba(np.stack([w.values for w in windows[lo:lo + SCORE_CHUNK]]))
        for lo in range(0, len(windows), SCORE_CHUNK)
    ])


def evaluate_windows(model, windows: list[CdgdWindow]) -> tuple[float, float]:
    """(mean cross-entropy, accuracy) without touching any tape."""
    probs = score_windows(model, windows)
    labels = np.array([w.label.code for w in windows])
    loss = cross_entropy(tensor(probs[:, None, :]), labels).item()
    return loss, int((probs.argmax(axis=1) == labels).sum()) / len(windows)


def _batch_loss(model, batch: list[CdgdWindow]):
    """Mean cross-entropy of a batch: one forward over the stacked windows
    and one loss node, so the tape size does not grow with the batch."""
    probs = model.forward(np.stack([w.values for w in batch]))
    return cross_entropy(probs, np.array([w.label.code for w in batch]))


def _train_batch(model, params, batch: list[CdgdWindow], state: AdamState, lr: float, config: TrainConfig,
                 where: str) -> float:
    """One training step on one batch: forward, backward and an Adam update;
    returns the batch's mean loss. The batch's tape, loss and gradient dict
    live only in this call, so its whole graph is freed when it returns and
    a run never holds two batches' graphs. A non-finite loss or gradient
    raises a ValueError naming `where` before any parameter moves."""
    with Tape() as tape:
        loss = _batch_loss(model, batch)
        backward(tape, loss)
    value = loss.item()
    grads = {name: (p.grad if p.grad is not None else np.zeros_like(p.data)) for name, p in params}
    bad = [name for name, g in grads.items() if not np.isfinite(g).all()]
    if bad or not math.isfinite(value):
        raise ValueError(f"training diverged at {where}: loss {value!r}, non-finite gradients {bad}")
    adam_step(params, grads, state, lr, config)
    return value


@contextmanager
def _cycle_collector_paused():
    """Pause Python's cyclic garbage collector, restoring its state after.

    Every tape and temporary a training run builds is acyclic and freed by
    reference counting, so the collector finds nothing in them; left running,
    it rescans each batch's live tape again and again, which took about a
    third of a training epoch.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@_cycle_collector_paused()
def train_fold(model, train_windows: list[CdgdWindow], val_windows: list[CdgdWindow], config: TrainConfig) -> TrainHistory:
    """Train until the epoch cap or `patience` epochs without a validation-loss
    improvement; the model is left holding the best-validation parameters.

    A non-finite batch loss or gradient stops training with a ValueError
    naming the epoch and the batch. Each batch's graph is freed before the
    next batch's forward starts (see _train_batch), and backward frees each
    intermediate gradient as soon as it is used, so a step's memory is one
    batch's activations plus the gradients in flight.
    """
    if not train_windows:
        raise ValueError("empty training set")
    if not val_windows:
        raise ValueError("empty validation set")
    params = model.parameters()
    state = AdamState()
    history = TrainHistory()
    best_loss = np.inf
    best_snapshot = None
    stale = 0
    n = len(train_windows)
    for epoch in range(config.epochs):
        started = time.perf_counter()
        lr = lr_schedule(epoch, config)
        order = np.random.default_rng(config.seed + epoch).permutation(n)
        loss_sum = 0.0
        for batch_index, lo in enumerate(range(0, n, config.batch_size)):
            batch = [train_windows[i] for i in order[lo:lo + config.batch_size]]
            where = f"epoch {epoch}, batch {batch_index}"
            loss_sum += _train_batch(model, params, batch, state, lr, config, where) * len(batch)
        val_loss, val_acc = evaluate_windows(model, val_windows)
        history.rows.append(
            EpochStats(epoch, loss_sum / n, val_acc, val_loss, lr, time.perf_counter() - started)
        )
        if val_loss < best_loss:
            best_loss = val_loss
            best_snapshot = {name: p.data.copy() for name, p in params}
            history.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    if best_snapshot is not None:
        for name, p in params:
            p.data[...] = best_snapshot[name]
    return history


@dataclass
class CrossValResult:
    fold_histories: list[TrainHistory]
    fold_val_accuracies: list[float]
    best_fold: int
    best_model: object


def cross_validate(make_model, windows: list[CdgdWindow], plan, config: TrainConfig) -> CrossValResult:
    """Train one model per fold, validating on the held-out fold; the model
    with the best validation accuracy (ties to the lowest fold index) wins."""
    histories = []
    accuracies = []
    best = (-1.0, 0, None)
    for fold_index in range(len(plan.folds)):
        train_windows, val_windows = fold_sets(windows, plan, fold_index)
        model = make_model(fold_index)
        try:
            history = train_fold(model, train_windows, val_windows, config)
        except ValueError as exc:
            raise ValueError(f"fold {fold_index}: {exc}") from exc
        histories.append(history)
        # train_fold left the model holding the parameters this row scored
        val_acc = history.rows[history.best_epoch].val_accuracy
        accuracies.append(val_acc)
        if val_acc > best[0]:
            best = (val_acc, fold_index, model)
    return CrossValResult(histories, accuracies, best[1], best[2])


def history_to_csv(fold_histories: list[TrainHistory], path) -> None:
    """Export per-epoch traces as epoch,fold,loss,val_accuracy,lr rows, with
    the bytes of a csv.writer row loop: ints and float reprs need no quotes,
    and lines end in "\r\n"."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("epoch,fold,loss,val_accuracy,lr\r\n")
        fh.write("".join(
            f"{row.epoch},{fold},{row.loss!r},{row.val_accuracy!r},{row.lr!r}\r\n"
            for fold, history in enumerate(fold_histories)
            for row in history.rows
        ))
