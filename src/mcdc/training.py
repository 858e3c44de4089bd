"""Adam training with the stepped learning-rate decay, mini-batching,
validation-loss early stopping and the 4-fold cross-validation loop.

Every stochastic choice derives from the config seed (batch order reseeds
as seed+epoch), so a (config, dataset) pair reproduces its history and final
parameters bit for bit.
"""

from __future__ import annotations

import csv
import gc
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .data import CdgdWindow
from .tensor import Tape, backward, cross_entropy

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


@dataclass(frozen=True)
class TrainConfig:
    seed: int
    epochs: int = 1000
    batch_size: int = 200
    lr0: float = 0.01
    lr_decay: tuple[tuple[int, float], ...] = ((500, 0.001), (750, 0.0002))
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    patience: int = 50
    folds: int = 4

    def __post_init__(self):
        epochs_at = [e for e, _ in self.lr_decay]
        if epochs_at != sorted(set(epochs_at)):
            raise ValueError(f"decay epochs must be strictly increasing, got {epochs_at}")
        for name in ("epochs", "batch_size", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "lr0": self.lr0,
            "lr_decay": [list(p) for p in self.lr_decay],
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "patience": self.patience,
            "folds": self.folds,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        if "lr_decay" in d:
            d["lr_decay"] = tuple((int(e), float(lr)) for e, lr in d["lr_decay"])
        return cls(**d)


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
    """First/second moment accumulators, one pair per named parameter.

    The first step lays the moments of all parameters out in one flat buffer
    each (m[name] and v[name] are views into them), next to two flat scratch
    buffers, so a step costs a fixed number of ufunc calls over all
    parameters at once instead of a dozen per parameter.
    """

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0
        self._flat: tuple[np.ndarray, ...] = ()  # m, v, step, denom
        self._bounds: list[int] = []  # parameter i is [bounds[i], bounds[i + 1]) of each buffer

    def _layout(self, params) -> None:
        self._bounds = np.cumsum([0] + [p.data.size for _, p in params]).tolist()
        self._flat = tuple(np.zeros(self._bounds[-1]) for _ in range(4))
        for (name, p), lo, hi in zip(params, self._bounds, self._bounds[1:]):
            self.m[name] = self._flat[0][lo:hi].reshape(p.data.shape)
            self.v[name] = self._flat[1][lo:hi].reshape(p.data.shape)


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
    elif names != list(state.m):
        raise ValueError(f"adam_step got parameters {names}, but this state holds {list(state.m)}")
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

    def __len__(self):
        return len(self.rows)


def score_windows(model, windows: list[CdgdWindow]) -> np.ndarray:
    """(N, n_classes) probabilities of `model.predict_proba`, called on
    stacks of at most SCORE_CHUNK windows, each stacked only when scored."""
    return np.concatenate([
        model.predict_proba(np.stack([w.values for w in windows[lo:lo + SCORE_CHUNK]]))
        for lo in range(0, len(windows), SCORE_CHUNK)
    ])


def evaluate_windows(model, windows: list[CdgdWindow]) -> tuple[float, float]:
    """(mean cross-entropy, accuracy) without touching any tape."""
    probs = score_windows(model, windows)
    labels = np.array([w.label.code for w in windows])
    n = len(windows)
    loss = -np.log(np.maximum(probs[np.arange(n), labels], 1e-12)).sum() / n
    return float(loss), int((probs.argmax(axis=1) == labels).sum()) / n


def _batch_loss(model, batch: list[CdgdWindow]):
    """Mean cross-entropy of a batch: one forward over the stacked windows
    and one loss node, so the tape size does not grow with the batch."""
    probs = model.forward(np.stack([w.values for w in batch]))
    return cross_entropy(probs, np.array([w.label.code for w in batch]))


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
    naming the epoch and the batch.
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
            with Tape() as tape:
                loss = _batch_loss(model, batch)
                backward(tape, loss)
            grads = {
                name: (p.grad if p.grad is not None else np.zeros_like(p.data)) for name, p in params
            }
            bad = [name for name, g in grads.items() if not np.isfinite(g).all()]
            if bad or not math.isfinite(loss.item()):
                raise ValueError(
                    f"training diverged at epoch {epoch}, batch {batch_index}: "
                    f"loss {loss.item()!r}, non-finite gradients {bad}"
                )
            adam_step(params, grads, state, lr, config)
            loss_sum += loss.item() * len(batch)
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
    best_val_accuracy: float

    def mean_curves(self) -> dict[str, list[float]]:
        """Arithmetic fold means per epoch, over the shortest common length."""
        n = min(len(h) for h in self.fold_histories)
        loss = [float(np.mean([h.rows[e].loss for h in self.fold_histories])) for e in range(n)]
        acc = [float(np.mean([h.rows[e].val_accuracy for h in self.fold_histories])) for e in range(n)]
        return {"loss": loss, "val_accuracy": acc}


def cross_validate(make_model, windows: list[CdgdWindow], plan, config: TrainConfig) -> CrossValResult:
    """Train one model per fold, validating on the held-out fold; the model
    with the best validation accuracy (ties to the lowest fold index) wins."""
    histories = []
    accuracies = []
    best = (-1.0, 0, None)
    for fold_index, fold in enumerate(plan.folds):
        val_set = set(fold)
        train_windows = [windows[i] for i in plan.train_indices if i not in val_set]
        val_windows = [windows[i] for i in fold]
        model = make_model(fold_index)
        try:
            history = train_fold(model, train_windows, val_windows, config)
        except ValueError as exc:
            raise ValueError(f"fold {fold_index}: {exc}") from exc
        histories.append(history)
        _, val_acc = evaluate_windows(model, val_windows)
        accuracies.append(val_acc)
        if val_acc > best[0]:
            best = (val_acc, fold_index, model)
    return CrossValResult(histories, accuracies, best[1], best[2], best[0])


def history_to_csv(fold_histories: list[TrainHistory], path) -> None:
    """Export per-epoch traces as epoch,fold,loss,val_accuracy,lr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "fold", "loss", "val_accuracy", "lr"])
        for fold, history in enumerate(fold_histories):
            for row in history.rows:
                writer.writerow([row.epoch, fold, repr(row.loss), repr(row.val_accuracy), repr(row.lr)])
