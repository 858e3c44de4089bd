"""Assessment machinery: confusion matrix, one-vs-rest metrics with macro
averages, ROC/AUC (per-class, macro, micro), the Wilcoxon rank-sum test and
the repeated-training comparison harness.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field, fields
from itertools import combinations

import numpy as np

from .conditions import N_CONDITIONS
from .data import fold0_sets, split
from .training import score_windows

__all__ = [
    "ComparisonResult",
    "EvalReport",
    "ModelComparison",
    "compare",
    "confusion",
    "evaluate_model",
    "metrics",
    "roc_auc",
    "roc_csv",
    "wilcoxon_rank_sum",
]


def confusion(true_labels, predicted_labels, n_classes: int = N_CONDITIONS) -> np.ndarray:
    """Count matrix with true condition on rows, predicted on columns."""
    true_labels = np.asarray(true_labels, dtype=np.int64)
    predicted_labels = np.asarray(predicted_labels, dtype=np.int64)
    if true_labels.shape != predicted_labels.shape:
        raise ValueError(
            f"label lists differ in length: {true_labels.size} vs {predicted_labels.size}"
        )
    if true_labels.size and not (
        0 <= true_labels.min() and true_labels.max() < n_classes
        and 0 <= predicted_labels.min() and predicted_labels.max() < n_classes
    ):
        raise ValueError(f"labels outside [0, {n_classes})")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (true_labels, predicted_labels), 1)
    return cm


@dataclass
class EvalReport:
    accuracy: float
    precision: list[float]
    recall: list[float]
    f1: list[float]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    confusion: list[list[int]]
    n_samples: int
    per_class_auc: list[float | None] = field(default_factory=list)
    macro_auc: float | None = None
    micro_auc: float | None = None
    curves: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Every field but the ROC curves, which roc_csv writes."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "curves"}


def metrics(cm: np.ndarray) -> EvalReport:
    """One-vs-rest precision/recall/F1 per class plus unweighted macro means.

    0/0 ratios are defined as 0, which penalizes classes that are never
    predicted; multi-class accuracy is trace over total.
    """
    cm = np.asarray(cm, dtype=np.int64)
    total = cm.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    tp = np.diag(cm).astype(np.float64)
    fp = cm.sum(axis=0) - tp
    fn = cm.sum(axis=1) - tp
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        f1 = np.where(precision + recall > 0, 2 * precision * recall / (precision + recall), 0.0)
    return EvalReport(
        accuracy=float(tp.sum() / total),
        precision=precision.tolist(),
        recall=recall.tolist(),
        f1=f1.tolist(),
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        confusion=cm.tolist(),
        n_samples=int(total),
    )


def _binary_roc(positive: np.ndarray, scores: np.ndarray):
    """Curve over all distinct thresholds plus trapezoid AUC.

    Returns (fpr, tpr, thresholds, auc) or None when either class is absent.
    """
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(-scores, kind="stable")
    sorted_pos = positive[order]
    sorted_scores = scores[order]
    boundaries = np.r_[np.where(np.diff(sorted_scores))[0], positive.size - 1]
    tps = np.cumsum(sorted_pos)[boundaries]
    fps = boundaries + 1 - tps
    tpr = np.r_[0.0, tps / n_pos]
    fpr = np.r_[0.0, fps / n_neg]
    thresholds = np.r_[np.inf, sorted_scores[boundaries]]
    auc = float(np.trapezoid(tpr, fpr))
    return fpr, tpr, thresholds, auc


def roc_auc(true_labels, prob_matrix) -> dict:
    """One-vs-rest ROC per class plus macro and micro averages.

    Classes absent from the truth get a None AUC and are excluded from the
    macro mean; micro pools every (sample, class) binary decision.
    """
    true_labels = np.asarray(true_labels, dtype=np.int64)
    probs = np.asarray(prob_matrix, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] != true_labels.size:
        raise ValueError(f"probability matrix shape {probs.shape} does not match {true_labels.size} labels")
    row_sums = probs.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-6):
        raise ValueError("probability rows must sum to 1 within 1e-6")
    n_classes = probs.shape[1]
    per_class_auc: list[float | None] = []
    curves = []
    for c in range(n_classes):
        result = _binary_roc(true_labels == c, probs[:, c])
        if result is None:
            per_class_auc.append(None)
            continue
        fpr, tpr, thresholds, auc = result
        per_class_auc.append(auc)
        curves.append({"class": c, "fpr": fpr.tolist(), "tpr": tpr.tolist(), "thresholds": thresholds.tolist()})
    defined = [a for a in per_class_auc if a is not None]
    onehot = np.zeros_like(probs, dtype=bool)
    onehot[np.arange(true_labels.size), true_labels] = True
    micro = _binary_roc(onehot.ravel(), probs.ravel())
    return {
        "per_class_auc": per_class_auc,
        "macro_auc": float(np.mean(defined)) if defined else None,
        "micro_auc": micro[3] if micro else None,
        "curves": curves,
    }


def roc_csv(curves: list[dict], path) -> None:
    """Write curve points as class,fpr,tpr,threshold rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "fpr", "tpr", "threshold"])
        for curve in curves:
            for f, t, thr in zip(curve["fpr"], curve["tpr"], curve["thresholds"]):
                writer.writerow([curve["class"], repr(f), repr(t), repr(thr)])


def evaluate_model(model, windows) -> EvalReport:
    """Full report for one fitted model on labeled windows.

    `model.predict_proba` must take a stack (B, 5, T) of windows and return
    (B, n_classes). It is called on stacks of at most
    `training.SCORE_CHUNK` (64) windows, each stacked only when it is scored:
    one stack of a whole 3,197-window set took 36 MB more peak memory, a
    64-window stack about 1 MB.
    """
    truths = np.array([w.label.code for w in windows])
    probs = score_windows(model, windows)
    predictions = probs.argmax(axis=1)
    report = metrics(confusion(truths, predictions))
    roc = roc_auc(truths, probs)
    report.per_class_auc = roc["per_class_auc"]
    report.macro_auc = roc["macro_auc"]
    report.micro_auc = roc["micro_auc"]
    report.curves = roc["curves"]
    return report


def _midranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size)
    sorted_values = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _exact_two_sided(ranks: np.ndarray, n1: int, observed: float) -> float:
    mu = n1 * (ranks.size + 1) / 2.0
    threshold = abs(observed - mu) - 1e-9
    rank_list = ranks.tolist()
    hits = 0
    total = 0
    for combo in combinations(rank_list, n1):
        total += 1
        if abs(sum(combo) - mu) >= threshold:
            hits += 1
    return hits / total


def _normal_two_sided(ranks: np.ndarray, n1: int, observed: float) -> float:
    n = ranks.size
    n2 = n - n1
    mu = n1 * (n + 1) / 2.0
    _, counts = np.unique(ranks, return_counts=True)
    tie_term = float(np.sum(counts.astype(np.float64) ** 3 - counts))
    sigma2 = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if sigma2 <= 0:
        return 1.0
    z = max(abs(observed - mu) - 0.5, 0.0) / math.sqrt(sigma2)
    return min(1.0, math.erfc(z / math.sqrt(2.0)))


def wilcoxon_rank_sum(sample_a, sample_b) -> float:
    """Two-sided rank-sum p-value.

    Exact by enumerating every rank assignment while the pooled size is at
    most 20; the tie-corrected, continuity-corrected normal approximation
    takes over beyond that. Ties share midranks in both branches.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    ranks = _midranks(np.concatenate([a, b]))
    w = float(ranks[:a.size].sum())
    if a.size + b.size <= 20:
        return _exact_two_sided(ranks, a.size, w)
    return _normal_two_sided(ranks, a.size, w)


@dataclass
class ModelComparison:
    name: str
    accuracies: list[float]
    mean_accuracy: float
    max_mean_error: float
    macro_precision: float
    macro_recall: float
    macro_f1: float


@dataclass
class ComparisonResult:
    mode: str
    repetitions: int
    models: list[ModelComparison]
    p_values: dict[str, float]  # "name_a|name_b" -> two-sided p

    def to_dict(self) -> dict:
        return asdict(self)


def compare(
    fitters: dict,
    windows,
    mode: str,
    repetitions: int,
    base_seed: int,
    train_fraction: float = 0.8,
    k: int = 4,
) -> ComparisonResult:
    """Train every named model on identical splits, once per repetition.

    Each fitter is called as fitter(train_windows, val_windows, seed) and
    must return an object whose predict_proba maps a stack (B, 5, T) of
    windows to (B, n_classes) probabilities; evaluate_model scores the test
    side in stacks of at most 64 windows. Fold 0 of the split's k-fold
    assignment serves as the shared validation part. Reports per-model mean
    accuracy, the largest deviation of any repetition from that mean
    (max mean error), repetition-mean macro metrics, and pairwise rank-sum
    p-values over the accuracy lists.
    """
    per_model: dict[str, list[EvalReport]] = {name: [] for name in fitters}
    for rep in range(repetitions):
        seed = base_seed + rep
        plan = split(windows, mode, train_fraction, seed=seed, k=k)
        fit_train, fit_val, test = fold0_sets(windows, plan)
        for name, fitter in fitters.items():
            model = fitter(fit_train, fit_val, seed)
            per_model[name].append(evaluate_model(model, test))

    accuracies = {name: [r.accuracy for r in reports] for name, reports in per_model.items()}
    rows = []
    for name, reports in per_model.items():
        mean_acc = float(np.mean(accuracies[name]))
        rows.append(
            ModelComparison(
                name=name,
                accuracies=accuracies[name],
                mean_accuracy=mean_acc,
                max_mean_error=float(max(abs(a - mean_acc) for a in accuracies[name])),
                macro_precision=float(np.mean([r.macro_precision for r in reports])),
                macro_recall=float(np.mean([r.macro_recall for r in reports])),
                macro_f1=float(np.mean([r.macro_f1 for r in reports])),
            )
        )
    p_values = {f"{a}|{b}": wilcoxon_rank_sum(accuracies[a], accuracies[b]) for a, b in combinations(accuracies, 2)}
    return ComparisonResult(mode=mode, repetitions=repetitions, models=rows, p_values=p_values)
