"""Assessment machinery: confusion matrix, one-vs-rest metrics with macro
averages, ROC/AUC (per-class, macro, micro), the Wilcoxon rank-sum test and
the repeated-training comparison harness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import combinations

import numpy as np

from .conditions import N_CONDITIONS
from .data import SplitPlan, fold0_sets, split
from .training import score_windows

__all__ = [
    "ComparisonResult",
    "EvalReport",
    "ModelComparison",
    "compare",
    "compare_plans",
    "confusion",
    "evaluate_model",
    "metrics",
    "roc_auc",
    "roc_csv",
    "split_repetitions",
    "wilcoxon_rank_sum",
]


def confusion(true_labels, predicted_labels) -> np.ndarray:
    """N_CONDITIONS x N_CONDITIONS counts, true condition on rows, predicted on columns."""
    true_labels = np.asarray(true_labels, dtype=np.int64)
    predicted_labels = np.asarray(predicted_labels, dtype=np.int64)
    if true_labels.shape != predicted_labels.shape:
        raise ValueError(
            f"label lists differ in length: {true_labels.size} vs {predicted_labels.size}"
        )
    if true_labels.size and not (
        0 <= true_labels.min() and true_labels.max() < N_CONDITIONS
        and 0 <= predicted_labels.min() and predicted_labels.max() < N_CONDITIONS
    ):
        raise ValueError(f"labels outside [0, {N_CONDITIONS})")
    cells = true_labels * N_CONDITIONS + predicted_labels
    return np.bincount(cells, minlength=N_CONDITIONS * N_CONDITIONS).reshape(N_CONDITIONS, N_CONDITIONS)


@dataclass
class EvalReport:
    """Scores of one model on labeled windows. The ROC part (per_class_auc,
    macro_auc, micro_auc and curves) comes from `roc_auc` over `scored`,
    computed on first read, so a caller that only reads the confusion
    metrics never pays for the curves. A report without scores, as
    `metrics` builds it, has an empty ROC part."""

    accuracy: float
    precision: list[float]
    recall: list[float]
    f1: list[float]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    confusion: list[list[int]]
    n_samples: int
    # (true labels, probability matrix), the arguments of roc_auc
    scored: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def _roc(self) -> dict:
        if self.scored is None:
            return {"per_class_auc": [], "macro_auc": None, "micro_auc": None, "curves": []}
        return roc_auc(*self.scored)

    per_class_auc = property(lambda self: self._roc["per_class_auc"])
    macro_auc = property(lambda self: self._roc["macro_auc"])
    micro_auc = property(lambda self: self._roc["micro_auc"])
    curves = property(lambda self: self._roc["curves"])

    def to_dict(self) -> dict:
        """Every metric but the ROC curves, which roc_csv writes."""
        return {
            **{f.name: getattr(self, f.name) for f in fields(self) if f.name != "scored"},
            "per_class_auc": self.per_class_auc,
            "macro_auc": self.macro_auc,
            "micro_auc": self.micro_auc,
        }


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
    predicted, actual = tp + fp, tp + fn
    precision = np.divide(tp, predicted, out=np.zeros_like(tp), where=predicted > 0)
    recall = np.divide(tp, actual, out=np.zeros_like(tp), where=actual > 0)
    both = precision + recall
    f1 = np.divide(2 * precision * recall, both, out=np.zeros_like(tp), where=both > 0)
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
    boundaries = np.concatenate((np.flatnonzero(np.diff(sorted_scores)), [positive.size - 1]))
    tps = np.cumsum(sorted_pos)[boundaries]
    fps = boundaries + 1 - tps
    tpr = np.concatenate(([0.0], tps / n_pos))
    fpr = np.concatenate(([0.0], fps / n_neg))
    thresholds = np.concatenate(([np.inf], sorted_scores[boundaries]))
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
    """Write curve points as class,fpr,tpr,threshold rows, with the bytes of
    a csv.writer row loop: ints and float reprs (the first threshold is
    inf) need no quotes, and lines end in "\r\n"."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("class,fpr,tpr,threshold\r\n")
        fh.write("".join(
            f"{curve['class']},{f!r},{t!r},{thr!r}\r\n"
            for curve in curves
            for f, t, thr in zip(curve["fpr"], curve["tpr"], curve["thresholds"])
        ))


def evaluate_model(model, windows) -> EvalReport:
    """Report for one fitted model on labeled windows; its ROC part is
    computed when first read.

    `model.predict_proba` must take a stack (B, 5, T) of windows and return
    (B, n_classes). It is called on stacks of at most
    `training.SCORE_CHUNK` windows, each stacked only when it is scored.
    """
    truths = np.array([w.label.code for w in windows])
    probs = score_windows(model, windows)
    return replace(metrics(confusion(truths, probs.argmax(axis=1))), scored=(truths, probs))


def _midranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based ranks, ties sharing the mean of their positions, and the length
    of each run of equal values in ascending order, from one stable sort: a
    run of `count` equal values ending at position `end` ranks
    end - (count - 1) / 2."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    n = values.size
    run_starts = np.empty(n + 1, dtype=bool)  # position i starts a run; n closes the last
    run_starts[0] = run_starts[n] = True
    np.not_equal(ordered[1:], ordered[:-1], out=run_starts[1:n])
    bounds = np.flatnonzero(run_starts)
    counts = bounds[1:] - bounds[:-1]
    ranks = np.empty(n)
    ranks[order] = np.repeat(bounds[1:] - (counts - 1) / 2.0, counts)
    return ranks, counts


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


def _normal_two_sided(ranks: np.ndarray, counts: np.ndarray, n1: int, observed: float) -> float:
    """`counts` holds the length of each run of tied values, as _midranks gives it."""
    n = ranks.size
    n2 = n - n1
    mu = n1 * (n + 1) / 2.0
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
    for name, sample in (("sample_a", a), ("sample_b", b)):
        if not np.isfinite(sample).all():
            raise ValueError(f"{name} must be finite, got {sample.tolist()}")
    ranks, counts = _midranks(np.concatenate([a, b]))
    w = float(ranks[:a.size].sum())
    if a.size + b.size <= 20:
        return _exact_two_sided(ranks, a.size, w)
    return _normal_two_sided(ranks, counts, a.size, w)


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


def split_repetitions(
    windows, mode: str, repetitions: int, base_seed: int, train_fraction: float = 0.8, k: int = 4
) -> list[SplitPlan]:
    """The split plan of each repetition of a comparison, seeded base_seed + rep."""
    return [split(windows, mode, train_fraction, seed=base_seed + rep, k=k) for rep in range(repetitions)]


def compare(fitters: dict, windows, mode: str, repetitions: int, base_seed: int) -> ComparisonResult:
    """Train every named model on identical splits, once per repetition, each
    split at split_repetitions' defaults: train fraction 0.8 and 4 folds.

    Each fitter is called as fitter(train_windows, val_windows, seed) and
    must return an object whose predict_proba maps a stack (B, 5, T) of
    windows to (B, n_classes) probabilities; evaluate_model scores the test
    side in stacks of at most `training.SCORE_CHUNK` windows. Fold 0 of the split's k-fold
    assignment serves as the shared validation part. Reports per-model mean
    accuracy, the largest deviation of any repetition from that mean
    (max mean error), repetition-mean macro metrics, and pairwise rank-sum
    p-values over the accuracy lists. Every repetition is split before the
    first model trains.
    """
    return compare_plans(fitters, windows, split_repetitions(windows, mode, repetitions, base_seed))


def compare_plans(fitters: dict, windows, plans: list[SplitPlan]) -> ComparisonResult:
    """compare over split plans already made, one per repetition, each
    fitted with its plan's seed; the plans share one mode."""
    per_model: dict[str, list[EvalReport]] = {name: [] for name in fitters}
    for plan in plans:
        fit_train, fit_val, test = fold0_sets(windows, plan)
        for name, fitter in fitters.items():
            model = fitter(fit_train, fit_val, plan.seed)
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
    return ComparisonResult(mode=plans[0].mode, repetitions=len(plans), models=rows, p_values=p_values)
