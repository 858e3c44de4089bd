"""Metrics, ROC/AUC and rank-sum tests against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from mcdc.conditions import by_code
from mcdc.data import CdgdWindow
from mcdc.evaluation import (
    _exact_two_sided,
    _midranks,
    _normal_two_sided,
    compare,
    confusion,
    evaluate_model,
    metrics,
    roc_auc,
    wilcoxon_rank_sum,
)
from mcdc.verify import enumeration_p, naive_midranks, rank_auc


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        labels = [0, 1, 2, 3, 4, 5, 6, 3, 3]
        cm = confusion(labels, labels)
        assert np.array_equal(cm, np.diag(np.bincount(labels, minlength=7)))

    def test_single_off_diagonal_count(self):
        cm = confusion([2], [5])
        assert cm[2, 5] == 1
        assert cm.sum() == 1

    def test_row_sums_are_true_counts(self):
        rng = np.random.default_rng(0)
        true = rng.integers(0, 7, size=200)
        pred = rng.integers(0, 7, size=200)
        cm = confusion(true, pred)
        assert np.array_equal(cm.sum(axis=1), np.bincount(true, minlength=7))
        assert np.array_equal(cm.sum(axis=0), np.bincount(pred, minlength=7))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([0, 1], [0])

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=60))
    def test_equals_a_scatter_add_reference(self, pairs):
        true, pred = (np.array([p[i] for p in pairs], dtype=np.int64) for i in (0, 1))
        expected = np.zeros((7, 7), dtype=np.int64)
        np.add.at(expected, (true, pred), 1)
        cm = confusion(true.tolist(), pred.tolist())
        assert cm.dtype == np.int64 and cm.shape == (7, 7)
        assert np.array_equal(cm, expected)

    @pytest.mark.parametrize("true, pred", [([7], [0]), ([0], [-1]), ([-1, 2], [0, 2])])
    def test_labels_out_of_range(self, true, pred):
        with pytest.raises(ValueError, match=r"labels outside \[0, 7\)"):
            confusion(true, pred)


class TestMetrics:
    def test_binary_hand_values(self):
        # TP=3, TN=5, FP=1, FN=1 for class 1
        cm = np.array([[5, 1], [1, 3]])
        report = metrics(cm)
        assert report.accuracy == pytest.approx(0.8)
        assert report.precision[1] == pytest.approx(0.75)
        assert report.recall[1] == pytest.approx(0.75)
        assert report.f1[1] == pytest.approx(0.75)

    def test_diagonal_matrix_is_perfect(self):
        report = metrics(np.diag([3, 1, 4, 1, 5, 9, 2]))
        assert report.accuracy == 1.0
        assert report.macro_precision == 1.0
        assert report.macro_recall == 1.0
        assert report.macro_f1 == 1.0

    def test_absent_class_zero_convention(self):
        cm = np.zeros((3, 3), dtype=int)
        cm[0, 0] = 5
        cm[1, 1] = 5
        report = metrics(cm)
        assert report.precision[2] == 0.0
        assert report.recall[2] == 0.0
        assert report.f1[2] == 0.0

    def test_recall_is_row_normalized_diagonal(self):
        rng = np.random.default_rng(1)
        cm = rng.integers(0, 20, size=(7, 7))
        cm += np.eye(7, dtype=int)  # keep every row populated
        report = metrics(cm)
        for c in range(7):
            assert report.recall[c] == pytest.approx(cm[c, c] / cm[c].sum())
        assert report.macro_f1 <= 1.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            metrics(np.zeros((7, 7), dtype=int))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_every_field_equals_the_masked_formula(self, data):
        """Against the formula as first written: every ratio divided in full
        under a silenced errstate, then its 0/0 entries replaced by 0."""
        cm = np.array(data.draw(st.lists(st.lists(st.integers(0, 9), min_size=7, max_size=7), min_size=7, max_size=7)))
        for axis, index in data.draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 6)), max_size=4)):
            np.moveaxis(cm, axis, 0)[index] = 0  # an empty row (true class) or column (predicted class)
        if cm.sum() == 0:
            cm[data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))] = 1
        tp = np.diag(cm).astype(np.float64)
        fp, fn = cm.sum(axis=0) - tp, cm.sum(axis=1) - tp
        with np.errstate(invalid="ignore", divide="ignore"):
            precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
            recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
            f1 = np.where(precision + recall > 0, 2 * precision * recall / (precision + recall), 0.0)
        expected = {
            "accuracy": float(tp.sum() / cm.sum()),
            "precision": precision.tolist(),
            "recall": recall.tolist(),
            "f1": f1.tolist(),
            "macro_precision": float(precision.mean()),
            "macro_recall": float(recall.mean()),
            "macro_f1": float(f1.mean()),
            "confusion": cm.tolist(),
            "n_samples": int(cm.sum()),
        }
        report = metrics(cm)
        for key, value in expected.items():
            assert repr(getattr(report, key)) == repr(value), key


class TestRocAuc:
    def _probs(self, scores):
        scores = np.asarray(scores, dtype=float)
        return np.stack([1.0 - scores, scores], axis=1)

    def test_perfect_separation(self):
        result = roc_auc([0, 0, 1, 1], self._probs([0.1, 0.2, 0.8, 0.9]))
        assert result["per_class_auc"][1] == pytest.approx(1.0)

    def test_identical_scores_are_chance(self):
        result = roc_auc([0, 1, 0, 1], self._probs([0.5, 0.5, 0.5, 0.5]))
        assert result["per_class_auc"][1] == pytest.approx(0.5)

    def test_trapezoid_equals_mann_whitney(self):
        rng = np.random.default_rng(2)
        for trial in range(100):
            n = int(rng.integers(4, 30))
            scores = rng.integers(0, 10, size=n) / 10.0 if trial % 2 else rng.uniform(size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            result = roc_auc(labels, self._probs(scores))
            pos, neg = scores[labels == 1], scores[labels == 0]
            oracle = rank_auc(pos, neg)
            assert result["per_class_auc"][1] == pytest.approx(oracle, abs=1e-9)
            assert oracle == scipy_stats.mannwhitneyu(pos, neg).statistic / (len(pos) * len(neg))

    def test_absent_class_excluded_from_macro(self):
        probs = np.full((4, 3), 1.0 / 3.0)
        result = roc_auc([0, 0, 1, 1], probs)
        assert result["per_class_auc"][2] is None
        defined = [a for a in result["per_class_auc"] if a is not None]
        assert result["macro_auc"] == pytest.approx(np.mean(defined))

    def test_micro_pools_all_decisions(self):
        rng = np.random.default_rng(3)
        raw = rng.uniform(size=(20, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 3, size=20)
        result = roc_auc(labels, probs)
        onehot = np.zeros_like(probs, dtype=bool)
        onehot[np.arange(20), labels] = True
        oracle = rank_auc(probs[onehot], probs[~onehot])
        assert result["micro_auc"] == pytest.approx(oracle, abs=1e-9)

    def test_permuting_samples_changes_nothing(self):
        rng = np.random.default_rng(4)
        raw = rng.uniform(size=(30, 4))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 4, size=30)
        perm = rng.permutation(30)
        a = roc_auc(labels, probs)
        b = roc_auc(labels[perm], probs[perm])
        assert a["per_class_auc"] == b["per_class_auc"]
        assert a["micro_auc"] == b["micro_auc"]


class TestWilcoxon:
    def test_frozen_example(self):
        assert wilcoxon_rank_sum([1, 2], [3, 4]) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_identical_samples(self):
        assert wilcoxon_rank_sum([5, 5], [5, 5]) == 1.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_rank_sum([], [1.0])

    @pytest.mark.parametrize(
        "a,b,name",
        [([0.5, np.nan], [0.25], "sample_a"), ([0.5], [np.inf, 0.0], "sample_b"), ([1.0], [-np.inf], "sample_b")],
    )
    def test_non_finite_sample_rejected_by_name(self, a, b, name):
        # a NaN has no rank: it sorts last and equals no other value, itself included
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            wilcoxon_rank_sum(a, b)

    def test_midranks_equal_the_tie_loop_byte_for_byte(self):
        rng = np.random.default_rng(10)
        for trial in range(2000):
            n = int(rng.integers(1, 30))
            values = rng.integers(0, 5, size=n).astype(float) if trial % 2 else rng.normal(size=n)
            ranks, counts = _midranks(values)
            assert ranks.tobytes() == naive_midranks(values).tobytes()
            assert counts.tolist() == np.unique(values, return_counts=True)[1].tolist()

    def test_exact_branch_vs_scipy_without_ties(self):
        rng = np.random.default_rng(5)
        for n1 in range(1, 9):
            for n2 in range(1, 9):
                values = rng.permutation(100)[: n1 + n2].astype(float)
                a, b = values[:n1], values[n1:]
                ours = wilcoxon_rank_sum(a, b)
                ref = scipy_stats.mannwhitneyu(a, b, alternative="two-sided", method="exact").pvalue
                assert ours == pytest.approx(ref, abs=1e-12), (n1, n2)
                assert enumeration_p(a, b) == pytest.approx(ref, abs=1e-12), (n1, n2)

    def test_exact_branch_vs_enumeration_with_ties(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n1 = int(rng.integers(1, 7))
            n2 = int(rng.integers(1, 7))
            a = rng.integers(0, 4, size=n1).astype(float)
            b = rng.integers(0, 4, size=n2).astype(float)
            assert wilcoxon_rank_sum(a, b) == pytest.approx(enumeration_p(a, b), abs=1e-12)

    def test_exact_vs_normal_agreement_at_ten_ten(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = rng.normal(size=10)
            b = rng.normal(loc=rng.uniform(0, 1.5), size=10)
            ranks, counts = _midranks(np.concatenate([a, b]))
            w = float(ranks[:10].sum())
            exact = _exact_two_sided(ranks, 10, w)
            approx = _normal_two_sided(ranks, counts, 10, w)
            assert abs(exact - approx) < 0.02

    def test_large_samples_use_normal_branch(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=30)
        b = rng.normal(loc=2.0, size=30)
        p = wilcoxon_rank_sum(a, b)
        assert 0.0 <= p < 0.01

    def test_order_invariance(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=6)
        b = rng.normal(size=5)
        assert wilcoxon_rank_sum(a, b) == wilcoxon_rank_sum(list(reversed(a)), list(reversed(b)))


class _CentroidModel:
    """Nearest-centroid stand-in with a predict_proba surface."""

    def __init__(self, train_windows):
        feats = np.array([w.values.mean(axis=1) for w in train_windows])
        labels = np.array([w.label.code for w in train_windows])
        self.centroids = np.array(
            [feats[labels == c].mean(axis=0) if np.any(labels == c) else np.full(5, 1e9) for c in range(7)]
        )

    def predict_proba(self, values):
        """(7,) for one 5 x T window, (B, 7) for a stack of B windows."""
        d = ((values.mean(axis=-1)[..., None, :] - self.centroids) ** 2).sum(axis=-1)
        inv = 1.0 / (d + 1e-9)
        return inv / inv.sum(axis=-1, keepdims=True)


def _centroid_fitter(train_windows, val_windows, seed):
    return _CentroidModel(train_windows)


def _comparison_windows(seed=10, per_class=12):
    rng = np.random.default_rng(seed)
    windows = []
    for c in range(7):
        for i in range(per_class):
            values = c * 2.0 + rng.normal(scale=0.8, size=(5, 6))
            windows.append(CdgdWindow(f"t{c}-{i}", i, values, by_code(c)))
    return windows


class TestCompare:
    def test_single_model_single_repetition(self):
        windows = _comparison_windows()
        result = compare({"centroid": _centroid_fitter}, windows, "sample", 1, base_seed=11)
        (row,) = result.models
        assert row.mean_accuracy == row.accuracies[0]
        assert row.max_mean_error == 0.0
        assert result.p_values == {}

    def test_identical_models_p_one(self):
        windows = _comparison_windows()
        result = compare(
            {"a": _centroid_fitter, "b": _centroid_fitter}, windows, "sample", 4, base_seed=12
        )
        assert result.p_values["a|b"] == 1.0

    def test_mean_accuracy_definitional(self):
        windows = _comparison_windows()
        result = compare({"centroid": _centroid_fitter}, windows, "sample", 5, base_seed=13)
        (row,) = result.models
        assert row.mean_accuracy == pytest.approx(np.mean(row.accuracies))
        assert row.max_mean_error == pytest.approx(
            max(abs(a - row.mean_accuracy) for a in row.accuracies)
        )


class TestEvaluateModel:
    def test_report_shape(self):
        windows = _comparison_windows(seed=14, per_class=6)
        model = _CentroidModel(windows)
        report = evaluate_model(model, windows)
        assert report.n_samples == len(windows)
        assert len(report.precision) == 7
        assert len(report.per_class_auc) == 7
        assert 0.0 <= report.accuracy <= 1.0
        assert np.array(report.confusion).sum() == len(windows)
        assert set(report.to_dict()) == {
            "accuracy", "precision", "recall", "f1", "macro_precision", "macro_recall", "macro_f1",
            "confusion", "n_samples", "per_class_auc", "macro_auc", "micro_auc",
        }
        assert "scored" not in repr(report)
        with pytest.raises(AttributeError):
            report.macro_auc = 0.5

    def test_report_from_a_confusion_matrix_alone_has_no_roc_part(self):
        report = metrics(np.eye(7, dtype=int))
        assert (report.per_class_auc, report.macro_auc, report.micro_auc, report.curves) == ([], None, None, [])
        assert report.to_dict()["per_class_auc"] == [] and report.to_dict()["micro_auc"] is None


class _FixedModel:
    """Returns the stored probability row of each window, which holds its row index."""

    def __init__(self, probs):
        self.probs = probs

    def predict_proba(self, values):
        return self.probs[values[:, 0, 0].astype(int)]


@st.composite
def _scored(draw):
    """(labels, probabilities) for 1 to 60 windows. Some rows are one-hot;
    the others come from small integer weights, so scores tie, and a label
    drawn from a narrow range leaves classes absent."""
    n = draw(st.integers(1, 60))
    top = draw(st.integers(0, 6))
    labels = np.array(draw(st.lists(st.integers(0, top), min_size=n, max_size=n)))
    rows = []
    for _ in range(n):
        if draw(st.booleans()):
            row = [0] * 7
            row[draw(st.integers(0, 6))] = 1
        else:
            row = draw(st.lists(st.integers(0, 3), min_size=7, max_size=7).filter(any))
        rows.append(row)
    weights = np.array(rows, dtype=float)
    return labels, weights / weights.sum(axis=1, keepdims=True)


@settings(max_examples=60, deadline=None)
@given(_scored())
def test_roc_part_read_later_equals_an_eager_roc_auc(scored):
    labels, probs = scored
    windows = [CdgdWindow("t", i, np.full((5, 2), float(i)), by_code(int(c))) for i, c in enumerate(labels)]
    report = evaluate_model(_FixedModel(probs), windows)
    eager = roc_auc(labels, probs)
    for key in ("per_class_auc", "macro_auc", "micro_auc", "curves"):
        assert repr(getattr(report, key)) == repr(eager[key]), key
