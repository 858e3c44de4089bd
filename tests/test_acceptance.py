"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to watch the lines appear;
criteria 5-7 train real models and together take several minutes.
"""

import json
import time
from itertools import combinations

import numpy as np
import pytest

from mcdc.attention import attention_map, cnn_qkv, head_parameter_count, new_cnn_head, new_matrix_head
from mcdc.baselines import make_model
from mcdc.cli import main
from mcdc.data import fold0_sets, interpolate_gaps, normalize, overlapping_sample, split
from mcdc.evaluation import compare, evaluate_model, roc_auc, wilcoxon_rank_sum
from mcdc.model import McdcModel, ModelHyper
from mcdc.pipeline import RunConfig, _fitter_for, build_series, build_windows
from mcdc.synth import load_recipe, synth_generate
from mcdc.tensor import conv1d, cross_entropy, grad_check, tensor
from mcdc.training import TrainConfig, lr_schedule, train_fold


def _report(number, name, outcome="PASS"):
    # inline line for -s runs; conftest echoes one line per criterion in the
    # terminal summary of captured runs
    print(f"\nACCEPTANCE {number:2d} {name}: {outcome}", flush=True)


class criterion:
    """Prints the criterion's FAIL line when its block raises."""

    def __init__(self, number, name):
        self.number = number
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        _report(self.number, self.name, "PASS" if exc_type is None else "FAIL")
        return False


def test_criterion_01_gradient_correctness():
    with criterion(1, "gradient correctness (mcdc, matrix, ann) < 1e-4 in < 2 min"):
        started = time.perf_counter()
        rng = np.random.default_rng(1)
        window = rng.normal(size=(5, 8))
        worst = 0.0
        for kind in ("mcdc", "mcdc-matrix", "ann"):
            overrides = (
                {"heads": 2, "kernel_temporal": 3, "kernel_channel": 4, "ffn_hidden": 4}
                if kind != "ann"
                else {"hidden1": 4, "hidden2": 3}
            )
            model = make_model(kind, temporal_len=8, seed=2, **overrides)
            params = [p for _, p in model.parameters()]
            err = grad_check(lambda: cross_entropy(model.forward(window), 3), params)
            assert err < 1e-4, f"{kind}: relative error {err:.2e}"
            worst = max(worst, err)
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"


def test_criterion_02_attention_map_stochasticity():
    with criterion(2, "attention maps column-stochastic over 1000 inputs per route"):
        rng = np.random.default_rng(3)
        temporal_head = new_cnn_head(5, np.random.default_rng(4))
        channel_head = new_cnn_head(6, np.random.default_rng(5))
        for _ in range(1000):
            x = rng.normal(scale=4.0, size=(5, 8))
            for inp, head in ((x.T, temporal_head), (x, channel_head)):
                q, k, _ = cnn_qkv(tensor(inp), [head])
                amap = attention_map(q, k).data[0]
                assert np.allclose(amap.sum(axis=0), 1.0, atol=1e-9)
                assert amap.min() >= 0.0 and amap.max() <= 1.0


def test_criterion_03_shape_and_normalization_contract():
    with criterion(3, "forward yields 7 probabilities; zero params give uniform"):
        rng = np.random.default_rng(6)
        for t_len in (8, 12):
            hyper = ModelHyper(temporal_len=t_len, heads=2, kernel_temporal=5, kernel_channel=6, ffn_hidden=8)
            model = McdcModel(hyper, seed=7)
            probs = model.predict_proba(rng.normal(size=(5, t_len)))
            assert probs.shape == (7,)
            assert np.all(probs >= 0.0)
            assert abs(probs.sum() - 1.0) < 1e-9
            for _, p in model.parameters():
                p.data[...] = 0.0
            uniform = model.predict_proba(rng.normal(size=(5, t_len)))
            assert np.allclose(uniform, 1.0 / 7.0, atol=1e-12)


def _naive_conv(signal, kernel):
    """Same-length correlation: (k - 1) // 2 zeros on the left, k // 2 on the right."""
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


def _enumeration_p(a, b):
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
    mu = len(a) * (pooled.size + 1) / 2.0
    observed = abs(ranks[: len(a)].sum() - mu)
    hits = total = 0
    for subset in combinations(range(pooled.size), len(a)):
        total += 1
        if abs(ranks[list(subset)].sum() - mu) >= observed - 1e-9:
            hits += 1
    return hits / total


def test_criterion_04_oracle_equivalences():
    with criterion(4, "conv/naive exact; wilcoxon exact = enumeration; AUC = rank statistic"):
        rng = np.random.default_rng(8)
        for _ in range(100):
            length = int(rng.integers(1, 14))
            k = int(rng.integers(1, 8))
            sig = rng.normal(size=(int(rng.integers(1, 6)), length))
            kern = rng.normal(size=k)
            ours = conv1d(tensor(sig), tensor(kern.reshape(1, 1, k))).data
            assert np.array_equal(ours[0], _naive_conv(sig, kern))

        for n1 in range(1, 9):
            for n2 in range(1, 9):
                values = rng.integers(0, 6, size=n1 + n2).astype(float)
                a, b = values[:n1], values[n1:]
                assert wilcoxon_rank_sum(a, b) == pytest.approx(_enumeration_p(a, b), abs=1e-12)

        for trial in range(100):
            n = int(rng.integers(4, 30))
            scores = rng.integers(0, 9, size=n) / 9.0 if trial % 2 else rng.uniform(size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            probs = np.stack([1.0 - scores, scores], axis=1)
            auc = roc_auc(labels, probs)["per_class_auc"][1]
            pos, neg = scores[labels == 1], scores[labels == 0]
            u = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
            assert abs(auc - u / (len(pos) * len(neg))) < 1e-9


def test_criterion_05_synthetic_end_to_end():
    with criterion(5, "default recipe, stock model defaults: >= 0.95 test accuracy in < 15 min"):
        started = time.perf_counter()
        config = RunConfig(seed=42, recipe="default", temporal_len=12, heads=4)
        windows = build_windows(build_series(config), 12)
        assert len(windows) >= 1400, f"only {len(windows)} windows"
        plan = split(windows, "sample", 0.8, seed=42, k=4)
        train_w, val_w, test_w = fold0_sets(windows, plan)
        model = make_model("mcdc", 12, seed=42)  # kernels 5/6, H=4 defaults
        assert model.hyper.kernel_temporal == 5 and model.hyper.kernel_channel == 6 and model.hyper.heads == 4
        train_cfg = TrainConfig(seed=42, epochs=40, batch_size=200, patience=10)
        history = train_fold(model, train_w, val_w, train_cfg)
        assert len(history) <= 300
        report = evaluate_model(model, test_w)
        elapsed = time.perf_counter() - started
        print(f"\n  test accuracy {report.accuracy:.4f} after {len(history)} epochs, {elapsed:.0f}s")
        assert report.accuracy >= 0.95, f"accuracy {report.accuracy:.4f}"
        cm = np.asarray(report.confusion)
        for c in range(7):
            assert cm[c, c] > cm[c].sum() - cm[c, c], f"class {c} row not diagonal-dominant"
        assert elapsed < 900.0, f"took {elapsed:.0f}s"


def test_criterion_06_mechanism_stability_comparison():
    with criterion(6, "conv attention std <= matrix std over 10 repetitions at H=4"):
        config = RunConfig(
            seed=100, recipe="stability", temporal_len=8, heads=4,
            train={"epochs": 30, "batch_size": 200, "patience": 10, "folds": 4},
        )
        windows = build_windows(build_series(config), 8)
        fitters = {k: _fitter_for(config, k) for k in ("mcdc", "mcdc-matrix")}
        result = compare(fitters, windows, "sample", repetitions=10, base_seed=100, k=4)
        by_name = {row.name: row for row in result.models}
        conv_std = float(np.std(by_name["mcdc"].accuracies))
        matrix_std = float(np.std(by_name["mcdc-matrix"].accuracies))
        delta = by_name["mcdc"].mean_accuracy - by_name["mcdc-matrix"].mean_accuracy
        print(
            f"\n  conv std {conv_std:.5f} vs matrix std {matrix_std:.5f}; "
            f"mean-accuracy delta {delta:+.5f} (recorded, no margin asserted)"
        )
        assert conv_std <= matrix_std, f"conv std {conv_std:.5f} > matrix std {matrix_std:.5f}"
        rng = np.random.default_rng(0)
        assert head_parameter_count(new_cnn_head(5, rng)) < head_parameter_count(new_matrix_head(5, rng))
        assert head_parameter_count(new_cnn_head(6, rng)) < head_parameter_count(new_matrix_head(8, rng))


def test_criterion_07_facility_generalization():
    with criterion(7, "facility split strictly harder; mcdc generalizes at least as well as ann"):
        config = RunConfig(
            seed=200, recipe="facility_shift", temporal_len=12, heads=2,
            train={"epochs": 40, "batch_size": 200, "patience": 10, "folds": 4},
        )
        windows = build_windows(build_series(config), 12)
        fitters = {k: _fitter_for(config, k) for k in ("mcdc", "ann")}
        means = {}
        for mode in ("sample", "facility"):
            result = compare(fitters, windows, mode, repetitions=5, base_seed=200, k=4)
            means[mode] = {row.name: row.mean_accuracy for row in result.models}
        print(
            f"\n  mcdc sample {means['sample']['mcdc']:.4f} facility {means['facility']['mcdc']:.4f}; "
            f"ann sample {means['sample']['ann']:.4f} facility {means['facility']['ann']:.4f} "
            f"(means over 5 seeds)"
        )
        for kind in ("mcdc", "ann"):
            assert means["facility"][kind] < means["sample"][kind], kind
        assert means["facility"]["mcdc"] >= means["facility"]["ann"]


def test_criterion_08_pipeline_laws():
    with criterion(8, "window count law, facility disjointness, idempotent fill, norm round-trip"):
        series = synth_generate(load_recipe("default"), seed=10, transformers_per_class=5, length_range=(6, 30))
        t_len = 8
        windows = [w for s in series for w in overlapping_sample(s, t_len)]
        expected = sum(max(0, s.days.size - t_len + 1) for s in series)
        assert len(windows) == expected

        plan = split(windows, "facility", 0.8, seed=11)
        train_ids = {windows[i].transformer_id for i in plan.train_indices}
        test_ids = {windows[i].transformer_id for i in plan.test_indices}
        assert not train_ids & test_ids
        for i in plan.train_indices:
            assert windows[i].transformer_id in train_ids
        for i in plan.test_indices:
            assert windows[i].transformer_id in test_ids

        gappy = series[0]
        sparse = type(gappy)(
            gappy.transformer_id,
            gappy.voltage_kv,
            gappy.condition,
            gappy.days[::3],
            gappy.readings[:, ::3],
        )
        once = interpolate_gaps(sparse)
        twice = interpolate_gaps(once)
        assert np.array_equal(once.readings, twice.readings)

        train_part = [windows[i] for i in plan.train_indices]
        normalized, stats = normalize(train_part, windows)
        for orig, norm in zip(windows, normalized):
            assert np.allclose(stats.invert(norm.values), orig.values, atol=1e-9)


def test_criterion_09_cli_determinism(tmp_path):
    with criterion(9, "two identical train+eval runs are byte-identical"):
        flags = [
            "--temporal-len", "8", "--heads", "1", "--kernel-temporal", "3", "--kernel-channel", "4",
            "--epochs", "4", "--batch-size", "64", "--folds", "2", "--recipe", "stability",
        ]
        outputs = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert main(["train", "--seed", "77", "--out", str(out), *flags]) == 0
            assert main(
                [
                    "eval",
                    "--checkpoint", str(out / "checkpoint.json"),
                    "--data", str(out / "dataset.csv"),
                    "--plan", str(out / "split.json"),
                    "--out", str(out / "eval"),
                ]
            ) == 0
            outputs.append(out)
        first, second = outputs
        assert (first / "checkpoint.json").read_bytes() == (second / "checkpoint.json").read_bytes()
        report_a = json.loads((first / "eval" / "report.json").read_text())
        report_b = json.loads((second / "eval" / "report.json").read_text())
        assert report_a == report_b
        assert (first / "eval" / "report.json").read_bytes() == (second / "eval" / "report.json").read_bytes()


def test_criterion_10_lr_schedule():
    with criterion(10, "learning-rate decay boundaries exact"):
        config = TrainConfig(seed=0)
        expected = {0: 0.01, 499: 0.01, 500: 0.001, 749: 0.001, 750: 0.0002, 999: 0.0002}
        for epoch, lr in expected.items():
            assert lr_schedule(epoch, config) == lr
