"""Optimizer, schedule, early stopping and the cross-validation loop."""

import gc
import math

import numpy as np
import pytest

from mcdc.baselines import AnnHyper, AnnModel
from mcdc.conditions import by_code
from mcdc.data import CdgdWindow, split
from mcdc.model import McdcModel, ModelHyper
from mcdc.tensor import parameter
from mcdc.training import (
    AdamState,
    TrainConfig,
    adam_step,
    cross_validate,
    evaluate_windows,
    history_to_csv,
    lr_schedule,
    train_fold,
)

CFG = TrainConfig(seed=0)


class TestLrSchedule:
    @pytest.mark.parametrize(
        "epoch,expected",
        [(0, 0.01), (1, 0.01), (499, 0.01), (500, 0.001), (749, 0.001), (750, 0.0002), (999, 0.0002), (5000, 0.0002)],
    )
    def test_stock_decay_points(self, epoch, expected):
        assert lr_schedule(epoch, CFG) == expected

    def test_non_increasing(self):
        rates = [lr_schedule(e, CFG) for e in range(0, 1000, 7)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            lr_schedule(-1, CFG)

    def test_decay_epochs_must_increase(self):
        with pytest.raises(ValueError):
            TrainConfig(seed=0, lr_decay=((750, 0.001), (500, 0.0002)))

    def test_patience_validated(self):
        with pytest.raises(ValueError):
            TrainConfig(seed=0, patience=0)

    @pytest.mark.parametrize("field,value", [("epochs", 0), ("epochs", -3), ("batch_size", 0), ("batch_size", -5)])
    def test_epochs_and_batch_size_validated(self, field, value):
        # either would leave an untrained model, and mcdc train would save it
        with pytest.raises(ValueError, match=f"^{field} must be >= 1, got {value}$"):
            TrainConfig(seed=0, **{field: value})


class TestAdamStep:
    def test_first_step_magnitude(self):
        # m-hat = v-hat = g on step 1, so the update is -lr * g/(|g|+eps)
        p = parameter(np.zeros((1, 1)))
        state = AdamState()
        adam_step([("p", p)], {"p": np.ones((1, 1))}, state, lr=0.01, config=CFG)
        assert p.data[0, 0] == pytest.approx(-0.01, rel=1e-6)

    def test_zero_gradient_keeps_parameters(self):
        p = parameter(np.full((2, 3), 1.5))
        adam_step([("p", p)], {"p": np.zeros((2, 3))}, AdamState(), lr=0.01, config=CFG)
        assert np.array_equal(p.data, np.full((2, 3), 1.5))

    def test_shape_mismatch_rejected(self):
        p = parameter(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            adam_step([("p", p)], {"p": np.zeros((2, 3))}, AdamState(), lr=0.01, config=CFG)

    def test_two_runs_bit_identical(self):
        def run():
            rng = np.random.default_rng(1)
            p = parameter(rng.normal(size=(3, 3)))
            state = AdamState()
            for step in range(20):
                g = np.random.default_rng(step).normal(size=(3, 3))
                adam_step([("p", p)], {"p": g}, state, lr=0.01, config=CFG)
            return p.data

        assert np.array_equal(run(), run())

    def test_state_serves_one_parameter_list(self):
        a, b = parameter(np.zeros((2, 2))), parameter(np.zeros((1, 3)))
        state = AdamState()
        adam_step([("a", a), ("b", b)], {"a": np.ones((2, 2)), "b": np.ones((1, 3))}, state, lr=0.01, config=CFG)
        with pytest.raises(ValueError, match="this state holds"):
            adam_step([("b", b), ("a", a)], {"a": np.ones((2, 2)), "b": np.ones((1, 3))}, state, lr=0.01, config=CFG)

    def test_in_place_update_matches_the_allocating_formula_byte_for_byte(self):
        # the reference is the update written with temporaries, as it was
        # before it moved into scratch arrays
        rng = np.random.default_rng(5)
        shapes = {"scalar": (1, 1), "row": (1, 6), "col": (7, 1), "mat": (64, 60), "cube": (4, 1, 5)}
        params = [(name, parameter(rng.normal(size=shape))) for name, shape in shapes.items()]
        ref = {name: p.data.copy() for name, p in params}
        ref_m = {name: np.zeros(shape) for name, shape in shapes.items()}
        ref_v = {name: np.zeros(shape) for name, shape in shapes.items()}
        config = TrainConfig(seed=0, beta1=0.85, beta2=0.995, eps=1e-7)
        b1, b2 = config.beta1, config.beta2
        state = AdamState()
        for t in range(1, 51):
            grads = {name: rng.normal(scale=10.0 ** rng.integers(-8, 3), size=shape) for name, shape in shapes.items()}
            grads["row"][0, t % 6] = 0.0
            grads["col"][t % 7, 0] = -0.0
            lr = (0.01, 0.001, 0.0002)[t % 3]
            adam_step(params, grads, state, lr, config)
            bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
            for name, g in grads.items():
                ref_m[name] *= b1
                ref_m[name] += (1.0 - b1) * g
                ref_v[name] *= b2
                ref_v[name] += (1.0 - b2) * g * g
                ref[name] -= lr * (ref_m[name] / bc1) / (np.sqrt(ref_v[name] / bc2) + config.eps)
            for name, p in params:
                assert p.data.tobytes() == ref[name].tobytes(), (t, name)
                assert state.m[name].tobytes() == ref_m[name].tobytes(), (t, name)
                assert state.v[name].tobytes() == ref_v[name].tobytes(), (t, name)


def two_class_windows(n_per_class=10, t_len=8, seed=2, scale=1.0):
    rng = np.random.default_rng(seed)
    windows = []
    for code, offset in ((0, -1.0), (1, 1.0)):
        for i in range(n_per_class):
            values = offset * scale + 0.1 * rng.normal(size=(5, t_len))
            windows.append(CdgdWindow(f"t{code}{i}", i, values, by_code(code)))
    return windows


def tiny_model(seed=3, t_len=8):
    hyper = ModelHyper(temporal_len=t_len, heads=2, kernel_temporal=3, kernel_channel=4, ffn_hidden=8)
    return McdcModel(hyper, seed)


class TestTrainFold:
    def test_separable_data_reaches_full_accuracy(self):
        windows = two_class_windows()
        config = TrainConfig(seed=4, epochs=200, batch_size=8, patience=10_000)
        model = tiny_model()
        history = train_fold(model, windows, windows, config)
        _, acc = evaluate_windows(model, windows)
        assert acc == 1.0
        assert history.rows[-1].loss < 0.1

    def test_fresh_model_loss_near_ln7(self):
        rng = np.random.default_rng(5)
        windows = [CdgdWindow("t", i, rng.normal(size=(5, 8)), by_code(i % 7)) for i in range(14)]
        model = tiny_model(seed=6)
        config = TrainConfig(seed=7, epochs=1, batch_size=14)
        history = train_fold(model, windows, windows, config)
        assert history.rows[0].loss == pytest.approx(math.log(7.0), abs=0.3)

    def test_history_bounded_by_epochs(self):
        windows = two_class_windows()
        config = TrainConfig(seed=8, epochs=5, batch_size=8)
        history = train_fold(tiny_model(), windows, windows, config)
        assert len(history) <= 5

    def test_early_stop_restores_best(self):
        windows = two_class_windows(6)
        config = TrainConfig(seed=9, epochs=60, batch_size=8, patience=3)
        model = tiny_model(seed=10)
        history = train_fold(model, windows[:8], windows[8:], config)
        val_loss, _ = evaluate_windows(model, windows[8:])
        best = min(r.val_loss for r in history.rows)
        assert val_loss == pytest.approx(best, abs=1e-9)
        assert history.best_epoch == min(
            i for i, r in enumerate(history.rows) if r.val_loss == best
        )

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="empty training"):
            train_fold(tiny_model(), [], two_class_windows(2), TrainConfig(seed=11))

    def test_determinism_across_runs(self):
        windows = two_class_windows(5)
        config = TrainConfig(seed=12, epochs=6, batch_size=8)

        def run():
            model = tiny_model(seed=13)
            history = train_fold(model, windows, windows, config)
            return [(r.epoch, r.loss, r.val_accuracy, r.lr) for r in history.rows], model.parameter_arrays()

        rows_a, params_a = run()
        rows_b, params_b = run()
        assert rows_a == rows_b
        for name in params_a:
            assert np.array_equal(params_a[name], params_b[name])

    def test_last_incomplete_batch_kept(self):
        windows = two_class_windows(5)  # 10 windows, batch 8 -> batches of 8 and 2
        config = TrainConfig(seed=14, epochs=1, batch_size=8)
        history = train_fold(tiny_model(seed=15), windows, windows, config)
        assert len(history.rows) == 1

    def test_nan_parameter_stops_training_naming_epoch_and_batch(self):
        model = tiny_model(seed=19)
        model.ffn_w2.data[0, 0] = np.nan
        config = TrainConfig(seed=20, epochs=3, batch_size=8)
        with pytest.raises(ValueError, match=r"diverged at epoch 0, batch 0: loss nan"):
            train_fold(model, two_class_windows(5), two_class_windows(2), config)

    def test_cycle_collector_paused_during_training_and_restored(self):
        windows = two_class_windows(2)
        config = TrainConfig(seed=16, epochs=1, batch_size=4)
        seen = []

        class Probe:
            def __init__(self, model):
                self.model = model

            def parameters(self):
                return self.model.parameters()

            def forward(self, x):
                seen.append(gc.isenabled())
                return self.model.forward(x)

            def predict_proba(self, x):
                return self.model.predict_proba(x)

        assert gc.isenabled()
        train_fold(Probe(tiny_model(seed=17)), windows, windows, config)
        assert seen and not any(seen)
        assert gc.isenabled()
        with pytest.raises(ValueError, match="empty training"):
            train_fold(tiny_model(), [], windows, config)
        assert gc.isenabled()
        gc.disable()
        try:
            train_fold(tiny_model(seed=18), windows, windows, config)
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestCrossValidate:
    def _setup(self):
        windows = two_class_windows(20, seed=16)
        plan = split(windows, "sample", 0.8, seed=17, k=4)
        return windows, plan

    def test_four_fold_histories(self):
        windows, plan = self._setup()
        config = TrainConfig(seed=18, epochs=3, batch_size=16)
        result = cross_validate(lambda fold: tiny_model(seed=100 + fold), windows, plan, config)
        assert len(result.fold_histories) == 4

    def test_folds_disjoint(self):
        _, plan = self._setup()
        seen = set()
        for fold in plan.folds:
            assert not seen & set(fold)
            seen |= set(fold)
        assert seen == set(plan.train_indices)

    def test_mean_curves_are_fold_means(self):
        windows, plan = self._setup()
        config = TrainConfig(seed=19, epochs=3, batch_size=16)
        result = cross_validate(lambda fold: tiny_model(seed=200 + fold), windows, plan, config)
        curves = result.mean_curves()
        n = len(curves["loss"])
        for e in range(n):
            expected = np.mean([h.rows[e].loss for h in result.fold_histories])
            assert curves["loss"][e] == pytest.approx(expected, abs=1e-15)

    def test_divergence_names_the_fold(self):
        windows, plan = self._setup()

        def make(fold):
            model = tiny_model(seed=400 + fold)
            if fold == 1:
                model.channel_heads[0].kernel_q.data[0, 0] = np.nan
            return model

        with pytest.raises(ValueError, match=r"^fold 1: training diverged at epoch 0, batch 0"):
            cross_validate(make, windows, plan, TrainConfig(seed=21, epochs=2, batch_size=16))

    def test_best_fold_is_first_max_val_accuracy(self):
        windows, plan = self._setup()
        config = TrainConfig(seed=20, epochs=3, batch_size=16)
        result = cross_validate(lambda fold: tiny_model(seed=300 + fold), windows, plan, config)
        accs = result.fold_val_accuracies
        assert len(accs) == 4
        assert result.best_val_accuracy == max(accs)
        assert result.best_fold == accs.index(max(accs))


class TestHistoryCsv:
    def test_column_layout(self, tmp_path):
        windows = two_class_windows(4)
        config = TrainConfig(seed=21, epochs=2, batch_size=8)
        history = train_fold(tiny_model(seed=22), windows, windows, config)
        path = tmp_path / "history.csv"
        history_to_csv([history], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,fold,loss,val_accuracy,lr"
        assert len(lines) == 1 + len(history.rows)
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"


class TestAnnTrains:
    def test_ann_under_identical_config(self):
        windows = two_class_windows(8)
        config = TrainConfig(seed=23, epochs=40, batch_size=8, patience=10_000)
        model = AnnModel(AnnHyper(temporal_len=8, hidden1=8, hidden2=6), seed=24)
        train_fold(model, windows, windows, config)
        _, acc = evaluate_windows(model, windows)
        assert acc == 1.0
