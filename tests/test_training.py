"""Optimizer, schedule, early stopping, and the cross-validation loop of
the pipeline's fold jobs."""

import math
import re
import weakref

import numpy as np
import pytest

from mcdc.baselines import AnnHyper, AnnModel
from mcdc.conditions import by_code
from mcdc.checkpoint import load_checkpoint
from mcdc.data import CdgdWindow, fold_sets, split
from mcdc.evaluation import evaluate_model
from mcdc.model import McdcModel, ModelHyper
from mcdc import pipeline, training
from mcdc.tensor import parameter
from mcdc.training import (
    AdamState,
    TrainConfig,
    adam_step,
    evaluate_windows,
    history_to_csv,
    lr_schedule,
    train_fold,
)

CFG = TrainConfig(seed=0)
DECAY_DOMAIN = "lr_decay must be pairs with strictly increasing epochs and finite rates > 0"


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
        with pytest.raises(ValueError, match=f"^{re.escape(DECAY_DOMAIN)}, got "):
            TrainConfig(seed=0, lr_decay=((750, 0.001), (500, 0.0002)))

    @pytest.mark.parametrize("value", ["ab", [[1]], [["1", 0.1]], [[1.5, 0.1]], [[1, "0.1"]], [[True, 0.1]], 5])
    def test_decay_of_another_type_refused_naming_it(self, value):
        # "ab" and [[1]] used to fail unpacking, naming no field; [["1", 0.1]] to pass until training
        message = f"lr_decay must be [epoch, rate] pairs of an integer and a number, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainConfig(seed=0, lr_decay=value)

    def test_patience_validated(self):
        with pytest.raises(ValueError):
            TrainConfig(seed=0, patience=0)

    @pytest.mark.parametrize("field,value", [("epochs", 0), ("epochs", -3), ("batch_size", 0), ("batch_size", -5)])
    def test_epochs_and_batch_size_validated(self, field, value):
        # either would leave an untrained model, and mcdc train would save it
        with pytest.raises(ValueError, match=f"^{field} must be >= 1, got {value}$"):
            TrainConfig(seed=0, **{field: value})

    @pytest.mark.parametrize("folds", [1, 0, -2])
    def test_folds_need_one_held_out(self, folds):
        # folds=1 used to pass here and fail only at the split stage, after the load
        with pytest.raises(ValueError, match=f"^folds must be >= 2, one of them held out for validation, got {folds}$"):
            TrainConfig(seed=0, folds=folds)

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"lr0": 0.0}, "lr0 must be > 0, got 0.0"),
            ({"lr0": -1.0}, "lr0 must be > 0, got -1.0"),
            ({"lr0": math.nan}, "lr0 must be > 0, got nan"),
            # these two named no config key ("lr_decay rate at epoch 750 must be > 0, got 0.0")
            ({"lr_decay": ((500, 0.001), (750, 0.0))}, f"{DECAY_DOMAIN}, got ((500, 0.001), (750, 0.0))"),
            ({"lr_decay": ((500, -0.001),)}, f"{DECAY_DOMAIN}, got ((500, -0.001),)"),
            # an infinite rate used to train, to NaN parameters or a divergence naming no field
            ({"lr0": math.inf}, "lr0 must be finite, got inf"),
            ({"eps": math.inf}, "eps must be finite, got inf"),
            ({"lr_decay": ((500, math.inf),)}, f"{DECAY_DOMAIN}, got ((500, inf),)"),
        ],
    )
    def test_learning_rates_must_be_positive(self, overrides, message):
        # a negative rate runs gradient ascent, and mcdc train would save the result
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainConfig(seed=0, **overrides)


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


class TestEvaluateWindows:
    @pytest.mark.parametrize("kind", ["conv", "matrix", "ann"])
    @pytest.mark.parametrize("seed", range(3))
    def test_loss_is_the_formula_it_replaced_byte_for_byte(self, kind, seed):
        # the validation loss that early stopping reads, against the mean
        # cross-entropy written out as evaluate_windows used to compute it;
        # 70 windows span two SCORE_CHUNK stacks
        rng = np.random.default_rng(seed)
        windows = [CdgdWindow("t", i, rng.normal(size=(5, 8)), by_code(int(rng.integers(7)))) for i in range(70)]
        if kind == "ann":
            model = AnnModel(AnnHyper(temporal_len=8, input_mode="window"), seed)
        else:
            hyper = ModelHyper(temporal_len=8, heads=2, kernel_temporal=3, kernel_channel=4, attention=kind)
            model = McdcModel(hyper, seed)
        loss, acc = evaluate_windows(model, windows)
        probs = training.score_windows(model, windows)
        labels = np.array([w.label.code for w in windows])
        n = len(windows)
        ref = -np.log(np.maximum(probs[np.arange(n), labels], 1e-12)).sum() / n
        assert type(loss) is float and np.float64(loss).tobytes() == ref.tobytes()
        assert acc == int((probs.argmax(axis=1) == labels).sum()) / n


    @pytest.mark.parametrize("scorer", [training.score_windows, evaluate_windows, evaluate_model])
    def test_empty_window_list_refused_by_name(self, scorer):
        with pytest.raises(ValueError, match="empty window list"):
            scorer(tiny_model(), [])


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
        assert len(history.rows) <= 5

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
        model.params["ffn_w2"].data[0, 0] = np.nan
        config = TrainConfig(seed=20, epochs=3, batch_size=8)
        with pytest.raises(ValueError, match=r"diverged at epoch 0, batch 0: loss nan"):
            train_fold(model, two_class_windows(5), two_class_windows(2), config)

    @pytest.mark.parametrize("batch_size,where", [(4, "batch 1"), (16, "validation")])
    def test_float_overflow_stops_training_naming_epoch_and_batch(self, batch_size, where):
        # the first step moves every parameter by about lr0, so the next
        # forward, a batch's or the validation's, overflows; it used to warn
        # and go on with NaNs
        config = TrainConfig(seed=20, epochs=3, batch_size=batch_size, lr0=1e300)
        message = f"training diverged at epoch 0, {where}: overflow encountered in matmul"
        with pytest.raises(ValueError, match=f"^{message}$"):
            train_fold(tiny_model(seed=19), two_class_windows(5), two_class_windows(2), config)

    def test_one_batch_graph_at_a_time(self, monkeypatch):
        # a finished batch's loss, and with it its whole graph, is freed
        # before the next batch's forward starts
        losses = []
        alive_at_forward = []

        def batch_loss(model, batch):
            alive_at_forward.append([ref() is not None for ref in losses])
            loss = real(model, batch)
            losses.append(weakref.ref(loss))
            return loss

        real = training._batch_loss
        monkeypatch.setattr(training, "_batch_loss", batch_loss)
        windows = two_class_windows(4)  # 8 windows, batch 4 -> two batches
        train_fold(tiny_model(seed=21), windows, windows, TrainConfig(seed=22, epochs=1, batch_size=4))
        assert alive_at_forward == [[], [False]]


def tiny_config(seed, **train):
    """A run config whose make_model("mcdc", s) is tiny_model(s), training under `train`."""
    return pipeline.RunConfig(seed=seed, temporal_len=8, heads=2, kernel_temporal=3, kernel_channel=4, ffn_hidden=8,
                              train=train)


def fold_jobs(windows, plan, config, model_seed):
    """run_train's jobs over `plan`'s folds, with model seeds model_seed + fold."""
    return [pipeline._Job(f"fold {fold}", config, "mcdc", model_seed + fold, config.seed,
                          *fold_sets(windows, plan, fold)) for fold in range(len(plan.folds))]


class TestFoldJobs:
    def _setup(self):
        windows = two_class_windows(20, seed=16)
        plan = split(windows, "sample", 0.8, seed=17, k=4)
        return windows, plan

    @staticmethod
    def _recorded_train(tmp_path, monkeypatch, poison_call=None):
        """run_train on the stability recipe with every train_fold call
        recorded as [model, config, history], the `poison_call`-th model's
        first channel_qkv entry set to NaN first; returns (result or
        exception, calls)."""
        calls = []

        def recorded(model, train_windows, val_windows, config):
            if len(calls) == poison_call:
                model.params["channel_qkv"].data[0, 0, 0] = np.nan
            calls.append([model, config])
            calls[-1].append(train_fold(model, train_windows, val_windows, config))
            return calls[-1][2]

        monkeypatch.setattr(pipeline, "train_fold", recorded)
        config = pipeline.RunConfig(seed=20, out_dir=str(tmp_path / "run"), recipe="stability", temporal_len=8,
                                    heads=1, kernel_temporal=3, kernel_channel=4, train={"epochs": 2, "batch_size": 64})
        try:
            return pipeline.run_train(config), calls
        except pipeline.PipelineError as exc:
            return exc, calls

    def test_four_fold_histories(self):
        windows, plan = self._setup()
        fits = pipeline._fits(fold_jobs(windows, plan, tiny_config(18, epochs=3, batch_size=16), 100), 1)
        assert len(fits) == 4
        assert all(len(history.rows) == 3 for _, history in fits)

    def test_folds_disjoint(self):
        _, plan = self._setup()
        seen = set()
        for fold in plan.folds:
            assert not seen & set(fold)
            seen |= set(fold)
        assert seen == set(plan.train_indices)

    def test_fold_models_seeded_seed_plus_fold_all_trained_with_the_seed(self, tmp_path, monkeypatch):
        # a train seed of seed + fold would change checkpoint.json
        _, calls = self._recorded_train(tmp_path, monkeypatch)
        assert [model.seed for model, _, _ in calls] == [20, 21, 22, 23]
        assert [config.seed for _, config, _ in calls] == [20] * 4

    def test_divergence_names_the_fold(self, tmp_path, monkeypatch):
        exc, calls = self._recorded_train(tmp_path, monkeypatch, poison_call=1)
        assert len(calls) == 2
        assert str(exc).startswith("stage 'train': fold 1: training diverged at epoch 0, batch 0")
        assert re.match(r"^fold 1: training diverged at epoch 0, batch 0", str(exc.__cause__))
        assert not (tmp_path / "run").exists()

    def test_best_fold_is_first_max_val_accuracy(self, tmp_path, monkeypatch):
        result, calls = self._recorded_train(tmp_path, monkeypatch)
        accs = result["fold_val_accuracies"]
        assert accs == [history.rows[history.best_epoch].val_accuracy for _, _, history in calls]
        assert len(accs) == 4
        assert result["best_fold"] == accs.index(max(accs))
        assert result["best_fold"] == 1 and accs[3] == accs[1]  # at this seed folds 1 and 3 tie at the max
        best_model = calls[result["best_fold"]][0]
        saved, _ = load_checkpoint(result["paths"]["checkpoint"])
        for name, p in best_model.params.items():
            assert saved.params[name].data.tobytes() == p.data.tobytes(), name

    def test_fold_accuracy_is_the_best_epoch_row_and_the_restored_models_score(self):
        # unlearnable labels, so accuracy moves from epoch to epoch and every fold stops early
        rng = np.random.default_rng(23)
        windows = [CdgdWindow("t", i, rng.normal(size=(5, 8)), by_code(i % 3)) for i in range(40)]
        plan = split(windows, "sample", 0.8, seed=17, k=4)
        config = tiny_config(22, epochs=10, batch_size=16, patience=2, lr0=0.05)
        moved = 0
        for fold, (model, history) in enumerate(pipeline._fits(fold_jobs(windows, plan, config, 500), 1)):
            row = history.rows[history.best_epoch]
            val_windows = [windows[i] for i in plan.folds[fold]]
            assert evaluate_windows(model, val_windows)[1] == row.val_accuracy
            moved += history.rows[-1].val_accuracy != row.val_accuracy
        assert moved, "no fold's last epoch scored differently from its best"


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
