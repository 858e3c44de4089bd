"""CLI and pipeline behavior on deliberately tiny configurations."""

import argparse
import json
from dataclasses import fields

import numpy as np
import pytest

from mcdc import pipeline
from mcdc.baselines import MODEL_KINDS, make_model
from mcdc.checkpoint import load_checkpoint, save_checkpoint
from mcdc.cli import _add_config_flags, build_parser, main
from mcdc.data import NormStats, SplitPlan, load_series
from mcdc.evaluation import evaluate_model, roc_csv
from mcdc.pipeline import (
    DEFAULT_SWEEP_GRID, PipelineError, RunConfig, _stage, build_windows, run_eval, run_sweep,
)
from mcdc.training import TrainConfig

TINY_FLAGS = [
    "--temporal-len", "8",
    "--heads", "1",
    "--kernel-temporal", "3",
    "--kernel-channel", "4",
    "--epochs", "4",
    "--batch-size", "64",
    "--folds", "2",
    "--recipe", "stability",
]


UNKNOWN_RECIPE = (
    "error: --recipe 'nosuch' is neither a shipped recipe (default, facility_shift, stability) nor a recipe file"
)


def train_once(tmp_path, name, seed="21", extra=()):
    out = tmp_path / name
    code = main(["train", "--seed", seed, "--out", str(out), *TINY_FLAGS, *extra])
    assert code == 0
    return out


class TestGenData:
    def test_round_trip_and_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["gen-data", "--out", str(a), "--seed", "3", "--transformers-per-class", "1"]) == 0
        assert main(["gen-data", "--out", str(b), "--seed", "3", "--transformers-per-class", "1"]) == 0
        assert a.read_bytes() == b.read_bytes()
        series = load_series(a)
        assert len(series) == 7
        total_rows = sum(s.days.size for s in series)
        assert len(a.read_text().strip().splitlines()) == total_rows + 1

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["gen-data", "--out", "/tmp/x.csv"])

    @pytest.mark.parametrize(
        "flags,message",
        [
            # it used to end in numpy's bare "expected non-negative integer"
            (["--seed", "-1"], "seed must be an integer >= 0, got -1"),
            # 0 used to fall back to the recipe's count and write 28 series
            (["--seed", "3", "--transformers-per-class", "0"], "transformers_per_class must be an integer >= 1, got 0"),
            (["--seed", "3", "--noise", "-0.5"], "noise_level must be >= 0, got -0.5"),
            (["--seed", "3", "--noise", "nan"], "noise_level must be >= 0, got nan"),
        ],
    )
    def test_bad_override_refused_before_writing(self, tmp_path, capsys, flags, message):
        out = tmp_path / "data.csv"
        assert main(["gen-data", "--out", str(out), "--recipe", "stability", *flags]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_recipe_names_the_flag_and_the_shipped_recipes(self, tmp_path, capsys):
        # it used to end in "[Errno 2] No such file or directory: 'nosuch'"
        out = tmp_path / "data.csv"
        assert main(["gen-data", "--out", str(out), "--seed", "3", "--recipe", "nosuch"]) == 1
        assert capsys.readouterr().err.splitlines() == [UNKNOWN_RECIPE]
        assert not out.exists()


class TestTrainCommand:
    def test_artifacts_written(self, tmp_path):
        out = train_once(tmp_path, "run")
        for name in ("checkpoint.json", "history.csv", "split.json", "dataset.csv"):
            assert (out / name).exists(), name
        header = (out / "history.csv").read_text().splitlines()[0]
        assert header == "epoch,fold,loss,val_accuracy,lr"
        folds = {line.split(",")[1] for line in (out / "history.csv").read_text().splitlines()[1:]}
        assert folds == {"0", "1"}

    def test_seed_mandatory(self, tmp_path, capsys):
        code = main(["train", "--out", str(tmp_path / "x"), *TINY_FLAGS])
        assert code == 1
        assert "seed is mandatory" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        config = {
            "seed": 9,
            "out_dir": str(tmp_path / "from_file"),
            "recipe": "stability",
            "temporal_len": 8,
            "heads": 1,
            "kernel_temporal": 3,
            "kernel_channel": 4,
            "train": {"epochs": 3, "batch_size": 64, "folds": 2},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "overridden"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "checkpoint.json").exists()
        assert not (tmp_path / "from_file").exists()

    def test_non_positive_batch_size_saves_no_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["train", "--seed", "4", "--out", str(out), *TINY_FLAGS, "--batch-size", "-5"])
        assert code == 1
        assert "batch_size must be >= 1, got -5" in capsys.readouterr().err
        assert not (out / "checkpoint.json").exists()

    def test_non_positive_lr0_saves_no_checkpoint(self, tmp_path, capsys):
        # it used to run gradient ascent and save that checkpoint
        out = tmp_path / "x"
        code = main(["train", "--seed", "7", "--out", str(out), *TINY_FLAGS, "--lr0", "-1"])
        assert code == 1
        assert "lr0 must be > 0, got -1.0" in capsys.readouterr().err
        assert not (out / "checkpoint.json").exists()

    def test_zero_heads_refused_before_load(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["train", "--seed", "7", "--out", str(out), *TINY_FLAGS, "--heads", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert "heads must be >= 1, got 0" in err
        assert "stage" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--train-fraction", "1.5"], "train_fraction must be in (0, 1), got 1.5"),
            # 1.0 used to write a split.json with no test windows
            (["--train-fraction", "1.0"], "train_fraction must be in (0, 1), got 1.0"),
            (["--train-fraction", "0"], "train_fraction must be in (0, 1), got 0.0"),
            (["--seed", "-1"], "seed must be an integer >= 0, got -1"),
            # it used to fail only at the split stage, naming k
            (["--folds", "1"], "folds must be >= 2, one of them held out for validation, got 1"),
            # 50 used to train, with 41 of each kernel's taps only ever on padding
            (["--kernel-temporal", "50"], "kernel_temporal must be <= 5"),
            (["--kernel-channel", "9"], "kernel_channel must be <= 8"),
        ],
    )
    def test_bad_run_flag_refused_before_load(self, tmp_path, capsys, flags, message):
        out = tmp_path / "x"
        code = main(["train", "--seed", "7", "--out", str(out), *TINY_FLAGS, *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err
        assert "stage" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config,message",
        [
            # the CLI's --split-mode choices cannot send this one
            ({"seed": 9, "split_mode": "by-day"}, "split_mode must be one of ('sample', 'facility'), got 'by-day'"),
            # it used to end in numpy's TypeError traceback
            ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
            # it used to say "unknown input mode 'bogus'", naming no field
            ({"seed": 9, "ann_input_mode": "bogus"}, "input_mode must be one of ('last_day', 'window'), got 'bogus'"),
            ({"seed": 9, "model": "gru"}, "model must be one of ('mcdc', 'mcdc-matrix', 'ann'), got 'gru'"),
        ],
    )
    def test_bad_config_value_refused_before_load(self, tmp_path, capsys, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "x"
        assert main(["train", "--config", str(path), "--out", str(out), *TINY_FLAGS]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "stage" not in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config,message",
        [
            ({"seed": 9, "bogus": 1}, "unknown config keys ['bogus']"),
            ({"seed": 9, "train": {"epochs": 2, "bogus": 1}}, "unknown config keys ['train.bogus']"),
        ],
    )
    def test_unknown_config_key_refused(self, tmp_path, capsys, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "x"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_train_flag_merges_into_file_train_block(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 9, "train": {"epochs": 3, "folds": 2}}))
        out = tmp_path / "merged"
        flags = ["--temporal-len", "8", "--heads", "1", "--kernel-temporal", "3", "--kernel-channel", "4",
                 "--batch-size", "64", "--recipe", "stability", "--epochs", "2"]
        assert main(["train", "--config", str(path), "--out", str(out), *flags]) == 0
        rows = (out / "history.csv").read_text().splitlines()[1:]
        assert sorted({tuple(row.split(",")[:2]) for row in rows}) == [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]

    def test_unknown_recipe_fails_naming_the_flag(self, tmp_path, capsys):
        assert main(["train", "--seed", "4", "--out", str(tmp_path / "x"), *TINY_FLAGS, "--recipe", "nosuch"]) == 1
        assert capsys.readouterr().err.splitlines() == [UNKNOWN_RECIPE.replace("error: ", "error: stage 'load': ")]
        # only the save stage creates the output directory
        assert not (tmp_path / "x").exists()

    def test_more_folds_than_training_windows_fail_at_split_naming_folds(self, tmp_path, capsys):
        # only the data can rule this out, so it fails at its stage
        assert main(["train", "--seed", "4", "--out", str(tmp_path / "x"), *TINY_FLAGS, "--folds", "100000"]) == 1
        assert capsys.readouterr().err.startswith("error: stage 'split': folds=100000 exceeds training size ")

    def test_missing_data_file_fails_with_stage(self, tmp_path, capsys):
        code = main(
            ["train", "--seed", "4", "--out", str(tmp_path / "x"), "--data", str(tmp_path / "nope.csv")]
        )
        assert code == 1
        assert "does not exist" in capsys.readouterr().err


class TestRunConfig:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_defaults_are_the_hyper_defaults(self, kind):
        assert RunConfig(seed=1).make_model(kind, 1).hyper == make_model(kind, 12, 1).hyper

    def test_load_without_seed_refused(self):
        with pytest.raises(ValueError, match="seed is mandatory"):
            RunConfig.load(None, {"recipe": "stability"})

    def test_stage_wraps_errors_with_its_name(self):
        with pytest.raises(PipelineError, match="^stage 'train': boom$"):
            with _stage("train"):
                raise ValueError("boom")

    def test_stage_leaves_keyboard_interrupt_unwrapped(self):
        with pytest.raises(KeyboardInterrupt):
            with _stage("train"):
                raise KeyboardInterrupt

    def test_every_config_flag_sets_a_config_field(self):
        # the flags are read back by field name, so a flag without a field would be dropped
        parser = argparse.ArgumentParser()
        _add_config_flags(parser)
        dests = {action.dest for action in parser._actions} - {"help"}
        train_fields = {f.name for f in fields(TrainConfig)} - {"seed"}
        assert dests <= {"config"} | {f.name for f in fields(RunConfig)} | train_fields

    def test_every_grid_flag_is_a_sweep_axis(self):
        sweep = build_parser()._subparsers._group_actions[0].choices["sweep"]
        grid = {a.option_strings[0]: a.dest for a in sweep._actions if a.dest.startswith("grid_")}
        assert grid == {f"--grid-{axis.replace('_', '-')}": f"grid_{axis}" for axis in DEFAULT_SWEEP_GRID}


class TestEvalCommand:
    def test_eval_after_train(self, tmp_path):
        out = train_once(tmp_path, "run")
        eval_dir = tmp_path / "eval"
        code = main(
            [
                "eval",
                "--checkpoint", str(out / "checkpoint.json"),
                "--data", str(out / "dataset.csv"),
                "--plan", str(out / "split.json"),
                "--out", str(eval_dir),
            ]
        )
        assert code == 0
        report = json.loads((eval_dir / "report.json").read_text())
        assert set(report) >= {
            "accuracy", "precision", "recall", "f1",
            "macro_precision", "macro_recall", "macro_f1",
            "confusion", "per_class_auc", "macro_auc", "micro_auc",
        }
        assert (eval_dir / "roc.csv").read_text().splitlines()[0] == "class,fpr,tpr,threshold"

    def test_training_side_refused_without_flag(self, tmp_path, capsys):
        out = train_once(tmp_path, "run")
        args = [
            "eval",
            "--checkpoint", str(out / "checkpoint.json"),
            "--data", str(out / "dataset.csv"),
            "--plan", str(out / "split.json"),
            "--out", str(tmp_path / "e2"),
            "--side", "train",
        ]
        assert main(args) == 1
        assert "refusing" in capsys.readouterr().err
        assert main(args + ["--allow-train-eval"]) == 0

    def test_temporal_mismatch_is_compatibility_error(self, tmp_path, capsys):
        out = train_once(tmp_path, "run")
        other = train_once(tmp_path, "other", seed="22", extra=["--temporal-len", "12", "--kernel-channel", "6"])
        code = main(
            [
                "eval",
                "--checkpoint", str(other / "checkpoint.json"),
                "--data", str(out / "dataset.csv"),
                "--plan", str(out / "split.json"),
                "--out", str(tmp_path / "e3"),
            ]
        )
        assert code == 1
        assert "temporal length" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda p: p["hyper"].update(bogus=1), "unknown hyper keys ['bogus']"),
            # a conv checkpoint relabelled as its matrix twin used to load as the conv model
            (lambda p: p.update(model_kind="mcdc-matrix"), "model_kind 'mcdc-matrix' pins {'attention': 'matrix'}"),
        ],
        ids=["bogus-hyper", "kind-contradicts-hyper"],
    )
    def test_bad_checkpoint_exits_with_message(self, tmp_path, capsys, edit, message):
        bad = tmp_path / "bad.json"
        save_checkpoint(bad, make_model("mcdc", temporal_len=8, seed=23), NormStats(np.zeros(5), np.ones(5)))
        payload = json.loads(bad.read_text())
        edit(payload)
        bad.write_text(json.dumps(payload))
        # the checkpoint is read first, so the data and plan are never opened
        code = main(
            [
                "eval",
                "--checkpoint", str(bad),
                "--data", str(tmp_path / "dataset.csv"),
                "--plan", str(tmp_path / "split.json"),
                "--out", str(tmp_path / "e4"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and f"{bad}: {message}" in err
        assert "Traceback" not in err


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        a = train_once(tmp_path, "a")
        b = train_once(tmp_path, "b")
        for name in ("checkpoint.json", "history.csv", "split.json", "dataset.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_eval_rerun_byte_identical(self, tmp_path):
        out = train_once(tmp_path, "run")
        dirs = []
        for name in ("e1", "e2"):
            run_eval(
                str(out / "checkpoint.json"),
                str(out / "dataset.csv"),
                str(out / "split.json"),
                str(tmp_path / name),
            )
            dirs.append(tmp_path / name)
        assert (dirs[0] / "report.json").read_bytes() == (dirs[1] / "report.json").read_bytes()
        assert (dirs[0] / "roc.csv").read_bytes() == (dirs[1] / "roc.csv").read_bytes()

    def test_eval_matches_per_window_z_scoring_byte_for_byte(self, tmp_path):
        out = train_once(tmp_path, "run")
        run_eval(str(out / "checkpoint.json"), str(out / "dataset.csv"), str(out / "split.json"), str(tmp_path / "e"))
        # the evaluation as first written: one z-score per chosen window
        model, stats = load_checkpoint(str(out / "checkpoint.json"))
        plan = SplitPlan.from_json((out / "split.json").read_text())
        windows = build_windows(load_series(out / "dataset.csv"), model.hyper.temporal_len)
        chosen = [windows[i] for i in plan.test_indices]
        for w in chosen:
            w.values = stats.apply(w.values)
        report = evaluate_model(model, chosen)
        roc_csv(report.curves, str(tmp_path / "roc.csv"))
        expected = json.dumps(report.to_dict(), sort_keys=True) + "\n"
        assert (tmp_path / "e" / "report.json").read_text(encoding="utf-8") == expected
        assert (tmp_path / "e" / "roc.csv").read_bytes() == (tmp_path / "roc.csv").read_bytes()

    def test_input_dataset_not_mutated(self, tmp_path):
        data = tmp_path / "data.csv"
        main(["gen-data", "--out", str(data), "--seed", "5", "--transformers-per-class", "1"])
        before = data.read_bytes()
        out = tmp_path / "run"
        main(["train", "--seed", "6", "--out", str(out), "--data", str(data), *TINY_FLAGS])
        assert data.read_bytes() == before


class TestToySmoke:
    def test_two_class_toy_trains_under_a_minute(self, tmp_path):
        import time

        from mcdc.data import write_series_csv
        from mcdc.synth import load_recipe, synth_generate

        recipe = dict(load_recipe("stability"))
        recipe["classes"] = {k: recipe["classes"][k] for k in ("NC", "HT")}
        series = synth_generate(recipe, seed=51, transformers_per_class=2, length_range=(19, 21))
        data = tmp_path / "toy.csv"
        write_series_csv(series, data)
        out = tmp_path / "run"
        started = time.perf_counter()
        code = main(
            [
                "train", "--seed", "52", "--out", str(out), "--data", str(data),
                "--temporal-len", "8", "--heads", "1", "--kernel-temporal", "3",
                "--kernel-channel", "4", "--epochs", "6", "--batch-size", "32", "--folds", "2",
            ]
        )
        assert code == 0
        assert time.perf_counter() - started < 60.0

    def test_default_folds_leave_four_traces(self, tmp_path):
        out = tmp_path / "run4"
        code = main(
            [
                "train", "--seed", "53", "--out", str(out), "--recipe", "stability",
                "--temporal-len", "8", "--heads", "1", "--kernel-temporal", "3",
                "--kernel-channel", "4", "--epochs", "2", "--batch-size", "64",
            ]
        )
        assert code == 0
        folds = {line.split(",")[1] for line in (out / "history.csv").read_text().splitlines()[1:]}
        assert folds == {"0", "1", "2", "3"}


class TestCompareCommand:
    def test_two_kinds_sample_mode(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = main(
            [
                "compare", "--seed", "31", "--out", str(out), *TINY_FLAGS,
                "--models", "mcdc,ann",
                "--repetitions", "2",
                "--modes", "sample",
            ]
        )
        assert code == 0
        payload = json.loads((out / "comparison.json").read_text())
        assert set(payload) == {"sample"}
        names = {m["name"] for m in payload["sample"]["models"]}
        assert names == {"mcdc", "ann"}
        assert "mcdc|ann" in payload["sample"]["p_values"]

    def test_both_split_mode_blocks(self, tmp_path):
        from mcdc.data import write_series_csv
        from mcdc.synth import load_recipe, synth_generate

        series = synth_generate(
            load_recipe("stability"), seed=61, transformers_per_class=5, length_range=(12, 15)
        )
        data = tmp_path / "data.csv"
        write_series_csv(series, data)
        out = tmp_path / "cmp2"
        code = main(
            [
                "compare", "--seed", "62", "--out", str(out), "--data", str(data),
                "--temporal-len", "8", "--heads", "1", "--kernel-temporal", "3",
                "--kernel-channel", "4", "--epochs", "2", "--batch-size", "64", "--folds", "2",
                "--models", "mcdc", "--repetitions", "1",
            ]
        )
        assert code == 0
        payload = json.loads((out / "comparison.json").read_text())
        assert set(payload) == {"sample", "facility"}


    @pytest.mark.parametrize(
        "flags,message",
        [
            # 0 used to load the data, warn twice and fail on an empty max()
            (["--repetitions", "0"], "repetitions must be >= 1, got 0"),
            (["--modes", "sample,bogus"], "modes must be among ('sample', 'facility'), got unknown ['bogus']"),
            (["--models", "mcdc,bogus"], "models must be among ('mcdc', 'mcdc-matrix', 'ann'), got unknown ['bogus']"),
            (["--models", ","], "models must name at least one of"),
            (["--modes", ""], "modes must name at least one of"),
        ],
    )
    def test_bad_flag_refused_before_load(self, tmp_path, capsys, flags, message):
        out = tmp_path / "cmp"
        code = main(["compare", "--seed", "31", "--out", str(out), *TINY_FLAGS, *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err
        assert "stage" not in err
        assert not out.exists()


class TestSweepCommand:
    def test_tiny_grid(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep", "--seed", "41", "--out", str(out), *TINY_FLAGS,
                "--grid-kernel-temporal", "3,5",
                "--grid-kernel-channel", "4,6",
                "--grid-heads", "1",
                "--grid-temporal-len", "8",
            ]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "kernel_temporal,kernel_channel,heads,temporal_len,seed,test_accuracy"
        assert len(lines) == 1 + 4

    def test_cell_rerun_reproduces_row(self, tmp_path):
        config = RunConfig(
            seed=41,
            out_dir=str(tmp_path / "s1"),
            recipe="stability",
            temporal_len=8,
            heads=1,
            kernel_temporal=3,
            kernel_channel=4,
            train={"epochs": 4, "batch_size": 64, "folds": 2},
        )
        grid = {"kernel_temporal": [3, 5], "kernel_channel": [4], "heads": [1], "temporal_len": [8]}
        full = run_sweep(config, grid)
        single = run_sweep(
            RunConfig(**{**config.__dict__, "out_dir": str(tmp_path / "s2")}),
            {"kernel_temporal": [5], "kernel_channel": [4], "heads": [1], "temporal_len": [8]},
        )
        assert single["rows"][0] == full["rows"][1]

    def test_bad_last_cell_refused_before_any_cell_trains(self, tmp_path, capsys, monkeypatch):
        trained = []
        monkeypatch.setattr(pipeline, "train_fold", lambda *args, **kwargs: trained.append(args))
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep", "--seed", "1", "--out", str(out), *TINY_FLAGS,
                "--grid-kernel-temporal", "1",
                "--grid-kernel-channel", "2",
                "--grid-heads", "1,2,0",
                "--grid-temporal-len", "8",
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["error: heads must be >= 1, got 0"]
        assert trained == []
        assert not out.exists()

    def test_empty_grid_rejected(self, tmp_path):
        config = RunConfig(seed=1, out_dir=str(tmp_path))
        with pytest.raises(PipelineError):
            run_sweep(config, {"kernel_temporal": [], "kernel_channel": [], "heads": [], "temporal_len": []})

    def test_unknown_axis_rejected(self, tmp_path):
        # a RunConfig field outside the grid would add a column the header lacks
        config = RunConfig(seed=1, out_dir=str(tmp_path))
        with pytest.raises(PipelineError, match=r"unknown sweep axes \['ffn_hidden'\]"):
            run_sweep(config, {"ffn_hidden": [8]})


class TestVerifyCommand:
    def test_fresh_checkout_passes_within_budget(self, capsys):
        import time

        started = time.perf_counter()
        assert main(["verify"]) == 0
        assert time.perf_counter() - started < 300.0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_fault_injection_caught(self, capsys):
        # both the finite differences and the conv oracle's byte-for-byte
        # kernel-gradient comparison catch the corrupted backward
        assert main(["verify", "--inject-fault", "conv-kernel-grad"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  gradient-finite-differences" in out
        assert "FAIL  conv-naive-oracle: kernel gradient mismatch" in out

    def test_backward_check_catches_gradients_left_on_the_tape(self, monkeypatch):
        from mcdc import verify

        def backward_without_release(tape, loss):
            for node in tape.nodes:
                node.grad = None
                for p in node._parents:
                    p.grad = None
            loss.grad = np.ones((1, 1))
            for node in reversed(tape.nodes):
                if node.grad is not None:
                    node._backward(node.grad)

        assert verify._check_backward_determinism()[0]
        monkeypatch.setattr(verify, "backward", backward_without_release)
        passed, detail = verify._check_backward_determinism()
        assert not passed
        assert detail == "3 of 3 tape nodes still hold a gradient after backward"
