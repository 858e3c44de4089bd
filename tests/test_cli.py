"""CLI and pipeline behavior on deliberately tiny configurations."""

import argparse
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from importlib import resources

import numpy as np
import pytest

from mcdc import evaluation, pipeline
from mcdc.baselines import MODEL_KINDS, make_model
from mcdc.checkpoint import load_checkpoint, save_checkpoint
from mcdc.cli import _add_config_flags, build_parser, main
from mcdc.data import SPLIT_MODES, NormStats, SplitPlan, load_series
from mcdc.evaluation import evaluate_model, roc_csv
from mcdc.pipeline import (
    DEFAULT_SWEEP_GRID, PipelineError, RunConfig, _stage, build_windows, run_compare, run_eval, run_sweep,
)
from mcdc.training import TrainConfig

# sweep's grid sets the model flags of TINY_FLAGS, so sweep takes the rest alone
SWEEP_FLAGS = [
    "--epochs", "4",
    "--batch-size", "64",
    "--folds", "2",
    "--recipe", "stability",
]
TINY_FLAGS = [
    "--temporal-len", "8",
    "--heads", "1",
    "--kernel-temporal", "3",
    "--kernel-channel", "4",
    *SWEEP_FLAGS,
]


SCALES = "4 finite numbers > 0, one per voltage level"
UNKNOWN_RECIPE = (
    "error: --recipe 'nosuch' is neither a shipped recipe (default, facility_shift, stability) nor a recipe file"
)


def _edited(change):
    """A checkpoint text edit that applies `change` to the parsed payload in place."""
    def edit(text):
        payload = json.loads(text)
        change(payload)
        return json.dumps(payload)

    return edit


def _holder(doc, path: str):
    """The object in `doc` that holds the dotted key `path`, and the key's last name."""
    *outer, last = path.split(".")
    for name in outer:
        doc = doc[name]
    return doc, last


def _set(path: str, value):
    """A document edit that sets the dotted key `path` to `value`."""
    def edit(doc):
        block, key = _holder(doc, path)
        block[key] = value
        return doc

    return edit


def _pop(path: str):
    """A document edit that removes the dotted key `path`."""
    def edit(doc):
        block, key = _holder(doc, path)
        del block[key]
        return doc

    return edit


def train_once(tmp_path, name, seed="21", extra=()):
    out = tmp_path / name
    code = main(["train", "--seed", seed, "--out", str(out), *TINY_FLAGS, *extra])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained") / "run"
    assert main(["train", "--seed", "21", "--out", str(out), *TINY_FLAGS]) == 0
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

    def test_seed_required(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["gen-data", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: the following arguments are required: --seed"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags,message",
        [
            # it used to end in numpy's bare "expected non-negative integer"
            (["--seed", "-1"], "seed must be an integer >= 0, got -1"),
            # 0 used to fall back to the recipe's count and write 28 series
            (["--seed", "3", "--transformers-per-class", "0"], "transformers_per_class must be >= 1, got 0"),
            (["--seed", "3", "--noise", "-0.5"], "noise_level must be >= 0, got -0.5"),
            (["--seed", "3", "--noise", "nan"], "noise_level must be >= 0, got nan"),
            # it used to end in "HD-00: non-finite concentration"
            (["--seed", "3", "--noise", "inf"], "noise_level must be finite, got inf"),
        ],
    )
    def test_bad_override_refused_before_writing(self, tmp_path, capsys, flags, message):
        out = tmp_path / "data.csv"
        assert main(["gen-data", "--out", str(out), "--recipe", "stability", *flags]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,value,message",
        [
            # it used to end in a TypeError traceback
            ("noise_level", "x", "noise_level must be a number, got 'x'"),
            # it used to end in numpy's "scale < 0"
            ("level_spread", -0.1, "level_spread must be >= 0, got -0.1"),
            # it used to end in "could not convert string to float: 'a'"
            ("channel_spread", "a", "channel_spread must be a number, got 'a'"),
            # it used to end in "not enough values to unpack"
            ("length_range", [5], "length_range must be two integers [lo, hi] with 2 <= lo <= hi, got [5]"),
            # it used to end in "HT-00: non-finite concentration"
            ("level_spread", math.inf, "level_spread must be finite, got inf"),
            # these three used to exit 0
            ("transformers_per_class", True, "transformers_per_class must be an integer, got True"),
            ("voltage_scale", [1, 1, 1], f"voltage_scale must be {SCALES}, got [1, 1, 1]"),
            ("voltage_scale", [1, 1, 1, -5], f"voltage_scale must be {SCALES}, got [1, 1, 1, -5]"),
            # a dotted key edits a class profile; it used to end in a traceback
            ("classes.NC.sin_period", "x", "class NC: sin_period must be a number, got 'x'"),
            # it used to end in "NC-00: non-finite concentration"
            ("classes.NC.sin_period", math.nan, "class NC: sin_period must be finite, got nan"),
            ("classes.HD.sin_period", 0, "class HD: sin_period must be > 0, got 0"),
            ("classes.NC.base", [30, 15, 8, 10], "class NC: base must be 5 finite numbers, got [30, 15, 8, 10]"),
            ("classes.NC.slope", [0, 0, 0, 0, math.inf], "class NC: slope must be 5 finite numbers, got [0, 0, 0, 0, inf]"),
            ("classes.NC.sin_amp", [2, 1, "a", 0.5, 0.1],
             "class NC: sin_amp must be 5 finite numbers, got [2, 1, 'a', 0.5, 0.1]"),
        ],
        ids=["string-noise", "negative-level-spread", "string-channel-spread", "one-length", "infinite-level-spread",
             "bool-count", "three-scales", "negative-scale", "string-period", "nan-period",
             "zero-period", "four-bases", "infinite-slope", "string-amp"],
    )
    def test_bad_recipe_value_refused_naming_the_key(self, tmp_path, capsys, key, value, message):
        recipe = json.loads(resources.files("mcdc").joinpath("recipes/stability.json").read_text(encoding="utf-8"))
        path = tmp_path / "r.json"
        path.write_text(json.dumps(_set(key, value)(recipe)))
        out = tmp_path / "g.csv"
        assert main(["gen-data", "--seed", "1", "--out", str(out), "--recipe", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: {message}"]
        assert not out.exists()

    def test_undecodable_recipe_names_the_file(self, tmp_path, capsys):
        # it used to print only "error: Expecting value: line 1 column 13 (char 12)"
        path = tmp_path / "r.json"
        path.write_text('{"classes": ')
        out = tmp_path / "g.csv"
        assert main(["gen-data", "--seed", "1", "--out", str(out), "--recipe", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: Expecting value: line 1 column 13 (char 12)"]
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
            # --split-mode meets the same check (TestBadFlagValue)
            ({"seed": 9, "split_mode": "by-day"}, "split_mode must be one of ('sample', 'facility'), got 'by-day'"),
            # it used to end in numpy's TypeError traceback
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            # it used to say "unknown input mode 'bogus'", naming no field, then named AnnHyper's input_mode
            ({"seed": 9, "ann_input_mode": "bogus"}, "ann_input_mode must be one of ('last_day', 'window'), got 'bogus'"),
            ({"seed": 9, "model": "gru"}, "model must be one of ('mcdc', 'mcdc-matrix', 'ann'), got 'gru'"),
            # it used to end in a TypeError traceback from ModelHyper
            ({"seed": 1, "heads": "2"}, "heads must be an integer, got '2'"),
            # it used to pass every check and fail only at stage 'train'
            ({"seed": 1, "heads": 2.5}, "heads must be an integer, got 2.5"),
            # each of these used to end in a TypeError traceback
            ({"seed": 1, "train_fraction": "0.8"}, "train_fraction must be a number, got '0.8'"),
            ({"seed": 1, "train_fraction": None}, "train_fraction must be a number, got None"),
            ({"seed": 1, "model": ["mcdc"]}, "model must be a string, got ['mcdc']"),
            ({"seed": 1, "train": {"lr0": "0.1"}}, "lr0 must be a number, got '0.1'"),
            # it used to print the decoder's message without the file
            ('{"seed": ', "Expecting value: line 1 column 10 (char 9)"),
            # it used to open file descriptor 0 and read the recipe from stdin
            ({"seed": 1, "recipe": 0}, "recipe must be a string, got 0"),
            # it used to train on synthetic data
            ({"seed": 1, "data_csv": 0}, "data_csv must be a string or null, got 0"),
            # these three used to train; beta1 1.0 diverged at batch 1, naming no field
            ({"seed": 1, "train": {"beta1": 1.0}}, "beta1 must be in [0, 1), got 1.0"),
            ({"seed": 1, "train": {"beta2": 1.5}}, "beta2 must be in [0, 1), got 1.5"),
            ({"seed": 1, "train": {"eps": -1}}, "eps must be > 0, got -1"),
        ],
    )
    def test_bad_config_value_refused_before_load(self, tmp_path, capsys, config, message):
        path = tmp_path / "config.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        out = tmp_path / "x"
        # no flags: TINY_FLAGS' --heads would override the file's
        assert main(["train", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {path}: {message}"]
        assert "stage" not in err and "Traceback" not in err
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


# Every config key and the kind of value it takes, stated here and not read
# from the dataclasses, so a rule that goes missing there fails this list.
CONFIG_KEYS = {
    "seed": "int", "out_dir": "str", "data_csv": "str or null", "recipe": "str", "model": "str",
    "temporal_len": "int", "heads": "int", "kernel_temporal": "int", "kernel_channel": "int",
    "ffn_hidden": "int", "ann_hidden1": "int", "ann_hidden2": "int", "ann_input_mode": "str",
    "split_mode": "str", "train_fraction": "float", "train": "object",
}
TRAIN_KEYS = {
    "epochs": "int", "batch_size": "int", "lr0": "float", "lr_decay": "pairs", "beta1": "float",
    "beta2": "float", "eps": "float", "patience": "int", "folds": "int",
}
# a wrong-typed value for each kind, then the values each kind must refuse besides
BAD_VALUES = {
    "int": ["1", 1.0, True, -1],
    "float": ["0.5", None, float("nan"), float("inf"), float("-inf")],
    "str": [0, None],
    "str or null": [0, True],
    "object": [[], "x"],
    "pairs": ["ab", [[1]], [["1", 0.1]], [[500, float("inf")]]],
}
# a run that would finish in a second, should a bad value slip through
SMALL_RUN = {"seed": 1, "out_dir": "x", "recipe": "stability", "temporal_len": 8, "heads": 1, "kernel_temporal": 3,
             "kernel_channel": 4, "train": {"epochs": 1, "batch_size": 64, "folds": 2}}


class TestConfigContract:
    def test_lists_hold_every_key(self):
        assert set(CONFIG_KEYS) == {f.name for f in fields(RunConfig)}
        assert set(TRAIN_KEYS) == {f.name for f in fields(TrainConfig)} - {"seed"}

    @pytest.mark.parametrize(
        "block,key,value",
        [
            *((None, key, value) for key, kind in CONFIG_KEYS.items() for value in BAD_VALUES[kind]),
            *(("train", key, value) for key, kind in TRAIN_KEYS.items() for value in BAD_VALUES[kind]),
        ],
    )
    def test_bad_value_exits_1_naming_the_key(self, tmp_path, monkeypatch, capsys, block, key, value):
        config = json.loads(json.dumps(SMALL_RUN))
        (config[block] if block else config)[key] = value
        (tmp_path / "config.json").write_text(json.dumps(config))
        # no --out: it would override out_dir; a run that slipped through would write here
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--config", "config.json"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: config.json: {key} must be "), lines
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


class TestBadFlagValue:
    """A flag with a fixed set of values is parsed as a plain string; the code
    that uses it refuses a bad one: exit 1 and one error line naming the
    field, not argparse's usage text and exit 2."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["train", "--seed", "1", "--model", "bogus"], f"model must be one of {tuple(MODEL_KINDS)}, got 'bogus'"),
            (["train", "--seed", "1", "--split-mode", "day"], f"split_mode must be one of {SPLIT_MODES}, got 'day'"),
            (
                ["eval", "--checkpoint", "c.json", "--data", "d.csv", "--plan", "p.json", "--side", "bogus"],
                "side must be 'train' or 'test', got 'bogus'",
            ),
            (["verify", "--inject-fault", "bogus"], "inject_fault must be one of ('conv-kernel-grad',), got 'bogus'"),
        ],
    )
    def test_refused_with_exit_1_and_one_error_line(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x"
        out_flag = [] if argv[0] == "verify" else ["--out", str(out)]
        assert main([*argv, *out_flag]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {message}"]
        assert captured.out == ""
        assert not out.exists()


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
        "artifact,edit,message",
        [
            # it used to exit 0, scoring other windows than the plan's
            ("split.json", lambda p: p.update(test_indices=[-1, -2] + p["test_indices"][2:]),
             "test_indices must be window indices in [0, {n}), but holds -1"),
            # it used to end in "stage 'evaluate': list index out of range"
            ("split.json", lambda p: p.update(test_indices=[99999] + p["test_indices"][1:]),
             "test_indices must be window indices in [0, {n}), but holds 99999"),
            # it used to end in "plan temporal length 8 != checkpoint 8"
            ("split.json", lambda p: p.update(temporal_len="8"), "temporal_len must be an integer, got '8'"),
            # it used to fail late, with numpy's broadcast error
            ("checkpoint.json", lambda p: p["norm_stats"].update(mean=[0.0, 1.0, 2.0]),
             "mean must be 5 numbers, got [0.0, 1.0, 2.0]"),
        ],
        ids=["negative-index", "index-past-end", "string-temporal-len", "three-means"],
    )
    def test_bad_plan_or_norm_stats_refused_when_read(self, trained, tmp_path, capsys, artifact, edit, message):
        payload = json.loads((trained / artifact).read_text())
        edit(payload)
        bad = tmp_path / artifact
        bad.write_text(json.dumps(payload))
        read = {name: bad if name == artifact else trained / name for name in ("checkpoint.json", "split.json")}
        out = tmp_path / "e"
        code = main(["eval", "--checkpoint", str(read["checkpoint.json"]), "--data", str(trained / "dataset.csv"),
                     "--plan", str(read["split.json"]), "--out", str(out)])
        assert code == 1
        n = json.loads((trained / "split.json").read_text())["n_windows"]
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].endswith(f": {bad}: {message.format(n=n)}"), lines
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit,message",
        [
            # the decoder's message used to come without the path
            (lambda text: text + "}", "Extra data: line 2 column 1 "),
            # these used to end in "SeedSequence expects int" and "expected non-negative integer"
            (_edited(lambda p: p.update(seed="abc")), "seed must be an integer, got 'abc'"),
            (_edited(lambda p: p.update(seed=-1)), "seed must be an integer >= 0, got -1"),
            # these used to end in numpy's conversion error, naming neither the block nor the parameter
            (_edited(lambda p: p["norm_stats"]["mean"].__setitem__(0, "a")), "mean must be 5 numbers, got ['a', "),
            (_edited(lambda p: p["params"].update(ffn_b2="abc")),
             "parameter ffn_b2: could not convert string to float: 'abc'"),
            (_edited(lambda p: p["norm_stats"]["std"].__setitem__(2, 0.0)), "std must be > 0, got ["),
            # these used to end in "negative dimensions are not allowed" and in
            # "parameter ffn_w2: stored (7, 64) != expected (3, 64)"
            (_edited(lambda p: p["hyper"].update(n_classes=-1)), "n_classes must be one of (7,), got -1"),
            (_edited(lambda p: p["hyper"].update(n_classes=3)), "n_classes must be one of (7,), got 3"),
        ],
        ids=["extra-data", "string-seed", "negative-seed", "string-mean", "string-parameter", "zero-std",
             "negative-classes", "three-classes"],
    )
    def test_bad_checkpoint_refused_naming_the_file_and_the_key(self, trained, tmp_path, capsys, edit, message):
        bad = tmp_path / "c.json"
        bad.write_text(edit((trained / "checkpoint.json").read_text()))
        out = tmp_path / "e"
        code = main(["eval", "--checkpoint", str(bad), "--data", str(trained / "dataset.csv"),
                     "--plan", str(trained / "split.json"), "--out", str(out)])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: stage 'load-checkpoint': {bad}: {message}"), lines
        assert not out.exists()

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


class TestRocOnFirstRead:
    """An evaluation report computes its ROC part when it is first read. compare
    and sweep never read it; eval reads it once, to write report.json and roc.csv."""

    @staticmethod
    def _refuse(*args):
        raise RuntimeError("roc_auc ran")

    def test_compare_and_sweep_never_compute_it(self, tmp_path, monkeypatch):
        monkeypatch.setattr(evaluation, "roc_auc", self._refuse)
        config = RunConfig(
            seed=41, out_dir=str(tmp_path / "run"), recipe="stability", temporal_len=8, heads=1,
            kernel_temporal=3, kernel_channel=4, train={"epochs": 1, "batch_size": 64, "folds": 2},
        )
        compared = run_compare(config, ["mcdc", "ann"], 2, ["sample"])["results"]["sample"]
        assert [len(m.accuracies) for m in compared.models] == [2, 2]
        one_cell = {"kernel_temporal": [3], "kernel_channel": [4], "heads": [1], "temporal_len": [8]}
        assert len(run_sweep(config, one_cell, workers=1)["rows"]) == 1

    def test_eval_computes_it_once(self, trained, tmp_path, monkeypatch):
        calls = []
        eager = evaluation.roc_auc

        def counted(*args):
            calls.append(args)
            return eager(*args)

        def run(out):
            run_eval(str(trained / "checkpoint.json"), str(trained / "dataset.csv"), str(trained / "split.json"),
                     str(tmp_path / out))

        monkeypatch.setattr(evaluation, "roc_auc", counted)
        run("counted")
        assert len(calls) == 1
        monkeypatch.setattr(evaluation, "roc_auc", self._refuse)
        with pytest.raises(PipelineError, match="^stage 'save': roc_auc ran$"):
            run("refused")


class TestDocumentContract:
    """Each JSON document a command reads, and each object nested in one, is
    read by one reader: a top level that is not an object, an unknown key and
    a missing required key exit 1 with one error line that names the file and
    the key, and nothing is written under --out."""

    @pytest.mark.parametrize(
        "document,edit,message",
        [
            ("config", lambda d: [], "config must be a JSON object, got []"),
            ("config", _set("bogus", 1), "unknown config keys ['bogus']"),
            ("config", _pop("seed"), "seed is mandatory; pass --seed or set it in the config file"),
            ("config", _set("train", []), "train must be a JSON object, got []"),
            ("config", _set("train.bogus", 1), "unknown train keys ['bogus']"),
            # every train key has a default; the run's seed is the one a train block may not hold
            ("config", _set("train.seed", 3),
             "train must be an object without seed, which the run's seed sets, "
             "got {'batch_size': 64, 'epochs': 1, 'folds': 2, 'seed': 3}"),
            ("recipe", lambda d: "x", "recipe must be a JSON object, got 'x'"),
            # these three used to generate data, with exit 0
            ("recipe", lambda d: {("level_sprad" if k == "level_spread" else k): v for k, v in d.items()},
             "unknown recipe keys ['level_sprad']"),
            ("recipe", _set("name", 3), "name must be a string or null, got 3"),
            ("recipe", _set("classes.NC.sin_amps", [2, 1, 1, 0.5, 0.1]), "class NC: unknown profile keys ['sin_amps']"),
            ("recipe", _pop("noise_level"), "missing recipe keys ['noise_level']"),
            # it used to end in a traceback
            ("recipe", _set("classes.NC", [1, 2]), "class NC: profile must be a JSON object, got [1, 2]"),
            ("recipe", _pop("classes.NC.slope"), "class NC: missing profile keys ['slope']"),
            # these two used to end in "'list' object has no attribute 'get'"
            ("checkpoint", lambda d: [1, 2], "checkpoint must be a JSON object, got [1, 2]"),
            ("checkpoint", _set("norm_stats", [1, 2]), "norm_stats must be a JSON object, got [1, 2]"),
            # it used to exit 0
            ("checkpoint", _set("extra", 1), "unknown checkpoint keys ['extra']"),
            # it used to exit 0 with seed 0
            ("checkpoint", _pop("seed"), "missing checkpoint keys ['seed']"),
            ("checkpoint", _set("hyper", 4), "hyper must be a JSON object, got 4"),
            ("checkpoint", _set("hyper.head", 1), "unknown hyper keys ['head']"),
            # a checkpoint without statistics was the shape only tests wrote
            ("checkpoint", _set("norm_stats", None), "norm_stats must be a JSON object, got None"),
            # it used to exit 0
            ("checkpoint", _set("norm_stats.bogus", 1), "unknown norm_stats keys ['bogus']"),
            # it used to end in "'std'"
            ("checkpoint", _pop("norm_stats.std"), "missing norm_stats keys ['std']"),
            # a hyper value of the wrong JSON type, a bool and a whole float among them, is no setting
            ("checkpoint", _set("hyper.heads", "4"), "heads must be an integer, got '4'"),
            ("checkpoint", _set("hyper.heads", True), "heads must be an integer, got True"),
            ("checkpoint", _set("hyper.temporal_len", 12.0), "temporal_len must be an integer, got 12.0"),
            ("checkpoint", _set("hyper.attention", 3), "attention must be a string, got 3"),
            ("plan", lambda d: "x", "plan must be a JSON object, got 'x'"),
            # it used to end in "SplitPlan.__init__() got an unexpected keyword argument 'extra'"
            ("plan", _set("extra", 1), "unknown plan keys ['extra']"),
            ("plan", _pop("folds"), "missing plan keys ['folds']"),
            # these two used to exit 0
            ("plan", _set("folds", "abc"), "folds must be a list of lists of integers, got 'abc'"),
            ("plan", _set("train_transformers", 5), "train_transformers must be a list of strings, got 5"),
            # it used to exit 0, though no split of this plan's training side makes these folds
            ("plan", _set("folds", [[99999], [-5]]), "folds must partition train_indices, got [[99999], [-5]]"),
            # it used to end in "stage 'evaluate': need at least one array to concatenate"
            ("plan", _set("test_indices", []), "test_indices must be non-empty, got []"),
            ("plan", _set("train_indices", []), "train_indices must be non-empty, got []"),
            # these two used to be read as they stood
            ("plan", _set("train_fraction", 1.5), "train_fraction must be in (0, 1), got 1.5"),
            ("plan", _set("train_fraction", -0.2), "train_fraction must be in (0, 1), got -0.2"),
        ],
        ids=["config-list", "config-unknown", "config-no-seed", "train-list", "train-unknown", "train-seed",
             "recipe-string", "recipe-misspelt", "recipe-number-name", "profile-plural", "recipe-no-noise", "profile-list", "profile-no-slope", "checkpoint-list", "norm-stats-list",
             "checkpoint-unknown", "checkpoint-no-seed", "hyper-number", "hyper-unknown", "norm-stats-null",
             "norm-stats-unknown", "norm-stats-no-std", "string-heads", "bool-heads", "float-temporal-len",
             "number-attention", "plan-string", "plan-unknown", "plan-no-folds", "plan-string-folds",
             "plan-number-transformers", "plan-foreign-folds", "plan-empty-test", "plan-empty-train",
             "plan-fraction-above-1", "plan-negative-fraction"],
    )
    def test_edit_exits_1_naming_the_file_and_the_key(self, trained, tmp_path, capsys, document, edit, message):
        sources = {
            "config": json.dumps(SMALL_RUN),
            "recipe": resources.files("mcdc").joinpath("recipes/stability.json").read_text(encoding="utf-8"),
            "checkpoint": (trained / "checkpoint.json").read_text(),
            "plan": (trained / "split.json").read_text(),
        }
        bad = tmp_path / f"{document}.json"
        bad.write_text(json.dumps(edit(json.loads(sources[document]))))
        out = tmp_path / "out"
        read = {"checkpoint": trained / "checkpoint.json", "plan": trained / "split.json", document: bad}
        evaluate = ["eval", "--checkpoint", str(read["checkpoint"]), "--plan", str(read["plan"]),
                    "--data", str(trained / "dataset.csv")]
        argv, stage = {
            "config": (["train", "--config", str(bad)], ""),
            "recipe": (["gen-data", "--seed", "1", "--recipe", str(bad)], ""),
            "checkpoint": (evaluate, "stage 'load-checkpoint': "),
            "plan": (evaluate, "stage 'load-plan': "),
        }[document]
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {stage}{bad}: {message}"]
        assert not out.exists()


class TestArgparseRefusals:
    """argparse's own refusals leave through main's one `error:` path: exit 1,
    one line that names the flag, no usage text and nothing written."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["train", "--seed", "1", "--heads", "two"], "argument --heads: invalid int value: 'two'"),
            (["gen-data", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
            (["compare", "--seed", "1", "--repetitions", "2.5"], "argument --repetitions: invalid int value: '2.5'"),
            (
                ["sweep", "--seed", "1", "--grid-heads", "a,b"],
                "argument --grid-heads: a grid list is comma-separated integers, got 'a,b'",
            ),
            (["train", "--seed", "1", "--bogus", "3"], "unrecognized arguments: --bogus 3"),
            # compare's --models and --modes and sweep's grid set these fields, so these flags used to be ignored
            (["compare", "--seed", "1", "--model", "ann"], "unrecognized arguments: --model ann"),
            (["compare", "--seed", "1", "--split-mode", "facility"], "unrecognized arguments: --split-mode facility"),
            (["sweep", "--seed", "1", "--temporal-len", "8"], "unrecognized arguments: --temporal-len 8"),
            (["sweep", "--seed", "1", "--heads", "2"], "unrecognized arguments: --heads 2"),
            (["sweep", "--seed", "1", "--kernel-temporal", "3"], "unrecognized arguments: --kernel-temporal 3"),
            (["sweep", "--seed", "1", "--kernel-channel", "2"], "unrecognized arguments: --kernel-channel 2"),
            (["bogus", "--seed", "1"], "argument command: invalid choice: 'bogus'"),
        ],
    )
    def test_refusal_exits_1_with_one_error_line(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}")
        assert "_int_list" not in err
        assert not out.exists()

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        assert "--heads" in capsys.readouterr().out


class TestModuleEntry:
    """`python -m mcdc` runs the command line the `mcdc` script runs."""

    @staticmethod
    def _run(*argv, env=None):
        """Run python with `argv` in the environment `env` (default: this
        process's), with this checkout's package on PYTHONPATH."""
        env = dict(os.environ if env is None else env)
        src = os.path.dirname(os.path.dirname(evaluation.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120)

    def test_help_exits_0(self):
        result = self._run("-m", "mcdc", "--help")
        assert result.returncode == 0 and "usage: mcdc" in result.stdout

    def test_no_arguments_match_the_script(self, tmp_path):
        # the wrapper that the console-script entry point in pyproject.toml installs
        script = tmp_path / "mcdc"
        script.write_text(
            "import re\nimport sys\nfrom mcdc.cli import main\n"
            "if __name__ == '__main__':\n"
            "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
            "    sys.exit(main())\n"
        )
        module, installed = self._run("-m", "mcdc"), self._run(str(script))
        assert module.returncode == installed.returncode != 0
        assert module.stderr == installed.stderr and module.stderr.startswith("error: ")


class TestDeterminism:
    def test_trained_bytes_do_not_depend_on_an_unset_blas_thread_count(self, tmp_path):
        # at T = 48 a 2-thread OpenBLAS splits channel_mix's gradient product
        # and changes its bytes; with no count set the program runs one thread
        blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")
        unset = {k: v for k, v in os.environ.items() if k not in blas}
        checkpoints = []
        for name, env in (("unset", unset), ("one", {**unset, "OPENBLAS_NUM_THREADS": "1"})):
            result = TestModuleEntry._run("-m", "mcdc", "train", "--seed", "7", "--epochs", "2", "--temporal-len", "48",
                                          "--out", str(tmp_path / name), env=env)
            assert result.returncode == 0, result.stderr
            checkpoints.append((tmp_path / name / "checkpoint.json").read_bytes())
        assert checkpoints[0] == checkpoints[1]

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

    def test_every_split_is_made_before_any_model_trains(self, tmp_path, capsys, monkeypatch):
        # stability has too few transformers per condition for a facility
        # split; it used to fail only after every sample-mode model trained
        calls = []
        monkeypatch.setattr(pipeline, "train_fold", lambda *args: calls.append(args))
        out = tmp_path / "cmp"
        code = main(
            ["compare", "--seed", "7", "--out", str(out), *TINY_FLAGS,
             "--models", "mcdc,ann", "--repetitions", "2", "--modes", "sample,facility"]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: stage 'compare-facility': facility split cannot cover")
        assert calls == []
        assert not out.exists()

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


TWO_CELLS = [
    "--grid-kernel-temporal", "3,5", "--grid-kernel-channel", "4", "--grid-heads", "1", "--grid-temporal-len", "8",
]


class TestSweepCommand:
    def test_tiny_grid(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep", "--seed", "41", "--out", str(out), *SWEEP_FLAGS,
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
                "sweep", "--seed", "1", "--out", str(out), *SWEEP_FLAGS,
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

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_refused_before_any_cell_trains(self, tmp_path, capsys, monkeypatch, workers):
        # 0 and -1 used to run the cells serially without a word
        trained = []
        monkeypatch.setattr(pipeline, "train_fold", lambda *args, **kwargs: trained.append(args))
        out = tmp_path / "sweep"
        code = main(["sweep", "--seed", "1", "--out", str(out), *SWEEP_FLAGS, *TWO_CELLS, "--workers", workers])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: workers must be >= 1, got {workers}"]
        assert trained == []
        assert not out.exists()

    def test_process_pool_writes_the_serial_bytes(self, tmp_path):
        for workers in ("1", "2"):
            out = str(tmp_path / f"w{workers}")
            assert main(["sweep", "--seed", "41", "--out", out, *SWEEP_FLAGS, *TWO_CELLS, "--workers", workers]) == 0
        assert (tmp_path / "w1" / "sweep.csv").read_bytes() == (tmp_path / "w2" / "sweep.csv").read_bytes()

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
        # kernel-gradient comparison catch the corrupted backward, and no
        # other check fails
        assert main(["verify", "--inject-fault", "conv-kernel-grad"]) == 1
        out = capsys.readouterr().out
        *lines, summary = out.splitlines()
        assert [line.split(": ")[0] for line in lines] == [
            "FAIL  conv-naive-oracle",
            "PASS  matmul-naive-oracle",
            "FAIL  gradient-finite-differences",
            "PASS  attention-map-stochastic",
            "PASS  auc-rank-equivalence",
            "PASS  wilcoxon-exact-enumeration",
            "PASS  training-determinism",
            "PASS  backward-determinism",
            "PASS  forward-finite",
        ]
        assert "FAIL  conv-naive-oracle: kernel gradient mismatch" in out
        assert summary == "7/9 checks passed"

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
