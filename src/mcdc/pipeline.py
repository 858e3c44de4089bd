"""End-to-end runs behind the CLI: dataset assembly, training with 4-fold
cross-validation, held-out evaluation, model comparison and hyperparameter
sweeps. Every artifact a run writes (checkpoint, history CSV, split plan,
reports) is a pure function of the config and seed, so reruns are
byte-identical.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .baselines import make_model
from .checkpoint import load_checkpoint, save_checkpoint
from .conditions import N_CONDITIONS
from .data import (
    SplitPlan,
    fold0_sets,
    interpolate_gaps,
    load_series,
    normalize,
    overlapping_sample,
    split,
    write_series_csv,
)
from .evaluation import compare, evaluate_model, roc_csv
from .synth import load_recipe, synth_generate
from .training import TrainConfig, cross_validate, history_to_csv, train_fold

__all__ = [
    "PipelineError",
    "RunConfig",
    "run_compare",
    "run_eval",
    "run_gen_data",
    "run_sweep",
    "run_train",
]

DEFAULT_SWEEP_GRID = {
    "kernel_temporal": [1, 3, 5],
    "kernel_channel": [2, 4, 6, 8],
    "heads": [1, 2, 4, 6],
    "temporal_len": [8, 12],
}


class PipelineError(RuntimeError):
    """A pipeline stage failure, prefixed with the stage name."""


def _stage(name):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc is not None and not isinstance(exc, PipelineError):
                raise PipelineError(f"stage '{name}': {exc}") from exc
            return False

    return _Ctx()


@dataclass
class RunConfig:
    seed: int
    out_dir: str = "runs/out"
    data_csv: str | None = None
    recipe: str = "default"
    model: str = "mcdc"
    temporal_len: int = 12
    heads: int = 4
    kernel_temporal: int = 5
    kernel_channel: int = 6
    ffn_hidden: int = 64
    ann_hidden1: int = 32
    ann_hidden2: int = 16
    ann_input_mode: str = "last_day"
    split_mode: str = "sample"
    train_fraction: float = 0.8
    train: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.seed is None:
            raise ValueError("seed is mandatory; there is no wall-clock default")
        if self.data_csv and not os.path.exists(self.data_csv):
            raise ValueError(f"data file {self.data_csv} does not exist")

    def train_config(self) -> TrainConfig:
        return TrainConfig(seed=self.seed, **self.train)

    def model_overrides(self, kind: str) -> dict:
        if kind == "ann":
            return {
                "hidden1": self.ann_hidden1,
                "hidden2": self.ann_hidden2,
                "input_mode": self.ann_input_mode,
            }
        return {
            "heads": self.heads,
            "kernel_temporal": self.kernel_temporal,
            "kernel_channel": self.kernel_channel,
            "ffn_hidden": self.ffn_hidden,
        }

    @classmethod
    def from_file(cls, path: str, overrides: dict | None = None) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw.update({k: v for k, v in (overrides or {}).items() if v is not None})
        return cls(**raw)

    @classmethod
    def from_overrides(cls, overrides: dict) -> "RunConfig":
        clean = {k: v for k, v in overrides.items() if v is not None}
        if "seed" not in clean:
            raise ValueError("seed is mandatory; pass --seed or set it in the config file")
        return cls(**clean)


def build_series(config: RunConfig):
    if config.data_csv:
        return load_series(config.data_csv)
    return synth_generate(load_recipe(config.recipe), seed=config.seed)


def build_windows(series, temporal_len: int):
    contiguous = [interpolate_gaps(s) for s in series]
    windows = [w for s in contiguous for w in overlapping_sample(s, temporal_len)]
    if not windows:
        raise ValueError(f"no windows of length {temporal_len} could be cut from the dataset")
    return windows


def run_gen_data(recipe: str, out_path: str, seed: int, **overrides) -> int:
    """Generate a synthetic dataset CSV; returns the number of series."""
    series = synth_generate(load_recipe(recipe), seed=seed, **overrides)
    write_series_csv(series, out_path)
    return len(series)


def run_train(config: RunConfig) -> dict:
    """load -> interpolate -> window -> split -> normalize -> cross-validate,
    leaving checkpoint.json, history.csv, split.json (and dataset.csv when
    the source is synthetic) in the output directory."""
    os.makedirs(config.out_dir, exist_ok=True)
    with _stage("load"):
        series = build_series(config)
    with _stage("window"):
        windows = build_windows(series, config.temporal_len)
    with _stage("split"):
        train_cfg = config.train_config()
        plan = split(
            windows, config.split_mode, config.train_fraction, seed=config.seed, k=train_cfg.folds
        )
    with _stage("normalize"):
        normalized, stats = normalize([windows[i] for i in plan.train_indices], windows)
    with _stage("train"):
        result = cross_validate(
            lambda fold: make_model(
                config.model, config.temporal_len, config.seed + fold, **config.model_overrides(config.model)
            ),
            normalized,
            plan,
            train_cfg,
        )
    with _stage("save"):
        paths = {
            "checkpoint": os.path.join(config.out_dir, "checkpoint.json"),
            "history": os.path.join(config.out_dir, "history.csv"),
            "split": os.path.join(config.out_dir, "split.json"),
        }
        save_checkpoint(paths["checkpoint"], result.best_model, stats)
        history_to_csv(result.fold_histories, paths["history"])
        with open(paths["split"], "w", encoding="utf-8") as fh:
            fh.write(plan.to_json())
            fh.write("\n")
        if not config.data_csv:
            paths["dataset"] = os.path.join(config.out_dir, "dataset.csv")
            write_series_csv(series, paths["dataset"])
    return {
        "paths": paths,
        "best_fold": result.best_fold,
        "fold_val_accuracies": result.fold_val_accuracies,
        "mean_curves": result.mean_curves(),
    }


def run_eval(
    checkpoint_path: str,
    data_csv: str,
    plan_path: str,
    out_dir: str,
    side: str = "test",
    allow_train_eval: bool = False,
) -> dict:
    """Evaluate a checkpoint on one side of a stored split plan, with the
    checkpoint's own normalization statistics."""
    if side == "train" and not allow_train_eval:
        raise PipelineError(
            "refusing to evaluate on the training side; pass --allow-train-eval to override"
        )
    if side not in ("train", "test"):
        raise PipelineError(f"side must be 'train' or 'test', got {side!r}")
    with _stage("load-checkpoint"):
        model, stats = load_checkpoint(checkpoint_path)
        if stats is None:
            raise ValueError("checkpoint has no normalization stats; retrain with the pipeline")
    with _stage("load-plan"):
        with open(plan_path, encoding="utf-8") as fh:
            plan = SplitPlan.from_json(fh.read())
    with _stage("window"):
        windows = build_windows(load_series(data_csv), model.hyper.temporal_len)
    with _stage("compatibility"):
        if plan.temporal_len != model.hyper.temporal_len:
            raise ValueError(
                f"plan temporal length {plan.temporal_len} != checkpoint {model.hyper.temporal_len}"
            )
        if model.hyper.n_classes != N_CONDITIONS:
            raise ValueError(f"checkpoint has {model.hyper.n_classes} classes, dataset has {N_CONDITIONS}")
        if plan.n_windows != len(windows):
            raise ValueError(f"plan lists {plan.n_windows} windows, dataset yields {len(windows)}")
    with _stage("evaluate"):
        indices = plan.test_indices if side == "test" else plan.train_indices
        chosen = [windows[i] for i in indices]
        # one z-score over the stack, as normalize does
        scaled = stats.apply(np.stack([w.values for w in chosen])) if chosen else []
        for w, values in zip(chosen, scaled):
            w.values = values
        report = evaluate_model(model, chosen)
    with _stage("save"):
        os.makedirs(out_dir, exist_ok=True)
        report_path = os.path.join(out_dir, "report.json")
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, sort_keys=True)
            fh.write("\n")
        roc_path = os.path.join(out_dir, "roc.csv")
        roc_csv(report.curves, roc_path)
    return {"report": report, "paths": {"report": report_path, "roc": roc_path}}


def _fitter_for(config: RunConfig, kind: str):
    def fit(train_windows, val_windows, seed):
        model = make_model(kind, config.temporal_len, seed, **config.model_overrides(kind))
        train_fold(model, train_windows, val_windows, replace(config.train_config(), seed=seed))
        return model

    return fit


def run_compare(config: RunConfig, kinds: list[str], repetitions: int, modes: list[str]) -> dict:
    """Repeated train/evaluate comparison across model kinds and split modes,
    written to comparison.json."""
    with _stage("load"):
        series = build_series(config)
        windows = build_windows(series, config.temporal_len)
    fitters = {kind: _fitter_for(config, kind) for kind in kinds}
    results = {}
    for mode in modes:
        with _stage(f"compare-{mode}"):
            results[mode] = compare(
                fitters,
                windows,
                mode,
                repetitions,
                base_seed=config.seed,
                train_fraction=config.train_fraction,
                k=config.train_config().folds,
            )
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "comparison.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({mode: r.to_dict() for mode, r in results.items()}, fh, sort_keys=True)
        fh.write("\n")
    return {"results": results, "paths": {"comparison": path}}


def _sweep_cell(args) -> tuple:
    """One fully seeded grid cell: train a single fold model, score the test side."""
    config_dict, cell = args
    config = RunConfig(**config_dict)
    config = replace(
        config,
        kernel_temporal=cell["kernel_temporal"],
        kernel_channel=cell["kernel_channel"],
        heads=cell["heads"],
        temporal_len=cell["temporal_len"],
    )
    windows = build_windows(build_series(config), config.temporal_len)
    train_cfg = config.train_config()
    plan = split(windows, config.split_mode, config.train_fraction, seed=config.seed, k=train_cfg.folds)
    train_windows, val_windows, test_windows = fold0_sets(windows, plan)
    model = make_model(config.model, config.temporal_len, config.seed, **config.model_overrides(config.model))
    train_fold(model, train_windows, val_windows, train_cfg)
    report = evaluate_model(model, test_windows)
    return (
        cell["kernel_temporal"],
        cell["kernel_channel"],
        cell["heads"],
        cell["temporal_len"],
        config.seed,
        report.accuracy,
    )


def run_sweep(config: RunConfig, grid: dict | None = None, workers: int = 1) -> dict:
    """Cartesian grid over kernel sizes, head count and window length; one
    seeded train+eval per cell, rows written to sweep.csv in grid order."""
    merged = dict(DEFAULT_SWEEP_GRID)
    merged.update({k: v for k, v in (grid or {}).items() if v is not None})
    axes = ["kernel_temporal", "kernel_channel", "heads", "temporal_len"]
    if any(not merged[a] for a in axes):
        raise PipelineError("sweep grid is empty")
    cells = [dict(zip(axes, combo)) for combo in product(*(merged[a] for a in axes))]
    config_dict = dict(config.__dict__)
    jobs = [(config_dict, cell) for cell in cells]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, jobs))
    else:
        rows = [_sweep_cell(job) for job in jobs]
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "sweep.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("kernel_temporal,kernel_channel,heads,temporal_len,seed,test_accuracy\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    return {"rows": rows, "paths": {"sweep": path}}
