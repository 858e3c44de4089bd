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
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from itertools import product

from .baselines import MODEL_KINDS, AnnHyper, make_hyper
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    FRACTION,
    SPLIT_MODES,
    SplitPlan,
    interpolate_gaps,
    load_series,
    normalize,
    overlapping_sample,
    split,
    write_series_csv,
)
from .evaluation import compare_plans, evaluate_model, roc_csv, split_repetitions
from .model import ModelHyper, check_fields, one_of, read_object, setting, setting_of
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


@contextmanager
def _stage(name):
    """Re-raise the stage's errors, but not interrupts, as a PipelineError naming it."""
    try:
        yield
    except Exception as exc:
        raise PipelineError(f"stage '{name}': {exc}") from exc


@dataclass
class RunConfig:
    """One run's settings. A model hyperparameter is its hyper class's field,
    default and rules; `train` holds TrainConfig fields other than seed."""

    seed: int = None  # not a missing key: __post_init__ refuses None, naming --seed
    out_dir: str = "runs/out"
    data_csv: str | None = None
    recipe: str = "default"
    model: str = setting(one_of(tuple(MODEL_KINDS)), default="mcdc")
    temporal_len: int = setting_of(ModelHyper, "temporal_len")
    heads: int = setting_of(ModelHyper, "heads")
    kernel_temporal: int = setting_of(ModelHyper, "kernel_temporal")
    kernel_channel: int = setting_of(ModelHyper, "kernel_channel")
    ffn_hidden: int = setting_of(ModelHyper, "ffn_hidden")
    ann_hidden1: int = setting_of(AnnHyper, "hidden1")
    ann_hidden2: int = setting_of(AnnHyper, "hidden2")
    ann_input_mode: str = setting_of(AnnHyper, "input_mode")
    split_mode: str = setting(one_of(SPLIT_MODES), default="sample")
    train_fraction: float = setting(FRACTION, default=0.8)
    train: dict = setting(("an object without seed, which the run's seed sets", lambda v: "seed" not in v),
                          default_factory=dict)

    def __post_init__(self):
        if self.seed is None:
            raise ValueError("seed is mandatory; pass --seed or set it in the config file")
        check_fields(self)
        if self.data_csv and not os.path.exists(self.data_csv):
            raise ValueError(f"data file {self.data_csv} does not exist")
        # build once the settings the stages build, so bad ones fail before any stage runs
        self.train_config()
        for kind in MODEL_KINDS:
            self.hyper(kind)

    @classmethod
    def load(cls, path: str | None, overrides: dict) -> "RunConfig":
        """The JSON config at `path` (if any) with every non-None override on
        top; the non-None values of a `train` override merge into the file's
        `train` block. A refusal of a config read from a file leads with the
        file's path."""
        given = {key: value for key, value in overrides.items() if value is not None}
        train = {key: value for key, value in given.pop("train", {}).items() if value is not None}
        try:
            raw = {}
            if path:
                with open(path, encoding="utf-8") as fh:
                    raw = json.load(fh)
            config = read_object(cls, raw, "config", **given)
            return replace(config, train={**config.train, **train}) if train else config
        except ValueError as exc:
            if path:
                raise ValueError(f"{path}: {exc}") from None
            raise

    def train_config(self) -> TrainConfig:
        return read_object(TrainConfig, self.train, "train", seed=self.seed)

    def hyper(self, kind: str):
        """`kind`'s hyperparameters: temporal_len and each field this config holds of its hyper class."""
        hyper_cls = MODEL_KINDS[kind][1]
        held = {f.metadata["name"]: getattr(self, f.name) for f in fields(self) if f.metadata.get("of") is hyper_cls}
        return make_hyper(kind, **{**held, "temporal_len": self.temporal_len})

    def make_model(self, kind: str, seed: int):
        """A fresh `kind` model built on self.hyper(kind)."""
        return MODEL_KINDS[kind][0](self.hyper(kind), seed)


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
    the source is synthetic) in the output directory, which only the save
    stage creates."""
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
            lambda fold: config.make_model(config.model, config.seed + fold),
            normalized,
            plan,
            train_cfg,
        )
    with _stage("save"):
        os.makedirs(config.out_dir, exist_ok=True)
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
    with _stage("load-plan"), open(plan_path, encoding="utf-8") as fh:
        try:
            plan = SplitPlan.from_json(fh.read())
        except ValueError as exc:
            raise ValueError(f"{plan_path}: {exc}") from None
    with _stage("window"):
        windows = build_windows(load_series(data_csv), model.hyper.temporal_len)
    with _stage("compatibility"):
        if plan.temporal_len != model.hyper.temporal_len:
            raise ValueError(
                f"plan temporal length {plan.temporal_len} != checkpoint {model.hyper.temporal_len}"
            )
        if plan.n_windows != len(windows):
            raise ValueError(f"plan lists {plan.n_windows} windows, dataset yields {len(windows)}")
    with _stage("evaluate"):
        indices = plan.test_indices if side == "test" else plan.train_indices
        report = evaluate_model(model, stats.scale_windows([windows[i] for i in indices]))
    with _stage("save"):
        os.makedirs(out_dir, exist_ok=True)
        report_path = os.path.join(out_dir, "report.json")
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")
        roc_path = os.path.join(out_dir, "roc.csv")
        roc_csv(report.curves, roc_path)
    return {"report": report, "paths": {"report": report_path, "roc": roc_path}}


def _fitter_for(config: RunConfig, kind: str):
    def fit(train_windows, val_windows, seed):
        model = config.make_model(kind, seed)
        train_fold(model, train_windows, val_windows, replace(config.train_config(), seed=seed))
        return model

    return fit


def _plans(config: RunConfig, windows, mode: str, repetitions: int):
    """The split plans of a comparison under `config`'s seed, split and fold settings."""
    k = config.train_config().folds
    return split_repetitions(windows, mode, repetitions, config.seed, config.train_fraction, k)


def run_compare(config: RunConfig, kinds: list[str], repetitions: int, modes: list[str]) -> dict:
    """Repeated train/evaluate comparison across model kinds and split modes,
    written to comparison.json. The kinds, the repetition count and the
    modes are checked before the data are loaded, and every mode's
    repetitions are split before the first model trains."""
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    for flag, given, known in (("models", kinds, tuple(MODEL_KINDS)), ("modes", modes, SPLIT_MODES)):
        if not given:
            raise ValueError(f"{flag} must name at least one of {known}")
        unknown = [v for v in given if v not in known]
        if unknown:
            raise ValueError(f"{flag} must be among {known}, got unknown {unknown}")
    with _stage("load"):
        windows = build_windows(build_series(config), config.temporal_len)
    plans = {}
    for mode in modes:
        with _stage(f"compare-{mode}"):
            plans[mode] = _plans(config, windows, mode, repetitions)
    results = {}
    for mode in modes:
        with _stage(f"compare-{mode}"):
            results[mode] = compare_plans({kind: _fitter_for(config, kind) for kind in kinds}, windows, plans[mode])
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "comparison.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({mode: r.to_dict() for mode, r in results.items()}, sort_keys=True) + "\n")
    return {"results": results, "paths": {"comparison": path}}


def _sweep_cell(config: RunConfig) -> float:
    """One fully seeded grid cell: a one-repetition compare of the cell's
    model kind in its split mode; returns the test accuracy."""
    windows = build_windows(build_series(config), config.temporal_len)
    plans = _plans(config, windows, config.split_mode, 1)
    return compare_plans({config.model: _fitter_for(config, config.model)}, windows, plans).models[0].accuracies[0]


def run_sweep(config: RunConfig, grid: dict | None = None, workers: int = 1) -> dict:
    """Cartesian grid over the axes of DEFAULT_SWEEP_GRID (kernel sizes, head
    count, window length); an axis missing from `grid` takes its default. One
    seeded train+eval per cell, rows written to sweep.csv in grid order;
    `workers` >= 1 processes run the cells, and more than one changes no byte."""
    merged = {**DEFAULT_SWEEP_GRID, **{k: v for k, v in (grid or {}).items() if v is not None}}
    if merged.keys() != DEFAULT_SWEEP_GRID.keys():
        raise PipelineError(f"unknown sweep axes {sorted(merged.keys() - DEFAULT_SWEEP_GRID.keys())}")
    if not all(merged.values()):
        raise PipelineError("sweep grid is empty")
    if workers < 1:
        raise PipelineError(f"workers must be >= 1, got {workers}")
    cells = [dict(zip(merged, combo)) for combo in product(*merged.values())]
    # every cell's settings are checked before the first cell trains
    jobs = [replace(config, **cell) for cell in cells]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            accuracies = list(pool.map(_sweep_cell, jobs))
    else:
        accuracies = [_sweep_cell(job) for job in jobs]
    rows = [(*cell.values(), config.seed, acc) for cell, acc in zip(cells, accuracies)]
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "sweep.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([*DEFAULT_SWEEP_GRID, "seed", "test_accuracy"]) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    return {"rows": rows, "paths": {"sweep": path}}
