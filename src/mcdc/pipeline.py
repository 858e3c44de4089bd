"""End-to-end runs behind the CLI: dataset assembly, training with 4-fold
cross-validation, held-out evaluation, model comparison and hyperparameter
sweeps. Every fit is a `_Job` (a train fold, a compare repetition's kind, a
sweep cell), and `_fits` is the one map that runs them. Every artifact a run
writes is a pure function of the config and seed, so reruns are byte-identical.
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
    fold0_sets,
    fold_sets,
    interpolate_gaps,
    load_series,
    normalize,
    overlapping_sample,
    split,
    write_series_csv,
)
from .evaluation import evaluate_model, roc_csv, split_repetitions, summarize
from .model import ModelHyper, check_fields, one_of, read_object, setting, setting_of
from .synth import load_recipe, synth_generate
from .training import TrainConfig, history_to_csv, train_fold

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


@dataclass(frozen=True)
class _Job:
    """One fit, picklable for a worker process: a fresh `kind` model seeded
    `model_seed`, trained under `config` with `train_seed` as its training
    seed. `label` names the fit in its errors."""

    label: str
    config: RunConfig
    kind: str
    model_seed: int
    train_seed: int
    train_windows: list
    val_windows: list


def _fit(job: _Job):
    """(model, history) of one job; a ValueError leads with the job's label."""
    try:
        model = job.config.make_model(job.kind, job.model_seed)
        history = train_fold(model, job.train_windows, job.val_windows,
                             replace(job.config.train_config(), seed=job.train_seed))
    except ValueError as exc:
        raise ValueError(f"{job.label}: {exc}") from exc
    return model, history


def _fits(jobs: list[_Job], workers: int) -> list:
    """Each job's (model, history), in job order: fitted in this process at
    one worker, in a pool of `workers` processes above that."""
    if workers == 1:
        return list(map(_fit, jobs))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_fit, jobs))


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
        plan = split(windows, config.split_mode, config.train_fraction, seed=config.seed, k=config.train_config().folds)
    with _stage("normalize"):
        normalized, stats = normalize([windows[i] for i in plan.train_indices], windows)
    with _stage("train"):
        folds = [_Job(f"fold {fold}", config, config.model, config.seed + fold, config.seed,
                      *fold_sets(normalized, plan, fold)) for fold in range(len(plan.folds))]
        models, histories = zip(*_fits(folds, 1))
    # train_fold left each model holding the parameters its best-epoch row scored
    accuracies = [history.rows[history.best_epoch].val_accuracy for history in histories]
    best_fold = accuracies.index(max(accuracies))  # the first max: ties go to the lowest fold
    with _stage("save"):
        os.makedirs(config.out_dir, exist_ok=True)
        paths = {
            "checkpoint": os.path.join(config.out_dir, "checkpoint.json"),
            "history": os.path.join(config.out_dir, "history.csv"),
            "split": os.path.join(config.out_dir, "split.json"),
        }
        save_checkpoint(paths["checkpoint"], models[best_fold], stats)
        history_to_csv(histories, paths["history"])
        with open(paths["split"], "w", encoding="utf-8") as fh:
            fh.write(plan.to_json())
            fh.write("\n")
        if not config.data_csv:
            paths["dataset"] = os.path.join(config.out_dir, "dataset.csv")
            write_series_csv(series, paths["dataset"])
    return {"paths": paths, "best_fold": best_fold, "fold_val_accuracies": accuracies}


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
        if plan.mode == "facility":  # a sample-mode plan records no transformer ids
            for name, indices, ids in (("test", plan.test_indices, set(plan.test_transformers)),
                                       ("train", plan.train_indices, set(plan.train_transformers))):
                for i in indices:
                    if windows[i].transformer_id not in ids:
                        raise ValueError(f"plan {name} index {i} falls on transformer {windows[i].transformer_id!r}, "
                                         f"which is not among its {name}_transformers")
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


def run_compare(config: RunConfig, kinds: list[str], repetitions: int, modes: list[str]) -> dict:
    """Repeated train/evaluate comparison across model kinds and split modes,
    written to comparison.json. The kinds and the modes, each listed once,
    and the repetition count are checked before the data are loaded, and
    every mode's repetitions are split before the first model trains."""
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    for flag, given, known in (("models", kinds, tuple(MODEL_KINDS)), ("modes", modes, SPLIT_MODES)):
        if not given:
            raise ValueError(f"{flag} must name at least one of {known}")
        unknown = [v for v in given if v not in known]
        if unknown:
            raise ValueError(f"{flag} must be among {known}, got unknown {unknown}")
        repeated = [v for i, v in enumerate(given) if v in given[:i]]
        if repeated:
            raise ValueError(f"{flag} must not repeat a value, got {repeated[0]!r} twice")
    with _stage("load"):
        windows = build_windows(build_series(config), config.temporal_len)
    k = config.train_config().folds
    plans = {}
    for mode in modes:
        with _stage(f"compare-{mode}"):
            plans[mode] = split_repetitions(windows, mode, repetitions, config.seed, config.train_fraction, k)
    results = {}
    for mode in modes:
        with _stage(f"compare-{mode}"):
            sets = [fold0_sets(windows, plan) for plan in plans[mode]]
            jobs = [_Job(f"{mode} repetition {rep}, {kind}", config, kind, plan.seed, plan.seed, *sets[rep][:2])
                    for rep, plan in enumerate(plans[mode]) for kind in kinds]
            tests = [test for _, _, test in sets for _ in kinds]
            reports = {kind: [] for kind in kinds}
            for job, (model, _), test in zip(jobs, _fits(jobs, 1), tests):
                reports[job.kind].append(evaluate_model(model, test))
            results[mode] = summarize(mode, reports)
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "comparison.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({mode: r.to_dict() for mode, r in results.items()}, sort_keys=True) + "\n")
    return {"results": results, "paths": {"comparison": path}}


def run_sweep(config: RunConfig, grid: dict | None = None, workers: int = 1) -> dict:
    """Cartesian grid over the axes of DEFAULT_SWEEP_GRID (kernel sizes, head
    count, window length); an axis missing from `grid` takes its default.
    Each cell is a one-repetition, one-kind compare, its test accuracy a row
    of sweep.csv in grid order. The cells of one window length share one
    split, made before any cell trains. `workers` >= 1 processes run the
    cells, and more than one changes no byte."""
    merged = {**DEFAULT_SWEEP_GRID, **{k: v for k, v in (grid or {}).items() if v is not None}}
    if merged.keys() != DEFAULT_SWEEP_GRID.keys():
        raise PipelineError(f"unknown sweep axes {sorted(merged.keys() - DEFAULT_SWEEP_GRID.keys())}")
    if not all(merged.values()):
        raise PipelineError("sweep grid is empty")
    if workers < 1:
        raise PipelineError(f"workers must be >= 1, got {workers}")
    cells = [dict(zip(merged, combo)) for combo in product(*merged.values())]
    # every cell's settings are checked before the data are loaded
    configs = [replace(config, **cell) for cell in cells]
    with _stage("load"):
        series = build_series(config)
    with _stage("sweep"):
        sets = {}
        for temporal_len in merged["temporal_len"]:
            windows = build_windows(series, temporal_len)
            plan = split(windows, config.split_mode, config.train_fraction, seed=config.seed,
                         k=config.train_config().folds)
            sets[temporal_len] = fold0_sets(windows, plan)
        jobs = [_Job("cell " + ", ".join(f"{axis}={value}" for axis, value in cell.items()), cell_config,
                     cell_config.model, config.seed, config.seed, *sets[cell_config.temporal_len][:2])
                for cell, cell_config in zip(cells, configs)]
        accuracies = [evaluate_model(model, sets[job.config.temporal_len][2]).accuracy
                      for job, (model, _) in zip(jobs, _fits(jobs, workers))]
    rows = [(*cell.values(), config.seed, acc) for cell, acc in zip(cells, accuracies)]
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "sweep.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([*DEFAULT_SWEEP_GRID, "seed", "test_accuracy"]) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    return {"rows": rows, "paths": {"sweep": path}}
