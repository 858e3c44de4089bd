"""The benchmark's three workloads: a seeded input generator, a set-up, a
long unit of work, a short step and the output checks for each.

The program only ever sees what the generator wrote (dataset CSVs and, for
eval-fleet, a checkpoint file) and the windows it cuts from them. Every
call into the program goes through a module attribute (`mcdc.x` or
`mcdc.module.x`), so the tracer's wrappers are the ones that run.
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np

import mcdc
import mcdc.data
import mcdc.evaluation
import mcdc.pipeline
import mcdc.training

clock = time.perf_counter

# Windows whose probabilities fingerprint a unit's output (rerun and
# traced-vs-untraced bit-identity).
FINGERPRINT_WINDOWS = 64
EVAL_CHUNK = 16  # windows per evaluate_model probe call

TRAIN_EPOCHS = 1  # train-conv: epochs per train_fold call of a unit
STEP_TRAIN, STEP_VAL = 8, 4  # train-conv step: train_fold on this many windows, 1 epoch
FLEET_PER_CLASS = 8  # eval-fleet: transformers per condition class
FLEET_DROP = 0.1  # eval-fleet: share of interior days removed from the CSV
STEP_DAYS = 30  # eval-fleet step: one transformer's CSV of this many days
COMPARE_KINDS = ("mcdc", "mcdc-matrix", "ann")
COMPARE_EPOCHS = 3
COMPARE_REPETITIONS = 3
STEP_COMPARE_WINDOWS = 20  # compare-small step: 20 windows spread over the set, 1 repetition, 1 epoch

# Quality floor for the trained conv model: test accuracy on train-conv,
# mean accuracy in compare on compare-small. Seeds 1-40 of train-conv reach
# 0.62 to 1.0 and seeds 1-30 of compare-small 0.67 to 0.94; a model that
# has stopped learning scores about 1/7.
ACCURACY_FLOOR = 0.4


def write_dataset(recipe: str, seed: int, path: str, per_class: int | None = None, drop: float = 0.0):
    """Generate the recipe's series for `seed`, optionally remove a share of
    interior days, write them as a CSV and return them."""
    series = mcdc.synth_generate(mcdc.load_recipe(recipe), seed=seed, transformers_per_class=per_class)
    if drop:
        rng = np.random.default_rng([seed, 1])
        gappy = []
        for s in series:
            keep = rng.random(s.days.size) >= drop
            keep[0] = keep[-1] = True
            gappy.append(mcdc.GasSeries(s.transformer_id, s.voltage_kv, s.condition, s.days[keep], s.readings[:, keep]))
        series = gappy
    mcdc.data.write_series_csv(series, path)
    return series


def cut_windows(path: str, temporal_len: int):
    """The CLI's ingest path: load the CSV, fill gaps, cut overlapping windows."""
    return mcdc.pipeline.build_windows(mcdc.load_series(path), temporal_len)


def fold0_sets(windows, seed: int):
    """The pipeline's sample split and train-side normalization, fold 0 as
    validation: (train, val, test) windows."""
    plan = mcdc.split(windows, "sample", 0.8, seed=seed, k=4)
    normalized, _ = mcdc.normalize([windows[i] for i in plan.train_indices], windows)
    val = set(plan.folds[0])
    return (
        [normalized[i] for i in plan.train_indices if i not in val],
        [normalized[i] for i in plan.folds[0]],
        [normalized[i] for i in plan.test_indices],
    )


def probabilities(model, windows) -> np.ndarray:
    return np.array([model.predict_proba(w.values) for w in windows])


class Workload:
    """One workload.

    `setup` builds the inputs and the model. `ingest` turns the CSV into
    the windows a unit consumes. `unit` is one pass of the workload's study.
    `step` is the same main operation at a small stated size, short enough
    that a run times it many times. After a unit, `score_model` scores
    `score_windows` in the closed loop and the evaluate_model probes.
    """

    name = ""
    temporal_len = 12

    def __init__(self, seed: int, workdir: str, ledger):
        self.seed = seed
        self.workdir = workdir
        self.ledger = ledger
        self.csv = os.path.join(workdir, "dataset.csv")
        self.rows = 0
        self.model = None
        self.eval_runs: list[tuple[int, float]] = []  # (windows, seconds) per unit evaluate_model call
        self.train_runs: list[tuple[int, float]] = []  # (windows x epochs, seconds) per unit train_fold call
        self.accuracies: list[float] = []
        self.score_model = None
        self.score_windows: list = []
        self._chunks = 0

    def setup(self) -> None:
        raise NotImplementedError

    def ingest(self):
        raise NotImplementedError

    def unit(self) -> None:
        raise NotImplementedError

    def step(self) -> None:
        raise NotImplementedError

    def evaluate_chunk(self) -> tuple[int, float]:
        """One evaluate_model call on the next EVAL_CHUNK scoring windows:
        (windows, seconds)."""
        starts = max(len(self.score_windows) - EVAL_CHUNK, 1)
        lo = (self._chunks * EVAL_CHUNK) % starts
        self._chunks += 1
        chunk = self.score_windows[lo:lo + EVAL_CHUNK]
        started = clock()
        report = mcdc.evaluation.evaluate_model(self.score_model, chunk)
        elapsed = clock() - started
        self.ledger.op()
        self.ledger.check(report.n_samples == len(chunk), f"{self.name}: report counts {report.n_samples} windows")
        return len(chunk), elapsed

    def fingerprint(self) -> bytes:
        """Bytes that a same-seed repeat of the unit must reproduce exactly."""
        return probabilities(self.score_model, self.score_windows[:FINGERPRINT_WINDOWS]).tobytes()

    def _write(self, recipe: str, per_class: int | None = None, drop: float = 0.0):
        series = write_dataset(recipe, self.seed, self.csv, per_class, drop)
        self.rows = sum(s.days.size for s in series)
        return series

    def _train(self, model, train, val, epochs: int, seed: int, record: bool = True):
        config = mcdc.TrainConfig(seed=seed, epochs=epochs, patience=epochs + 1)
        started = clock()
        history = mcdc.training.train_fold(model, train, val, config)
        if record:
            self.train_runs.append((len(train) * epochs, clock() - started))
        self.ledger.op()
        for row in history.rows:
            self.ledger.check(
                math.isfinite(row.loss) and math.isfinite(row.val_loss),
                f"{self.name}: non-finite loss at epoch {row.epoch}",
            )
        self.ledger.check(len(history.rows) == epochs, f"{self.name}: stopped after {len(history.rows)} of {epochs} epochs")
        return history

    def _evaluate(self, model, windows):
        started = clock()
        report = mcdc.evaluation.evaluate_model(model, windows)
        self.eval_runs.append((len(windows), clock() - started))
        self.ledger.op()
        self.ledger.check(report.n_samples == len(windows), f"{self.name}: report counts {report.n_samples} windows")
        return report


class TrainConv(Workload):
    """train_fold of the stock conv model on fold 0 of the default recipe,
    then evaluate_model on the test side."""

    name = "train-conv"

    def setup(self):
        self._write("default")
        self.ingest()
        self.model = mcdc.make_model("mcdc", self.temporal_len, self.seed)

    def ingest(self):
        self.train, self.val, self.test = fold0_sets(cut_windows(self.csv, self.temporal_len), self.seed)
        self.score_windows = self.test

    def unit(self):
        model = mcdc.make_model("mcdc", self.temporal_len, self.seed)
        self._train(model, self.train, self.val, TRAIN_EPOCHS, self.seed)
        report = self._evaluate(model, self.test)
        self.accuracies.append(report.accuracy)
        self.ledger.check(
            report.accuracy >= ACCURACY_FLOOR,
            f"train-conv: test accuracy {report.accuracy:.4f} below {ACCURACY_FLOOR}",
        )
        self.score_model = model

    def step(self):
        model = mcdc.make_model("mcdc", self.temporal_len, self.seed)
        self._train(model, self.train[:STEP_TRAIN], self.val[:STEP_VAL], 1, self.seed, record=False)


class EvalFleet(Workload):
    """The operator path of `mcdc eval`: a checkpoint scores a gappy fleet CSV."""

    name = "eval-fleet"

    def setup(self):
        series = self._write("default", FLEET_PER_CLASS, FLEET_DROP)
        # The step's input: one transformer of a fixed length, on its own.
        self.one_csv = os.path.join(self.workdir, "transformer.csv")
        one = mcdc.synth_generate(
            mcdc.load_recipe("default"), seed=self.seed, transformers_per_class=1, length_range=(STEP_DAYS, STEP_DAYS)
        )
        mcdc.data.write_series_csv(one[:1], self.one_csv)
        # The generator stands in for the training run that produced the
        # checkpoint: a seed-built model and the fleet's own channel stats.
        readings = np.concatenate([s.readings for s in series], axis=1)
        stats = mcdc.NormStats(readings.mean(axis=1), np.maximum(readings.std(axis=1), 1e-6))
        path = os.path.join(self.workdir, "checkpoint.json")
        mcdc.save_checkpoint(path, mcdc.make_model("mcdc", self.temporal_len, self.seed), stats)
        self.model, self.stats = mcdc.load_checkpoint(path)

    def _windows(self, path: str):
        windows = cut_windows(path, self.temporal_len)
        for w in windows:
            w.values = self.stats.apply(w.values)
        return windows

    def ingest(self):
        return self._windows(self.csv)

    def unit(self):
        windows = self.ingest()
        self._evaluate(self.model, windows)
        self.score_model = self.model
        self.score_windows = windows

    def step(self):
        """The whole operator path for one transformer's CSV."""
        mcdc.evaluation.evaluate_model(self.model, self._windows(self.one_csv))
        self.ledger.op()


class CompareSmall(Workload):
    """evaluation.compare of the conv, matrix and ANN models on the
    stability recipe, sample split, short fixed epochs."""

    name = "compare-small"
    temporal_len = 8

    def setup(self):
        self._write("stability")
        self.ingest()
        self.model = mcdc.make_model("mcdc", self.temporal_len, self.seed)
        self.result = None

    def ingest(self):
        self.windows = cut_windows(self.csv, self.temporal_len)

    def _fitter(self, kind: str, epochs: int, keep: bool):
        def fit(train, val, seed):
            model = mcdc.make_model(kind, self.temporal_len, seed)
            self._train(model, train, val, epochs, seed, record=keep)
            if keep and kind == "mcdc":
                self.score_model = model
                self.score_windows = train + val
            return model

        return fit

    def _compare(self, windows, repetitions: int, epochs: int, keep: bool):
        result = mcdc.evaluation.compare(
            {kind: self._fitter(kind, epochs, keep) for kind in COMPARE_KINDS},
            windows,
            "sample",
            repetitions,
            base_seed=self.seed,
        )
        self.ledger.op()
        for pair, p in result.p_values.items():
            self.ledger.check(0.0 < p <= 1.0, f"compare-small: p-value {p} for {pair}")
        return result

    def unit(self):
        # compare calls evaluate_model itself; a stopwatch at that name times it.
        original = mcdc.evaluation.evaluate_model

        def timed(model, windows):
            started = clock()
            report = original(model, windows)
            self.eval_runs.append((len(windows), clock() - started))
            self.ledger.op()
            return report

        mcdc.evaluation.evaluate_model = timed
        try:
            self.result = self._compare(self.windows, COMPARE_REPETITIONS, COMPARE_EPOCHS, keep=True)
        finally:
            mcdc.evaluation.evaluate_model = original
        mcdc_row = next(m for m in self.result.models if m.name == "mcdc")
        self.accuracies.append(mcdc_row.mean_accuracy)
        self.ledger.check(
            mcdc_row.mean_accuracy >= ACCURACY_FLOOR,
            f"compare-small: mcdc mean accuracy {mcdc_row.mean_accuracy:.4f} below {ACCURACY_FLOOR}",
        )

    def step(self):
        every = len(self.windows) // STEP_COMPARE_WINDOWS
        self._compare(self.windows[::every][:STEP_COMPARE_WINDOWS], 1, 1, keep=False)

    def fingerprint(self) -> bytes:
        return json.dumps(self.result.to_dict(), sort_keys=True).encode() + super().fingerprint()


WORKLOADS = {cls.name: cls for cls in (TrainConv, EvalFleet, CompareSmall)}
