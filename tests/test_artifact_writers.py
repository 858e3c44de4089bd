"""Every artifact writer against the standard-library writer it replaced:
the dataset CSV, roc.csv and history.csv against a csv.writer row loop, and
checkpoint.json, report.json and comparison.json against json.dump."""

import csv
import json
from dataclasses import asdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mcdc.baselines import make_model
from mcdc.checkpoint import FORMAT_VERSION, save_checkpoint
from mcdc.conditions import CONDITIONS
from mcdc.data import GasSeries, NormStats, load_series, split, write_series_csv
from mcdc.evaluation import roc_auc, roc_csv
from mcdc.pipeline import RunConfig, build_windows, run_compare, run_eval
from mcdc.synth import load_recipe, synth_generate
from mcdc.training import EpochStats, TrainHistory, history_to_csv
from reference_ops import reference_write_series_csv

# ids csv must quote (comma, quote, newline) or keep as they are (spaces, non-ASCII)
AWKWARD_IDS = ["a,b", 'say "hi"', "  padded  ", "трансформатор-ü", "line\nbreak", "plain"]
# zero, the extremes of float64 and values whose repr is long
AWKWARD_READINGS = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308, 1e300, 0.1, 1 / 3, 123456789.125]


def csv_rows_reference(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def json_dump_reference(payload, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def awkward_series():
    rng = np.random.default_rng(3)
    out = []
    for i, tid in enumerate(AWKWARD_IDS):
        readings = rng.choice(AWKWARD_READINGS, size=(5, 4 + i))
        out.append(GasSeries(tid, (35, 110, 220, 500)[i % 4], CONDITIONS[i % 7], np.arange(4 + i) * 3 + i, readings))
    return out


class TestSeriesCsv:
    def test_awkward_ids_and_readings_match_csv_writer(self, tmp_path):
        series = awkward_series()
        write_series_csv(series, tmp_path / "new.csv")
        reference_write_series_csv(series, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_awkward_file_reloads_to_the_same_series(self, tmp_path):
        series = awkward_series()
        write_series_csv(series, tmp_path / "data.csv")
        loaded = load_series(tmp_path / "data.csv")
        # load_series strips ids, so "  padded  " comes back as "padded"
        expected = sorted(series, key=lambda s: s.transformer_id)
        assert [s.transformer_id for s in loaded] == [s.transformer_id.strip() for s in expected]
        for got, want in zip(loaded, expected):
            assert (got.voltage_kv, got.condition) == (want.voltage_kv, want.condition)
            assert got.days.tobytes() == want.days.tobytes()
            assert got.readings.tobytes() == want.readings.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        ids=st.lists(
            st.text(st.characters(blacklist_categories=("Cs",)), max_size=8), min_size=1, max_size=4, unique=True
        ),
        readings=st.lists(
            st.floats(min_value=0.0, allow_infinity=False, allow_nan=False), min_size=5, max_size=15
        ),
    )
    def test_any_ids_and_readings_match_csv_writer(self, tmp_path_factory, ids, readings):
        days = len(readings) // 5
        values = np.array(readings[: 5 * days]).reshape(5, days)
        series = [GasSeries(tid, 110, CONDITIONS[i % 7], np.arange(days), values) for i, tid in enumerate(ids)]
        path = tmp_path_factory.mktemp("csv")
        write_series_csv(series, path / "new.csv")
        reference_write_series_csv(series, path / "old.csv")
        assert (path / "new.csv").read_bytes() == (path / "old.csv").read_bytes()

    def test_no_series_is_the_header_alone(self, tmp_path):
        write_series_csv([], tmp_path / "new.csv")
        reference_write_series_csv([], tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes() == b"transformer_id,voltage_kv,condition,day,h2,ch4,c2h6,c2h4,c2h2\r\n"


class TestCurveAndHistoryCsv:
    def test_roc_csv_matches_csv_writer(self, tmp_path):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(7), size=40)
        probs[:10] = np.round(probs[:10], 1)  # ties between scores
        probs /= probs.sum(axis=1, keepdims=True)
        labels = np.arange(40) % 6  # class 6 absent: no curve
        curves = roc_auc(labels, probs)["curves"]
        assert curves[0]["thresholds"][0] == float("inf")
        roc_csv(curves, tmp_path / "new.csv")
        csv_rows_reference(
            tmp_path / "old.csv",
            ["class", "fpr", "tpr", "threshold"],
            (
                [c["class"], repr(f), repr(t), repr(thr)]
                for c in curves
                for f, t, thr in zip(c["fpr"], c["tpr"], c["thresholds"])
            ),
        )
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_history_csv_matches_csv_writer(self, tmp_path):
        histories = [
            TrainHistory([EpochStats(e, 1 / (e + 3), 0.1 * e, 0.5, lr, 0.01) for e, lr in enumerate((0.01, 0.01, 1e-3))]),
            TrainHistory([EpochStats(0, 2.5e-300, 1.0, 0.0, 2e-4, 0.0)]),
            TrainHistory(),
        ]
        history_to_csv(histories, tmp_path / "new.csv")
        csv_rows_reference(
            tmp_path / "old.csv",
            ["epoch", "fold", "loss", "val_accuracy", "lr"],
            (
                [row.epoch, fold, repr(row.loss), repr(row.val_accuracy), repr(row.lr)]
                for fold, history in enumerate(histories)
                for row in history.rows
            ),
        )
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestJsonArtifacts:
    def test_checkpoint_matches_json_dump(self, tmp_path):
        for kind in ("mcdc", "mcdc-matrix", "ann"):
            model = make_model(kind, 8, 4)
            stats = NormStats(np.array([0.0, 1e-310, 1 / 3, 1e300, 5.0]), np.array([1e-6, 1.0, 2.0, 3.0, 0.1]))
            save_checkpoint(tmp_path / "new.json", model, stats)
            json_dump_reference(
                {
                    "format_version": FORMAT_VERSION,
                    "model_kind": kind,
                    "seed": 4,
                    "hyper": asdict(model.hyper),
                    "norm_stats": stats.to_dict(),
                    "params": {name: arr.tolist() for name, arr in model.parameter_arrays().items()},
                },
                tmp_path / "old.json",
            )
            assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()

    def test_report_and_comparison_match_json_dump(self, tmp_path):
        series = synth_generate(load_recipe("stability"), seed=8, transformers_per_class=3, length_range=(10, 14))
        data = tmp_path / "data.csv"
        write_series_csv(series, data)
        windows = build_windows(series, 8)
        plan = split(windows, "sample", 0.8, seed=8, k=2)
        (tmp_path / "split.json").write_text(plan.to_json())
        model = make_model("mcdc", 8, 8, heads=1, kernel_temporal=3, kernel_channel=4)
        save_checkpoint(tmp_path / "checkpoint.json", model, NormStats(np.full(5, 10.0), np.full(5, 4.0)))
        result = run_eval(str(tmp_path / "checkpoint.json"), str(data), str(tmp_path / "split.json"), str(tmp_path / "eval"))
        json_dump_reference(result["report"].to_dict(), tmp_path / "report.json")
        assert (tmp_path / "eval" / "report.json").read_bytes() == (tmp_path / "report.json").read_bytes()

        config = RunConfig(
            seed=8, out_dir=str(tmp_path / "cmp"), data_csv=str(data), temporal_len=8, heads=1,
            kernel_temporal=3, kernel_channel=4, train={"epochs": 1, "batch_size": 64, "folds": 2},
        )
        result = run_compare(config, ["mcdc", "ann"], 2, ["sample"])
        json_dump_reference({m: r.to_dict() for m, r in result["results"].items()}, tmp_path / "comparison.json")
        assert (tmp_path / "cmp" / "comparison.json").read_bytes() == (tmp_path / "comparison.json").read_bytes()
