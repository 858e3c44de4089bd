"""Dataset pipeline: parsing, interpolation, windowing, splits, generator."""

import numpy as np
import pytest

from mcdc.conditions import by_name
from mcdc.data import (
    CSV_HEADER,
    CdgdWindow,
    DatasetError,
    GasSeries,
    fold0_sets,
    interpolate_gaps,
    kfold,
    load_series,
    normalize,
    overlapping_sample,
    split,
    write_series_csv,
)
from mcdc.synth import RecipeError, load_recipe, synth_generate


def make_series(tid="tx1", condition="NC", days=None, readings=None, voltage=110):
    days = np.asarray(days if days is not None else range(1, 11))
    if readings is None:
        readings = np.tile(np.arange(days.size, dtype=float), (5, 1))
    return GasSeries(tid, voltage, by_name(condition), days, readings)


def csv_text(rows):
    return ",".join(CSV_HEADER) + "\n" + "\n".join(rows) + ("\n" if rows else "")


class TestLoadSeries:
    def test_three_transformers(self, tmp_path):
        path = tmp_path / "d.csv"
        rows = [
            f"t{i},110,NC,{d},1,2,3,4,5" for i in range(3) for d in (1, 2)
        ]
        path.write_text(csv_text(rows))
        series = load_series(path)
        assert len(series) == 3
        assert all(s.days.tolist() == [1, 2] for s in series)

    def test_rows_sorted_by_day(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(csv_text(["t0,110,NC,5,1,1,1,1,1", "t0,110,NC,2,9,9,9,9,9"]))
        (s,) = load_series(path)
        assert s.days.tolist() == [2, 5]
        assert s.readings[0].tolist() == [9.0, 1.0]

    def test_duplicate_day_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(csv_text(["t0,110,NC,1,1,1,1,1,1", "t0,110,NC,1,2,2,2,2,2"]))
        with pytest.raises(DatasetError, match="line 3.*duplicate day 1"):
            load_series(path)

    def test_negative_concentration_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(csv_text(["t0,110,NC,1,1,-2,1,1,1"]))
        with pytest.raises(DatasetError, match="line 2.*negative ch4"):
            load_series(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_concentration_names_line(self, tmp_path, value):
        path = tmp_path / "d.csv"
        path.write_text(csv_text(["t0,110,NC,1,1,1,1,1,1", f"t0,110,NC,4,1,1,{value},1,1"]))
        with pytest.raises(DatasetError, match="line 3.*non-finite c2h6"):
            load_series(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_in_memory_non_finite_rejected(self, value):
        readings = np.ones((5, 4))
        readings[3, 2] = value
        with pytest.raises(DatasetError, match="tx1: non-finite"):
            make_series(days=range(4), readings=readings)

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("transformer_id,voltage_kv,condition,day,h2,ch4,c2h6,c2h4,co2\n")
        with pytest.raises(DatasetError, match="co2"):
            load_series(path)

    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        assert load_series(path) == []
        path.write_text(csv_text([]))
        assert load_series(path) == []

    def test_bad_condition_and_voltage(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(csv_text(["t0,110,XX,1,1,1,1,1,1"]))
        with pytest.raises(DatasetError, match="line 2"):
            load_series(path)
        path.write_text(csv_text(["t0,99,NC,1,1,1,1,1,1"]))
        with pytest.raises(DatasetError, match="voltage 99"):
            load_series(path)

    def test_round_trip(self, tmp_path):
        series = synth_generate(load_recipe("default"), seed=5, transformers_per_class=1, length_range=(4, 6))
        path = tmp_path / "rt.csv"
        write_series_csv(series, path)
        back = load_series(path)
        assert len(back) == len(series)
        by_id = {s.transformer_id: s for s in back}
        for s in series:
            assert np.array_equal(by_id[s.transformer_id].readings, s.readings)


class TestInterpolateGaps:
    def test_linear_midpoint(self):
        s = make_series(days=[1, 3], readings=np.tile([1.0, 3.0], (5, 1)))
        out = interpolate_gaps(s)
        assert out.days.tolist() == [1, 2, 3]
        assert out.readings[2].tolist() == [1.0, 2.0, 3.0]

    def test_no_gaps_unchanged(self):
        s = make_series()
        assert interpolate_gaps(s) is s

    def test_three_day_gap(self):
        s = make_series(days=[1, 5], readings=np.tile([0.0, 4.0], (5, 1)))
        out = interpolate_gaps(s)
        assert out.readings[0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_idempotent(self):
        s = make_series(days=[1, 4, 9], readings=np.vstack([np.array([1.0, 7.0, 2.0])] * 5))
        once = interpolate_gaps(s)
        twice = interpolate_gaps(once)
        assert np.array_equal(once.readings, twice.readings)
        assert np.array_equal(once.days, twice.days)

    def test_single_observation_rejected(self):
        s = make_series(days=[4], readings=np.ones((5, 1)))
        with pytest.raises(DatasetError, match="at least 2"):
            interpolate_gaps(s)


class TestOverlappingSample:
    def test_count_law(self):
        s = make_series(days=range(1, 11))
        windows = overlapping_sample(s, 8)
        assert len(windows) == 3
        assert [w.start_day for w in windows] == [1, 2, 3]

    def test_whole_series_window(self):
        s = make_series(days=range(1, 9))
        (w,) = overlapping_sample(s, 8)
        assert np.array_equal(w.values, s.readings)

    def test_short_series_yields_empty(self):
        s = make_series(days=range(1, 5))
        assert overlapping_sample(s, 8) == []

    def test_windows_are_exact_slices(self):
        rng = np.random.default_rng(0)
        s = make_series(days=range(1, 15), readings=rng.uniform(0, 10, size=(5, 14)))
        for i, w in enumerate(overlapping_sample(s, 6)):
            assert np.array_equal(w.values, s.readings[:, i:i + 6])
            assert w.label == s.condition

    def test_count_law_across_series(self):
        rng = np.random.default_rng(1)
        lengths = [4, 8, 13, 20]
        all_series = [
            make_series(tid=f"t{i}", days=range(1, n + 1), readings=rng.uniform(0, 5, (5, n)))
            for i, n in enumerate(lengths)
        ]
        t_len = 8
        total = sum(len(overlapping_sample(s, t_len)) for s in all_series)
        assert total == sum(max(0, n - t_len + 1) for n in lengths)

    def test_gappy_series_rejected(self):
        s = make_series(days=[1, 2, 4, 5, 6, 7, 8, 9])
        with pytest.raises(DatasetError, match="gaps"):
            overlapping_sample(s, 4)


class TestNormalize:
    def _windows(self, seed=2, n=12):
        rng = np.random.default_rng(seed)
        return [
            CdgdWindow(f"t{i % 3}", i, rng.uniform(0, 50, size=(5, 6)), by_name("NC")) for i in range(n)
        ]

    def test_train_stats_are_standard(self):
        windows = self._windows()
        train = windows[:8]
        normalized, stats = normalize(train, windows)
        stacked = np.concatenate([w.values for w in normalized[:8]], axis=1)
        assert np.allclose(stacked.mean(axis=1), 0.0, atol=1e-6)
        assert np.allclose(stacked.std(axis=1), 1.0, atol=1e-6)

    def test_test_windows_use_train_stats(self):
        windows = self._windows()
        normalized, stats = normalize(windows[:8], windows)
        w = windows[10]
        assert np.allclose(normalized[10].values, (w.values - stats.mean[:, None]) / stats.std[:, None])

    def test_constant_channel_floors_sigma(self):
        windows = [CdgdWindow("t0", i, np.full((5, 4), 3.0), by_name("NC")) for i in range(3)]
        normalized, stats = normalize(windows, windows)
        assert np.all(stats.std == 1e-6)
        assert np.all(normalized[0].values == 0.0)

    def test_round_trip(self):
        windows = self._windows()
        normalized, stats = normalize(windows[:8], windows)
        for orig, norm in zip(windows, normalized):
            assert np.allclose(stats.invert(norm.values), orig.values, atol=1e-9)


class TestSplit:
    def _windows(self, n_transformers=10, per=10, t_len=4, n_conditions=7):
        rng = np.random.default_rng(3)
        out = []
        for i in range(n_transformers):
            label = by_name(["NC", "LT", "MT", "HT", "PD", "LD", "HD"][i % n_conditions])
            for j in range(per):
                out.append(CdgdWindow(f"t{i}", j, rng.uniform(0, 1, (5, t_len)), label))
        return out

    def test_sample_split_80_20(self):
        plan = split(self._windows(10, 10), "sample", 0.8, seed=1)
        assert len(plan.train_indices) == 80
        assert len(plan.test_indices) == 20
        assert not set(plan.train_indices) & set(plan.test_indices)
        assert sorted(plan.train_indices + plan.test_indices) == list(range(100))

    def test_facility_split_no_transformer_overlap(self):
        # 2 conditions so the 3-transformer test side can still cover them
        windows = self._windows(14, 8, n_conditions=2)
        plan = split(windows, "facility", 0.8, seed=2)
        train_ids = {windows[i].transformer_id for i in plan.train_indices}
        test_ids = {windows[i].transformer_id for i in plan.test_indices}
        assert not train_ids & test_ids
        assert train_ids == set(plan.train_transformers)
        assert test_ids == set(plan.test_transformers)

    def test_facility_covers_all_conditions(self):
        windows = self._windows(35, 5)
        plan = split(windows, "facility", 0.8, seed=3)
        for side in (plan.train_indices, plan.test_indices):
            assert {windows[i].label.code for i in side} == set(range(7))

    def test_facility_coverage_unsatisfiable(self):
        # 7 conditions but only 7 transformers: a 6/1 split can never cover both sides
        windows = self._windows(7, 4)
        with pytest.raises(DatasetError, match="cannot cover"):
            split(windows, "facility", 0.85, seed=4)

    def test_published_protocol_transformer_counts(self):
        # 65 transformers at a 50/15 facility split
        windows = self._windows(65, 3)
        plan = split(windows, "facility", 50 / 65, seed=5)
        assert len(plan.train_transformers) == 50
        assert len(plan.test_transformers) == 15

    def test_deterministic(self):
        windows = self._windows(12, 6, n_conditions=2)
        a = split(windows, "facility", 0.8, seed=6)
        b = split(windows, "facility", 0.8, seed=6)
        assert a.to_json() == b.to_json()

    def test_fold0_sets_partition_and_train_side_stats(self):
        windows = self._windows(10, 10)
        plan = split(windows, "sample", 0.8, seed=8)
        train, val, test = fold0_sets(windows, plan)
        keys = [{(w.transformer_id, w.start_day) for w in part} for part in (train, val, test)]
        assert not (keys[0] & keys[1]) and not (keys[0] & keys[2]) and not (keys[1] & keys[2])
        assert len(train) == len(plan.train_indices) - len(plan.folds[0])
        assert len(val) == len(plan.folds[0])
        assert len(test) == len(plan.test_indices)
        # stats come from the whole training side (fit part plus fold 0) ...
        stacked = np.concatenate([w.values for w in train + val], axis=1)
        assert np.allclose(stacked.mean(axis=1), 0.0, atol=1e-9)
        assert np.allclose(stacked.std(axis=1), 1.0, atol=1e-9)
        # ... and never from the test side
        shifted = list(windows)
        for i in plan.test_indices:
            w = windows[i]
            shifted[i] = CdgdWindow(w.transformer_id, w.start_day, w.values * 100.0 + 7.0, w.label)
        train_b, val_b, _ = fold0_sets(shifted, plan)
        for a, b in zip(train + val, train_b + val_b):
            assert np.array_equal(a.values, b.values)

    def test_plan_round_trips_json(self):
        plan = split(self._windows(10, 4), "sample", 0.8, seed=7)
        from mcdc.data import SplitPlan

        back = SplitPlan.from_json(plan.to_json())
        assert back == plan


class TestKfold:
    def test_four_equal_folds(self):
        folds = kfold(list(range(100)), 4, seed=8)
        assert [len(f) for f in folds] == [25, 25, 25, 25]

    def test_partition(self):
        indices = list(range(37))
        folds = kfold(indices, 4, seed=9)
        flat = sorted(i for f in folds for i in f)
        assert flat == indices
        sizes = sorted(len(f) for f in folds)
        assert sizes[-1] - sizes[0] <= 1

    def test_k_one_rejected(self):
        with pytest.raises(DatasetError, match="validation"):
            kfold(list(range(10)), 1, seed=10)

    def test_k_exceeding_size_rejected(self):
        with pytest.raises(DatasetError):
            kfold(list(range(3)), 4, seed=11)


class TestSynthGenerate:
    def test_same_seed_bit_identical(self):
        recipe = load_recipe("default")
        a = synth_generate(recipe, seed=12, transformers_per_class=2, length_range=(10, 14))
        b = synth_generate(recipe, seed=12, transformers_per_class=2, length_range=(10, 14))
        for x, y in zip(a, b):
            assert x.transformer_id == y.transformer_id
            assert np.array_equal(x.readings, y.readings)

    def test_shapes_and_nonnegativity(self):
        recipe = load_recipe("default")
        series = synth_generate(recipe, seed=13, transformers_per_class=1, length_range=(20, 20))
        assert len(series) == 7
        for s in series:
            assert s.readings.shape == (5, 20)
            assert np.all(s.readings >= 0.0)

    def test_empty_class_set_rejected(self):
        with pytest.raises(RecipeError, match="empty class set"):
            synth_generate({"classes": {}}, seed=14)

    def test_noise_free_windows_nearest_centroid_perfect(self):
        recipe = load_recipe("default")
        series = synth_generate(recipe, seed=15, noise_level=0.0)
        windows = [w for s in series for w in overlapping_sample(s, 12)]
        feats = np.array([w.values.mean(axis=1) for w in windows])
        labels = np.array([w.label.code for w in windows])
        centroids = np.array([feats[labels == c].mean(axis=0) for c in range(7)])
        dists = ((feats[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(dists.argmin(axis=1), labels)

    def test_default_recipe_window_budget(self):
        series = synth_generate(load_recipe("default"), seed=16)
        windows = [w for s in series for w in overlapping_sample(s, 12)]
        assert len(windows) >= 1400
