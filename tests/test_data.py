"""Dataset pipeline: parsing, interpolation, windowing, splits, generator."""

import copy
import csv
import dataclasses
import io
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mcdc import data
from mcdc.conditions import CONDITIONS, by_name
from mcdc.data import (
    CSV_HEADER,
    FACILITY_RETRIES,
    VOLTAGE_LEVELS,
    CdgdWindow,
    DatasetError,
    GasSeries,
    NormStats,
    SplitPlan,
    fold0_sets,
    fold_sets,
    _load_series_rows,
    interpolate_gaps,
    kfold,
    load_series,
    normalize,
    overlapping_sample,
    split,
    write_series_csv,
)
from mcdc.pipeline import build_windows
from mcdc.synth import RecipeError, load_recipe, synth_generate
from reference_ops import invert, reference_write_series_csv


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

    @pytest.mark.parametrize(
        "days, cells, message",
        [
            (range(4), {(1, 2): -1.0}, "negative concentration"),
            (range(4), {(1, 2): -1.0, (4, 0): np.nan}, "non-finite concentration"),
            (range(4), {(0, 0): -0.0, (2, 3): 0.0}, None),
            ([1, 1, 2, 3], {}, "days not strictly increasing"),
            ([1, 3, 2, 4], {}, "days not strictly increasing"),
        ],
        ids=["negative", "negative-and-nan", "signed-zeros", "equal-days", "decreasing-days"],
    )
    def test_in_memory_series_checks(self, days, cells, message):
        readings = np.ones((5, 4))
        for cell, value in cells.items():
            readings[cell] = value
        if message is None:
            assert make_series(days=days, readings=readings).readings.tobytes() == readings.tobytes()
        else:
            with pytest.raises(DatasetError, match=f"^tx1: {message}$"):
                make_series(days=days, readings=readings)

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
            assert np.allclose(invert(stats, norm.values), orig.values, atol=1e-9)


class TestNormStats:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_apply_equals_the_broadcast_formula_byte_for_byte(self, data):
        """One window or a stack of 1 to 70, at T in {1, 8, 12, 48}, with
        shapes interleaved on one instance, against the (5, 1) broadcast."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        mean = rng.normal(size=5) * 10.0 ** rng.integers(-3, 7, size=5)
        mean[rng.random(5) < 0.2] = -0.0
        stats = NormStats(mean, np.maximum(rng.random(5) * 10.0 ** rng.integers(-6, 7, size=5), 1e-6))
        for _ in range(data.draw(st.integers(1, 6))):
            t_len = data.draw(st.sampled_from([1, 8, 12, 48]))
            n = data.draw(st.one_of(st.none(), st.integers(1, 70)))
            shape = (5, t_len) if n is None else (n, 5, t_len)
            values = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
            values[rng.random(shape) < 0.1] = 0.0
            values[rng.random(shape) < 0.1] = -0.0
            if data.draw(st.booleans()):
                values = np.asfortranarray(values)
            before = values.tobytes()
            got = stats.apply(values)
            assert got.tobytes() == ((values - stats.mean[:, None]) / stats.std[:, None]).tobytes()
            assert got.shape == shape and values.tobytes() == before

    def test_frozen_with_read_only_arrays(self):
        mean, std = np.arange(5.0), np.full(5, 2.0)
        stats = NormStats(mean, std)
        stats.apply(np.ones((3, 5, 4)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.mean = np.zeros(5)
        with pytest.raises(ValueError, match="read-only"):
            stats.std[0] = 1.0
        mean[0] = std[0] = 9.0  # the caller's arrays are not the instance's
        assert stats.to_dict() == {"mean": [0.0, 1.0, 2.0, 3.0, 4.0], "std": [2.0] * 5}
        assert repr(stats) == f"NormStats(mean={stats.mean!r}, std={stats.std!r})"
        for copied in (copy.copy(stats), copy.deepcopy(stats), pickle.loads(pickle.dumps(stats))):
            assert not copied.mean.flags.writeable and not copied.std.flags.writeable
            assert copied.to_dict() == stats.to_dict()
            assert copied.apply(np.ones((5, 4))).tobytes() == stats.apply(np.ones((5, 4))).tobytes()



@pytest.mark.parametrize(
    "make",
    [
        lambda: NormStats(np.arange(5.0), np.full(5, 2.0)),
        make_series,
        lambda: CdgdWindow("tx1", 0, np.ones((5, 4)), by_name("NC")),
    ],
    ids=["NormStats", "GasSeries", "CdgdWindow"],
)
def test_array_holders_compare_and_hash_by_identity(make):
    # a generated == over array fields would raise on two distinct instances
    x, y = make(), make()
    assert x == x and x != y and not x == y
    assert hash(x) == hash(x) and len({x, y}) == 2
    if isinstance(x, NormStats):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, "std", np.ones(5))


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

    def test_fold_sets_partition_the_training_side(self):
        windows = self._windows(10, 10)
        plan = split(windows, "sample", 0.8, seed=9)
        for fold in range(len(plan.folds)):
            train, val = fold_sets(windows, plan, fold)
            assert [id(w) for w in val] == [id(windows[i]) for i in plan.folds[fold]]
            assert len(train) + len(val) == len(plan.train_indices)
            assert {id(w) for w in train + val} == {id(windows[i]) for i in plan.train_indices}

    def test_scale_windows_leaves_its_input_alone(self):
        windows = self._windows(3, 4)
        before = [w.values.copy() for w in windows]
        stats = data.NormStats(np.arange(5.0), np.full(5, 2.0))
        scaled = stats.scale_windows(windows)
        assert all(np.array_equal(w.values, b) for w, b in zip(windows, before))
        assert all(np.array_equal(s.values, stats.apply(b)) for s, b in zip(scaled, before))
        assert stats.scale_windows([]) == []

    @pytest.mark.parametrize(
        "mode,train_fraction",
        [
            # it used to return a 220/54 plan on the stability recipe's 274 T = 8 windows
            ("sample", -0.2),
            # these two used to fail as "test_indices must be non-empty"
            ("sample", 1.0),
            ("sample", 1.5),
            # it used to report "the test side -7 of the 14 transformers"
            ("facility", 1.5),
            ("facility", 0.0),
        ],
    )
    def test_train_fraction_outside_the_open_unit_interval_refused(self, mode, train_fraction):
        with pytest.raises(DatasetError) as raised:
            split(self._windows(14, 4), mode, train_fraction, seed=1)
        assert str(raised.value) == f"train_fraction must be in (0, 1), got {train_fraction!r}"

    def test_plan_round_trips_json(self):
        plan = split(self._windows(10, 4), "sample", 0.8, seed=7)
        from mcdc.data import SplitPlan

        back = SplitPlan.from_json(plan.to_json())
        assert back == plan


def reference_facility_split(windows, train_fraction, seed, k):
    """The facility split as first written: both transformer sets rebuilt for
    every window on every shuffle."""
    rng = np.random.default_rng(seed)
    ids = sorted({w.transformer_id for w in windows})
    conditions = {w.label.code for w in windows}
    n_train = int(len(ids) * train_fraction)
    train_c, test_c = set(), set()
    for _ in range(FACILITY_RETRIES):
        order = rng.permutation(len(ids))
        train_t = sorted(ids[i] for i in order[:n_train])
        test_t = sorted(ids[i] for i in order[n_train:])
        train_c = {w.label.code for w in windows if w.transformer_id in set(train_t)}
        test_c = {w.label.code for w in windows if w.transformer_id in set(test_t)}
        if train_c == conditions and test_c == conditions:
            break
    else:
        missing = sorted((conditions - train_c) | (conditions - test_c))
        raise DatasetError(
            f"facility split cannot cover all conditions on both sides after "
            f"{FACILITY_RETRIES} shuffles; last missing condition codes: {missing}"
        )
    train_set = set(train_t)
    train_idx = [i for i, w in enumerate(windows) if w.transformer_id in train_set]
    test_idx = [i for i, w in enumerate(windows) if w.transformer_id not in train_set]
    return SplitPlan(
        "facility", seed, train_fraction, len(windows), windows[0].values.shape[1],
        train_idx, test_idx, kfold(train_idx, k, seed), train_t, test_t,
    )


class TestFacilitySplitReference:
    @pytest.mark.parametrize("recipe", ["default", "facility_shift", "stability"])
    @pytest.mark.parametrize("train_fraction", [0.5, 0.7, 0.8])
    def test_plans_match_the_reference_byte_for_byte(self, recipe, train_fraction):
        for seed in range(4):
            recipe_dict = load_recipe(recipe)
            series = synth_generate(recipe_dict, seed=seed, transformers_per_class=3 + seed, length_range=(10, 14))
            windows = build_windows(series, 8)
            try:
                expected = reference_facility_split(windows, train_fraction, seed, 4).to_json()
            except DatasetError as exc:
                with pytest.raises(DatasetError) as raised:
                    split(windows, "facility", train_fraction, seed=seed, k=4)
                n_ids = len({w.transformer_id for w in windows})
                n_train = int(n_ids * train_fraction)
                if min(n_train, n_ids - n_train) < len({w.label.code for w in windows}):
                    # a side with fewer transformers than conditions is refused
                    # before the first shuffle, naming the counts
                    assert f"the train side gets {n_train} and the test side {n_ids - n_train}" in str(raised.value)
                else:
                    assert str(raised.value) == str(exc)
                continue
            assert split(windows, "facility", train_fraction, seed=seed, k=4).to_json() == expected

    @pytest.mark.parametrize(
        "recipe,counts",
        [
            ("default", "the train side gets 22 and the test side 6 of the 28 transformers"),
            ("stability", "the train side gets 11 and the test side 3 of the 14 transformers"),
        ],
    )
    def test_too_few_transformers_per_side_refused_before_any_shuffle(self, recipe, counts):
        # it used to shuffle FACILITY_RETRIES times and then blame the last shuffle
        windows = build_windows(synth_generate(load_recipe(recipe), seed=7), 12)
        with mock.patch.object(data, "FACILITY_RETRIES", 0), pytest.raises(DatasetError) as raised:
            split(windows, "facility", 0.8, seed=7)
        expected = f"facility split cannot cover the 7 conditions on both sides: {counts}, one condition each"
        assert str(raised.value) == expected

    def test_feasible_recipe_split_unchanged(self):
        windows = build_windows(synth_generate(load_recipe("facility_shift"), seed=7), 12)
        expected = reference_facility_split(windows, 0.8, 7, 4).to_json()
        assert split(windows, "facility", 0.8, seed=7, k=4).to_json() == expected


def reference_overlapping_sample(series, window_len):
    """The window cut as first written: one slice copy per window."""
    return [
        CdgdWindow(series.transformer_id, int(series.days[start]),
                   series.readings[:, start:start + window_len].copy(), series.condition)
        for start in range(series.days.size - window_len + 1)
    ]


def reference_normalize(train_windows, all_windows):
    """Normalization as first written: one z-score per window."""
    stacked = np.concatenate([w.values for w in train_windows], axis=1)
    mean, std = stacked.mean(axis=1), np.maximum(stacked.std(axis=1), 1e-6)
    return [
        CdgdWindow(w.transformer_id, w.start_day, (w.values - mean[:, None]) / std[:, None], w.label)
        for w in all_windows
    ], mean, std


def _window_bytes(windows):
    return [
        (w.transformer_id, w.start_day, w.values.shape, w.values.tobytes(), w.label.code) for w in windows
    ]


class TestIngestReference:
    """The vectorised ingest against copies of the per-window loops it replaced."""

    @pytest.mark.parametrize("recipe", ["default", "facility_shift", "stability"])
    def test_windows_and_normalization_match_the_reference_byte_for_byte(self, recipe):
        series = synth_generate(load_recipe(recipe), seed=5, transformers_per_class=2, length_range=(8, 20))
        # zero and signed-zero readings, and a series exactly one window long
        series[0].readings[:, ::3] = 0.0
        series[0].readings[:, 1::5] = -0.0
        series.append(make_series("short", days=range(1, 9), readings=np.full((5, 8), 2.5)))
        for t_len in (1, 8, 12):
            windows, expected = [], []
            for s in series:
                windows += overlapping_sample(s, t_len)
                expected += reference_overlapping_sample(s, t_len)
            assert _window_bytes(windows) == _window_bytes(expected)
            assert all(w.values.flags.c_contiguous for w in windows)
            for train in (windows[::3], windows[:1], windows):
                normalized, stats = normalize(train, windows)
                ref, mean, std = reference_normalize(train, windows)
                assert _window_bytes(normalized) == _window_bytes(ref)
                assert stats.mean.tobytes() == mean.tobytes() and stats.std.tobytes() == std.tobytes()

    def test_csv_matches_the_reference_byte_for_byte(self, tmp_path):
        series = synth_generate(load_recipe("default"), seed=6, transformers_per_class=2)
        series.append(make_series("tiny", days=[3, 7], readings=[[0.0, 1e-300], [1e300, 0.1], [2.0, 3.5],
                                                                 [1 / 3, 7e-7], [123456789.125, 5e-324]]))
        write_series_csv(series, tmp_path / "new.csv")
        reference_write_series_csv(series, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _loaded(load, path):
    """Everything `load` returns, bytes and strides included, or its error."""
    try:
        series = load(path)
    except Exception as exc:  # whatever the row reader raises, the bulk path must raise too
        return type(exc).__name__, str(exc)
    return [
        (
            type(s.transformer_id), s.transformer_id, type(s.voltage_kv), s.voltage_kv, s.condition,
            s.days.dtype.str, s.days.shape, s.days.strides, s.days.tobytes(),
            s.readings.dtype.str, s.readings.shape, s.readings.strides, s.readings.tobytes(),
        )
        for s in series
    ]


def _load_both(path):
    """(load_series's result, _load_series_rows's, whether load_series fell back)."""
    with mock.patch.object(data, "_load_series_rows", wraps=_load_series_rows) as rows_reader:
        got = _loaded(load_series, path)
    return got, _loaded(_load_series_rows, path), rows_reader.called


# Spellings that int() and float() take and numpy's text reader does not.
ODD_SPELLINGS = ("underscore", "full-width")
# Layout changes that the row reader takes, and changes meant to make it raise.
LAYOUTS = ("pad", "blank-line")
BREAKS = (
    "nan", "inf", "negative", "space-line", "missing-field", "extra-field",
    "unknown-condition", "unknown-voltage", "voltage-conflict", "condition-conflict", "duplicate-day", "huge-day",
)
GAS_VALUES = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1 / 3, 1e300, 123456789.125]),
)
NUMERIC_COLUMNS = (1, 3, 4, 5, 6, 7, 8)
CONDITION_NAMES = [c.name for c in CONDITIONS]


@st.composite
def dataset_csvs(draw, change):
    """A valid dataset CSV as text, written with varied quoting and line ends,
    with up to three layout changes and then `change` (an odd spelling, a
    breaking change or None) made to one row; returns the text."""
    ids = draw(st.lists(st.text('ab#,"\n \t', min_size=1, max_size=5), min_size=1, max_size=4, unique_by=str.strip))
    rows = []
    for tid in ids:
        voltage, condition = draw(st.sampled_from(VOLTAGE_LEVELS)), draw(st.sampled_from(CONDITION_NAMES))
        for day in draw(st.lists(st.integers(-3, 40), min_size=1, max_size=5, unique=True)):
            gases = draw(st.lists(GAS_VALUES, min_size=5, max_size=5))
            rows.append([tid, str(voltage), condition, str(day)] + [repr(g) for g in gases])
    rows = [list(row) for row in draw(st.permutations(rows))]
    mutations = draw(st.lists(st.sampled_from(LAYOUTS), max_size=3)) + ([change] if change else [])
    after = {}  # row index -> extra lines written after it
    for kind in mutations:
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        col = draw(st.sampled_from(NUMERIC_COLUMNS))
        gas = draw(st.integers(4, 8))
        if kind == "underscore":
            digits = [k for k in range(1, len(row[col])) if row[col][k - 1 : k + 1].isdigit()]
            if digits:
                k = draw(st.sampled_from(digits))
                row[col] = row[col][:k] + "_" + row[col][k:]
        elif kind == "full-width":
            row[col] = row[col].translate(str.maketrans("0123456789", "０１２３４５６７８９"))
        elif kind == "huge-day":
            row[3] = str(draw(st.sampled_from([2**63, 2**63 + 7, 2**64 + 1, -(2**63) - 1])))
        elif kind == "nan":
            row[gas] = draw(st.sampled_from(["nan", "NaN", "-nan"]))
        elif kind == "inf":
            row[gas] = draw(st.sampled_from(["inf", "-Infinity", "1e400"]))
        elif kind == "negative":
            row[gas] = draw(st.sampled_from(["-0.5", "-1e-300", "-7"]))
        elif kind == "pad":  # the id, the condition and one number
            for c in (0, 2, col):
                row[c] = draw(st.sampled_from([" ", "\t", "  "])) + row[c] + draw(st.sampled_from(["", " ", "\t"]))
        elif kind in ("blank-line", "space-line"):
            after.setdefault(i, []).append("" if kind == "blank-line" else draw(st.sampled_from([" ", "\t", "  "])))
        elif kind == "missing-field":
            row.pop()
        elif kind == "extra-field":
            row.append(draw(st.sampled_from(["", "1"])))
        elif kind == "unknown-condition":
            row[2] = draw(st.sampled_from(["XX", "nc", "", "N C"]))
        elif kind == "unknown-voltage":
            row[1] = draw(st.sampled_from(["99", "0", "-110"]))
        elif kind == "voltage-conflict":
            row[1] = str(draw(st.sampled_from([v for v in VOLTAGE_LEVELS if str(v) != row[1]])))
        elif kind == "condition-conflict":
            row[2] = draw(st.sampled_from([c for c in CONDITION_NAMES if c != row[2]]))
        elif kind == "duplicate-day":
            same = [j for j, other in enumerate(rows) if j != i and other[0] == row[0]]
            if same:
                row[3] = rows[draw(st.sampled_from(same))][3]
            else:
                rows.append(list(row))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    out = io.StringIO()
    writer = csv.writer(out, quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])), lineterminator=newline)
    writer.writerow(CSV_HEADER)
    for i, row in enumerate(rows):
        writer.writerow(row)
        for line in after.get(i, []):
            out.write(line + newline)
    text = out.getvalue()
    return text.rstrip(newline) if draw(st.booleans()) else text


def _write_gappy(series, path, drop, seed):
    """Write series with a share of interior days removed, as the eval-fleet
    benchmark writes its fleet CSV."""
    rng = np.random.default_rng([seed, 1])
    gappy = []
    for s in series:
        keep = rng.random(s.days.size) >= drop
        keep[0] = keep[-1] = True
        gappy.append(GasSeries(s.transformer_id, s.voltage_kv, s.condition, s.days[keep], s.readings[:, keep]))
    write_series_csv(gappy, path)


class TestLoadSeriesBulk:
    """load_series's one-pass reader against the row reader it falls back on."""

    @pytest.mark.parametrize("recipe", ["default", "facility_shift", "stability"])
    def test_recipe_csvs_load_in_bulk_byte_for_byte(self, tmp_path, recipe):
        path = tmp_path / "d.csv"
        write_series_csv(synth_generate(load_recipe(recipe), seed=7), path)
        got, expected, fell_back = _load_both(path)
        assert not fell_back
        assert got == expected

    def test_gappy_fleet_csv_loads_in_bulk_byte_for_byte(self, tmp_path):
        path = tmp_path / "fleet.csv"
        _write_gappy(synth_generate(load_recipe("default"), seed=8, transformers_per_class=8), path, 0.1, 8)
        got, expected, fell_back = _load_both(path)
        assert not fell_back
        assert got == expected
        assert all(s.readings.strides == (8, 40) and s.days.strides == (8,) for s in load_series(path))

    @pytest.mark.parametrize("change", (None,) + ODD_SPELLINGS + BREAKS)
    @settings(max_examples=25, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_generated_csvs_match_the_row_reader(self, tmp_path, change, data):
        path = tmp_path / "d.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(data.draw(dataset_csvs(change)))
        got, expected, fell_back = _load_both(path)
        assert got == expected
        # a file the row reader loads is read in bulk unless it spells a number oddly
        if isinstance(expected, list) and change not in ODD_SPELLINGS:
            assert not fell_back

    @pytest.mark.parametrize(
        "body, message",
        [
            ("t0,1_10,NC,1,1,2,3,4,5\nt0,110,NC,2,1_000,2,3,4,5", None),
            ("t0,１１０,NC,１,1.5,2,3,4,5", None),
            ("t0,110,NC,1,1,2,3,4,5\n  \nt0,110,NC,2,1,2,3,4,5", "line 3: expected 9 fields, got 1"),
            ("t0,110,NC,1,1,2,3,4,5\nt0,220,NC,2,1,2,3,4,5", "line 3: conflicting voltage for transformer t0"),
            ("t0,110,NC,1,1,2,3,4,5\nt0,110,HD,2,1,2,3,4,5", "line 3: conflicting condition for transformer t0"),
            ("t0,110,NC,1,1,2,3,4,5\nt1,110,NC,1,1,2,3,4,5\nt0,110,NC,1,1,2,3,4,5", "line 4: duplicate day 1"),
            ("t0,110,NC,1,1,2,3,4,5\nt0,110,NC,2,1,2,3,4", "line 3: expected 9 fields, got 8"),
            ("t0,110,NC,1,1,2,nan,4,5", "line 2: non-finite c2h6 concentration nan"),
            ("t0,110,NC,1,1,2,3,4,1e400", "line 2: non-finite c2h2 concentration inf"),
            ("t0,110,NC,1,1,2,3,-0.5,5", "line 2: negative c2h4 concentration -0.5"),
            ("t0,110,NC,1.0,1,2,3,4,5", "line 2: invalid literal for int"),
            ("t0,110,NC,3,1,2,3,4,5\nt0,110,NC,9223372036854775808,1,2,3,4,5", "line 3: day 9223372036854775808 outside int64"),
            ("t0,110,NC,-9223372036854775809,1,2,3,4,5", "line 2: day -9223372036854775809 outside int64"),
        ],
    )
    def test_row_reader_names_the_line_or_takes_the_odd_spelling(self, tmp_path, body, message):
        path = tmp_path / "d.csv"
        path.write_text(csv_text(body.split("\n")))
        got, expected, fell_back = _load_both(path)
        assert fell_back and got == expected
        if message is None:
            assert isinstance(got, list) and got
        else:
            assert got[0] == "DatasetError" and message in got[1]

    def test_mixed_padding_of_ids_and_conditions_loads_in_bulk(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(csv_text([
            "T2 ,220,HD ,4,1,2,3,4,5",
            " T1,110, LT,2,1,2,3,4,5",
            "T1 ,110,LT ,1,1,2,3,4,5",
            "T1,110,LT,3,1,2,3,4,5",
            " T2,220,HD,5,1,2,3,4,5",
        ]))
        got, expected, fell_back = _load_both(path)
        assert not fell_back and got == expected
        assert [(s.transformer_id, s.condition.name, s.days.tolist()) for s in load_series(path)] == [
            ("T2", "HD", [4, 5]), ("T1", "LT", [1, 2, 3])
        ]

    def test_hash_quotes_padding_and_blank_lines_load_in_bulk(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(
            b'transformer_id,voltage_kv,condition,day,h2,ch4,c2h6,c2h4,c2h2\r\n'
            b'"t#1, ""a""", 110 ,\tNC ,2,1,2,3,4,5\r\n\r\n'
            b'"t#1, ""a""",110,NC,1,-0.0,2e-3,3,4,5e-324\r\n'
        )
        got, expected, fell_back = _load_both(path)
        assert not fell_back and got == expected
        (s,) = load_series(path)
        assert s.transformer_id == 't#1, "a"' and s.days.tolist() == [1, 2]
        assert s.readings[:, 0].tolist() == [-0.0, 2e-3, 3.0, 4.0, 5e-324]


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
        with pytest.raises(RecipeError, match=r"classes must be a non-empty object of condition profiles, got \{\}"):
            synth_generate({**load_recipe("default"), "classes": {}}, seed=14)

    @pytest.mark.parametrize(
        "overrides,error,message",
        [
            ({"seed": -1}, ValueError, r"seed must be an integer >= 0, got -1"),
            ({"seed": 1.5}, ValueError, r"seed must be an integer >= 0, got 1.5"),
            # it used to run as seed 1
            ({"seed": True}, ValueError, r"seed must be an integer >= 0, got True"),
            ({"transformers_per_class": 0}, RecipeError, r"transformers_per_class must be >= 1, got 0"),
            ({"transformers_per_class": 2.5}, RecipeError, r"transformers_per_class must be an integer, got 2.5"),
            ({"noise_level": -0.1}, RecipeError, r"noise_level must be >= 0, got -0.1"),
            ({"noise_level": float("nan")}, RecipeError, r"noise_level must be >= 0, got nan"),
            ({"length_range": (5, 4)}, RecipeError,
             r"length_range must be two integers \[lo, hi\] with 2 <= lo <= hi, got \(5, 4\)"),
        ],
    )
    def test_bad_override_refused_naming_the_field(self, overrides, error, message):
        with pytest.raises(error, match=message):
            synth_generate(load_recipe("stability"), **{"seed": 3, **overrides})

    def test_overrides_replace_the_recipe_fields(self):
        series = synth_generate(load_recipe("default"), seed=3, transformers_per_class=1, length_range=(9, 9))
        assert len(series) == 7 and {s.days.size for s in series} == {9}

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
