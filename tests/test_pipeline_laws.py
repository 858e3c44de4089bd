"""Laws of the window pipeline, checked on generated inputs: the window-count
law, idempotent gap filling, facility-split disjointness and coverage, and
the normalization round trip."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mcdc.conditions import N_CONDITIONS, by_code
from mcdc.data import CdgdWindow, GasSeries, NormStats, interpolate_gaps, overlapping_sample, split
from reference_ops import invert

# Deterministic draws keep the suite reproducible; no example database is written.
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _series(days, seed, tid="tx"):
    rng = np.random.default_rng(seed)
    return GasSeries(tid, 110, by_code(0), days, rng.uniform(0.0, 500.0, size=(5, len(days))))


@SETTINGS
@given(length=st.integers(1, 40), window=st.integers(1, 20), start=st.integers(-5, 5), seed=st.integers(0, 2**16))
def test_gap_free_series_gives_max_of_l_minus_t_plus_one_and_zero_windows(length, window, start, seed):
    series = _series(np.arange(start, start + length), seed)
    windows = overlapping_sample(series, window)
    assert len(windows) == max(length - window + 1, 0)
    assert [w.start_day for w in windows] == list(range(start, start + len(windows)))


@SETTINGS
@given(
    days=st.lists(st.integers(0, 60), min_size=2, max_size=15, unique=True).map(sorted),
    seed=st.integers(0, 2**16),
)
def test_interpolate_gaps_is_idempotent(days, seed):
    once = interpolate_gaps(_series(days, seed))
    twice = interpolate_gaps(once)
    assert np.array_equal(once.days, np.arange(days[0], days[-1] + 1))
    assert once.days.tobytes() == twice.days.tobytes()
    assert once.readings.tobytes() == twice.readings.tobytes()


@SETTINGS
@given(
    per_condition=st.lists(st.integers(4, 7), min_size=2, max_size=N_CONDITIONS),
    windows_per=st.integers(1, 4),
    train_fraction=st.floats(0.4, 0.6),
    seed=st.integers(0, 2**16),
)
def test_facility_split_keeps_transformers_apart_and_every_condition_on_both_sides(
    per_condition, windows_per, train_fraction, seed
):
    # at least four transformers per condition and a middling fraction make
    # a covering shuffle likely enough that FACILITY_RETRIES always finds one
    rng = np.random.default_rng(seed)
    windows = [
        CdgdWindow(f"c{code}t{t}", i, rng.normal(size=(5, 4)), by_code(code))
        for code, count in enumerate(per_condition)
        for t in range(count)
        for i in range(windows_per)
    ]
    order = rng.permutation(len(windows))
    windows = [windows[i] for i in order]
    plan = split(windows, "facility", train_fraction, seed=seed, k=2)
    train_ids = {windows[i].transformer_id for i in plan.train_indices}
    test_ids = {windows[i].transformer_id for i in plan.test_indices}
    assert not train_ids & test_ids
    assert train_ids == set(plan.train_transformers) and test_ids == set(plan.test_transformers)
    assert sorted(plan.train_indices + plan.test_indices) == list(range(len(windows)))
    conditions = set(range(len(per_condition)))
    assert {windows[i].label.code for i in plan.train_indices} == conditions
    assert {windows[i].label.code for i in plan.test_indices} == conditions


@SETTINGS
@given(
    seed=st.integers(0, 2**16),
    scale=st.floats(1e-3, 1e4),
    cols=st.integers(1, 30),
    constant_channel=st.booleans(),
)
def test_norm_stats_invert_undoes_apply(seed, scale, cols, constant_channel):
    rng = np.random.default_rng(seed)
    mean = rng.uniform(-scale, scale, size=5)
    std = np.maximum(rng.uniform(0.0, scale, size=5), 1e-6)
    if constant_channel:
        std[2] = 1e-6
    stats = NormStats(mean, std)
    x = mean[:, None] + rng.normal(scale=scale, size=(5, cols))
    back = invert(stats, stats.apply(x))
    magnitude = max(1.0, np.abs(x).max(), np.abs(mean).max())
    assert np.abs(back - x).max() <= 1e-12 * magnitude
