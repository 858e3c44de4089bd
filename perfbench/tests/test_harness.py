"""Tests of the benchmark's own arithmetic, wrappers and accounting.

    python3 -m pytest perfbench/tests
"""

import math
import sys

import numpy as np
import pytest

from stats import Ledger, Reference, beyond, median, percentile, quartile_spread, tail_percentile
from tracing import LAYERS, Span, Tracer, covered, self_times, summarize


def test_covered_merges_overlapping_and_disjoint_intervals():
    assert covered([]) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == pytest.approx(5.0)
    assert covered([(0.0, 10.0), (2.0, 3.0)]) == pytest.approx(10.0)


def test_self_time_is_duration_minus_children_coverage():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 5.0, 0),  # overlaps a: the covered part counts once
        Span("c", 8.0, 12.0, 0),  # runs past its parent: clipped at 10
        Span("leaf", 1.5, 2.0, 1),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 2.0, 2.0 - 0.5, 3.0, 4.0, 0.5])


def test_summarize_counts_nested_same_name_once_in_total():
    spans = [
        Span("f", 0.0, 4.0, -1),
        Span("f", 1.0, 2.0, 0),
        Span("g", 5.0, 6.0, -1),
    ]
    rows = summarize(spans)
    assert rows["f"]["calls"] == 2
    assert rows["f"]["total_s"] == pytest.approx(4.0)
    assert rows["f"]["self_s"] == pytest.approx(3.0 + 1.0)
    assert rows["g"] == {"calls": 1, "self_s": pytest.approx(1.0), "total_s": pytest.approx(1.0)}


def test_tracer_records_parent_links_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(3) == 8
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("outer", 0.0, 3.0, -1),
        ("inner", 1.0, 2.0, 0),
    ]
    assert self_times(tracer.spans) == [2.0, 1.0]


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([7.0], 99) == 7.0
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (19, None), (20, None), (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (1200, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert beyond(n, expected) >= 10


def test_tail_percentile_boundary():
    assert beyond(1000, 99.0) == 10
    assert beyond(999, 99.0) == 9
    assert beyond(110, 90.0) == 11


def test_quartile_spread_matches_statistics_quantiles():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx((8.25 - 2.75) / 5.5)


def test_reference_bracket_is_the_mean_of_the_two_enclosing_runs():
    runs = iter([2.0, 4.0, 6.0, 1.0, 3.0])
    reference = Reference(lambda: next(runs))
    reference.start()
    assert reference.bracket() == 3.0
    assert reference.bracket() == 5.0
    reference.start()  # an untimed gap (a set-up) starts a new sequence
    assert reference.bracket() == 2.0
    assert reference.times == [2.0, 4.0, 6.0, 1.0, 3.0]


def test_ledger_failed_ratio_counts_ops_and_checks():
    ledger = Ledger()
    for _ in range(3):
        ledger.op()
    assert ledger.check(True, "fine")
    assert not ledger.check(False, "broken row")
    ledger.fail("raised")
    assert (ledger.attempted, ledger.failed) == (6, 2)
    assert ledger.failed_ratio == pytest.approx(2 / 6)
    assert ledger.failures == ["broken row", "raised"]


def test_empty_ledger_reports_total_failure():
    assert Ledger().failed_ratio == 1.0


def test_wrapper_is_transparent_for_results_exceptions_and_metadata():
    def f(a, b=2):
        """doc"""
        if a < 0:
            raise ValueError("negative")
        return a * b

    tracer = Tracer()
    g = tracer.wrap("f", f)
    assert g(3, b=4) == f(3, b=4)
    assert (g.__name__, g.__doc__, g.__wrapped__) == ("f", "doc", f)
    with pytest.raises(ValueError, match="negative"):
        g(-1)
    assert len(tracer.spans) == 2 and all(s.end >= s.start for s in tracer.spans)
    assert tracer._open == []


def _lookups():
    """Every object the tracer may replace, keyed by where callers find it."""
    found = {}
    for _, module_name, attr in LAYERS:
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(sys.modules[module_name], cls_name)
            found[(cls_name, method)] = cls.__dict__[method]
            continue
        defined = vars(sys.modules[module_name])[attr]
        for name, mod in list(sys.modules.items()):
            if (name == "mcdc" or name.startswith("mcdc.")) and vars(mod).get(attr) is defined:
                found[(name, attr)] = defined
    return found


def test_tracer_covers_every_lookup_site_and_restores_them():
    import mcdc  # noqa: F401
    import mcdc.pipeline  # noqa: F401

    before = _lookups()
    assert ("mcdc.attention", "conv1d") in before and ("mcdc.pipeline", "interpolate_gaps") in before
    tracer = Tracer().install()
    try:
        during = _lookups()
        assert during.keys() == before.keys()
        assert all(during[k].__wrapped__ is v for k, v in before.items())
    finally:
        tracer.uninstall()
    assert _lookups() == before


def test_traced_outputs_are_bit_identical():
    import mcdc
    import mcdc.pipeline
    import mcdc.training

    series = mcdc.synth_generate(mcdc.load_recipe("stability"), seed=3, transformers_per_class=1)
    windows = mcdc.pipeline.build_windows(series, 8)[:24]
    normalized, _ = mcdc.normalize(windows, windows)

    def run():
        model = mcdc.make_model("mcdc", 8, 5)
        mcdc.training.train_fold(model, normalized[:16], normalized[16:], mcdc.TrainConfig(seed=5, epochs=1, batch_size=8))
        return np.array([model.predict_proba(w.values) for w in normalized])

    plain = run()
    with Tracer().install() as tracer:
        traced = run()
    assert plain.tobytes() == traced.tobytes()
    names = {s.name for s in tracer.spans}
    assert {"tensor.conv1d", "tensor.backward", "training.adam_step", "model.forward"} <= names
    assert math.isfinite(sum(self_times(tracer.spans)))
