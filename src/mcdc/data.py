"""Gas-series ingestion and the window pipeline: CSV load, gap interpolation,
overlapping sampling, train-stat normalization, sample/facility splits and
k-fold assignment.

CSV schema (one row per transformer-day):
    transformer_id,voltage_kv,condition,day,h2,ch4,c2h6,c2h4,c2h2
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import reprlib
import warnings
from dataclasses import dataclass, field

import numpy as np

from .conditions import CONDITIONS, ConditionLabel, by_name
from .model import check_fields, list_of, one_of, read_object, setting

__all__ = [
    "CSV_HEADER",
    "CdgdWindow",
    "DatasetError",
    "GasSeries",
    "NormStats",
    "SplitPlan",
    "fold0_sets",
    "fold_sets",
    "interpolate_gaps",
    "kfold",
    "load_series",
    "normalize",
    "overlapping_sample",
    "split",
    "write_series_csv",
]

logger = logging.getLogger(__name__)

GAS_COLUMNS = ("h2", "ch4", "c2h6", "c2h4", "c2h2")
CSV_HEADER = ("transformer_id", "voltage_kv", "condition", "day") + GAS_COLUMNS
VOLTAGE_LEVELS = (35, 110, 220, 500)
FACILITY_RETRIES = 1000  # shuffles a facility split tries before giving up
SPLIT_MODES = ("sample", "facility")
FRACTION = ("in (0, 1)", lambda v: 0 < v < 1)  # the rule a train_fraction meets, wherever it is held


class DatasetError(ValueError):
    """Raised for malformed dataset files or unsatisfiable split requests."""


@dataclass(eq=False)
class GasSeries:
    """Daily concentrations of the five gases for one transformer."""

    transformer_id: str
    voltage_kv: int
    condition: ConditionLabel
    days: np.ndarray  # strictly increasing ints, shape (L,)
    readings: np.ndarray  # ppm, shape (5, L), rows ordered as GAS_COLUMNS

    def __post_init__(self):
        self.days = np.asarray(self.days, dtype=np.int64)
        self.readings = np.asarray(self.readings, dtype=np.float64)
        if self.readings.shape != (len(GAS_COLUMNS), self.days.size):
            raise DatasetError(
                f"{self.transformer_id}: readings shape {self.readings.shape} "
                f"!= (5, {self.days.size})"
            )
        if (self.days[1:] <= self.days[:-1]).any():
            raise DatasetError(f"{self.transformer_id}: days not strictly increasing")
        r = self.readings
        if not ((r >= 0.0) & (r < np.inf)).all():  # nan fails both tests
            kind = "non-finite" if not np.isfinite(r).all() else "negative"
            raise DatasetError(f"{self.transformer_id}: {kind} concentration")


@dataclass(eq=False)
class CdgdWindow:
    """One fixed-length training sample cut from a series."""

    transformer_id: str
    start_day: int
    values: np.ndarray  # shape (5, T)
    label: ConditionLabel


# One CSV row as numpy's text reader parses it; ids and conditions stay str.
_ROW_DTYPE = np.dtype(
    [
        ("tid", object),
        ("voltage", np.int64),
        ("condition", object),
        ("day", np.int64),
        ("gases", np.float64, (len(GAS_COLUMNS),)),
    ]
)
_CONDITION_CODES = {c.name: c.code for c in CONDITIONS}
_DAY_MIN, _DAY_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def load_series(path) -> list[GasSeries]:
    """Parse a dataset CSV into per-transformer series, sorted by day.

    Series come in the order of each transformer's first row. Quoting follows
    Python's csv module, blank lines are skipped and `#` is data. The body is
    parsed in one pass of numpy's text reader and checked on whole columns. A
    file that this reader or a check rejects is read again row by row
    (_load_series_rows), so a parse problem raises DatasetError naming the
    offending line, and spellings that int() and float() take but numpy does
    not (`1_000`, non-ASCII digits) load as they always have. A day beyond
    int64 raises DatasetError. An empty file yields an empty list.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            return []
        rows = None
        if tuple(h.strip() for h in header) == CSV_HEADER:
            try:
                # any warning (an empty body, or a deprecated float-as-int
                # parse in older numpy) sends the file to the row reader
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    rows = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=1, dtype=_ROW_DTYPE)
            except (ValueError, OverflowError, Warning):
                pass
    series = None if rows is None else _bulk_series(rows)
    return _load_series_rows(path) if series is None else series


def _bulk_series(rows: np.ndarray) -> list[GasSeries] | None:
    """The series of parsed rows, or None if any row fails a check that
    _load_series_rows makes."""
    tids, spelt_conditions = rows["tid"].tolist(), rows["condition"].tolist()
    ids: dict[str, int] = {}  # stripped id -> code, in first-row order
    code_of = {t: ids.setdefault(t.strip(), len(ids)) for t in dict.fromkeys(tids)}
    condition_of = {c: _CONDITION_CODES.get(c.strip(), -1) for c in dict.fromkeys(spelt_conditions)}
    code = np.fromiter(map(code_of.__getitem__, tids), np.int64, len(tids))
    condition = np.fromiter(map(condition_of.__getitem__, spelt_conditions), np.int64, len(tids))
    voltage, day = rows["voltage"], rows["day"]
    first = np.unique(code, return_index=True)[1]  # each id's first row
    if (voltage != voltage[first][code]).any() or (condition != condition[first][code]).any():
        return None  # a row disagrees with its id's first row
    # so the first rows alone need a known condition and voltage level
    voltages, conditions = voltage[first].tolist(), condition[first].tolist()
    if -1 in conditions or not set(voltages) <= set(VOLTAGE_LEVELS):
        return None
    order = np.lexsort((day, code))
    code, day, readings = code[order], day[order], rows["gases"][order]
    if not ((readings >= 0.0) & (readings < np.inf)).all():
        return None
    if ((code[1:] == code[:-1]) & (day[1:] == day[:-1])).any():  # duplicate (id, day)
        return None
    ends = np.cumsum(np.bincount(code)).tolist()
    return [
        GasSeries(tid, v, CONDITIONS[c], day[lo:hi], readings[lo:hi].T)
        for tid, v, c, lo, hi in zip(ids, voltages, conditions, [0] + ends[:-1], ends)
    ]


def _load_series_rows(path) -> list[GasSeries]:
    """load_series one csv row at a time, naming the first bad line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return []
        if tuple(h.strip() for h in header) != CSV_HEADER:
            bad = [h for h in header if h.strip() not in CSV_HEADER]
            raise DatasetError(
                f"{path}: line 1: unexpected columns {bad or header}, "
                f"expected {','.join(CSV_HEADER)}"
            )
        rows: dict[str, dict] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise DatasetError(f"{path}: line {lineno}: expected {len(CSV_HEADER)} fields, got {len(row)}")
            tid = row[0].strip()
            try:
                voltage = int(row[1])
                condition = by_name(row[2].strip())
                day = int(row[3])
                gases = [float(v) for v in row[4:]]
            except ValueError as exc:
                raise DatasetError(f"{path}: line {lineno}: {exc}") from None
            if not _DAY_MIN <= day <= _DAY_MAX:
                raise DatasetError(f"{path}: line {lineno}: day {day} outside int64")
            if voltage not in VOLTAGE_LEVELS:
                raise DatasetError(f"{path}: line {lineno}: voltage {voltage} not in {VOLTAGE_LEVELS}")
            for name, value in zip(GAS_COLUMNS, gases):
                if not 0.0 <= value < math.inf:
                    kind = "negative" if math.isfinite(value) else "non-finite"
                    raise DatasetError(f"{path}: line {lineno}: {kind} {name} concentration {value}")
            entry = rows.setdefault(tid, {"voltage": voltage, "condition": condition, "days": {}})
            if entry["voltage"] != voltage:
                raise DatasetError(f"{path}: line {lineno}: conflicting voltage for transformer {tid}")
            if entry["condition"] != condition:
                raise DatasetError(f"{path}: line {lineno}: conflicting condition for transformer {tid}")
            if day in entry["days"]:
                raise DatasetError(f"{path}: line {lineno}: duplicate day {day} for transformer {tid}")
            entry["days"][day] = gases

    series = []
    for tid, entry in rows.items():
        days = np.array(sorted(entry["days"]))
        readings = np.array([entry["days"][d] for d in days]).T
        series.append(GasSeries(tid, entry["voltage"], entry["condition"], days, readings))
    return series


def write_series_csv(series: list[GasSeries], path) -> None:
    """Write series in the load_series schema, sorted by transformer id.

    The bytes are those of a csv.writer (excel dialect) row loop: fields
    quoted only where QUOTE_MINIMAL needs it, every float as its repr (so
    values reload exactly) and every line ended by "\r\n". csv.writer writes
    the header and each series' id,voltage,condition prefix, so ids are
    quoted as before. A day and five readings never need quotes, so each
    series' body rows are then one string join.
    """
    cell = io.StringIO()
    prefix_writer = csv.writer(cell)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(CSV_HEADER)
        for s in sorted(series, key=lambda s: s.transformer_id):
            cell.seek(0)
            cell.truncate()
            # the empty last field leaves the prefix's closing comma
            prefix_writer.writerow([s.transformer_id, s.voltage_kv, s.condition.name, ""])
            prefix = cell.getvalue()[: -len("\r\n")]
            fh.write("".join(
                f"{prefix}{day},{','.join(map(repr, gases))}\r\n"
                for day, gases in zip(s.days.tolist(), s.readings.T.tolist())
            ))


def interpolate_gaps(series: GasSeries) -> GasSeries:
    """Fill missing interior days by per-channel linear interpolation.

    The observed day range is kept as-is; nothing is extrapolated beyond it.
    Applying the fill twice equals applying it once.
    """
    if series.days.size < 2:
        raise DatasetError(
            f"{series.transformer_id}: need at least 2 observed days to interpolate, "
            f"got {series.days.size}"
        )
    full_days = np.arange(series.days[0], series.days[-1] + 1)
    if full_days.size == series.days.size:
        return series
    readings = np.vstack([np.interp(full_days, series.days, row) for row in series.readings])
    return GasSeries(series.transformer_id, series.voltage_kv, series.condition, full_days, readings)


def overlapping_sample(series: GasSeries, window_len: int) -> list[CdgdWindow]:
    """Cut stride-1 overlapping windows from a contiguous series.

    A series shorter than the window yields no samples (logged, not an error).
    """
    if series.days.size > 1 and np.any(np.diff(series.days) != 1):
        raise DatasetError(f"{series.transformer_id}: series has gaps, interpolate first")
    length = series.days.size
    if length < window_len:
        logger.info(
            "series %s (length %d) shorter than window %d, skipped",
            series.transformer_id,
            length,
            window_len,
        )
        return []
    # one copy of every window, (n, 5, T), from a strided view in which
    # window i starts at column i (sliding_window_view costs 3x as much per call)
    r = series.readings
    step, row = r.strides[1], r.strides[0]
    n = length - window_len + 1
    cut = np.lib.stride_tricks.as_strided(r, shape=(n, r.shape[0], window_len), strides=(step, row, step)).copy()
    return [
        CdgdWindow(series.transformer_id, day, values, series.condition)
        for day, values in zip(series.days.tolist(), cut)
    ]


_FIVE_FINITE = (("5 numbers", lambda v: list_of(v, 5, int, float)), ("finite", lambda v: all(map(math.isfinite, v))))


@dataclass(frozen=True, eq=False)
class NormStats:
    """Per-channel z-score statistics, computed from training windows only.
    Frozen, with read-only arrays, so the operands apply keeps stay true."""

    mean: np.ndarray = setting(*_FIVE_FINITE)
    std: np.ndarray = setting(*_FIVE_FINITE, ("> 0", lambda v: all(x > 0 for x in v)))  # normalize floors it at 1e-6

    def __post_init__(self):
        check_fields(self)
        for name in ("mean", "std"):
            array = np.array(getattr(self, name), dtype=np.float64)  # a copy, so the caller's array stays writable
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        # (5, T) -> mean and std, each expanded to (5, T); not a field, so
        # repr, to_dict and read_object never see it
        object.__setattr__(self, "_operands", {})

    def __reduce__(self):
        # a copy or an unpickled instance is built anew, so its arrays are read-only too
        return type(self), (self.mean, self.std)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """(values - mean[:, None]) / std[:, None], byte for byte, for one
        (5, T) window or a stack of them. numpy runs a ufunc with a broadcast
        (5, 1) operand through its buffered iterator, two to three times slower
        per window than its plain loop over same-shape operands, so mean and std
        are expanded to the window shape once per shape and the division
        runs in place."""
        shape = values.shape[-2:]
        operands = self._operands.get(shape)
        if operands is None:
            operands = [np.broadcast_to(a[:, None], shape).copy() for a in (self.mean, self.std)]
            self._operands[shape] = operands
        mean, std = operands
        out = np.subtract(values, mean)
        return np.divide(out, std, out=out)

    def scale_windows(self, windows: list[CdgdWindow]) -> list[CdgdWindow]:
        """New windows holding `windows`' values z-scored, all of them as one
        stack through apply; the given windows are left as they are."""
        scaled = self.apply(np.stack([w.values for w in windows])) if windows else []
        return [CdgdWindow(w.transformer_id, w.start_day, values, w.label) for w, values in zip(windows, scaled)]

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}


def normalize(train_windows: list[CdgdWindow], all_windows: list[CdgdWindow]) -> tuple[list[CdgdWindow], NormStats]:
    """New windows: every window z-scored (NormStats.scale_windows) with
    statistics taken from the training windows."""
    if not train_windows:
        raise DatasetError("cannot compute normalization stats from an empty training set")
    stacked = np.concatenate([w.values for w in train_windows], axis=1)
    stats = NormStats(stacked.mean(axis=1), np.maximum(stacked.std(axis=1), 1e-6))
    return stats.scale_windows(all_windows), stats


def fold_sets(windows: list, plan: SplitPlan, fold: int) -> tuple[list, list]:
    """Fold `fold`'s (train, val) windows: the plan's training side without
    the fold, and the fold itself."""
    held = set(plan.folds[fold])
    return [windows[i] for i in plan.train_indices if i not in held], [windows[i] for i in plan.folds[fold]]


def fold0_sets(windows: list[CdgdWindow], plan: SplitPlan) -> tuple[list, list, list]:
    """(train, val, test) windows: fold 0's fold_sets and the test side, all
    z-scored with the statistics of the plan's whole training side."""
    normalized, _ = normalize([windows[i] for i in plan.train_indices], windows)
    return (*fold_sets(normalized, plan, 0), [normalized[i] for i in plan.test_indices])


@dataclass
class SplitPlan:
    """Reproducible train/test assignment with k-fold labels over the train part."""

    mode: str = setting(one_of(SPLIT_MODES))
    seed: int
    train_fraction: float = setting(FRACTION)
    n_windows: int
    temporal_len: int
    train_indices: list[int] = setting(("non-empty", bool))
    test_indices: list[int] = setting(("non-empty", bool))
    folds: list[list[int]]
    train_transformers: list[str] = field(default_factory=list)
    test_transformers: list[str] = field(default_factory=list)

    def __post_init__(self):
        check_fields(self)
        for name in ("train_indices", "test_indices"):
            bad = [i for i in getattr(self, name) if not 0 <= i < self.n_windows]
            if bad:
                raise ValueError(f"{name} must be window indices in [0, {self.n_windows}), but holds {bad[0]}")
        # split() lists train_indices in ascending order, so sorting them is one linear pass
        if sorted(i for fold in self.folds for i in fold) != sorted(self.train_indices):
            raise ValueError(f"folds must partition train_indices, got {reprlib.repr(self.folds)}")

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SplitPlan":
        return read_object(cls, json.loads(text), "plan")


def kfold(indices: list[int], k: int, seed: int) -> list[list[int]]:
    """Shuffled near-equal partition (fold sizes differ by at most one)."""
    if k < 2:
        raise DatasetError(f"folds={k} leaves no validation part, need folds >= 2")
    if k > len(indices):
        raise DatasetError(f"folds={k} exceeds training size {len(indices)}")
    order = np.random.default_rng(seed).permutation(len(indices))
    return [np.sort(part).tolist() for part in np.array_split(np.asarray(indices)[order], k)]


def split(
    windows: list[CdgdWindow],
    mode: str,
    train_fraction: float = 0.8,
    seed: int = 0,
    k: int = 4,
) -> SplitPlan:
    """Deterministic train/test split, sample-wise or facility-wise.

    Facility mode keeps every transformer's windows on one side and requires
    each condition present in the dataset to appear on both sides, retrying
    the shuffle up to FACILITY_RETRIES times before failing. When every
    transformer carries one condition, a side with fewer transformers than
    there are conditions is refused before the first shuffle.
    """
    domain, within = FRACTION
    if not within(train_fraction):
        raise DatasetError(f"train_fraction must be {domain}, got {reprlib.repr(train_fraction)}")
    if not windows:
        raise DatasetError("cannot split an empty window list")
    t_len = windows[0].values.shape[1]
    rng = np.random.default_rng(seed)
    if mode == "sample":
        order = rng.permutation(len(windows))
        n_train = int(len(windows) * train_fraction)
        train_idx = sorted(order[:n_train].tolist())
        test_idx = sorted(order[n_train:].tolist())
        train_t, test_t = [], []
    elif mode == "facility":
        codes_of: dict[str, set[int]] = {}  # condition codes of each transformer's windows
        for w in windows:
            codes_of.setdefault(w.transformer_id, set()).add(w.label.code)
        ids = sorted(codes_of)
        conditions = set().union(*codes_of.values())
        n_train = int(len(ids) * train_fraction)
        if all(len(c) == 1 for c in codes_of.values()) and min(n_train, len(ids) - n_train) < len(conditions):
            raise DatasetError(
                f"facility split cannot cover the {len(conditions)} conditions on both sides: the train side gets "
                f"{n_train} and the test side {len(ids) - n_train} of the {len(ids)} transformers, one condition each"
            )
        train_c: set[int] = set()
        test_c: set[int] = set()
        for _ in range(FACILITY_RETRIES):
            order = rng.permutation(len(ids))
            train_t = sorted(ids[i] for i in order[:n_train])
            test_t = sorted(ids[i] for i in order[n_train:])
            train_c = set().union(*(codes_of[t] for t in train_t))
            test_c = set().union(*(codes_of[t] for t in test_t))
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
    else:
        raise DatasetError(f"unknown split mode {mode!r}, expected one of {SPLIT_MODES}")

    folds = kfold(train_idx, k, seed)
    return SplitPlan(
        mode=mode,
        seed=seed,
        train_fraction=train_fraction,
        n_windows=len(windows),
        temporal_len=t_len,
        train_indices=train_idx,
        test_indices=test_idx,
        folds=folds,
        train_transformers=train_t,
        test_transformers=test_t,
    )
