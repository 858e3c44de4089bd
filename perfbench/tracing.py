"""In-memory spans around calls into the program's public functions.

The tracer replaces a function at every name a caller looks it up by: each
`mcdc` module attribute bound to the same function object (so
`from .tensor import conv1d` in attention.py is covered as well as
`mcdc.tensor.conv1d`), or the class attribute for a method. Nothing under
src/ is edited; uninstall puts the original objects back.
"""

from __future__ import annotations

import functools
import sys
import time

# (span name, defining module, attribute or Class.method)
LAYERS = (
    ("tensor.conv1d", "mcdc.tensor", "conv1d"),
    ("tensor.cross_entropy", "mcdc.tensor", "cross_entropy"),
    ("tensor.backward", "mcdc.tensor", "backward"),
    ("attention.cnn_attention", "mcdc.attention", "cnn_attention"),
    ("attention.matrix_attention", "mcdc.attention", "matrix_attention"),
    ("model.forward", "mcdc.model", "McdcModel.forward"),
    ("model.embed", "mcdc.model", "McdcModel.embed"),
    ("model.temporal_interaction", "mcdc.model", "McdcModel.temporal_interaction"),
    ("model.channel_interaction", "mcdc.model", "McdcModel.channel_interaction"),
    ("model.project", "mcdc.model", "McdcModel.project"),
    ("baselines.forward", "mcdc.baselines", "AnnModel.forward"),
    ("training.train_fold", "mcdc.training", "train_fold"),
    ("training.batch_loss", "mcdc.training", "_batch_loss"),
    ("training.adam_step", "mcdc.training", "adam_step"),
    ("training.evaluate_windows", "mcdc.training", "evaluate_windows"),
    ("evaluation.compare", "mcdc.evaluation", "compare"),
    ("evaluation.evaluate_model", "mcdc.evaluation", "evaluate_model"),
    ("evaluation.confusion", "mcdc.evaluation", "confusion"),
    ("evaluation.metrics", "mcdc.evaluation", "metrics"),
    ("evaluation.roc_auc", "mcdc.evaluation", "roc_auc"),
    ("evaluation.wilcoxon_rank_sum", "mcdc.evaluation", "wilcoxon_rank_sum"),
    ("data.load_series", "mcdc.data", "load_series"),
    ("data.write_series_csv", "mcdc.data", "write_series_csv"),
    ("data.interpolate_gaps", "mcdc.data", "interpolate_gaps"),
    ("data.overlapping_sample", "mcdc.data", "overlapping_sample"),
    ("data.normalize", "mcdc.data", "normalize"),
    ("data.NormStats.apply", "mcdc.data", "NormStats.apply"),
    ("data.split", "mcdc.data", "split"),
    ("checkpoint.save_checkpoint", "mcdc.checkpoint", "save_checkpoint"),
    ("checkpoint.load_checkpoint", "mcdc.checkpoint", "load_checkpoint"),
    ("synth.synth_generate", "mcdc.synth", "synth_generate"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, end: float, parent: int):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index of the enclosing span, -1 at the top


class Tracer:
    """Records one Span per wrapped call; spans stay in memory until read."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def install(self, layers=LAYERS) -> "Tracer":
        for name, module_name, attr in layers:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._patch(owner, method, self.wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "mcdc" or mod_name.startswith("mcdc.")) and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapped)
        return self

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in kids if b > s.start and a < s.end]
        out.append((s.end - s.start) - covered(clipped))
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed self time, and inclusive time of the
    outermost spans of that name (a call nested in a same-named call is
    counted once, through its outermost ancestor)."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, selfs):
        row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            row["total_s"] += s.end - s.start
    return out
