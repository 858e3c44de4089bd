"""Benchmark launcher: one seeded workload, measured for a fixed time.

    python3 perfbench/run.py --workload train-conv --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src. With
--trace 0 the last stdout line holds the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced run. Lines before it give the
machine, every metric by name and unit, and (traced) the span summary.
"""

from __future__ import annotations

import os

# Pinned before numpy loads. Every matrix here is at most 64 x 60 and one
# caller drives the program, so a second BLAS thread has no work to share
# and only adds scheduling noise; 1 is within any machine's nproc.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from stats import Ledger, Reference, median, percentile, tail_percentile  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
clock = time.perf_counter

SETUP_REPEATS = 10  # set-ups per run
MIN_UNITS = 2  # a same-seed repeat is what the rerun check compares
MIN_ROUNDS = 20  # probe rounds per run, however slow the units were
# Closed-loop predict_proba calls per run; with the nearest-rank rule p99
# then has 12 samples beyond it (10 is the fewest accepted).
SCORE_CALLS = 1200
SCORE_BURST = 12  # calls per probe round; what is left runs at the end
# The reference loop every gated time is divided by. It is part of the
# benchmark's definition: changing it changes every ratio.
REFERENCE_SEED = 0
REFERENCE_ITERATIONS = 40
# setup_s is its ratio to the reference loop times this: the loop's median
# time on the reference machine (README, "Machine and threads"), so that
# setup_s reads in that machine's seconds.
REFERENCE_NOMINAL_S = 0.5e-3

# Per-layer metrics every workload exercises. Trace metrics are seconds
# spent in the layer by one set-up plus one unit.
TRACE_SELF = ("tensor.conv1d", "attention.cnn_attention", "evaluation.evaluate_model")
TRACE_TOTAL = (
    "evaluation.roc_auc",
    "evaluation.confusion",
    "data.load_series",
    "data.interpolate_gaps",
    "data.overlapping_sample",
    "synth.synth_generate",
)
# Layers only some workloads call: printed, not in the result line.
TRACE_SELF_SOME = ("tensor.backward", "training.evaluate_windows", "training.batch_loss", "attention.matrix_attention")
TRACE_TOTAL_SOME = ("evaluation.wilcoxon_rank_sum", "data.split", "checkpoint.load_checkpoint")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("train-conv", "eval-fleet", "compare-small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> float:
    """Import mcdc from this checkout's src/ and return the seconds it took."""
    sys.path.insert(0, str(SRC))
    started = clock()
    import mcdc

    elapsed = clock() - started
    if not Path(mcdc.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"mcdc was imported from {mcdc.__file__}, not from {SRC}")
    return elapsed


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mcdc").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def machine(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def reference_loop(np):
    """A fixed loop of the kind of work mcdc does per window (small matmul,
    softmax and convolution with numpy, driven from Python), which uses no
    mcdc code: a function that runs it and returns its seconds."""
    rng = np.random.default_rng(REFERENCE_SEED)
    a, b, kernel = rng.random((12, 5)), rng.random((5, 12)), rng.random(6)

    def measure() -> float:
        started = clock()
        for _ in range(REFERENCE_ITERATIONS):
            m = a @ b
            e = np.exp(m - m.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            np.convolve(p[0], kernel, mode="same").sum()
        return clock() - started

    return measure


def timed(fn) -> float:
    started = clock()
    fn()
    return clock() - started


class ScoreLoop:
    """Closed loop, one caller: each predict_proba call is sent when the
    previous one has returned. It runs in bursts of SCORE_BURST calls, one
    per probe round, and sends what is left of SCORE_CALLS after the last
    round."""

    def __init__(self, np, seed: int, ledger):
        self.np = np
        self.rng = np.random.default_rng([seed, 2])
        self.ledger = ledger
        self.order = None
        self.sent = 0
        self.latencies: list[float] = []
        self.ratios: list[float] = []  # latency / reference bracket, per call

    def burst(self, wl, calls: int, reference) -> None:
        """Send `calls` calls, each followed by a run of the reference loop."""
        np, model, windows = self.np, wl.score_model, wl.score_windows
        if self.order is None:
            self.order = self.rng.permutation(len(windows))
        for _ in range(calls):
            x = windows[self.order[self.sent % len(self.order)]].values
            self.sent += 1
            started = clock()
            try:
                probs = model.predict_proba(x)
            except Exception as exc:  # a failed call counts against failed_ratio
                self.ledger.fail(f"predict_proba raised {exc!r}")
                continue
            latency = clock() - started
            self.latencies.append(latency)
            self.ratios.append(latency / reference.bracket())
            self.ledger.check(
                bool(np.all(np.isfinite(probs))) and abs(float(probs.sum()) - 1.0) <= 1e-6,
                f"probability row {probs!r} is not finite or does not sum to 1",
            )

    def check_predict(self, wl) -> None:
        for w in wl.score_windows[:64]:
            self.ledger.check(
                wl.score_model.predict(w.values).code == int(self.np.argmax(wl.score_model.predict_proba(w.values))),
                "predict() disagrees with argmax(predict_proba())",
            )


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()
    import numpy as np

    import golden
    import layers
    import workloads
    from tracing import Tracer, summarize

    ledger = Ledger()
    reference = Reference(reference_loop(np))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        wl = workloads.WORKLOADS[args.workload](args.seed, work, ledger)
        # One set-up and MIN_UNITS units (a traced run traces the second),
        # then probe rounds until the deadline: until SETUP_REPEATS have
        # run, one set-up; then a scoring burst, one evaluate_model chunk,
        # one step and one ingest. Each set-up and probe call lies between
        # two runs of the reference loop (README, "Why the gated times are
        # ratios").
        setups, setup_rel = [], []

        def timed_setup():
            reference.start()
            setups.append(timed(wl.setup))
            setup_rel.append(setups[-1] / reference.bracket())

        timed_setup()
        deadline = clock() + args.seconds
        setup_tracer = unit_tracer = None
        if args.trace:
            with Tracer().install() as setup_tracer:
                wl.setup()
            unit_tracer = Tracer()
        fingerprints, plain, traced = [], [], []
        for i in range(MIN_UNITS):
            if unit_tracer and i % 2:
                with unit_tracer.install():
                    traced.append(timed(wl.unit))
            else:
                plain.append(timed(wl.unit))
            fingerprints.append(wl.fingerprint())
        for fp in fingerprints[1:]:
            ledger.check(fp == fingerprints[0], f"{args.workload}: a same-seed repeat or a traced unit changed the outputs")
        scoring = ScoreLoop(np, args.seed, ledger)
        chunks, steps, ingests = [], [], []
        eval_rel, step_rel, ingest_rel = [], [], []
        while len(steps) < MIN_ROUNDS or clock() < deadline:
            if len(setups) < SETUP_REPEATS:
                timed_setup()
            reference.start()
            scoring.burst(wl, min(SCORE_BURST, SCORE_CALLS - scoring.sent), reference)
            chunks.append(wl.evaluate_chunk())
            eval_rel.append(chunks[-1][0] * reference.bracket() / chunks[-1][1])
            steps.append(timed(wl.step))
            step_rel.append(steps[-1] / reference.bracket())
            ingests.append(timed(wl.ingest))
            ingest_rel.append(wl.rows * reference.bracket() / ingests[-1])
        while len(setups) < SETUP_REPEATS:
            timed_setup()
        reference.start()
        scoring.burst(wl, SCORE_CALLS - scoring.sent, reference)
        scoring.check_predict(wl)
        golden.check(ledger)
        stage = layers.stage_metrics(wl.model, wl.score_windows) if args.trace else {}

    latencies = scoring.latencies
    tail = tail_percentile(len(latencies))
    if tail != 99.0:
        ledger.fail(f"{len(latencies)} latency samples do not support p99")
    # Gated times are medians of ratios to the reference loop: see README,
    # "Why the gated times are ratios".
    end_to_end = {
        "setup_s": REFERENCE_NOMINAL_S * median(setup_rel),
        "step_ref": median(step_rel),
        "eval_windows_per_ref": median(eval_rel),
        "score_p50_ref": percentile(scoring.ratios, 50),
        "ingest_rows_per_ref": median(ingest_rel),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lines = [
        "machine " + json.dumps(machine(np), sort_keys=True),
        f"run workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"setups={len(setups)} units={len(plain)}+{len(traced)} traced rounds={len(steps)} "
        f"score_samples={len(latencies)} tail=p{tail}",
    ]
    if not args.trace:
        reported = dict(end_to_end)
        reported.update(
            score_p99_ref=percentile(scoring.ratios, 99),
            reference_ms=1e3 * median(reference.times),
            setup_raw_s=median(setups),
            import_s=import_s,
            step_ms=1e3 * median(steps),
            eval_windows_per_s=median(n / s for n, s in wl.eval_runs),
            probe_eval_windows_per_s=median(n / s for n, s in chunks),
            score_p50_ms=1e3 * percentile(latencies, 50),
            score_p99_ms=1e3 * percentile(latencies, 99),
            ingest_rows_per_s=wl.rows / median(ingests),
            study_s=median(plain),
        )
        if wl.train_runs:
            reported["train_windows_per_s"] = median(n / s for n, s in wl.train_runs)
        if wl.accuracies:
            reported["test_accuracy"] = median(wl.accuracies)
        reported["failed_ratio"] = ledger.failed_ratio
        lines += [f"metric {name} {value!r} {metric_unit(name)}" for name, value in reported.items()]
        metrics = {name: {"value": value, "unit": metric_unit(name)} for name, value in end_to_end.items()}
    else:
        setup_sum = summarize(setup_tracer.spans)
        unit_sum = summarize(unit_tracer.spans)

        def per_pass(name, key):
            return setup_sum.get(name, {}).get(key, 0.0) + unit_sum.get(name, {}).get(key, 0.0) / len(traced)

        layer = dict(stage)
        for name in TRACE_SELF:
            layer[f"{name}.self_s"] = per_pass(name, "self_s")
        for name in TRACE_TOTAL:
            layer[f"{name}.s"] = per_pass(name, "total_s")
        layer["data.normalize.s"] = per_pass("data.normalize", "self_s") + per_pass("data.NormStats.apply", "self_s")
        layer["trace.overhead_s"] = min(traced) - min(plain)
        some = {f"{n}.self_s": per_pass(n, "self_s") for n in TRACE_SELF_SOME}
        some.update({f"{n}.s": per_pass(n, "total_s") for n in TRACE_TOTAL_SOME})
        lines.append(
            f"trace untraced_unit_s={min(plain)!r} traced_unit_s={min(traced)!r} "
            f"overhead_pct={100.0 * layer['trace.overhead_s'] / min(plain):.2f} spans_per_unit={len(unit_tracer.spans) / len(traced):.0f}"
        )
        for name, row in sorted(unit_sum.items()):
            lines.append(
                f"span {name} calls_per_unit={row['calls'] / len(traced):.1f} "
                f"self_s={row['self_s'] / len(traced)!r} total_s={row['total_s'] / len(traced)!r}"
            )
        lines += [f"layer {name} {value!r} {metric_unit(name)}" for name, value in layer.items()]
        lines += [f"layer {name} {value!r} s{'' if value else '  (not called by this workload)'}" for name, value in some.items()]
        lines.append(f"metric failed_ratio {ledger.failed_ratio!r} fraction")
        metrics = {name: {"value": value, "unit": metric_unit(name)} for name, value in layer.items()}
    for what in ledger.failures:
        print(f"perfbench: FAILED {what}", file=sys.stderr)
    print("\n".join(lines))
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def metric_unit(name: str) -> str:
    for suffix, unit in (
        ("windows_per_ref", "windows/ref"),
        ("rows_per_ref", "rows/ref"),
        ("_ref", "ref"),
        ("windows_per_s", "windows/s"),
        ("rows_per_s", "rows/s"),
        ("_mb", "MB"),
        ("ms", "ms"),
        ("_s", "s"),
        (".s", "s"),
    ):
        if name.endswith(suffix):
            return unit
    return "fraction" if name in ("test_accuracy", "failed_ratio") else "count"


if __name__ == "__main__":
    sys.exit(main())
