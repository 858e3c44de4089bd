"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workload eval-fleet --seeds 1-5

Runs every workload of BENCHMARK.json (or the one named), once per seed,
one run at a time. Each run prints one line with every end-to-end metric
by name and unit. Then, per workload and gated metric, it prints the median,
the quartile spread (Q3 - Q1) / median and the metric's bound. A spread
under a third of the bound is steady enough to compare two commits by.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> tuple[dict, list[str]]:
    """One benchmark run: its result object and its `metric` lines."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), [line.split(" ", 1)[1] for line in lines if line.startswith("metric ")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="defaults to every workload of BENCHMARK.json")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, help="defaults to run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            result, metric_lines = run_once(spec, workload, seed, seconds)
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} | "
                  + ", ".join(metric_lines), flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            spread = quartile_spread(series) if len(series) > 1 else float("nan")
            print(f"{workload:>14} {metric['name']:>20}  median={median(series):<12.5g} spread={spread:.4f}"
                  f"  bound={metric['bound']}  {'ok' if spread < metric['bound'] / 3 else 'WIDE'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
