"""Golden probabilities: fixed seed-built models scoring fixed windows.

Every benchmark run recomputes them and checks them against golden.json,
which `python3 perfbench/golden.py --write` regenerates from the current
program. A later change that alters what the models compute shows up as a
failed check, not only as a different timing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
MODEL_SEED = 20231011
DATA_SEED = 0
WINDOWS = 8
KINDS = ("mcdc", "mcdc-matrix", "ann")
# Far above float64 rounding noise from a reordered sum, far below any
# change in what the model computes.
TOLERANCE = 1e-12


def compute() -> dict[str, list[list[float]]]:
    import mcdc
    import mcdc.pipeline

    series = mcdc.synth_generate(mcdc.load_recipe("default"), seed=DATA_SEED, transformers_per_class=1)
    windows = mcdc.pipeline.build_windows(series, 12)
    picked = windows[:: len(windows) // WINDOWS][:WINDOWS]
    normalized, _ = mcdc.normalize(picked, picked)
    out = {}
    for kind in KINDS:
        model = mcdc.make_model(kind, 12, MODEL_SEED)
        out[kind] = [model.predict_proba(w.values).tolist() for w in normalized]
    return out


def check(ledger) -> None:
    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    actual = compute()
    for kind in KINDS:
        worst = max(
            abs(a - e) for row_a, row_e in zip(actual[kind], expected[kind]) for a, e in zip(row_a, row_e)
        )
        ledger.check(
            len(actual[kind]) == len(expected[kind]) and worst <= TOLERANCE,
            f"golden {kind}: probabilities differ by {worst:.3e}",
        )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python3 perfbench/golden.py --write")
    sys.path.insert(0, str(HERE.parent / "src"))
    GOLDEN_PATH.write_text(json.dumps(compute(), indent=1) + "\n", encoding="utf-8")
