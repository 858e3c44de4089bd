"""Operator command line: gen-data, train, eval, compare, sweep, verify.

Every command takes an explicit seed (flag or config file); nothing falls
back to the wall clock, so reruns reproduce their artifacts byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from . import tensor
from .baselines import MODEL_KINDS
from .data import SPLIT_MODES
from .pipeline import (
    DEFAULT_SWEEP_GRID,
    PipelineError,
    RunConfig,
    run_compare,
    run_eval,
    run_gen_data,
    run_sweep,
    run_train,
)
from .training import TrainConfig


def _add_config_flags(parser):
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--seed", type=int, help="master seed (mandatory here or in the config)")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--data", dest="data_csv", help="dataset CSV (omit to generate synthetically)")
    parser.add_argument("--recipe", help="synthetic recipe name or path (default: default)")
    parser.add_argument("--model", choices=MODEL_KINDS, help="model kind")
    parser.add_argument("--temporal-len", type=int, dest="temporal_len")
    parser.add_argument("--heads", type=int)
    parser.add_argument("--kernel-temporal", type=int, dest="kernel_temporal")
    parser.add_argument("--kernel-channel", type=int, dest="kernel_channel")
    parser.add_argument("--split-mode", choices=SPLIT_MODES, dest="split_mode")
    parser.add_argument("--train-fraction", type=float, dest="train_fraction")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--batch-size", type=int, dest="batch_size")
    parser.add_argument("--lr0", type=float)
    parser.add_argument("--patience", type=int)
    parser.add_argument("--folds", type=int)


def _config_from_args(args) -> RunConfig:
    """The --config file, if any, under every config flag given: a flag named
    after a RunConfig field sets it, one named after a TrainConfig field
    merges into `train`."""
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    overrides["train"] = {
        f.name: getattr(args, f.name)
        for f in fields(TrainConfig)
        if f.name != "seed" and getattr(args, f.name, None) is not None
    }
    return RunConfig.load(args.config, overrides)


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcdc",
        description="Train and evaluate the gas time-series condition classifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset CSV")
    p.add_argument("--recipe", default="default")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--transformers-per-class", type=int, dest="transformers_per_class")
    p.add_argument("--noise", type=float, dest="noise_level")
    p.set_defaults(handler=_cmd_gen_data)

    p = sub.add_parser("train", help="full training pipeline with 4-fold cross-validation")
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a stored split plan")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--side", choices=["test", "train"], default="test")
    p.add_argument("--allow-train-eval", action="store_true")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("compare", help="repeat-train several model kinds on identical splits")
    _add_config_flags(p)
    p.add_argument("--models", default=",".join(MODEL_KINDS), help="comma-separated kinds")
    p.add_argument("--repetitions", type=int, default=10)
    p.add_argument("--modes", default="sample,facility", help="comma-separated split modes")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("sweep", help="accuracy grid over kernel sizes, heads and window length")
    _add_config_flags(p)
    for axis in DEFAULT_SWEEP_GRID:
        p.add_argument(f"--grid-{axis.replace('_', '-')}", type=_int_list, dest=f"grid_{axis}")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("verify", help="run the self-verification suite")
    p.add_argument("--inject-fault", choices=["conv-kernel-grad"], dest="inject_fault")
    p.set_defaults(handler=_cmd_verify)

    return parser


def _cmd_gen_data(args) -> int:
    # synth_generate keeps the recipe's value for an override left at None
    count = run_gen_data(args.recipe, args.out, args.seed, transformers_per_class=args.transformers_per_class,
                         noise_level=args.noise_level)
    print(f"wrote {count} series to {args.out}")
    return 0


def _cmd_train(args) -> int:
    result = run_train(_config_from_args(args))
    accs = ", ".join(f"{a:.3f}" for a in result["fold_val_accuracies"])
    print(f"fold validation accuracies: {accs} (best fold {result['best_fold']})")
    for name, path in result["paths"].items():
        print(f"{name}: {path}")
    return 0


def _cmd_eval(args) -> int:
    result = run_eval(args.checkpoint, args.data, args.plan, args.out, args.side, args.allow_train_eval)
    report = result["report"]
    print(
        f"accuracy {report.accuracy:.4f}  macro-precision {report.macro_precision:.4f}  "
        f"macro-recall {report.macro_recall:.4f}  macro-f1 {report.macro_f1:.4f}"
    )
    for name, path in result["paths"].items():
        print(f"{name}: {path}")
    return 0


def _cmd_compare(args) -> int:
    config = _config_from_args(args)
    kinds = [k for k in args.models.split(",") if k]
    modes = [m for m in args.modes.split(",") if m]
    result = run_compare(config, kinds, args.repetitions, modes)
    for mode, comparison in result["results"].items():
        print(f"[{mode}]")
        for row in comparison.models:
            print(
                f"  {row.name:12s} mean-acc {row.mean_accuracy:.4f}  max-mean-err {row.max_mean_error:.4f}  "
                f"macro-pr {row.macro_precision:.4f}  macro-re {row.macro_recall:.4f}  macro-f1 {row.macro_f1:.4f}"
            )
        for pair, p in comparison.p_values.items():
            print(f"  p[{pair}] = {p:.4g}")
    print(f"comparison: {result['paths']['comparison']}")
    return 0


def _cmd_sweep(args) -> int:
    config = _config_from_args(args)
    grid = {axis: getattr(args, f"grid_{axis}") for axis in DEFAULT_SWEEP_GRID}
    result = run_sweep(config, grid, workers=args.workers)
    print(f"{len(result['rows'])} cells -> {result['paths']['sweep']}")
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_checks

    tensor.set_fault_injection(args.inject_fault)
    try:
        results = run_checks()
    finally:
        tensor.set_fault_injection(None)
    failed = 0
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
        failed += not passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (PipelineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
