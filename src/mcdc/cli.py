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


# compare's list flags, by the RunConfig field each one ranges over
COMPARED = {"model": ("--models", tuple(MODEL_KINDS)), "split_mode": ("--modes", SPLIT_MODES)}


def _add_config_flags(parser, owned=()):
    """The run's config flags, none for a RunConfig field in `owned`, which the command sets itself."""
    def add(flag, **kwargs):
        if kwargs.setdefault("dest", flag[2:].replace("-", "_")) not in owned:
            parser.add_argument(flag, **kwargs)

    add("--config", help="JSON config file; flags override its values")
    add("--seed", type=int, help="master seed (mandatory here or in the config)")
    add("--out", dest="out_dir", help="output directory")
    add("--data", dest="data_csv", help="dataset CSV (omit to generate synthetically)")
    add("--recipe", help="synthetic recipe name or path (default: default)")
    add("--model", help=f"model kind: {', '.join(MODEL_KINDS)}")
    add("--split-mode", help=f"split mode: {', '.join(SPLIT_MODES)}")
    for flag in ("--temporal-len", "--heads", "--kernel-temporal", "--kernel-channel", "--epochs", "--batch-size",
                 "--patience", "--folds"):
        add(flag, type=int)
    for flag in ("--train-fraction", "--lr0"):
        add(flag, type=float)


def _config_from_args(args) -> RunConfig:
    """The --config file, if any, under every config flag given: a flag named
    after a RunConfig field sets it, one named after a TrainConfig field
    merges into `train`."""
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    overrides["train"] = {f.name: getattr(args, f.name, None) for f in fields(TrainConfig) if f.name != "seed"}
    return RunConfig.load(args.config, overrides)


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError:
        # argparse would name this function in its own message
        raise argparse.ArgumentTypeError(f"a grid list is comma-separated integers, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """Raises argparse's refusals as ValueErrors, so main reports them as one
    `error:` line and exit 1; subcommand parsers are of this class too."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--side", default="test", help="test (default) or train")
    p.add_argument("--allow-train-eval", action="store_true")
    p.set_defaults(handler=_cmd_eval)

    # allow_abbrev=False, so that --model is refused rather than read as --models
    p = sub.add_parser("compare", help="repeat-train several model kinds on identical splits", allow_abbrev=False)
    for field, (flag, values) in COMPARED.items():
        p.add_argument(flag, default=",".join(values), help=f"comma-separated {field} values: {', '.join(values)}")
    p.add_argument("--repetitions", type=int, default=10)
    _add_config_flags(p, owned=COMPARED)
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("sweep", help="accuracy grid over kernel sizes, heads and window length")
    _add_config_flags(p, owned=DEFAULT_SWEEP_GRID)
    for axis in DEFAULT_SWEEP_GRID:
        p.add_argument(f"--grid-{axis.replace('_', '-')}", type=_int_list, dest=f"grid_{axis}")
    p.add_argument("--workers", type=int, default=1, help="processes that run the cells, >= 1 (default 1)")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("verify", help="run the self-verification suite")
    p.add_argument("--inject-fault", help=f"corrupt a gradient rule: {', '.join(tensor.FAULT_KINDS)}")
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
    kinds, modes = ([v for v in getattr(args, flag[2:]).split(",") if v] for flag, _ in COMPARED.values())
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
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (PipelineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
