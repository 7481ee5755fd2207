"""Command-line driver.

Subcommands: ``eval-zsl``, ``eval-multishot``. Both read a feature CSV
(see :mod:`zslkit.data`). Exit code is 0 iff a report was written;
otherwise a machine-readable error JSON goes to stderr and the exit code
is 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .evaluate import (
    PREDICTOR_RANDOM,
    EvaluationReport,
    ExperimentConfig,
    run_multishot_evaluation,
    run_zsl_evaluation,
)
from .smo import ConvergenceError


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    config = (
        ExperimentConfig.from_file(args.config)
        if getattr(args, "config", None)
        else ExperimentConfig()
    )
    overrides = {
        "features": "target_path",
        "embeddings": "embedding_path",
        "out": "out_dir",
        "seed": "split_seed",
        "splits": "split_count",
        "k_neighbors": "k_neighbors",
        "augment": "auxiliary_path",
        "predictor": "predictor",
        "gamma": "gamma",
        "folds": "folds_path",
    }
    for arg_name, field_name in overrides.items():
        value = getattr(args, arg_name, None)
        if value is not None:
            setattr(config, field_name, value)
    if config.gamma != "auto" and not isinstance(config.gamma, (int, float)):
        try:
            config.gamma = float(config.gamma)
        except (TypeError, ValueError):
            raise ValueError(
                f"gamma must be 'auto' or a positive finite number, got {config.gamma!r}"
            ) from None
    return config


def _print_report(report: EvaluationReport, run_dir: Path) -> None:
    print(f"variant            : {report.variant}")
    print(f"fingerprint        : {report.fingerprint[:12]}")
    print(f"splits             : {len(report.per_split_accuracy)}")
    print(
        f"mean accuracy      : {report.mean_accuracy:.2f}% "
        f"+/- {report.std_accuracy:.2f}"
    )
    print(f"class-balanced mean: {report.mean_class_balanced:.2f}%")
    print(f"report written to  : {run_dir / 'report.json'}")


def _cmd_eval_zsl(args: argparse.Namespace) -> int:
    base = _config_from_args(args)
    if args.ablation_grid:
        if base.predictor == PREDICTOR_RANDOM:
            raise ValueError("--ablation-grid does not take --predictor random")
        if base.k_neighbors is None or base.auxiliary_path is None:
            raise ValueError(
                "--ablation-grid requires --self-train K and --augment <auxiliary dataset>"
            )
        configs = [  # NN, NN+ST, NN+Aux, NN+ST+Aux
            dataclasses.replace(base, k_neighbors=k, auxiliary_path=aux)
            for aux in (None, base.auxiliary_path)
            for k in (None, base.k_neighbors)
        ]
        for config in configs:  # every variant is checked before the first one runs
            config.validate("zsl")
        rows = [run_zsl_evaluation(config) for config in configs]
        print(f"{'variant':<12} {'mean':>8} {'std':>8}")
        for report, _ in rows:
            print(f"{report.variant:<12} {report.mean_accuracy:>8.2f} {report.std_accuracy:>8.2f}")
        for report, run_dir in rows:
            print(f"{report.variant}: {run_dir / 'report.json'}")
        return 0
    report, run_dir = run_zsl_evaluation(base)
    _print_report(report, run_dir)
    return 0


def _cmd_eval_multishot(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    report, run_dir = run_multishot_evaluation(config)
    _print_report(report, run_dir)
    return 0


def _add_common_eval_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="experiment config JSON; flags override its fields")
    sub.add_argument("--features", help="target feature CSV")
    sub.add_argument("--embeddings", help="word-vector text file")
    sub.add_argument("--out", help="output directory (default runs/)")
    sub.add_argument("--seed", type=int, help="split seed (u64)")
    sub.add_argument("--gamma", help="kernel gamma, a number or 'auto'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zslkit",
        description="Zero-shot action classification via embedding-space regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ezsl = sub.add_parser("eval-zsl", help="zero-shot evaluation over category splits")
    _add_common_eval_flags(ezsl)
    ezsl.add_argument("--splits", type=int, help="number of splits")
    ezsl.add_argument(
        "--self-train", type=int, dest="k_neighbors", metavar="K", help="adapt prototypes to K"
    )
    ezsl.add_argument("--augment", help="auxiliary dataset CSV for training augmentation")
    ezsl.add_argument("--predictor", help="regressor (default) or random")
    ezsl.add_argument(
        "--ablation-grid",
        action="store_true",
        help="run NN, NN+ST, NN+Aux and NN+ST+Aux (needs --self-train and --augment)",
    )
    ezsl.set_defaults(func=_cmd_eval_zsl)

    emulti = sub.add_parser("eval-multishot", help="supervised evaluation over instance folds")
    _add_common_eval_flags(emulti)
    emulti.add_argument("--folds", help="fold file JSON")
    emulti.set_defaults(func=_cmd_eval_multishot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        error = {"error": str(exc), "type": type(exc).__name__}
        if isinstance(exc, ConvergenceError):
            error.update(iterations=exc.iterations, violation=exc.violation)
        print(json.dumps(error), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
