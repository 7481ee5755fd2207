"""Command-line driver.

Subcommands: ``make-splits``, ``quantize``, ``train-regressor``,
``eval-zsl``, ``eval-multishot``. Exit code is 0 iff a report (or the
subcommand's output files) was written; otherwise a machine-readable
error JSON goes to stderr and the exit code is 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .data import (
    generate_splits,
    kmeans_codebook,
    load_dataset,
    quantize,
    read_descriptor_file,
    save_codebook,
    save_split,
    write_features_csv,
)
from .embedding import Label, label_tokens, load_embeddings
from .evaluate import (
    EvaluationReport,
    ExperimentConfig,
    _run_distances,
    run_multishot_evaluation,
    run_zsl_evaluation,
)
from .kernels import fit_kernel
from .model_io import save_model
from .smo import ConvergenceError
from .svr import train_semantic_regressor
from .zsl import training_pair


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
        "predictor": "predictor",
        "gamma": "gamma",
        "folds": "folds_path",
    }
    for arg_name, field_name in overrides.items():
        value = getattr(args, arg_name, None)
        if value is not None:
            setattr(config, field_name, value)
    if getattr(args, "self_train", False):
        config.self_train = True
    if getattr(args, "augment", None):
        config.augment = True
        config.auxiliary_path = args.augment
    if config.gamma != "auto" and not isinstance(config.gamma, (int, float)):
        config.gamma = float(config.gamma)
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


def _cmd_make_splits(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.features)
    splits = generate_splits(dataset.class_vocabulary, args.count, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    name = args.dataset_name or dataset.name
    for split in splits:
        save_split(split, name, out / f"split_{split.index:03d}.json")
    print(f"wrote {len(splits)} split files to {out}")
    return 0


def _cmd_quantize(args: argparse.Namespace) -> int:
    groups: list[tuple[str, np.ndarray]] = []
    for path in args.descriptors:
        for key, mat in read_descriptor_file(path):
            groups.append((key if key is not None else Path(path).stem, mat))
    all_desc = np.vstack([mat for _, mat in groups])
    rng = np.random.default_rng(args.seed)
    if args.sample and args.sample < all_desc.shape[0]:
        idx = rng.choice(all_desc.shape[0], size=args.sample, replace=False)
        sample = all_desc[np.sort(idx)]
    else:
        sample = all_desc
    codebook = kmeans_codebook(sample, args.k, seed=args.seed, max_iters=args.max_iters)

    labels_map: dict[str, str] = {}
    if args.labels:
        for line in Path(args.labels).read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            id_, _, label = line.partition(",")
            labels_map[id_] = label
    ids = [key for key, _ in groups]
    labels = [Label.of(labels_map.get(key, "unknown")) for key in ids]
    features = np.vstack(
        [quantize(codebook, mat, normalize=args.normalize) for _, mat in groups]
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_features_csv(out / "features.csv", ids, labels, features)
    save_codebook(codebook, out / "codebook.json", seed=args.seed)
    print(f"quantized {len(groups)} groups into {out / 'features.csv'}")
    print(f"codebook (k={args.k}) written to {out / 'codebook.json'}")
    return 0


def _cmd_train_regressor(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    config.validate("zsl")
    dataset = load_dataset(config.target_path)
    store = load_embeddings(
        config.embedding_path, tokens=label_tokens(dataset.class_vocabulary)
    )
    pair = training_pair(dataset, store)
    kernel, gram = fit_kernel(
        config.kernel_kind, _run_distances(config, dataset), config.gamma, config.chi2_halved
    )
    regressor = train_semantic_regressor(
        pair.features, pair.embeddings, config.svr_config(), kernel, gram
    )
    out = Path(args.model_out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(regressor, out)
    print(f"trained on {len(dataset)} instances, d_z={regressor.coefficients.shape[0]}")
    print(f"model written to {out}")
    return 0


def _cmd_eval_zsl(args: argparse.Namespace) -> int:
    base = _config_from_args(args)
    if args.ablation_grid:
        if not base.auxiliary_path:
            raise ValueError("--ablation-grid requires --augment <auxiliary dataset>")
        rows = []
        for self_train, augment in ((False, False), (True, False), (False, True), (True, True)):
            config = dataclasses.replace(base, self_train=self_train, augment=augment)
            report, run_dir = run_zsl_evaluation(config)
            rows.append((report.variant, report, run_dir))
        print(f"{'variant':<12} {'mean':>8} {'std':>8}")
        for variant, report, _ in rows:
            print(f"{variant:<12} {report.mean_accuracy:>8.2f} {report.std_accuracy:>8.2f}")
        for _, report, run_dir in rows:
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

    splits = sub.add_parser("make-splits", help="generate seeded 50/50 category splits")
    splits.add_argument("--features", required=True)
    splits.add_argument("--count", type=int, default=30)
    splits.add_argument("--seed", type=int, default=0)
    splits.add_argument("--out", required=True)
    splits.add_argument("--dataset-name")
    splits.set_defaults(func=_cmd_make_splits)

    quant = sub.add_parser("quantize", help="build a k-means codebook and BoW features")
    quant.add_argument("--descriptors", nargs="+", required=True, help="descriptor CSV files")
    quant.add_argument("--k", type=int, required=True)
    quant.add_argument("--seed", type=int, default=0)
    quant.add_argument("--sample", type=int, default=10_000, help="descriptor subsample size")
    quant.add_argument("--max-iters", type=int, default=100)
    quant.add_argument("--labels", help="optional id,label CSV for the output features")
    quant.add_argument("--normalize", action="store_true", help="emit frequencies, not counts")
    quant.add_argument("--out", required=True)
    quant.set_defaults(func=_cmd_quantize)

    train = sub.add_parser("train-regressor", help="train the visual-to-embedding regressor")
    _add_common_eval_flags(train)
    train.add_argument("--model-out", required=True, help="output model JSON path")
    train.set_defaults(func=_cmd_train_regressor)

    ezsl = sub.add_parser("eval-zsl", help="zero-shot evaluation over category splits")
    _add_common_eval_flags(ezsl)
    ezsl.add_argument("--splits", type=int, help="number of splits")
    ezsl.add_argument("--self-train", action="store_true", help="adapt prototypes")
    ezsl.add_argument("--k-neighbors", type=int, dest="k_neighbors")
    ezsl.add_argument("--augment", help="auxiliary dataset CSV for training augmentation")
    ezsl.add_argument("--predictor", choices=("regressor", "random"))
    ezsl.add_argument(
        "--ablation-grid",
        action="store_true",
        help="run all four {self-train, augment} combinations",
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
