#!/usr/bin/env python3
"""Run the full zero-shot ablation grid on a synthetic corpus.

Generates the corpus if it is not already present, then evaluates the
four variants (NN, NN+ST, NN+Aux, NN+ST+Aux) plus the random baseline and
the multi-shot SVM path, printing one summary table. Each variant is given
only the values it uses, and a report of another variant than the one
asked for fails the script.
"""

import argparse
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zslkit.evaluate import (  # noqa: E402
    ExperimentConfig,
    run_multishot_evaluation,
    run_zsl_evaluation,
)


def ensure_corpus(data_dir: Path, seed: int) -> None:
    if (data_dir / "target.csv").is_file():
        return
    script = Path(__file__).with_name("make_synthetic_data.py")
    subprocess.run(
        [sys.executable, str(script), "--out", str(data_dir), "--seed", str(seed)],
        check=True,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", default="runs/synthetic-data")
    parser.add_argument("--out", default="runs/synthetic-zsl")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--splits", type=int, default=10)
    parser.add_argument("--k-neighbors", type=int, default=10)
    args = parser.parse_args()

    data_dir = Path(args.data)
    ensure_corpus(data_dir, args.seed)

    base = dict(target_path=str(data_dir / "target.csv"), out_dir=args.out)
    splits = dict(split_count=args.splits, split_seed=args.seed)
    words = str(data_dir / "embeddings.txt")
    regressor = dict(splits, embedding_path=words)
    k, aux = args.k_neighbors, str(data_dir / "auxiliary.csv")
    # each run gets only the values its variant uses
    runs = [
        ("Random", run_zsl_evaluation, dict(splits, predictor="random")),
        ("NN", run_zsl_evaluation, regressor),
        ("NN+ST", run_zsl_evaluation, dict(regressor, k_neighbors=k)),
        ("NN+Aux", run_zsl_evaluation, dict(regressor, auxiliary_path=aux)),
        ("NN+ST+Aux", run_zsl_evaluation, dict(regressor, k_neighbors=k, auxiliary_path=aux)),
        ("SVM", run_multishot_evaluation,
         dict(embedding_path=words, folds_path=str(data_dir / "folds.json"))),
    ]
    rows = []
    for variant, evaluate, values in runs:
        report, _ = evaluate(ExperimentConfig(**base, **values))
        if report.variant != variant:
            sys.exit(f"asked for the {variant} variant, but the report is of {report.variant}")
        rows.append((variant, report))

    print()
    print(f"{'method':<16} {'accuracy':>10} {'std':>8}")
    for name, report in rows:
        print(f"{name:<16} {report.mean_accuracy:>9.2f}% {report.std_accuracy:>8.2f}")
    print(f"\nreports under {args.out}/<fingerprint>/report.json")


if __name__ == "__main__":
    main()
