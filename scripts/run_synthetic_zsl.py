#!/usr/bin/env python3
"""Run the full zero-shot ablation grid on a synthetic corpus.

Generates the corpus if it is not already present, then evaluates the
four {self-train, augment} combinations plus the random baseline and the
multi-shot SVM path, printing one summary table.
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

    base = dict(
        target_path=str(data_dir / "target.csv"),
        embedding_path=str(data_dir / "embeddings.txt"),
        auxiliary_path=str(data_dir / "auxiliary.csv"),
        out_dir=args.out,
        split_count=args.splits,
        split_seed=args.seed,
        k_neighbors=args.k_neighbors,
    )
    rows = []
    config = ExperimentConfig(**base)
    config.predictor = "random"
    report, _ = run_zsl_evaluation(config)
    rows.append(("Random", report))
    for self_train, augment in ((False, False), (True, False), (False, True), (True, True)):
        config = ExperimentConfig(**base)
        config.self_train = self_train
        config.augment = augment
        report, _ = run_zsl_evaluation(config)
        rows.append((report.variant, report))

    config = ExperimentConfig(**base)
    config.folds_path = str(data_dir / "folds.json")
    report, _ = run_multishot_evaluation(config)
    rows.append(("Multi-shot SVM", report))

    print()
    print(f"{'method':<16} {'accuracy':>10} {'std':>8}")
    for name, report in rows:
        print(f"{name:<16} {report.mean_accuracy:>9.2f}% {report.std_accuracy:>8.2f}")
    print(f"\nreports under {args.out}/<fingerprint>/report.json")


if __name__ == "__main__":
    main()
