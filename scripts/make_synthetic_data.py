#!/usr/bin/env python3
"""Generate a synthetic corpus for exercising the pipeline end to end.

Writes embeddings.txt, target.csv, auxiliary.csv and folds.json into the
output directory. Classes are Dirichlet bumps in histogram space whose
centers map to unit embeddings through a hidden linear map, so the
zero-shot task is learnable but not trivial.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zslkit.data import write_features_csv  # noqa: E402
from zslkit.embedding import save_embeddings  # noqa: E402
from zslkit.synthetic import make_world, world_dataset, world_store  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--target-classes", type=int, default=12)
    parser.add_argument("--aux-classes", type=int, default=8)
    parser.add_argument("--per-class", type=int, default=15)
    parser.add_argument("--d-x", type=int, default=20)
    parser.add_argument("--d-z", type=int, default=10)
    parser.add_argument("--concentration", type=float, default=60.0)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    total = args.target_classes + args.aux_classes
    world = make_world(total, args.d_x, args.d_z, rng, concentration=args.concentration)

    target = world_dataset(
        world, list(range(args.target_classes)), args.per_class, rng, name="target"
    )
    aux = world_dataset(
        world,
        list(range(args.target_classes, total)),
        args.per_class,
        rng,
        name="auxiliary",
    )
    write_features_csv(out / "target.csv", target.ids, target.labels, target.features)
    write_features_csv(out / "auxiliary.csv", aux.ids, aux.labels, aux.features)
    save_embeddings(world_store(world), out / "embeddings.txt")

    # two instance-level folds over the target data for the multi-shot path
    by_class: dict[str, list[str]] = {}
    for id_, lab in zip(target.ids, target.labels):
        by_class.setdefault(lab.key, []).append(id_)
    cut = args.per_class * 2 // 3
    folds = []
    for swap in (False, True):
        train, test = [], []
        for ids in by_class.values():
            first, second = ids[:cut], ids[cut:]
            if swap:
                first, second = second, first
            train += first
            test += second
        folds.append({"train": train, "test": test})
    (out / "folds.json").write_text(json.dumps({"folds": folds}, indent=2) + "\n")

    print(f"wrote target ({len(target)} rows), auxiliary ({len(aux)} rows),")
    print(f"embeddings ({total} classes, d_z={args.d_z}) and folds.json to {out}")


if __name__ == "__main__":
    main()
