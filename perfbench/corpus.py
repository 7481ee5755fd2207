"""Workload definitions and the seeded corpus generator.

Each workload is one fixed synthetic world (``zslkit.synthetic``'s
linear-map world, drawn from ``WORLD_SEED``) with fixed shapes and, for
eval-zsl, a fixed split protocol (``SPLIT_SEED``), like a fixed dataset
with its published splits. ``--seed`` draws the instances, the distractor
tokens and the instance folds, so one seed always gives the same files and
seeds differ by sampling, not by which classes happen to be held out: that
choice alone moved mean accuracy by a fifth between seeds.
The evaluation under test only ever sees the files written here.

Run directly to write one corpus:

    python3 perfbench/corpus.py --workload zsl-wide --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from zslkit.data import write_features_csv
from zslkit.embedding import Label
from zslkit.synthetic import LinearMapWorld, class_names, world_dataset


WORLD_SEED = 2015
SPLIT_SEED = 0


@dataclass(frozen=True)
class Workload:
    """Shapes of one benchmark corpus and the evaluation run on it.

    ``units`` is the split count (eval-zsl) or fold count (eval-multishot).
    A zsl training pool is ``ceil(target_classes / 2) * per_class`` seen
    rows plus ``aux_classes * per_class`` auxiliary rows; above 1000 rows
    ``heuristic_gamma`` samples pairs instead of computing them all.
    """

    name: str
    mode: str
    target_classes: int
    aux_classes: int
    per_class: int
    d_x: int
    d_z: int
    n_bases: int
    concentration: float
    distractor_tokens: int
    units: int
    k_neighbors: int | None


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="zsl-wide",
            mode="zsl",
            target_classes=20,
            aux_classes=8,
            per_class=16,
            d_x=1000,
            d_z=10,
            n_bases=8,
            concentration=50.0,
            distractor_tokens=0,
            units=3,
            k_neighbors=5,
        ),
        Workload(
            name="zsl-deep",
            mode="zsl",
            target_classes=20,
            aux_classes=16,
            per_class=40,
            d_x=32,
            d_z=50,
            n_bases=8,
            concentration=12.0,
            distractor_tokens=20000,
            units=2,
            k_neighbors=10,
        ),
        Workload(
            name="multishot",
            mode="multishot",
            target_classes=50,
            aux_classes=0,
            per_class=12,
            d_x=64,
            d_z=8,
            n_bases=8,
            concentration=40.0,
            distractor_tokens=0,
            units=2,
            k_neighbors=None,
        ),
    )
}


def mixture_world(w: Workload, rng: np.random.Generator) -> LinearMapWorld:
    """A linear-map world whose class centers mix a few shared sparse basis
    histograms, as action classes share visual words. Unseen classes are
    then mixtures of what was seen, so the chi-square kernel regressor can
    reach them; with independent centers over 1000 bins it cannot."""
    n_classes = w.target_classes + w.aux_classes
    bases = rng.dirichlet(np.full(w.d_x, 0.1), size=w.n_bases)
    centers = rng.dirichlet(np.full(w.n_bases, 0.5), size=n_classes) @ bases
    mapping = rng.normal(size=(w.d_z, w.d_x))
    emb = centers @ mapping.T
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    return LinearMapWorld(mapping=mapping, class_centers=centers, class_embeddings=emb,
                          concentration=w.concentration)


def _write_embeddings(path: Path, names: list[str], vectors: np.ndarray,
                      distractors: int, rng: np.random.Generator) -> None:
    """Class tokens at full precision, scattered among distractor tokens
    written at six decimals as pretrained word-vector files are."""
    d_z = vectors.shape[1]
    lines = [f"{name} " + " ".join(repr(float(v)) for v in vec)
             for name, vec in zip(names, vectors)]
    noise = rng.normal(scale=0.3, size=(distractors, d_z))
    lines += [f"w{i:06d} " + " ".join(f"{v:.6f}" for v in row) for i, row in enumerate(noise)]
    order = rng.permutation(len(lines))
    body = "\n".join(lines[i] for i in order)
    path.write_text(f"{len(lines)} {d_z}\n{body}\n", encoding="utf-8")


def _instance_folds(ids: list[str], labels: list[Label], units: int,
                    rng: np.random.Generator) -> list[dict]:
    """Stratified k-fold: fold f tests every class's f-th share of instances."""
    by_class: dict[str, list[str]] = {}
    for id_, lab in zip(ids, labels):
        by_class.setdefault(lab.key, []).append(id_)
    assign = {}
    for members in by_class.values():
        for rank, pos in enumerate(rng.permutation(len(members))):
            assign[members[pos]] = rank % units
    return [
        {"train": [i for i in ids if assign[i] != f], "test": [i for i in ids if assign[i] == f]}
        for f in range(units)
    ]


def generate(workload: Workload, seed: int, out: Path) -> dict:
    """Write the corpus for ``workload`` and ``seed`` into ``out`` and
    return the paths the evaluation reads."""
    out.mkdir(parents=True, exist_ok=True)
    world = mixture_world(workload, np.random.default_rng(WORLD_SEED))
    rng = np.random.default_rng(seed)
    total = workload.target_classes + workload.aux_classes
    target = world_dataset(world, list(range(workload.target_classes)),
                           workload.per_class, rng, name="target")
    paths = {"target": out / "target.csv", "embeddings": out / "embeddings.txt"}
    write_features_csv(paths["target"], target.ids, target.labels, target.features)
    if workload.aux_classes:
        aux = world_dataset(world, list(range(workload.target_classes, total)),
                            workload.per_class, rng, name="auxiliary")
        paths["auxiliary"] = out / "auxiliary.csv"
        write_features_csv(paths["auxiliary"], aux.ids, aux.labels, aux.features)
    _write_embeddings(paths["embeddings"], class_names(world), world.class_embeddings,
                      workload.distractor_tokens, rng)
    if workload.mode == "multishot":
        paths["folds"] = out / "folds.json"
        folds = _instance_folds(target.ids, target.labels, workload.units, rng)
        paths["folds"].write_text(json.dumps({"folds": folds}) + "\n", encoding="utf-8")
    truth = {id_: lab.slug for id_, lab in zip(target.ids, target.labels)}
    paths["truth"] = out / "truth.json"
    paths["truth"].write_text(json.dumps(truth, sort_keys=True) + "\n", encoding="utf-8")
    return {k: str(v) for k, v in paths.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    paths = generate(WORKLOADS[args.workload], args.seed, Path(args.out))
    print(json.dumps(paths))


if __name__ == "__main__":
    main()
