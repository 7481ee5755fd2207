"""Synthetic worlds for exercising the pipeline without real video data.

A world fixes a ground-truth linear map from histogram space into the
embedding space; classes are Dirichlet bumps in histogram space whose
centers map to unit class embeddings. Sampled instances are histograms
(rows sum to 1), so the chi-square kernel applies directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .embedding import EmbeddingStore, Label

_ALPHA_FLOOR = 0.05


@dataclass
class LinearMapWorld:
    """Ground-truth linear visual-to-embedding map with Dirichlet classes."""

    mapping: np.ndarray
    class_centers: np.ndarray
    class_embeddings: np.ndarray
    concentration: float

    @property
    def n_classes(self) -> int:
        return self.class_centers.shape[0]

    def sample_features(
        self, class_index: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        alpha = self.class_centers[class_index] * self.concentration + _ALPHA_FLOOR
        return rng.dirichlet(alpha, size=count)


def make_world(
    n_classes: int,
    d_x: int,
    d_z: int,
    rng: np.random.Generator,
    concentration: float = 60.0,
) -> LinearMapWorld:
    mapping = rng.normal(size=(d_z, d_x))
    centers = rng.dirichlet(np.full(d_x, 0.5), size=n_classes)
    emb = centers @ mapping.T
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    return LinearMapWorld(
        mapping=mapping,
        class_centers=centers,
        class_embeddings=emb,
        concentration=concentration,
    )


def class_names(world: LinearMapWorld) -> list[str]:
    return [f"class{i:02d}" for i in range(world.n_classes)]


def world_store(world: LinearMapWorld) -> EmbeddingStore:
    """Embedding store mapping each class name to its class embedding."""
    names = class_names(world)
    table = {name: world.class_embeddings[i].copy() for i, name in enumerate(names)}
    return EmbeddingStore(dimension=world.class_embeddings.shape[1], table=table)


def world_dataset(
    world: LinearMapWorld,
    class_indices: list[int],
    per_class: int,
    rng: np.random.Generator,
    name: str = "synthetic",
) -> Dataset:
    names = class_names(world)
    ids: list[str] = []
    labels: list[Label] = []
    rows: list[np.ndarray] = []
    for ci in class_indices:
        feats = world.sample_features(ci, per_class, rng)
        for s in range(per_class):
            ids.append(f"{name}_{names[ci]}_{s:03d}")
            labels.append(Label.of(names[ci]))
            rows.append(feats[s])
    return Dataset(name=name, ids=ids, labels=labels, features=np.vstack(rows))
