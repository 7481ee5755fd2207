"""Zero-shot machinery: class prototypes, nearest-prototype matching,
transductive self-training, and auxiliary-data augmentation."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .data import Dataset
from .embedding import EmbeddingStore, Label, embed_label, l2_normalize
from .svr import SemanticRegressor, predict_batch


@dataclass
class Prototype:
    """A labelled point in embedding space used as a classification target."""

    label: Label
    vector: np.ndarray


@dataclass(frozen=True)
class SelfTrainConfig:
    """Neighbour count for prototype adaptation."""

    k: int = 10

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")


def build_prototypes(store: EmbeddingStore, labels: Sequence[Label]) -> list[Prototype]:
    """Embed each label and L2-normalize it into a prototype. Labels must
    be distinct."""
    seen: set[str] = set()
    protos: list[Prototype] = []
    for lab in labels:
        if lab.key in seen:
            raise ValueError(f"duplicate label {lab.key!r}")
        seen.add(lab.key)
        vec = l2_normalize(embed_label(store, lab))
        protos.append(Prototype(label=lab, vector=vec))
    return protos


def prototype_matrix(prototypes: Sequence[Prototype]) -> np.ndarray:
    return np.vstack([p.vector for p in prototypes])


# Floats in one chunk's (rows, prototypes, d_z) difference tensor, 256 KB,
# which stays in cache while its norms are taken.
_MATCH_FLOATS = 1 << 15


def _match_rows(mat: np.ndarray) -> int:
    """Projection rows matched per chunk against prototype matrix ``mat``."""
    return max(1, _MATCH_FLOATS // max(mat.size, 1))


def nearest_prototype(
    prototypes: Sequence[Prototype], projections: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Index and Euclidean distance of the closest prototype for each row
    of an (n, d_z) projection matrix; the first prototype wins exact ties.
    After L2 normalization the closest prototype is also the cosine-nearest."""
    if not prototypes:
        raise ValueError("no prototypes to match against")
    mat = prototype_matrix(prototypes)
    proj = np.asarray(projections, dtype=np.float64)
    if proj.ndim != 2 or proj.shape[1] != mat.shape[1]:
        raise ValueError(
            f"projections of shape {proj.shape} do not match prototypes (n, {mat.shape[1]})"
        )
    # row differences rather than the |a|^2+|b|^2-2ab expansion keep each
    # distance bit-identical to the per-row norm(mat - v, axis=1); rows are
    # independent, so a chunk's difference tensor bounds the memory
    n = proj.shape[0]
    idx = np.empty(n, dtype=np.intp)
    dist = np.empty(n)
    step = _match_rows(mat)
    for lo in range(0, n, step):
        d = np.linalg.norm(proj[lo : lo + step, None, :] - mat[None], axis=2)
        best = np.argmin(d, axis=1)
        idx[lo : lo + step] = best
        dist[lo : lo + step] = d[np.arange(best.size), best]
    return idx, dist


def self_train(
    prototypes: Sequence[Prototype],
    projections: np.ndarray,
    config: SelfTrainConfig,
) -> list[Prototype]:
    """Adapt each prototype to the L2-normalized mean of its K nearest
    test projections.

    Neighbour search is exact and runs over all projections independently
    per prototype (prototypes may share neighbours); ties on distance are
    resolved toward lower projection indices. A single adaptation round is
    applied; the input prototypes are left unmodified.
    """
    proj = np.asarray(projections, dtype=np.float64)
    if proj.ndim != 2 or proj.shape[0] == 0:
        raise ValueError("projections must be a non-empty 2-D array")
    if config.k > proj.shape[0]:
        raise ValueError(
            f"k={config.k} exceeds the number of test projections ({proj.shape[0]})"
        )
    adapted: list[Prototype] = []
    for proto in prototypes:
        d2 = ((proj - proto.vector) ** 2).sum(axis=1)
        neighbours = np.argsort(d2, kind="stable")[: config.k]
        vec = l2_normalize(proj[neighbours].mean(axis=0))
        adapted.append(Prototype(label=proto.label, vector=vec))
    return adapted


class Prediction(NamedTuple):
    instance_id: str
    label: Label
    distance: float


def normalized_projections(raw: np.ndarray, ids: Sequence[str]) -> np.ndarray:
    """L2-normalize projection rows, naming the instance of a zero row."""
    norms = np.linalg.norm(raw, axis=1)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise ValueError(f"projection of instance {ids[int(bad[0])]!r} is the zero vector")
    return raw / norms[:, None]


def zsl_predict(
    regressor: SemanticRegressor,
    prototypes: Sequence[Prototype],
    kernel_rows: np.ndarray,
    ids: Sequence[str],
    config: SelfTrainConfig | None = None,
) -> list[Prediction]:
    """Project every test instance, L2-normalize, optionally self-train the
    prototypes on the projections, then nearest-prototype classify.

    ``kernel_rows`` are the test instances' kernel values against the
    regressor's support pool, one row per id in ``ids``, for
    :func:`~zslkit.svr.predict_batch`.
    """
    if kernel_rows.shape[0] != len(ids):
        raise ValueError(f"{kernel_rows.shape[0]} kernel rows for {len(ids)} test instances")
    if len(ids) == 0:
        return []
    proj = normalized_projections(predict_batch(regressor, kernel_rows), ids)
    if config is not None:
        prototypes = self_train(prototypes, proj, config)
    idx, dist = nearest_prototype(prototypes, proj)
    return [
        Prediction(id_, prototypes[i].label, float(d)) for id_, i, d in zip(ids, idx, dist)
    ]


def write_predictions_csv(predictions: Sequence[Prediction], path: str | Path) -> None:
    lines = ["instance_id,predicted_label,distance"]
    for pred in predictions:
        lines.append(f"{pred.instance_id},{pred.label.slug},{pred.distance!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def label_targets(labels: Sequence[Label], store: EmbeddingStore) -> np.ndarray:
    """The L2-normalized label embedding of each label, (n, d_z): the
    regression targets of the instances so labelled."""
    cache: dict[str, np.ndarray] = {}
    rows = []
    for lab in labels:
        if lab.key not in cache:
            cache[lab.key] = l2_normalize(embed_label(store, lab))
        rows.append(cache[lab.key])
    return np.vstack(rows) if rows else np.empty((0, store.dimension))


def augment_training(
    labels: Sequence[Label],
    auxiliary: Dataset | None,
    store: EmbeddingStore,
    *,
    unseen: Sequence[Label] | None = None,
) -> np.ndarray:
    """Regression targets of the target's training ``labels`` followed by
    the auxiliary dataset's rows: the row order of the training kernel.

    Auxiliary classes may overlap the target's training classes but must
    be disjoint from the problem's unseen classes; pass those via
    ``unseen`` to enforce the guard before any training happens.
    """
    targets = label_targets(labels, store)
    if auxiliary is None or len(auxiliary) == 0:
        return targets
    if unseen is not None:
        unseen_keys = {lab.key for lab in unseen}
        for lab in auxiliary.class_vocabulary:
            if lab.key in unseen_keys:
                raise ValueError(
                    f"auxiliary class {lab.key!r} collides with an unseen class"
                )
    return np.vstack([targets, label_targets(auxiliary.labels, store)])
