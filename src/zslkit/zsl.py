"""Zero-shot machinery: class word vectors, nearest-prototype matching,
transductive self-training, and auxiliary-data augmentation.

A run embeds each of its classes once, as one row of a (C, d_z) matrix of
L2-normalized word vectors (:func:`label_targets`). That row is the
regression target of the class's training instances and, while the class
is unseen, its prototype.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .embedding import EmbeddingStore, Label, embed_label, l2_normalize
from .svr import SemanticRegressor, predict_batch

# Floats in one chunk's (rows, prototypes, d_z) difference tensor, 256 KB,
# which stays in cache while its squares are summed.
_MATCH_FLOATS = 1 << 15


def _match_rows(mat: np.ndarray) -> int:
    """Projection rows matched per chunk against prototype matrix ``mat``."""
    return max(1, _MATCH_FLOATS // max(mat.size, 1))


def _squared_distances(prototypes: np.ndarray, projections: np.ndarray) -> np.ndarray:
    """(n, P) squared Euclidean distances from each row of an (n, d_z)
    projection matrix to each row of a (P, d_z) prototype matrix."""
    if prototypes.shape[0] == 0:
        raise ValueError("no prototypes to match against")
    proj = np.asarray(projections, dtype=np.float64)
    if proj.ndim != 2 or proj.shape[1] != prototypes.shape[1]:
        raise ValueError(
            f"projections of shape {proj.shape} do not match prototypes "
            f"(n, {prototypes.shape[1]})"
        )
    # row differences rather than the |a|^2+|b|^2-2ab expansion keep each
    # value bit-identical to the per-row ((mat - v) ** 2).sum(axis=1); rows
    # are independent, so a chunk's difference tensor bounds the memory
    d2 = np.empty((proj.shape[0], prototypes.shape[0]))
    step = _match_rows(prototypes)
    for lo in range(0, proj.shape[0], step):
        diff = proj[lo : lo + step, None, :] - prototypes[None]
        np.square(diff, out=diff)
        diff.sum(axis=2, out=d2[lo : lo + step])
    return d2


def nearest_prototype(
    prototypes: np.ndarray, projections: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Index and Euclidean distance of the closest row of a (P, d_z)
    prototype matrix for each row of an (n, d_z) projection matrix; the
    first prototype wins exact ties. After L2 normalization the closest
    prototype is also the cosine-nearest."""
    d = _squared_distances(prototypes, projections)
    np.sqrt(d, out=d)
    idx = np.argmin(d, axis=1)
    return idx, d[np.arange(idx.size), idx]


def self_train(prototypes: np.ndarray, projections: np.ndarray, k: int) -> np.ndarray:
    """Adapt each row of a (P, d_z) prototype matrix to the L2-normalized
    mean of its ``k`` nearest test projections.

    Neighbour search is exact and runs over all projections independently
    per prototype (prototypes may share neighbours); ties on distance are
    resolved toward lower projection indices. A single adaptation round is
    applied; the input prototypes are left unmodified.
    """
    proj = np.asarray(projections, dtype=np.float64)
    d2 = _squared_distances(prototypes, proj)
    if not 1 <= k <= proj.shape[0]:
        raise ValueError(
            f"k={k} is not between 1 and the number of test projections ({proj.shape[0]})"
        )
    means = proj[np.argsort(d2, axis=0, kind="stable")[:k]].mean(axis=0)
    return np.array([l2_normalize(m) for m in means])


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
    prototypes: np.ndarray,
    labels: Sequence[Label],
    kernel_rows: np.ndarray,
    ids: Sequence[str],
    k: int | None = None,
) -> list[Prediction]:
    """Project every test instance, L2-normalize, self-train the (P, d_z)
    ``prototypes`` on the projections when ``k`` is given, then label each
    instance with the nearest prototype's entry of ``labels``.

    ``kernel_rows`` are the test instances' kernel values against the
    regressor's support pool, one row per id in ``ids``, for
    :func:`~zslkit.svr.predict_batch`.
    """
    if kernel_rows.shape[0] != len(ids):
        raise ValueError(f"{kernel_rows.shape[0]} kernel rows for {len(ids)} test instances")
    if len(ids) == 0:
        return []
    proj = normalized_projections(predict_batch(regressor, kernel_rows), ids)
    if k is not None:
        prototypes = self_train(prototypes, proj, k)
    idx, dist = nearest_prototype(prototypes, proj)
    return [Prediction(id_, labels[i], float(d)) for id_, i, d in zip(ids, idx, dist)]


def write_predictions_csv(predictions: Sequence[Prediction], path: str | Path) -> None:
    """One ``instance_id,predicted_label,distance`` row per prediction; a
    cell with a comma, a quote, a newline or a carriage return is quoted,
    as :func:`~zslkit.data.load_dataset` reads it."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        # the writer quotes for the characters of its line terminator only,
        # so the row of an id with a bare carriage return is quoted in full
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(["instance_id", "predicted_label", "distance"])
        for pred in predictions:
            row = [pred.instance_id, pred.label.slug, repr(pred.distance)]
            (quoted if "\r" in pred.instance_id else writer).writerow(row)


def label_targets(classes: Sequence[Label], store: EmbeddingStore) -> np.ndarray:
    """The (C, d_z) L2-normalized label embedding of each class. A token
    missing from ``store`` is named with its label."""
    return np.array([l2_normalize(embed_label(store, lab)) for lab in classes])


def augment_training(
    vectors: np.ndarray,
    class_of: np.ndarray,
    classes: Sequence[Label],
    unseen: np.ndarray,
) -> np.ndarray:
    """Regression targets of the training rows whose class indices are
    ``class_of`` (the target's seen rows, then the auxiliary rows): their
    rows of the run's class matrix ``vectors``, whose classes are
    ``classes``.

    Auxiliary classes may overlap the target's training classes but must
    be disjoint from the split's ``unseen`` class indices; the target's
    training rows are all of seen classes, so only an auxiliary row can
    collide.
    """
    clash = class_of[np.isin(class_of, unseen)]
    if clash.size:
        raise ValueError(
            f"auxiliary class {classes[clash[0]].key!r} collides with an unseen class"
        )
    return vectors[class_of]
