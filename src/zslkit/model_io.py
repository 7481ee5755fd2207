"""JSON persistence for trained models.

Both model families share one container: ``{"schema": "zslkit-model",
"version": 2, "type": <tag>, ...}`` with type tags ``semantic_regressor``
and ``svc_one_vs_rest``. Both are a coefficient matrix with one row per
output dimension or class, and share one block: ``coefficients``,
``biases``, ``iterations`` and ``dual_objectives``. Floats are written
with shortest round-trip repr, so load(save(model)) equals the model.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .embedding import Label
from .kernels import RBF_CHI2, KernelSpec
from .svc import SvcModel
from .svr import SemanticRegressor

SCHEMA = "zslkit-model"
VERSION = 2


def _kernel_doc(kernel: KernelSpec) -> dict:
    return {"kind": kernel.kind, "gamma": kernel.gamma}


def _kernel_from_doc(doc: dict) -> KernelSpec:
    """A chi-square kernel saved with ``"chi2_halved": false`` loads with
    twice its gamma, as (D/2) * 2g rounds exactly as D * g does."""
    gamma = float(doc["gamma"])
    if doc["kind"] == RBF_CHI2 and doc.get("chi2_halved") is False:
        gamma *= 2.0
    return KernelSpec(kind=doc["kind"], gamma=gamma)


def _matrix(a: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.asarray(a)]


def _array(doc: dict, name: str, dtype: type, path: Path) -> np.ndarray:
    try:
        return np.asarray(doc[name], dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {name} is not a numeric array ({exc})") from None


def _solution_doc(model: SemanticRegressor | SvcModel) -> dict:
    return {
        "coefficients": _matrix(model.coefficients),
        "biases": [float(v) for v in model.biases],
        "iterations": [int(v) for v in model.iterations],
        "dual_objectives": [float(v) for v in model.dual_objectives],
    }


def _solution_from_doc(doc: dict, path: Path, columns: int, column_field: str) -> dict:
    """The shared block's arrays, checked to agree in shape: one row per
    output, ``columns`` coefficient columns (one per ``column_field`` row)."""
    block = {
        "coefficients": _array(doc, "coefficients", np.float64, path),
        "biases": _array(doc, "biases", np.float64, path),
        "iterations": _array(doc, "iterations", np.int64, path),
        "dual_objectives": _array(doc, "dual_objectives", np.float64, path),
    }
    coefficients = block["coefficients"]
    if coefficients.ndim != 2 or coefficients.shape[1] != columns:
        raise ValueError(
            f"{path}: coefficients have shape {coefficients.shape}, expected "
            f"{columns} columns to match {column_field}"
        )
    rows = coefficients.shape[0]
    for name in ("biases", "iterations", "dual_objectives"):
        if block[name].shape != (rows,):
            raise ValueError(
                f"{path}: {name} has shape {block[name].shape}, expected ({rows},) "
                f"to match the coefficient rows"
            )
    return block


def save_model(model: SemanticRegressor | SvcModel, path: str | Path) -> None:
    if isinstance(model, SemanticRegressor):
        doc = {
            "type": "semantic_regressor",
            "n_train": model.n_train,
            "feature_dim": model.pool_features.shape[1],
            "pool_indices": [int(i) for i in model.pool_indices],
            "pool_features": _matrix(model.pool_features),
        }
    elif isinstance(model, SvcModel):
        doc = {
            "type": "svc_one_vs_rest",
            "classes": [lab.slug for lab in model.classes],
            "train_points": _matrix(model.train_points),
        }
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    doc.update(
        schema=SCHEMA, version=VERSION, kernel=_kernel_doc(model.kernel), **_solution_doc(model)
    )
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> SemanticRegressor | SvcModel:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid model file ({exc})") from None
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a zslkit model file")
    if doc.get("version") != VERSION:
        raise ValueError(
            f"{path}: unsupported model schema version {doc.get('version')!r}"
        )
    kind = doc.get("type")
    try:
        if kind == "semantic_regressor":
            return _load_regressor(doc, path)
        if kind == "svc_one_vs_rest":
            return _load_svc(doc, path)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from None
    raise ValueError(f"{path}: unknown model type {kind!r}")


def _load_regressor(doc: dict, path: Path) -> SemanticRegressor:
    n_train = int(doc["n_train"])
    pool_indices = _array(doc, "pool_indices", int, path)
    outside = (pool_indices < 0) | (pool_indices >= n_train)
    if pool_indices.ndim != 1 or outside.any() or np.unique(pool_indices).size != pool_indices.size:
        raise ValueError(
            f"{path}: pool_indices must be distinct indices in [0, n_train={n_train})"
        )
    pool_features = _array(doc, "pool_features", np.float64, path)
    feature_dim = int(doc["feature_dim"])
    if pool_features.size == 0:
        # an empty pool keeps its width only through feature_dim
        pool_features = pool_features.reshape(0, feature_dim)
    if pool_features.shape != (pool_indices.size, feature_dim):
        raise ValueError(
            f"{path}: pool_features has shape {pool_features.shape}, expected "
            f"({pool_indices.size}, {feature_dim}) to match pool_indices and feature_dim"
        )
    return SemanticRegressor(
        kernel=_kernel_from_doc(doc["kernel"]),
        n_train=n_train,
        pool_indices=pool_indices,
        pool_features=pool_features,
        **_solution_from_doc(doc, path, pool_indices.size, "pool_indices"),
    )


def _load_svc(doc: dict, path: Path) -> SvcModel:
    classes = [Label.of(s) for s in doc["classes"]]
    if len(set(classes)) != len(classes):
        repeated = next(lab for i, lab in enumerate(classes) if lab in classes[:i])
        raise ValueError(f"{path}: classes repeats {repeated.slug!r}")
    train_points = _array(doc, "train_points", np.float64, path)
    block = _solution_from_doc(doc, path, train_points.shape[0], "train_points")
    if block["coefficients"].shape[0] != len(classes):
        raise ValueError(
            f"{path}: declares {len(classes)} classes but has "
            f"{block['coefficients'].shape[0]} coefficient rows"
        )
    return SvcModel(
        classes=classes,
        kernel=_kernel_from_doc(doc["kernel"]),
        train_points=train_points,
        **block,
    )
