"""JSON persistence for a trained semantic regressor.

A model file is ``{"schema": "zslkit-model", "version": 2, "type":
"semantic_regressor", ...}``: the regressor's kernel, ``n_train``,
``pool_indices``, ``coefficients``, ``biases``, ``iterations`` and
``dual_objectives``, plus the support pool's feature rows
(``pool_features``, ``feature_dim``), which a standalone model needs to
compute kernel rows for new instances. Floats are written with shortest
round-trip repr, so load(save(model)) equals the model.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .kernels import RBF_CHI2, KernelSpec
from .svr import SemanticRegressor

SCHEMA = "zslkit-model"
VERSION = 2
TYPE = "semantic_regressor"


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


def save_model(
    regressor: SemanticRegressor, pool_features: np.ndarray, path: str | Path
) -> None:
    """Write ``regressor`` with ``pool_features``, the feature rows of its
    support pool in ``pool_indices`` order, (pool size, d_x)."""
    pool_features = np.asarray(pool_features, dtype=np.float64)
    if pool_features.ndim != 2 or pool_features.shape[0] != regressor.pool_indices.size:
        raise ValueError(
            f"pool_features has shape {pool_features.shape}, expected "
            f"({regressor.pool_indices.size}, d_x)"
        )
    doc = {
        "schema": SCHEMA,
        "version": VERSION,
        "type": TYPE,
        "kernel": {"kind": regressor.kernel.kind, "gamma": regressor.kernel.gamma},
        "n_train": regressor.n_train,
        "feature_dim": pool_features.shape[1],
        "pool_indices": [int(i) for i in regressor.pool_indices],
        "pool_features": _matrix(pool_features),
        "coefficients": _matrix(regressor.coefficients),
        "biases": [float(v) for v in regressor.biases],
        "iterations": [int(v) for v in regressor.iterations],
        "dual_objectives": [float(v) for v in regressor.dual_objectives],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> tuple[SemanticRegressor, np.ndarray]:
    """The regressor saved at ``path`` and its support pool's feature rows."""
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
    if doc.get("type") != TYPE:
        raise ValueError(f"{path}: unknown model type {doc.get('type')!r}")
    try:
        return _load_regressor(doc, path)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from None


def _load_regressor(doc: dict, path: Path) -> tuple[SemanticRegressor, np.ndarray]:
    n_train = int(doc["n_train"])
    pool_indices = _array(doc, "pool_indices", int, path)
    outside = (pool_indices < 0) | (pool_indices >= n_train)
    if pool_indices.ndim != 1 or outside.any() or np.unique(pool_indices).size != pool_indices.size:
        raise ValueError(
            f"{path}: pool_indices must be distinct indices in [0, n_train={n_train})"
        )
    pool = pool_indices.size
    pool_features = _array(doc, "pool_features", np.float64, path)
    feature_dim = int(doc["feature_dim"])
    if pool_features.size == 0:
        # an empty pool keeps its width only through feature_dim
        pool_features = pool_features.reshape(0, feature_dim)
    if pool_features.shape != (pool, feature_dim):
        raise ValueError(
            f"{path}: pool_features has shape {pool_features.shape}, expected "
            f"({pool}, {feature_dim}) to match pool_indices and feature_dim"
        )
    coefficients = _array(doc, "coefficients", np.float64, path)
    if coefficients.ndim != 2 or coefficients.shape[1] != pool:
        raise ValueError(
            f"{path}: coefficients have shape {coefficients.shape}, expected "
            f"{pool} columns to match pool_indices"
        )
    rows = coefficients.shape[0]
    solution = {
        "biases": _array(doc, "biases", np.float64, path),
        "iterations": _array(doc, "iterations", np.int64, path),
        "dual_objectives": _array(doc, "dual_objectives", np.float64, path),
    }
    for name, values in solution.items():
        if values.shape != (rows,):
            raise ValueError(
                f"{path}: {name} has shape {values.shape}, expected ({rows},) "
                f"to match the coefficient rows"
            )
    regressor = SemanticRegressor(
        kernel=_kernel_from_doc(doc["kernel"]),
        n_train=n_train,
        pool_indices=pool_indices,
        coefficients=coefficients,
        **solution,
    )
    return regressor, pool_features
