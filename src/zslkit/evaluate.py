"""Experiment harness: configs, zero-shot and multi-shot evaluation runs,
report aggregation and the random-guess baseline.

Every run writes its artifacts under ``<out_dir>/<fingerprint[:12]>/``
where the fingerprint hashes the fully resolved config fields that the
run's mode reads, other than ``out_dir``, so distinct experiments never
silently overwrite each other and identical ones reproduce byte-identical
reports wherever they go.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import smo
from .data import SplitSpec, generate_splits, load_dataset, save_split
from .embedding import Label, label_tokens, load_embeddings
from .kernels import (
    PackedDistances,
    fit_kernel,
    gram_matrix,
    heuristic_gamma,  # noqa: F401  (perfbench/spans.py wraps evaluate.heuristic_gamma)
)
from .svc import classify_batch, train_svc
from .svr import SemanticRegressor, predict_batch, train_semantic_regressor
from .zsl import (
    Prediction,
    augment_training,
    label_targets,
    normalized_projections,
    write_predictions_csv,
    zsl_predict,
)

PREDICTOR_REGRESSOR = "regressor"
PREDICTOR_RANDOM = "random"

# These fields are checked by type before any value is used: Python counts
# True as the integer 1, and pathlib refuses a path that is not a string
# without naming its field.
_PATH_FIELDS = ("target_path", "embedding_path", "out_dir", "auxiliary_path", "folds_path")
_INTEGER_FIELDS = ("k_neighbors", "split_count", "split_seed")
_REAL_FIELDS = ("gamma", "svr_c", "svr_epsilon", "svc_c")

# The fields each kind of run never reads: eval-zsl's regressor, its
# random baseline and eval-multishot. They are left out of the run's
# fingerprint and report, and only type-checked.
_UNREAD = {
    "zsl": ("svc_c", "folds_path"),
    PREDICTOR_RANDOM: ("embedding_path", "auxiliary_path", "k_neighbors", "gamma", "svr_c",
                       "svr_epsilon", "svc_c", "folds_path"),
    "multishot": ("auxiliary_path", "k_neighbors", "split_count", "split_seed", "predictor"),
}


# Each field's range checks, in the order they run: a value that fails
# one raises its message, formatted with the value. The predictor comes
# first, as it decides which fields a zero-shot run reads.
_RANGE_CHECKS = (
    ("predictor", lambda v: v in (PREDICTOR_REGRESSOR, PREDICTOR_RANDOM), "unknown predictor {!r}"),
    ("svr_c", lambda v: math.isfinite(v) and v > 0, "svr_c must be positive, got {}"),
    ("svr_epsilon", lambda v: math.isfinite(v) and v >= 0,
     "svr_epsilon must be non-negative, got {}"),
    ("svc_c", lambda v: math.isfinite(v) and v > 0, "svc_c must be positive, got {}"),
    ("target_path", bool, "target_path is required"),
    ("target_path", lambda v: Path(v).is_file(), "target dataset not found: {}"),
    ("embedding_path", bool, "embedding_path is required"),
    ("embedding_path", lambda v: Path(v).is_file(), "embedding file not found: {}"),
    ("auxiliary_path", lambda v: v is None or Path(v).is_file(), "auxiliary dataset not found: {}"),
    ("k_neighbors", lambda v: v is None or v >= 1, "k_neighbors must be at least 1"),
    ("gamma", lambda v: v == "auto" or math.isfinite(v) and v > 0,
     "gamma must be 'auto' or a positive finite number, got {!r}"),
    ("split_count", lambda v: v >= 1, "split_count must be at least 1"),
    ("split_seed", lambda v: v >= 0, "split_seed must be non-negative"),
    ("folds_path", bool, "eval-multishot requires folds_path"),
    ("folds_path", lambda v: Path(v).is_file(), "folds file not found: {}"),
)


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description; CLI flags override file values
    before resolution. A run augments exactly when ``auxiliary_path`` is
    set and self-trains exactly when ``k_neighbors`` is set."""

    target_path: str = ""
    embedding_path: str = ""
    out_dir: str = "runs"
    auxiliary_path: str | None = None
    k_neighbors: int | None = None
    gamma: float | str = "auto"
    svr_c: float = 2.0
    svr_epsilon: float = 0.1
    svc_c: float = 2.0
    split_count: int = 30
    split_seed: int = 0
    predictor: str = PREDICTOR_REGRESSOR
    folds_path: str | None = None

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(f"{path}: unknown config field {unknown[0]!r}")
        return cls(**doc)

    def to_dict(self, mode: str) -> dict:
        """Every field that a run of ``mode`` ("zsl" or "multishot") reads,
        but ``out_dir``, which is not part of the experiment."""
        if mode == "zsl" and self.predictor == PREDICTOR_RANDOM:
            mode = PREDICTOR_RANDOM
        skip = ("out_dir", *_UNREAD[mode])
        return {k: v for k, v in dataclasses.asdict(self).items() if k not in skip}

    def fingerprint(self, mode: str) -> str:
        payload = json.dumps(self.to_dict(mode), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def validate(self, mode: str) -> None:
        """Type-check every field, then range-check the fields a run of
        ``mode`` reads (those of ``to_dict``) and make the real ones floats."""
        exempt = {"auxiliary_path": None, "folds_path": None, "k_neighbors": None, "gamma": "auto"}
        for name in _PATH_FIELDS + _INTEGER_FIELDS + _REAL_FIELDS:
            value = getattr(self, name)
            if (name, value) in exempt.items():
                continue
            kinds = (
                str if name in _PATH_FIELDS else int if name in _INTEGER_FIELDS else (int, float)
            )
            if isinstance(value, bool) or not isinstance(value, kinds):
                what = {str: "a string", int: "an integer"}.get(kinds, "a number")
                raise ValueError(f"{name} must be {what}, got {value!r}")
            if kinds is not int and isinstance(value, int):
                try:
                    float(value)
                except OverflowError:
                    raise ValueError(f"{name} is an integer too large for a float") from None
        reads = self.to_dict(mode)
        for name, ok, message in _RANGE_CHECKS:
            if name in reads and not ok(reads[name]):
                raise ValueError(message.format(reads[name]))
        # 2 and 2.0 are one experiment, so they get one fingerprint
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if value != "auto":
                setattr(self, name, float(value))

    def variant_name(self) -> str:
        parts = ["NN"]
        if self.k_neighbors is not None:
            parts.append("ST")
        if self.auxiliary_path is not None:
            parts.append("Aux")
        return "+".join(parts)


@dataclass
class EvaluationReport:
    """Per-split accuracies with their aggregate, a config fingerprint and
    aggregated per-class confusion counts."""

    fingerprint: str
    mode: str
    variant: str
    per_split_accuracy: list[float]
    mean_accuracy: float
    std_accuracy: float
    per_split_class_balanced: list[float]
    mean_class_balanced: float
    confusion: dict[str, dict[str, int]]
    config: dict
    n_test_per_split: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def save_report(report: EvaluationReport, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _score(
    truths: list[Label], predictions: list[Prediction], confusion: dict[str, dict[str, int]]
) -> tuple[float, float]:
    """Per-instance accuracy (%) and per-class mean accuracy (%); each
    (truth, prediction) pair is counted into ``confusion``."""
    assert len(truths) == len(predictions)
    per_class: dict[str, list[int]] = {}
    correct = 0
    for truth, pred in zip(truths, predictions):
        hit = int(truth.key == pred.label.key)
        correct += hit
        per_class.setdefault(truth.slug, []).append(hit)
        row = confusion.setdefault(truth.slug, {})
        row[pred.label.slug] = row.get(pred.label.slug, 0) + 1
    n = len(truths)
    accuracy = 100.0 * correct / n if n else 0.0
    balanced = (
        100.0 * float(np.mean([np.mean(v) for v in per_class.values()]))
        if per_class
        else 0.0
    )
    return accuracy, balanced


def _run_features(target: np.ndarray, auxiliary: np.ndarray | None = None) -> np.ndarray:
    """The feature rows of a run's distance matrix: all target rows
    followed by all auxiliary rows."""
    if auxiliary is None or not len(auxiliary):
        return target
    if auxiliary.shape[1] != target.shape[1]:
        raise ValueError(
            f"feature dimension mismatch: target d_x={target.shape[1]}, "
            f"auxiliary d_x={auxiliary.shape[1]}"
        )
    return np.vstack([target, auxiliary])


def _mem_available() -> int | None:
    """MemAvailable from /proc/meminfo in bytes, or None where it cannot
    be read."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _check_memory(n_run: int, n_unit: int) -> None:
    """Refuse a run whose packed (n_run, n_run) distance matrix and largest
    unit's (n_unit, n_unit) Gram block, both float64, exceed the memory
    available now, before any distance is computed."""
    need = 8 * (n_run * (n_run - 1) // 2 + 1 + n_unit * n_unit)
    available = _mem_available()
    if available is not None and need > available:
        raise ValueError(
            f"run needs {need:,} bytes for its {n_run}-row distance matrix and its "
            f"largest unit's {n_unit}-row Gram block, but {available:,} bytes are available"
        )


def _fit_regressor(
    config: ExperimentConfig,
    dist: PackedDistances,
    rows: np.ndarray,
    targets: np.ndarray,
    *row_sets: np.ndarray,
) -> tuple[SemanticRegressor, list[np.ndarray]]:
    """The regressor trained on rows ``rows`` of the run matrix ``dist``
    (regression ``targets`` in the same order) and, for each of
    ``row_sets``, the kernel rows of those run rows against its support
    pool. The Gram matrix and every set of kernel rows are made in place
    over C-ordered blocks gathered from ``dist``; the kernel rows are
    gathered once the Gram matrix is freed.
    """
    gamma, gram = fit_kernel(dist.block(rows, rows), config.gamma)
    regressor = train_semantic_regressor(targets, gram, config.svr_c, config.svr_epsilon)
    del gram  # keep at most the run matrix and one unit's block alive
    pool_rows = rows[regressor.pool_indices]
    return regressor, [gram_matrix(gamma, dist.block(r, pool_rows)) for r in row_sets]


def _class_index(labels: list[Label]) -> tuple[dict[Label, int], np.ndarray]:
    """Each class of ``labels`` with its index, in order of first
    appearance, and the class index of every label."""
    index = {lab: i for i, lab in enumerate(dict.fromkeys(labels))}
    return index, np.array([index[lab] for lab in labels], dtype=np.intp)


def _run_units(
    config: ExperimentConfig,
    mode: str,
    variant: str,
    kind: str,
    units: Sequence[tuple[int, object]],
    fit_predict: Callable[[object, Path], tuple[list[Label], list[Prediction]]],
) -> tuple[EvaluationReport, Path]:
    """The evaluation loop shared by both modes.

    ``fit_predict(unit, run_dir)`` returns a unit's true test labels and
    its predictions; a failure is re-raised naming the ``kind`` ("split"
    or "fold") and index, keeping a solver's diagnostics. Each unit's
    predictions are written and scored, then the report is aggregated and
    saved in the run directory.
    """
    fingerprint = config.fingerprint(mode)
    run_dir = Path(config.out_dir) / fingerprint[:12]
    (run_dir / "predictions").mkdir(parents=True, exist_ok=True)
    accuracies: list[float] = []
    balanced: list[float] = []
    n_tests: list[int] = []
    confusion: dict[str, dict[str, int]] = {}
    for index, unit in units:
        try:
            truths, predictions = fit_predict(unit, run_dir)
        except smo.ConvergenceError as exc:
            raise smo.ConvergenceError(
                f"{kind} {index} failed: {exc}",
                iterations=exc.iterations,
                violation=exc.violation,
                result=exc.result,
            ) from exc
        except Exception as exc:
            raise RuntimeError(f"{kind} {index} failed: {exc}") from exc
        write_predictions_csv(
            predictions, run_dir / "predictions" / f"{kind}_{index:03d}.csv"
        )
        acc, bal = _score(truths, predictions, confusion)
        accuracies.append(acc)
        balanced.append(bal)
        n_tests.append(len(truths))

    acc_arr = np.asarray(accuracies, dtype=np.float64)
    bal_arr = np.asarray(balanced, dtype=np.float64)
    report = EvaluationReport(
        fingerprint=fingerprint,
        mode=mode,
        variant=variant,
        per_split_accuracy=[float(v) for v in acc_arr],
        mean_accuracy=float(acc_arr.mean()),
        std_accuracy=float(acc_arr.std()),  # population std over splits
        per_split_class_balanced=[float(v) for v in bal_arr],
        mean_class_balanced=float(bal_arr.mean()) if bal_arr.size else 0.0,
        confusion=confusion,
        config=config.to_dict(mode),
        n_test_per_split=n_tests,
    )
    save_report(report, run_dir / "report.json")
    return report, run_dir


def run_zsl_evaluation(config: ExperimentConfig) -> tuple[EvaluationReport, Path]:
    """Evaluate the zero-shot pipeline over generated category splits.

    Each class is embedded once, before any split runs. Per split: train
    the regressor on seen-class instances (plus the auxiliary dataset when
    augmenting), take the unseen classes' word vectors as prototypes,
    project and classify the unseen-class instances (self-training the
    prototypes first when enabled), and score per-instance accuracy.
    The random baseline reads only the target and the split values.
    Returns the aggregated report and the run directory.
    """
    config.validate("zsl")
    target = load_dataset(config.target_path)
    if config.predictor == PREDICTOR_RANDOM:
        splits = generate_splits(target.class_vocabulary, config.split_count, config.split_seed)
        name, ids, labels = target.name, target.ids, target.labels
        del target  # a unit reads the ids and labels, not the features
        unit = partial(_random_guesses, name, ids, labels, *_class_index(labels), config.split_seed)
        return _run_units(config, "zsl", "Random", "split", [(s.index, s) for s in splits], unit)
    auxiliary = None if config.auxiliary_path is None else load_dataset(config.auxiliary_path)
    labels = target.labels + (auxiliary.labels if auxiliary is not None else [])
    store = load_embeddings(config.embedding_path, tokens=label_tokens(labels))
    splits = generate_splits(target.class_vocabulary, config.split_count, config.split_seed)
    index, class_of = _class_index(labels)
    # a label whose word the store lacks fails here, before any unit runs
    vectors = label_targets(list(index), store)
    name, ids, n_target = target.name, target.ids, len(target)
    # an auxiliary class that a split holds out, or a K above a split's
    # test clips: augment_training and self_train refuse them too, but only
    # once the run matrix exists
    aux_classes = set(labels[n_target:])
    rows_of = np.bincount(class_of[:n_target], minlength=len(index))
    for split in splits:
        clash = [lab for lab in split.unseen if lab in aux_classes]
        if clash:
            raise ValueError(
                f"split {split.index}: auxiliary class {clash[0].key!r} "
                "collides with an unseen class"
            )
        n_test = sum(int(rows_of[index[lab]]) for lab in split.unseen)
        if config.k_neighbors is not None and config.k_neighbors > n_test:
            raise ValueError(
                f"split {split.index}: k_neighbors={config.k_neighbors} is more than "
                f"the split's {n_test} test clips"
            )
    seen = max(sum(int(rows_of[index[lab]]) for lab in s.seen) for s in splits)
    _check_memory(len(class_of), seen + len(class_of) - n_target)
    features = _run_features(target.features, getattr(auxiliary, "features", None))
    # the per-file rows go before the run matrix is made; a unit reads the
    # matrix, not the features
    del target, auxiliary
    dist = PackedDistances(features)
    del features
    aux_rows = np.arange(n_target, dist.n)

    def fit_predict(split: SplitSpec, run_dir: Path) -> tuple[list[Label], list[Prediction]]:
        save_split(split, name, run_dir / "splits" / f"split_{split.index:03d}.json")
        unseen = np.array([index[lab] for lab in split.unseen], dtype=np.intp)
        is_test = np.isin(class_of[:n_target], unseen)
        train_rows, test_rows = np.flatnonzero(~is_test), np.flatnonzero(is_test)
        rows = np.concatenate([train_rows, aux_rows])
        targets = augment_training(vectors, class_of[rows], list(index), unseen)
        regressor, (kernel_rows,) = _fit_regressor(config, dist, rows, targets, test_rows)
        test_ids = [ids[i] for i in test_rows]
        return [labels[i] for i in test_rows], zsl_predict(
            regressor, vectors[unseen], split.unseen, kernel_rows, test_ids, config.k_neighbors
        )

    units = [(s.index, s) for s in splits]
    return _run_units(config, "zsl", config.variant_name(), "split", units, fit_predict)


def _random_guesses(
    name: str, ids: list[str], labels: list[Label], index: dict[Label, int], class_of: np.ndarray,
    seed: int, split: SplitSpec, run_dir: Path,
) -> tuple[list[Label], list[Prediction]]:
    """The random baseline's unit: each test clip of the split guessed
    uniformly among its unseen classes, from a stream of ``seed`` and the split's index."""
    save_split(split, name, run_dir / "splits" / f"split_{split.index:03d}.json")
    test_rows = np.flatnonzero(np.isin(class_of, [index[lab] for lab in split.unseen]))
    rng = np.random.default_rng([seed, 104729, split.index])
    picks = rng.integers(0, len(split.unseen), size=test_rows.size)
    return [labels[i] for i in test_rows], [
        Prediction(ids[i], split.unseen[k], float("nan")) for i, k in zip(test_rows, picks)
    ]


def _id_list(ids) -> bool:
    return isinstance(ids, list) and bool(ids) and all(isinstance(i, str) for i in ids)


def load_folds(path: str | Path, ids: Sequence[str]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each fold of a folds file as its (train rows, test rows) in the
    dataset whose instance ids are ``ids``, in the order the file lists
    them. A malformed fold or an id not in ``ids`` is named with the path
    and the fold."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    folds = doc.get("folds") if isinstance(doc, dict) else None
    if not isinstance(folds, list) or not folds:
        raise ValueError(f"{path}: expected {{'folds': [{{'train': [...], 'test': [...]}}]}}")
    row_of = {id_: k for k, id_ in enumerate(ids)}
    rows = []
    for i, fold in enumerate(folds, start=1):
        if not isinstance(fold, dict):
            raise ValueError(
                f"{path}: fold {i} must be an object, got {type(fold).__name__}"
            )
        train = fold.get("train")
        test = fold.get("test")
        if not _id_list(train) or not _id_list(test):
            raise ValueError(f"{path}: fold {i} must list train and test ids as strings")
        for name, side in (("train", train), ("test", test)):
            if len(set(side)) != len(side):
                repeated = next(id_ for k, id_ in enumerate(side) if id_ in side[:k])
                raise ValueError(f"{path}: fold {i} repeats {name} id {repeated!r}")
            unknown = [id_ for id_ in side if id_ not in row_of]
            if unknown:
                raise ValueError(f"{path}: fold {i} lists unknown {name} id {unknown[0]!r}")
        overlap = set(train) & set(test)
        if overlap:
            raise ValueError(
                f"{path}: fold {i} has overlapping instance ids (e.g. {sorted(overlap)[0]!r})"
            )
        rows.append(
            tuple(np.array([row_of[id_] for id_ in side], dtype=np.intp) for side in (train, test))
        )
    return rows


def run_multishot_evaluation(config: ExperimentConfig) -> tuple[EvaluationReport, Path]:
    """Standard supervised evaluation over user-supplied instance folds.

    Per fold: train the regressor on the train instances, project both
    folds, L2-normalize, train the one-vs-rest SVM on the train
    projections and classify the test projections.
    """
    config.validate("multishot")
    dataset = load_dataset(config.target_path)
    store = load_embeddings(
        config.embedding_path, tokens=label_tokens(dataset.class_vocabulary)
    )
    folds = load_folds(config.folds_path, dataset.ids)
    index, class_of = _class_index(dataset.labels)
    vectors = label_targets(list(index), store)
    ids, labels = dataset.ids, dataset.labels
    _check_memory(len(ids), max(train.size for train, _ in folds))
    dist = PackedDistances(dataset.features)
    del dataset  # a unit reads the run matrix, not the features

    def fit_predict(
        fold: tuple[np.ndarray, np.ndarray], run_dir: Path
    ) -> tuple[list[Label], list[Prediction]]:
        train_rows, test_rows = fold
        train_labels, test_labels = ([labels[i] for i in rows] for rows in fold)
        train_ids, test_ids = ([ids[i] for i in rows] for rows in fold)
        regressor, kernel_rows = _fit_regressor(
            config, dist, train_rows, vectors[class_of[train_rows]], train_rows, test_rows
        )
        train_proj, test_proj = (
            normalized_projections(predict_batch(regressor, k), ids)
            for k, ids in zip(kernel_rows, (train_ids, test_ids))
        )
        del kernel_rows  # not alive beside the SVM's own Gram matrix
        model = train_svc(train_proj, train_labels, config.svc_c)
        predicted = classify_batch(model, test_proj)
        return test_labels, [
            Prediction(id_, label, float("nan")) for id_, label in zip(test_ids, predicted)
        ]

    return _run_units(
        config, "multishot", "SVM", "fold", list(enumerate(folds, start=1)), fit_predict
    )
