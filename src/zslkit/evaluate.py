"""Experiment harness: configs, zero-shot and multi-shot evaluation runs,
report aggregation and the random-guess baseline.

Every run writes its artifacts under ``<out_dir>/<fingerprint[:12]>/``
where the fingerprint hashes the fully resolved config, so distinct
configs never silently overwrite each other and identical configs
reproduce byte-identical reports.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import smo
from .data import Dataset, SplitSpec, generate_splits, load_dataset, save_split
from .embedding import Label, label_tokens, load_embeddings
from .kernels import (
    KERNEL_KINDS,
    RBF_CHI2,
    distance_matrix,
    fit_kernel,
    heuristic_gamma,  # noqa: F401  (perfbench/spans.py wraps evaluate.heuristic_gamma)
    rbf_from_distances,
)
from .svc import SvcConfig, classify_batch, train_svc
from .svr import SvrConfig, predict_batch, train_semantic_regressor
from .zsl import (
    Prediction,
    SelfTrainConfig,
    ZslProblem,
    augment_training,
    build_prototypes,
    normalized_projections,
    training_pair,
    write_predictions_csv,
    zsl_predict,
)

PREDICTOR_REGRESSOR = "regressor"
PREDICTOR_RANDOM = "random"


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description; every field participates in
    the fingerprint. CLI flags override file values before resolution."""

    target_path: str = ""
    embedding_path: str = ""
    out_dir: str = "runs"
    auxiliary_path: str | None = None
    augment: bool = False
    self_train: bool = False
    k_neighbors: int | None = None
    renormalize_prototypes: bool = True
    normalize_prototypes: bool = True
    kernel_kind: str = RBF_CHI2
    gamma: float | str = "auto"
    chi2_halved: bool = True
    svr_c: float = 2.0
    svr_epsilon: float = 0.1
    svr_tolerance: float = 1e-3
    svr_max_passes: int = 1_000_000
    svc_c: float = 2.0
    svc_tolerance: float = 1e-3
    svc_max_passes: int = 1_000_000
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

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def fingerprint(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def validate(self, mode: str = "zsl") -> None:
        if not self.target_path:
            raise ValueError("target_path is required")
        if not Path(self.target_path).is_file():
            raise ValueError(f"target dataset not found: {self.target_path}")
        if not self.embedding_path:
            raise ValueError("embedding_path is required")
        if not Path(self.embedding_path).is_file():
            raise ValueError(f"embedding file not found: {self.embedding_path}")
        if self.augment:
            if not self.auxiliary_path:
                raise ValueError("augment=true requires auxiliary_path")
            if not Path(self.auxiliary_path).is_file():
                raise ValueError(f"auxiliary dataset not found: {self.auxiliary_path}")
        if self.self_train and self.k_neighbors is None:
            raise ValueError(
                "self_train=true requires k_neighbors to be set explicitly"
            )
        if self.k_neighbors is not None and self.k_neighbors < 1:
            raise ValueError("k_neighbors must be at least 1")
        if self.kernel_kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel_kind {self.kernel_kind!r}")
        if self.gamma != "auto" and not (
            isinstance(self.gamma, (int, float)) and self.gamma > 0
        ):
            raise ValueError("gamma must be 'auto' or a positive number")
        if self.predictor not in (PREDICTOR_REGRESSOR, PREDICTOR_RANDOM):
            raise ValueError(f"unknown predictor {self.predictor!r}")
        if self.split_count < 1:
            raise ValueError("split_count must be at least 1")
        if self.split_seed < 0:
            raise ValueError("split_seed must be non-negative")
        if mode == "multishot":
            if not self.folds_path:
                raise ValueError("eval-multishot requires folds_path")
            if not Path(self.folds_path).is_file():
                raise ValueError(f"folds file not found: {self.folds_path}")

    def svr_config(self) -> SvrConfig:
        return SvrConfig(
            c=self.svr_c,
            epsilon=self.svr_epsilon,
            tolerance=self.svr_tolerance,
            max_passes=self.svr_max_passes,
        )

    def variant_name(self) -> str:
        parts = ["NN"]
        if self.self_train:
            parts.append("ST")
        if self.augment:
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
    truths: list[Label], predictions: list[Prediction]
) -> tuple[float, float, dict[str, dict[str, int]]]:
    """Per-instance accuracy (%), per-class mean accuracy (%), confusion."""
    assert len(truths) == len(predictions)
    confusion: dict[str, dict[str, int]] = {}
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
    return accuracy, balanced, confusion


def _run_distances(
    config: ExperimentConfig, target: Dataset, auxiliary: Dataset | None = None
) -> np.ndarray:
    """Base distances between all target rows followed by all auxiliary
    rows. Every split or fold slices its gamma, Gram matrix and test
    kernel rows from this one matrix."""
    features = target.features
    if auxiliary is not None and len(auxiliary):
        if auxiliary.d_x != target.d_x:
            raise ValueError(
                f"feature dimension mismatch: target d_x={target.d_x}, "
                f"auxiliary d_x={auxiliary.d_x}"
            )
        features = np.vstack([features, auxiliary.features])
    return distance_matrix(config.kernel_kind, features, chi2_halved=config.chi2_halved)


def _row_index(dataset: Dataset, ids: list[str]) -> np.ndarray:
    pos = {id_: i for i, id_ in enumerate(dataset.ids)}
    return np.array([pos[id_] for id_ in ids], dtype=np.intp)


def _random_predictions(
    test: Dataset, unseen: tuple[Label, ...], seed: int, index: int
) -> list[Prediction]:
    rng = np.random.default_rng([seed, 104729, index])
    picks = rng.integers(0, len(unseen), size=len(test))
    return [
        Prediction(test.ids[i], unseen[int(picks[i])], float("nan"))
        for i in range(len(test))
    ]


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
    run_dir = Path(config.out_dir) / config.fingerprint()[:12]
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
        acc, bal, conf = _score(truths, predictions)
        accuracies.append(acc)
        balanced.append(bal)
        n_tests.append(len(truths))
        for truth, row in conf.items():
            out = confusion.setdefault(truth, {})
            for pred, count in row.items():
                out[pred] = out.get(pred, 0) + count

    acc_arr = np.asarray(accuracies, dtype=np.float64)
    bal_arr = np.asarray(balanced, dtype=np.float64)
    report = EvaluationReport(
        fingerprint=config.fingerprint(),
        mode=mode,
        variant=variant,
        per_split_accuracy=[float(v) for v in acc_arr],
        mean_accuracy=float(acc_arr.mean()),
        std_accuracy=float(acc_arr.std()),  # population std over splits
        per_split_class_balanced=[float(v) for v in bal_arr],
        mean_class_balanced=float(bal_arr.mean()) if bal_arr.size else 0.0,
        confusion=confusion,
        config=config.to_dict(),
        n_test_per_split=n_tests,
    )
    save_report(report, run_dir / "report.json")
    return report, run_dir


def run_zsl_evaluation(config: ExperimentConfig) -> tuple[EvaluationReport, Path]:
    """Evaluate the zero-shot pipeline over generated category splits.

    Per split: train the regressor on seen-class instances (plus the
    auxiliary dataset when augmenting), build unseen-class prototypes,
    project and classify the unseen-class instances (self-training the
    prototypes first when enabled), and score per-instance accuracy.
    Returns the aggregated report and the run directory.
    """
    config.validate("zsl")
    target = load_dataset(config.target_path)
    auxiliary = load_dataset(config.auxiliary_path) if config.augment else None
    aux_vocabulary = auxiliary.class_vocabulary if auxiliary is not None else []
    store = load_embeddings(
        config.embedding_path, tokens=label_tokens(target.class_vocabulary + aux_vocabulary)
    )
    splits = generate_splits(target.class_vocabulary, config.split_count, config.split_seed)
    if config.predictor == PREDICTOR_REGRESSOR:
        dist = _run_distances(config, target, auxiliary)
        aux_rows = np.arange(len(target), dist.shape[0])
    st_config = (
        SelfTrainConfig(k=config.k_neighbors, renormalize=config.renormalize_prototypes)
        if config.self_train
        else None
    )

    def fit_predict(split: SplitSpec, run_dir: Path) -> tuple[list[Label], list[Prediction]]:
        (run_dir / "splits").mkdir(exist_ok=True)
        save_split(split, target.name, run_dir / "splits" / f"split_{split.index:03d}.json")
        train_ds = target.subset_classes(list(split.seen))
        test_ds = target.subset_classes(list(split.unseen))
        prototypes = build_prototypes(
            store, list(split.unseen), normalize=config.normalize_prototypes
        )
        problem = ZslProblem(train=train_ds, test=test_ds, prototypes=prototypes)
        if config.predictor == PREDICTOR_RANDOM:
            return test_ds.labels, _random_predictions(
                test_ds, split.unseen, config.split_seed, split.index
            )
        pair = augment_training(train_ds, auxiliary, store, unseen=list(split.unseen))
        rows = np.concatenate([_row_index(target, train_ds.ids), aux_rows])
        kernel, gram = fit_kernel(
            config.kernel_kind, dist[np.ix_(rows, rows)], config.gamma, config.chi2_halved
        )
        regressor = train_semantic_regressor(
            pair.features, pair.embeddings, config.svr_config(), kernel, gram
        )
        del gram  # keep at most the run matrix and one unit's block alive
        test_rows = _row_index(target, test_ds.ids)
        kv = dist[np.ix_(test_rows, rows[regressor.pool_indices])]
        return test_ds.labels, zsl_predict(
            regressor, problem, st_config, rbf_from_distances(kernel.gamma, kv)
        )

    variant = config.variant_name() if config.predictor == PREDICTOR_REGRESSOR else "Random"
    return _run_units(
        config, "zsl", variant, "split", [(s.index, s) for s in splits], fit_predict
    )


def load_folds(path: str | Path) -> list[dict]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    folds = doc.get("folds") if isinstance(doc, dict) else None
    if not isinstance(folds, list) or not folds:
        raise ValueError(f"{path}: expected {{'folds': [{{'train': [...], 'test': [...]}}]}}")
    for i, fold in enumerate(folds, start=1):
        train = fold.get("train")
        test = fold.get("test")
        if not train or not test:
            raise ValueError(f"{path}: fold {i} must list train and test ids")
        overlap = set(train) & set(test)
        if overlap:
            raise ValueError(
                f"{path}: fold {i} has overlapping instance ids (e.g. {sorted(overlap)[0]!r})"
            )
    return folds


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
    folds = load_folds(config.folds_path)
    dist = _run_distances(config, dataset)
    svc_config = SvcConfig(
        c=config.svc_c, tolerance=config.svc_tolerance, max_passes=config.svc_max_passes
    )

    def fit_predict(fold: dict, run_dir: Path) -> tuple[list[Label], list[Prediction]]:
        train_ds = dataset.subset_ids(list(fold["train"]))
        test_ds = dataset.subset_ids(list(fold["test"]))
        pair = training_pair(train_ds, store)
        rows = _row_index(dataset, train_ds.ids)
        kernel, gram = fit_kernel(
            config.kernel_kind, dist[np.ix_(rows, rows)], config.gamma, config.chi2_halved
        )
        regressor = train_semantic_regressor(
            pair.features, pair.embeddings, config.svr_config(), kernel, gram
        )
        pool = regressor.pool_indices
        train_proj = normalized_projections(
            predict_batch(regressor, train_ds.features, gram[:, pool]), train_ds.ids
        )
        del gram  # keep at most the run matrix and one unit's block alive
        kv = dist[np.ix_(_row_index(dataset, test_ds.ids), rows[pool])]
        test_proj = normalized_projections(
            predict_batch(regressor, test_ds.features, rbf_from_distances(kernel.gamma, kv)),
            test_ds.ids,
        )
        model = train_svc(train_proj, train_ds.labels, svc_config)
        predicted = classify_batch(model, test_proj)
        return test_ds.labels, [
            Prediction(id_, label, float("nan")) for id_, label in zip(test_ds.ids, predicted)
        ]

    return _run_units(
        config, "multishot", "SVM", "fold", list(enumerate(folds, start=1)), fit_predict
    )


def simulate_random_guess(
    n_classes: int, n_instances: int, trials: int, seed: int = 0
) -> np.ndarray:
    """Per-trial accuracy fractions of a uniform-random predictor."""
    if n_classes < 1 or n_instances < 1 or trials < 1:
        raise ValueError("n_classes, n_instances and trials must be positive")
    rng = np.random.default_rng(seed)
    truths = rng.integers(0, n_classes, size=(trials, n_instances))
    guesses = rng.integers(0, n_classes, size=(trials, n_instances))
    return (truths == guesses).mean(axis=1)
