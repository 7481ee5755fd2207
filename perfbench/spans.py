"""Spans around zslkit's layers, recorded from outside the package.

Modules import names directly (``from .kernels import gram_matrix``), so
each wrapper replaces the attribute that the *caller* looks up, e.g.
``zslkit.svr.gram_matrix`` rather than ``zslkit.kernels.gram_matrix``.
Spans live in memory; a layer's figure is its *self* time, the span's
duration minus the part its traced children cover, so the layer figures
of one evaluation add up to (nearly) its wall time.

Untraced runs install only the unit markers: the return of
``generate_splits`` / ``load_folds`` ends set-up and opens the first unit,
and each return of ``write_predictions_csv`` closes a unit. A set-up probe
raises :class:`SetupDone` at the end of set-up, before the run directory
is created, so set-up can be sampled more often than whole evaluations.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import zslkit.evaluate
import zslkit.kernels
import zslkit.smo
import zslkit.svc
import zslkit.svr
import zslkit.zsl

UNIT = "evaluate.unit"


class SetupDone(Exception):
    """Raised at the end of set-up when the recorder only probes set-up."""


def _chi2_cells(args, result):
    return {"cells": args[0].shape[0] * args[1].shape[0]}


def _tokens(args, result):
    return {"tokens": len(result)}


def _iterations(args, result):
    return {"iterations": result.iterations}


def _pool(args, result):
    return {"support_vectors": int(result.pool_indices.size)}


# (module, attribute, span name, counter) for every traced call site.
TRACED = (
    (zslkit.evaluate, "load_dataset", "data.load_dataset", None),
    (zslkit.evaluate, "load_embeddings", "embedding.load_embeddings", _tokens),
    (zslkit.evaluate, "heuristic_gamma", "kernels.heuristic_gamma", None),
    (zslkit.svr, "gram_matrix", "kernels.gram_matrix", None),
    (zslkit.svc, "gram_matrix", "kernels.gram_matrix", None),
    (zslkit.kernels, "chi2_distance_matrix", "kernels.chi2_distance_matrix", _chi2_cells),
    (zslkit.kernels, "squared_euclidean_matrix", "kernels.sqeuclid_matrix", None),
    (zslkit.smo, "solve", "smo.solve", _iterations),
    (zslkit.evaluate, "train_semantic_regressor", "svr.train_semantic_regressor", _pool),
    (zslkit.svr, "train_svr", "svr.train_svr", None),
    (zslkit.zsl, "predict_batch", "svr.predict_batch", None),
    (zslkit.evaluate, "predict_batch", "svr.predict_batch", None),
    (zslkit.evaluate, "train_svc", "svc.train_svc", None),
    (zslkit.evaluate, "classify_batch", "svc.classify_batch", None),
    (zslkit.evaluate, "augment_training", "zsl.augment_training", None),
    (zslkit.evaluate, "zsl_predict", "zsl.zsl_predict", None),
    (zslkit.zsl, "self_train", "zsl.self_train", None),
    (zslkit.zsl, "nearest_prototype", "zsl.nearest_prototype", None),
    (zslkit.evaluate, "save_report", "evaluate.save_report", None),
)

# Per-layer metric name for each span's self time.
SELF_METRICS = {
    "data.load_dataset": "data.load_dataset_s",
    "embedding.load_embeddings": "embedding.load_embeddings_s",
    "kernels.heuristic_gamma": "kernels.heuristic_gamma_s",
    "kernels.gram_matrix": "kernels.gram_matrix_s",
    "kernels.chi2_distance_matrix": "kernels.chi2_distance_matrix_s",
    "kernels.sqeuclid_matrix": "kernels.sqeuclid_matrix_s",
    "svr.train_semantic_regressor": "svr.train_semantic_regressor_s",
    "svr.train_svr": "svr.train_svr_self_s",
    "svr.predict_batch": "svr.predict_batch_s",
    "svc.train_svc": "svc.train_svc_s",
    "svc.classify_batch": "svc.classify_batch_s",
    "zsl.augment_training": "zsl.augment_training_s",
    "zsl.zsl_predict": "zsl.zsl_predict_self_s",
    "zsl.self_train": "zsl.self_train_s",
    "zsl.nearest_prototype": "zsl.nearest_prototype_s",
    "evaluate.save_report": "evaluate.save_report_s",
    UNIT: "evaluate.unit_self_s",
}

# smo.solve is reported per dual kind, named by the span that called it.
SOLVE_PARENT = {"svr.train_svr": "svr", "svc.train_svc": "svc"}

# Metrics that must repeat exactly for one seed.
EXACT_COUNTS = (
    "kernels.chi2_cells",
    "smo.iterations.svr",
    "smo.iterations.svc",
    "smo.solves.svr",
    "smo.solves.svc",
    "svr.support_vectors",
    "zsl.nearest_prototype_calls",
    "embedding.tokens",
)


class Recorder:
    """Spans of one evaluation call: ``[name, parent, start, end, counters]``."""

    def __init__(self, setup_only: bool = False) -> None:
        self.setup_only = setup_only
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.setup_end: float | None = None
        self.units_left = 0
        self.units_done = 0

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def end_setup(self, n_units: int) -> None:
        """Mark the end of set-up and open the first unit span."""
        self.setup_end = time.perf_counter()
        if self.setup_only:
            raise SetupDone
        self.units_left = n_units
        self.open(UNIT)

    def end_unit(self) -> None:
        """Close the open unit span and open the next one, if any remain."""
        self.close(self._stack[-1])
        self.units_done += 1
        self.units_left -= 1
        if self.units_left:
            self.open(UNIT)

    def unit_durations(self) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[0] == UNIT and s[3] is not None]

    def layer_totals(self) -> dict[str, float]:
        """Self time per layer metric plus the counts, for one evaluation."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {m: 0.0 for m in SELF_METRICS.values()}
        for kind in SOLVE_PARENT.values():
            for key in ("solve_s", "solves", "iterations"):
                out[f"smo.{key}.{kind}"] = 0
        out.update({"kernels.chi2_cells": 0, "svr.support_vectors": 0,
                    "zsl.nearest_prototype_calls": 0, "embedding.tokens": 0})
        for i, (name, parent, start, end, counters) in enumerate(self.spans):
            self_s = end - start - child[i]
            if name == "smo.solve":
                kind = SOLVE_PARENT[self.spans[parent][0]]
                out[f"smo.solve_s.{kind}"] += self_s
                out[f"smo.solves.{kind}"] += 1
                out[f"smo.iterations.{kind}"] += counters["iterations"]
                continue
            out[SELF_METRICS[name]] += self_s
            if name == "kernels.chi2_distance_matrix":
                out["kernels.chi2_cells"] += counters["cells"]
            elif name == "svr.train_semantic_regressor":
                out["svr.support_vectors"] += counters["support_vectors"]
            elif name == "zsl.nearest_prototype":
                out["zsl.nearest_prototype_calls"] += 1
            elif name == "embedding.load_embeddings":
                out["embedding.tokens"] += counters["tokens"]
        return out


def _span(rec: Recorder, fn, name: str, counter):
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if counter is not None:
            rec.spans[idx][4] = counter(args, result)
        return result

    return wrapper


def _setup_end(rec: Recorder, fn):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        rec.end_setup(len(result))
        return result

    return wrapper


def _unit_end(rec: Recorder, fn):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        rec.end_unit()
        return result

    return wrapper


@contextmanager
def instrument(rec: Recorder, traced: bool):
    """Install the unit markers (and, when ``traced``, every layer span)
    for the duration of one evaluation call, then restore the originals."""
    patches = [
        (zslkit.evaluate, "generate_splits", _setup_end),
        (zslkit.evaluate, "load_folds", _setup_end),
        (zslkit.evaluate, "write_predictions_csv", _unit_end),
    ]
    saved = []
    try:
        for module, attr, make in patches:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, make(rec, getattr(module, attr)))
        if traced:
            for module, attr, name, counter in TRACED:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, _span(rec, getattr(module, attr), name, counter))
        yield rec
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
