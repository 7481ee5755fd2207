"""The benchmark in ``perfbench/`` patches module attributes of zslkit to
time each layer. These tests run both evaluation loops under its traced
instrumentation, so a renamed or import-time-bound hook fails here."""

import sys
from pathlib import Path

import test_evaluate_cli as ev
import zslkit.evaluate
from zslkit.data import load_dataset
from zslkit.embedding import label_tokens
from zslkit.evaluate import run_multishot_evaluation, run_zsl_evaluation

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402

toy_world = ev.toy_world


def traced(evaluate, config, monkeypatch):
    """Run ``evaluate`` under the benchmark's spans; also return every
    regressor and classifier the loop trained."""
    models = {"train_semantic_regressor": [], "train_svc": []}
    for name, kept in models.items():
        train = getattr(zslkit.evaluate, name)

        def keep(*args, _train=train, _kept=kept, **kwargs):
            model = _train(*args, **kwargs)
            _kept.append(model)
            return model

        monkeypatch.setattr(zslkit.evaluate, name, keep)
    rec = spans.Recorder()
    with spans.instrument(rec, traced=True):
        report, _ = evaluate(config)
    return rec, report, rec.layer_totals(), models


def assert_chi2_blocks(rec, layers, datasets):
    """One traced chi-square call, over every run row against itself,
    reached through ``zslkit.kernels.chi2_distance_matrix``; and an
    embedding store holding only the labels' tokens."""
    n = sum(len(ds) for ds in datasets)
    assert [s[0] for s in rec.spans].count("kernels.chi2_distance_matrix") == 1
    assert layers["kernels.chi2_cells"] == n * n
    vocabulary = [label for ds in datasets for label in ds.class_vocabulary]
    assert layers["embedding.tokens"] == len(label_tokens(vocabulary))


def spans_per_unit(rec, name):
    """How many ``name`` spans each unit span holds, in unit order."""

    def unit_of(i):
        while i != -1 and rec.spans[i][0] != spans.UNIT:
            i = rec.spans[i][1]
        return i

    units = [i for i, span in enumerate(rec.spans) if span[0] == spans.UNIT]
    owners = [unit_of(i) for i, span in enumerate(rec.spans) if span[0] == name]
    return [owners.count(u) for u in units]


def test_zsl_loop_keeps_hooks(toy_world, tmp_path, monkeypatch):
    config = ev.base_config(
        toy_world, tmp_path, k_neighbors=5, auxiliary_path=str(toy_world["aux"])
    )
    rec, report, layers, models = traced(run_zsl_evaluation, config, monkeypatch)
    assert rec.units_done == len(report.per_split_accuracy) == config.split_count
    regressors = models["train_semantic_regressor"]
    assert len(regressors) == config.split_count
    # one batched solve per regressor, counting every dimension's updates
    assert layers["smo.solves.svr"] == config.split_count
    assert layers["smo.iterations.svr"] == sum(int(r.iterations.sum()) for r in regressors) > 0
    assert layers["smo.solves.svc"] == 0
    # the toy world's exact counts: a solver change that moves any row's
    # iterates moves them
    assert (layers["smo.iterations.svr"], layers["smo.iterations.svc"]) == (1425, 0)
    assert layers["zsl.nearest_prototype_calls"] == config.split_count
    datasets = [load_dataset(toy_world["target"]), load_dataset(toy_world["aux"])]
    assert_chi2_blocks(rec, layers, datasets)
    # set-up, which the benchmark times up to the return of generate_splits,
    # parses every input
    parses = [s for s in rec.spans if s[0] in ("data.load_dataset", "embedding.load_embeddings")]
    assert len(parses) == 3
    assert all(end <= rec.setup_end for _, _, _, end, _ in parses)


def test_multishot_loop_keeps_hooks(toy_world, tmp_path, monkeypatch):
    folds_path = tmp_path / "folds.json"
    ev.TestMultishot()._write_folds(folds_path, load_dataset(toy_world["target"]))
    config = ev.base_config(toy_world, tmp_path, folds_path=str(folds_path))
    rec, report, layers, models = traced(run_multishot_evaluation, config, monkeypatch)
    folds = len(report.per_split_accuracy)
    assert rec.units_done == folds == 2
    regressors, classifiers = models["train_semantic_regressor"], models["train_svc"]
    assert len(regressors) == len(classifiers) == folds
    assert layers["smo.solves.svr"] == folds
    assert layers["smo.solves.svc"] == folds
    assert layers["smo.iterations.svr"] == sum(int(r.iterations.sum()) for r in regressors) > 0
    assert layers["smo.iterations.svc"] == sum(int(m.iterations.sum()) for m in classifiers) > 0
    # the count with C-ordered training kernel rows: an F-ordered copy of
    # the same values rounds differently in the projection, and moves it
    assert (layers["smo.iterations.svr"], layers["smo.iterations.svc"]) == (1010, 1189)
    # each fold's SVM takes its training distances and its test-vs-train
    # distances, and the exp of the test kernel rows
    assert spans_per_unit(rec, "kernels.sqeuclid_matrix") == [2] * folds
    assert spans_per_unit(rec, "kernels.gram_matrix") == [1] * folds
    assert_chi2_blocks(rec, layers, [load_dataset(toy_world["target"])])
