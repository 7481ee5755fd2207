"""The benchmark in ``perfbench/`` patches module attributes of zslkit to
time each layer. These tests run both evaluation loops under its traced
instrumentation, so a renamed or import-time-bound hook fails here."""

import sys
from pathlib import Path

import test_evaluate_cli as ev
from zslkit.data import load_dataset
from zslkit.evaluate import run_multishot_evaluation, run_zsl_evaluation

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402

toy_world = ev.toy_world


def traced(evaluate, config):
    rec = spans.Recorder()
    with spans.instrument(rec, traced=True):
        report, _ = evaluate(config)
    return rec, report, rec.layer_totals()


def test_zsl_loop_keeps_hooks(toy_world, tmp_path):
    config = ev.base_config(
        toy_world, tmp_path, self_train=True, k_neighbors=5,
        augment=True, auxiliary_path=str(toy_world["aux"]),
    )
    rec, report, layers = traced(run_zsl_evaluation, config)
    assert rec.units_done == len(report.per_split_accuracy) == config.split_count
    assert layers["smo.solves.svr"] > 0
    assert layers["zsl.nearest_prototype_calls"] == config.split_count


def test_multishot_loop_keeps_hooks(toy_world, tmp_path):
    folds_path = tmp_path / "folds.json"
    ev.TestMultishot()._write_folds(folds_path, load_dataset(toy_world["target"]))
    config = ev.base_config(toy_world, tmp_path, folds_path=str(folds_path))
    rec, report, layers = traced(run_multishot_evaluation, config)
    assert rec.units_done == len(report.per_split_accuracy) == 2
    assert layers["smo.solves.svr"] > 0
    assert layers["smo.solves.svc"] > 0
