import argparse
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import zslkit.evaluate
import zslkit.kernels
import zslkit.smo
from zslkit.cli import build_parser, main
from zslkit.data import generate_splits, load_dataset, write_features_csv
from zslkit.embedding import load_embeddings, save_embeddings
from zslkit.evaluate import (
    ExperimentConfig,
    load_folds,
    run_multishot_evaluation,
    run_zsl_evaluation,
)
from zslkit.kernels import distance_matrix, gram_matrix, heuristic_gamma
from zslkit.smo import ConvergenceError
from zslkit.svc import classify_batch, train_svc
from zslkit.svr import predict_batch, train_semantic_regressor
from zslkit.synthetic import make_world, world_dataset, world_store
from zslkit.zsl import (
    Prediction,
    label_targets,
    normalized_projections,
    write_predictions_csv,
    zsl_predict,
)


@pytest.fixture(scope="module")
def toy_world(tmp_path_factory):
    """A 12-class synthetic world: 8 target classes, 4 auxiliary classes."""
    root = tmp_path_factory.mktemp("world")
    rng = np.random.default_rng(99)
    world = make_world(12, d_x=10, d_z=6, rng=rng, concentration=80.0)
    target = world_dataset(world, list(range(8)), per_class=10, rng=rng, name="target")
    aux = world_dataset(world, list(range(8, 12)), per_class=10, rng=rng, name="aux")
    store = world_store(world)
    paths = {
        "target": root / "target.csv",
        "aux": root / "aux.csv",
        "embeddings": root / "embeddings.txt",
    }
    write_features_csv(paths["target"], target.ids, target.labels, target.features)
    write_features_csv(paths["aux"], aux.ids, aux.labels, aux.features)
    save_embeddings(store, paths["embeddings"])
    return paths


def base_config(toy_world, out_dir, **overrides) -> ExperimentConfig:
    config = ExperimentConfig(
        target_path=str(toy_world["target"]),
        embedding_path=str(toy_world["embeddings"]),
        out_dir=str(out_dir),
        split_count=2,
        split_seed=7,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def reference_regressor(config: ExperimentConfig, x: np.ndarray, targets: np.ndarray):
    """The gamma and the regressor of training rows ``x``, from their own
    Gram matrix."""
    gamma = heuristic_gamma(x)
    gram = gram_matrix(gamma, distance_matrix(x))
    return gamma, train_semantic_regressor(targets, gram, config.svr_c, config.svr_epsilon)


def class_rows(dataset, classes) -> list[int]:
    """Rows of ``dataset`` labelled with one of ``classes``, in order."""
    keys = {lab.key for lab in classes}
    return [i for i, lab in enumerate(dataset.labels) if lab.key in keys]


def write_class_subset(dataset, classes, path) -> None:
    rows = class_rows(dataset, classes)
    write_features_csv(
        path, [dataset.ids[i] for i in rows], [dataset.labels[i] for i in rows],
        dataset.features[rows],
    )


def reference_zsl_predictions(config: ExperimentConfig, out_dir) -> None:
    """Per-split prediction CSVs from features, each split computing its
    own distances."""
    target = load_dataset(config.target_path)
    store = load_embeddings(config.embedding_path)
    auxiliary = None if config.auxiliary_path is None else load_dataset(config.auxiliary_path)
    for split in generate_splits(target.class_vocabulary, config.split_count, config.split_seed):
        train, test = class_rows(target, split.seen), class_rows(target, split.unseen)
        labels = [target.labels[i] for i in train]
        x = target.features[train]
        if auxiliary is not None:
            labels += auxiliary.labels
            x = np.vstack([x, auxiliary.features])
        targets = label_targets(labels, store)
        gamma, regressor = reference_regressor(config, x, targets)
        kernel_rows = gram_matrix(
            gamma, distance_matrix(target.features[test], x[regressor.pool_indices])
        )
        write_predictions_csv(
            zsl_predict(
                regressor, label_targets(split.unseen, store), split.unseen, kernel_rows,
                [target.ids[i] for i in test], config.k_neighbors,
            ),
            out_dir / f"split_{split.index:03d}.csv",
        )


def reference_multishot_predictions(config: ExperimentConfig, out_dir) -> None:
    """Per-fold prediction CSVs from features, each fold computing its own
    distances."""
    dataset = load_dataset(config.target_path)
    store = load_embeddings(config.embedding_path)
    row_of = {id_: i for i, id_ in enumerate(dataset.ids)}
    folds = json.loads(Path(config.folds_path).read_text())["folds"]
    for index, fold in enumerate(folds, start=1):
        train, test = ([row_of[id_] for id_ in fold[side]] for side in ("train", "test"))
        train_labels = [dataset.labels[i] for i in train]
        x = dataset.features[train]
        gamma, regressor = reference_regressor(config, x, label_targets(train_labels, store))
        pool = x[regressor.pool_indices]
        train_proj, test_proj = (
            normalized_projections(
                predict_batch(
                    regressor, gram_matrix(gamma, distance_matrix(dataset.features[rows], pool))
                ),
                [dataset.ids[i] for i in rows],
            )
            for rows in (train, test)
        )
        model = train_svc(train_proj, train_labels, config.svc_c)
        predicted = classify_batch(model, test_proj)
        write_predictions_csv(
            [Prediction(id_, lab, float("nan")) for id_, lab in zip(fold["test"], predicted)],
            out_dir / f"fold_{index:03d}.csv",
        )


def assert_same_predictions(run_dir, ref_dir) -> None:
    """Byte-identical prediction CSVs."""
    names = sorted(p.name for p in ref_dir.iterdir())
    assert names and names == sorted(p.name for p in (run_dir / "predictions").iterdir())
    for name in names:
        got = (run_dir / "predictions" / name).read_text()
        assert got == (ref_dir / name).read_text(), name


class TestZslEvaluation:
    def test_regressor_beats_chance(self, toy_world, tmp_path):
        report, run_dir = run_zsl_evaluation(base_config(toy_world, tmp_path))
        assert report.mode == "zsl"
        assert report.variant == "NN"
        assert len(report.per_split_accuracy) == 2
        assert report.mean_accuracy > 40.0  # chance is 25% on 4 unseen classes
        assert (run_dir / "report.json").is_file()
        assert (run_dir / "predictions" / "split_001.csv").is_file()
        assert (run_dir / "splits" / "split_002.json").is_file()

    def test_report_invariants(self, toy_world, tmp_path):
        report, _ = run_zsl_evaluation(base_config(toy_world, tmp_path))
        acc = np.asarray(report.per_split_accuracy)
        assert report.mean_accuracy == pytest.approx(float(acc.mean()), abs=1e-9)
        assert report.std_accuracy == pytest.approx(float(acc.std()), abs=1e-9)
        assert all(0.0 <= a <= 100.0 for a in report.per_split_accuracy)
        total = sum(
            count for row in report.confusion.values() for count in row.values()
        )
        assert total == sum(report.n_test_per_split)

    def test_variants_are_labelled(self, toy_world, tmp_path):
        config = base_config(
            toy_world, tmp_path, k_neighbors=5, auxiliary_path=str(toy_world["aux"])
        )
        report, _ = run_zsl_evaluation(config)
        assert report.variant == "NN+ST+Aux"

    def test_random_predictor_near_chance(self, toy_world, tmp_path):
        config = base_config(
            toy_world, tmp_path, predictor="random", split_count=40
        )
        report, _ = run_zsl_evaluation(config)
        assert report.variant == "Random"
        assert abs(report.mean_accuracy - 25.0) < 8.0

    def test_single_unseen_class_forces_perfect_accuracy(self, toy_world, tmp_path):
        # restrict the target to 2 classes: one seen, one unseen
        ds = load_dataset(toy_world["target"])
        path = tmp_path / "two.csv"
        write_class_subset(ds, ds.class_vocabulary[:2], path)
        config = base_config(toy_world, tmp_path, split_count=1)
        config.target_path = str(path)
        report, _ = run_zsl_evaluation(config)
        assert report.per_split_accuracy == [100.0]

    def test_matches_per_split_reference(self, toy_world, tmp_path):
        config = base_config(
            toy_world, tmp_path, k_neighbors=5, split_count=3,
            auxiliary_path=str(toy_world["aux"]),
        )
        _, run_dir = run_zsl_evaluation(config)
        ref_dir = tmp_path / "reference"
        ref_dir.mkdir()
        reference_zsl_predictions(config, ref_dir)
        assert_same_predictions(run_dir, ref_dir)

    def test_units_copy_no_feature_rows(self, tmp_path, monkeypatch):
        # wide histograms make one copy of the target's rows stand out
        rng = np.random.default_rng(3)
        world = make_world(4, d_x=4000, d_z=6, rng=rng, concentration=80.0)
        target = world_dataset(world, list(range(4)), per_class=6, rng=rng, name="wide")
        write_features_csv(tmp_path / "wide.csv", target.ids, target.labels, target.features)
        save_embeddings(world_store(world), tmp_path / "embeddings.txt")
        config = ExperimentConfig(
            target_path=str(tmp_path / "wide.csv"),
            embedding_path=str(tmp_path / "embeddings.txt"),
            out_dir=str(tmp_path / "runs"),
            split_count=2,
        )
        # traced growth from a unit's first call to its last
        growth: list[int] = []
        save_split = zslkit.evaluate.save_split
        write_predictions = zslkit.evaluate.write_predictions_csv

        def unit_start(*args):
            tracemalloc.reset_peak()
            growth.append(-tracemalloc.get_traced_memory()[0])
            return save_split(*args)

        def unit_end(*args):
            growth[-1] += tracemalloc.get_traced_memory()[1]
            return write_predictions(*args)

        monkeypatch.setattr(zslkit.evaluate, "save_split", unit_start)
        monkeypatch.setattr(zslkit.evaluate, "write_predictions_csv", unit_end)
        tracemalloc.start()
        try:
            run_zsl_evaluation(config)
        finally:
            tracemalloc.stop()
        assert len(growth) == 2
        assert max(growth) < target.features.nbytes / 2

    def test_auxiliary_dimension_mismatch_fails(self, toy_world, tmp_path):
        ds = load_dataset(toy_world["aux"])
        path = tmp_path / "narrow_aux.csv"
        write_features_csv(path, ds.ids, ds.labels, ds.features[:, :-1])
        config = base_config(toy_world, tmp_path, auxiliary_path=str(path))
        with pytest.raises(ValueError, match="feature dimension mismatch"):
            run_zsl_evaluation(config)

    def test_missing_label_word_fails_at_setup(self, toy_world, tmp_path):
        label = load_dataset(toy_world["target"]).class_vocabulary[3]
        (token,) = label.tokens
        store = load_embeddings(toy_world["embeddings"])
        del store.table[token]
        save_embeddings(store, tmp_path / "embeddings.txt")
        config = base_config(
            toy_world, tmp_path / "runs", embedding_path=str(tmp_path / "embeddings.txt")
        )
        message = f"token {token!r} of label {label.raw!r} not in embedding vocabulary"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_zsl_evaluation(config)
        assert not (tmp_path / "runs").exists()

    def test_random_run_reads_only_the_target_and_split_values(
        self, toy_world, tmp_path, monkeypatch
    ):
        # no word vectors, no auxiliary dataset and no run matrix: a word
        # file without the label words, a missing auxiliary dataset and
        # unset word vectors all run the one experiment
        read = []
        load = zslkit.evaluate.load_dataset

        def load_target(path):
            read.append(str(path))
            return load(path)

        def unread(*args, **kwargs):
            raise AssertionError("the random baseline read an input it does not use")

        monkeypatch.setattr(zslkit.evaluate, "load_dataset", load_target)
        for name in ("load_embeddings", "label_targets", "PackedDistances"):
            monkeypatch.setattr(zslkit.evaluate, name, unread)
        (tmp_path / "no_labels.txt").write_text("1 6\nzebra 1 2 3 4 5 6\n")
        run_dirs = set()
        for values in (
            {"embedding_path": ""},
            {"embedding_path": str(tmp_path / "no_labels.txt")},
            {"auxiliary_path": str(tmp_path / "none.csv"), "k_neighbors": 4, "svr_c": 8.0},
        ):
            config = base_config(toy_world, tmp_path / "runs", predictor="random", **values)
            report, run_dir = run_zsl_evaluation(config)
            assert report.variant == "Random"
            assert sorted(report.config) == [
                "predictor", "split_count", "split_seed", "target_path"
            ]
            run_dirs.add(run_dir)
        assert len(run_dirs) == 1
        assert read == [str(toy_world["target"])] * 3

    def test_camel_case_labels_find_their_words(self, toy_world, tmp_path):
        # UCF101 spells its classes ApplyEyeMakeup, YoYo, ...: each word is
        # a token of the embedding file
        names = [
            "ApplyEyeMakeup", "YoYo", "PlayingDhol", "JumpRope",
            "BlowDryHair", "PommelHorse", "SkyDiving", "WallPushups",
        ]
        target = load_dataset(toy_world["target"])
        camel = dict(zip(target.class_vocabulary, names))
        path = tmp_path / "target.csv"
        d_x = target.features.shape[1]
        lines = ["id,label," + ",".join(f"f{i}" for i in range(d_x))]
        for id_, label, row in zip(target.ids, target.labels, target.features):
            lines.append(",".join([id_, camel[label]] + [repr(float(v)) for v in row]))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        words = sorted({w for name in names for w in re.findall("[A-Z][a-z]+", name)})
        vectors = np.random.default_rng(5).normal(size=(len(words), 6))
        lines = [f"{len(words)} 6"] + [
            w.lower() + " " + " ".join(repr(float(v)) for v in vec)
            for w, vec in zip(words, vectors)
        ]
        (tmp_path / "words.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = base_config(
            toy_world, tmp_path / "runs", target_path=str(path),
            embedding_path=str(tmp_path / "words.txt"),
        )
        report, _ = run_zsl_evaluation(config)
        assert len(report.per_split_accuracy) == config.split_count
        slugs = {"_".join(re.findall("[A-Z][a-z]+", name)).lower() for name in names}
        assert "apply_eye_makeup" in slugs
        assert report.confusion and set(report.confusion) <= slugs

    @pytest.mark.parametrize(
        "k, aux, variant",
        [(None, False, "NN"), (5, False, "NN+ST"), (None, True, "NN+Aux"), (5, True, "NN+ST+Aux")],
        ids=["NN", "NN+ST", "NN+Aux", "NN+ST+Aux"],
    )
    def test_each_value_turns_on_its_variant(self, toy_world, tmp_path, k, aux, variant):
        # self-training is on exactly when K is set, augmentation exactly
        # when an auxiliary dataset is
        aux_path = str(toy_world["aux"]) if aux else None
        config = base_config(toy_world, tmp_path, k_neighbors=k, auxiliary_path=aux_path)
        assert config.variant_name() == variant

    # Python takes True for the integer 1; a path that is not a string
    # would fail later, inside pathlib, without naming its field
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("svr_c", True, "svr_c must be a number, got True"),
            ("split_count", True, "split_count must be an integer, got True"),
            ("k_neighbors", True, "k_neighbors must be an integer, got True"),
            ("svc_c", False, "svc_c must be a number, got False"),
            ("split_seed", 1.5, "split_seed must be an integer, got 1.5"),
            ("target_path", 3, "target_path must be a string, got 3"),
            ("embedding_path", None, "embedding_path must be a string, got None"),
            ("out_dir", 4, "out_dir must be a string, got 4"),
            ("auxiliary_path", True, "auxiliary_path must be a string, got True"),
            ("folds_path", ["f.json"], "folds_path must be a string, got ['f.json']"),
        ],
        ids=[
            "svr_c", "split_count", "k_neighbors", "svc_c", "split_seed",
            "target_path", "embedding_path", "out_dir", "auxiliary_path", "folds_path",
        ],
    )
    def test_value_of_the_wrong_type_rejected(self, toy_world, tmp_path, field, value, message):
        config = base_config(toy_world, tmp_path / "runs")
        setattr(config, field, value)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_zsl_evaluation(config)
        assert not (tmp_path / "runs").exists()

    def test_failing_split_is_named(self, toy_world, tmp_path, monkeypatch):
        def fail(*args):
            raise ValueError("no prediction")

        monkeypatch.setattr(zslkit.evaluate, "zsl_predict", fail)
        with pytest.raises(RuntimeError, match="^split 1 failed: no prediction$"):
            run_zsl_evaluation(base_config(toy_world, tmp_path))

    def test_k_above_a_splits_test_clips_fails_at_set_up(self, toy_world, tmp_path, monkeypatch):
        # each split holds out 4 of the 8 target classes, 40 clips; K=41 is
        # refused before the run matrix is made or a run directory exists
        def no_fill(*args):
            raise AssertionError("the run matrix was made")

        monkeypatch.setattr(zslkit.kernels, "chi2_distance_matrix", no_fill)
        config = base_config(toy_world, tmp_path / "runs", k_neighbors=41)
        with pytest.raises(
            ValueError, match="^split 1: k_neighbors=41 is more than the split's 40 test clips$"
        ):
            run_zsl_evaluation(config)
        assert not (tmp_path / "runs").exists()
        monkeypatch.undo()
        config.k_neighbors = 40
        run_zsl_evaluation(config)

    def test_nonconvergence_keeps_solver_diagnostics(self, toy_world, tmp_path, monkeypatch):
        monkeypatch.setattr(zslkit.smo, "MAX_ITER", 1)
        config = base_config(toy_world, tmp_path)
        with pytest.raises(ConvergenceError, match="^split 1 failed: SVR dual") as err:
            run_zsl_evaluation(config)
        assert err.value.iterations == 1
        assert err.value.violation > 0
        assert err.value.result is not None

    def test_nonconvergence_names_the_output_dimension(
        self, toy_world, tmp_path, monkeypatch, capsys
    ):
        # a budget that the two slowest output dimensions exceed
        counts = []
        solve = zslkit.smo.solve

        def record(*args):
            res = solve(*args)
            counts.append(res.row_iterations)
            return res

        monkeypatch.setattr(zslkit.smo, "solve", record)
        run_zsl_evaluation(base_config(toy_world, tmp_path / "free", split_count=1))
        monkeypatch.setattr(zslkit.smo, "solve", solve)
        (per_dim,) = counts
        budget = int(np.sort(per_dim)[-2]) - 1
        over = per_dim > budget
        assert 2 <= over.sum() < over.size and not (per_dim == budget).any()
        first = int(np.argmax(over))

        monkeypatch.setattr(zslkit.smo, "MAX_ITER", budget)
        config = base_config(toy_world, tmp_path, split_count=1)
        with pytest.raises(ConvergenceError) as err:
            run_zsl_evaluation(config)
        assert str(err.value).startswith(
            f"split 1 failed: SVR dual for output dimension {first} did not converge "
            f"within {budget} passes"
        )
        assert err.value.iterations == budget
        assert err.value.violation == err.value.result.violation[first] > 0
        np.testing.assert_array_equal(err.value.result.converged, ~over)

        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({**config.to_dict("zsl"), "out_dir": config.out_dir}))
        capsys.readouterr()
        assert main(["eval-zsl", "--config", str(config_path)]) == 1
        error = json.loads(capsys.readouterr().err)
        assert f"output dimension {first}" in error["error"]
        assert error["iterations"] == budget
        assert error["violation"] == err.value.violation

    def test_auxiliary_colliding_with_unseen_class_fails_loudly(self, toy_world, tmp_path):
        # auxiliary data reusing a target class must be rejected on any
        # split that holds that class out, at set-up, before any distance
        # is computed or a run directory exists
        ds = load_dataset(toy_world["target"])
        path = tmp_path / "bad_aux.csv"
        write_class_subset(ds, ds.class_vocabulary[:3], path)
        config = base_config(
            toy_world, tmp_path / "runs", auxiliary_path=str(path), split_count=4
        )
        with pytest.raises(ValueError, match=r"^split \d+: auxiliary class '.+' collides"):
            run_zsl_evaluation(config)
        assert not (tmp_path / "runs").exists()

    def test_fingerprint_changes_with_any_field(self, toy_world, tmp_path):
        base = base_config(toy_world, tmp_path)
        seen = {base.fingerprint("zsl")}
        for field, value in [
            ("split_seed", 8),
            ("split_count", 3),
            ("svr_c", 1.0),
            ("svr_epsilon", 0.2),
            ("k_neighbors", 10),
            ("auxiliary_path", str(toy_world["aux"])),
            ("predictor", "random"),
        ]:
            config = base_config(toy_world, tmp_path)
            setattr(config, field, value)
            fp = config.fingerprint("zsl")
            assert fp not in seen, field
            seen.add(fp)
        # where the outputs go is not part of the experiment
        elsewhere = base_config(toy_world, tmp_path / "elsewhere")
        assert elsewhere.fingerprint("zsl") == base.fingerprint("zsl")

    def test_fingerprint_leaves_out_the_fields_a_mode_does_not_read(self, toy_world, tmp_path):
        base = base_config(toy_world, tmp_path, folds_path="folds.json")
        zsl_only = {"split_count", "split_seed", "k_neighbors", "auxiliary_path", "predictor"}
        for field, value in [
            ("svc_c", 1.0), ("folds_path", "other.json"), ("split_count", 3), ("split_seed", 8),
            ("k_neighbors", 4), ("auxiliary_path", str(toy_world["aux"])), ("predictor", "random"),
        ]:
            config = base_config(toy_world, tmp_path, **{"folds_path": "folds.json", field: value})
            for mode, reads in (("zsl", field in zsl_only), ("multishot", field not in zsl_only)):
                assert (field in config.to_dict(mode)) == reads
                assert (config.fingerprint(mode) != base.fingerprint(mode)) == reads, (mode, field)


    def test_zsl_run_skips_range_checks_of_fields_it_does_not_read(self, toy_world, tmp_path):
        _, run_dir = run_zsl_evaluation(base_config(toy_world, tmp_path, split_count=1))
        config = base_config(toy_world, tmp_path, split_count=1, svc_c=0,
                             folds_path=str(tmp_path / "none.json"))
        assert run_zsl_evaluation(config)[1] == run_dir


class TestMultishot:
    def _write_folds(self, path, dataset, per_class=10, train_frac=0.6):
        ids_by_class: dict[str, list[str]] = {}
        for id_, lab in zip(dataset.ids, dataset.labels):
            ids_by_class.setdefault(lab.key, []).append(id_)
        cut = int(per_class * train_frac)
        folds = []
        for swap in (False, True):
            train, test = [], []
            for ids in ids_by_class.values():
                first, second = ids[:cut], ids[cut:]
                if swap:
                    first, second = second, first
                train += first
                test += second
            folds.append({"train": train, "test": test})
        path.write_text(json.dumps({"folds": folds}))

    def test_separable_task_is_perfect(self, toy_world, tmp_path):
        dataset = load_dataset(toy_world["target"])
        folds_path = tmp_path / "folds.json"
        self._write_folds(folds_path, dataset)
        config = base_config(toy_world, tmp_path, folds_path=str(folds_path))
        report, run_dir = run_multishot_evaluation(config)
        assert report.mode == "multishot"
        assert len(report.per_split_accuracy) == 2
        assert report.mean_accuracy > 80.0
        assert report.mean_accuracy == pytest.approx(
            float(np.mean(report.per_split_accuracy)), abs=1e-9
        )
        assert (run_dir / "predictions" / "fold_001.csv").is_file()

    def test_matches_per_fold_reference(self, toy_world, tmp_path):
        folds_path = tmp_path / "folds.json"
        self._write_folds(folds_path, load_dataset(toy_world["target"]))
        config = base_config(toy_world, tmp_path, folds_path=str(folds_path))
        _, run_dir = run_multishot_evaluation(config)
        ref_dir = tmp_path / "reference"
        ref_dir.mkdir()
        reference_multishot_predictions(config, ref_dir)
        assert_same_predictions(run_dir, ref_dir)

    def test_overlapping_fold_rejected(self, toy_world, tmp_path):
        dataset = load_dataset(toy_world["target"])
        folds_path = tmp_path / "folds.json"
        folds_path.write_text(
            json.dumps({"folds": [{"train": dataset.ids[:5], "test": dataset.ids[4:8]}]})
        )
        config = base_config(toy_world, tmp_path, folds_path=str(folds_path))
        with pytest.raises(ValueError, match="overlapping instance ids"):
            run_multishot_evaluation(config)

    @pytest.mark.parametrize(
        "folds, message",
        [
            ([["a"], ["b"]], "fold 1 must be an object, got list"),
            ([{"train": ["a"], "test": ["b"]}, {"train": "ab", "test": "cd"}],
             "fold 2 must list train and test ids as strings"),
            ([{"train": ["a", "a", "b"], "test": ["c"]}], "fold 1 repeats train id 'a'"),
            ([{"train": ["a"], "test": ["b"]}, {"train": ["a", "b"], "test": ["c", "d", "c"]}],
             "fold 2 repeats test id 'c'"),
            ([{"train": ["a"], "test": ["b"]}, {"train": ["a", "b"], "test": ["c", "nope"]}],
             "fold 2 lists unknown test id 'nope'"),
        ],
        ids=["fold_not_object", "ids_not_list", "repeated_train_id", "repeated_test_id",
             "unknown_id"],
    )
    def test_malformed_fold_file_names_path_and_fold(self, tmp_path, folds, message):
        path = tmp_path / "folds.json"
        path.write_text(json.dumps({"folds": folds}))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
            load_folds(path, ["a", "b", "c", "d"])

    def test_missing_folds_path(self, toy_world, tmp_path):
        config = base_config(toy_world, tmp_path)
        with pytest.raises(ValueError, match="folds_path"):
            run_multishot_evaluation(config)


@pytest.fixture(scope="module")
def wide_world(tmp_path_factory):
    """d_x=4000 histograms: 4 target classes and 2 auxiliary classes of 6
    clips, with two instance folds over the target."""
    root = tmp_path_factory.mktemp("wide")
    rng = np.random.default_rng(5)
    world = make_world(6, d_x=4000, d_z=6, rng=rng, concentration=80.0)
    sets = {
        "target": world_dataset(world, list(range(4)), per_class=6, rng=rng, name="target"),
        "aux": world_dataset(world, [4, 5], per_class=6, rng=rng, name="aux"),
    }
    paths = {"embeddings": root / "embeddings.txt", "folds": root / "folds.json"}
    for name, ds in sets.items():
        paths[name] = root / f"{name}.csv"
        write_features_csv(paths[name], ds.ids, ds.labels, ds.features)
    save_embeddings(world_store(world), paths["embeddings"])
    TestMultishot()._write_folds(paths["folds"], sets["target"], per_class=6, train_frac=0.5)
    paths["feature_bytes"] = min(ds.features.nbytes for ds in sets.values())
    return paths


def run_mode(mode: str, config: ExperimentConfig):
    return (run_zsl_evaluation if mode == "zsl" else run_multishot_evaluation)(config)


class TestRunMemory:
    @pytest.mark.parametrize("mode", ["zsl", "multishot"])
    def test_units_start_holding_no_feature_array(self, wide_world, tmp_path, monkeypatch, mode):
        # once the run matrix exists a unit reads only it, so no traced
        # block is as large as the smallest parsed feature array
        config = base_config(
            wide_world, tmp_path, auxiliary_path=str(wide_world["aux"]) if mode == "zsl" else None,
            folds_path=str(wide_world["folds"]),
        )
        largest: list[int] = []
        fit = zslkit.evaluate._fit_regressor

        def first_unit(*args, **kwargs):
            if not largest:
                largest.append(max(t.size for t in tracemalloc.take_snapshot().traces))
            return fit(*args, **kwargs)

        monkeypatch.setattr(zslkit.evaluate, "_fit_regressor", first_unit)
        tracemalloc.start()
        try:
            run_mode(mode, config)
        finally:
            tracemalloc.stop()
        assert largest and largest[0] < wide_world["feature_bytes"]

    # zsl: 120 run rows; a split's 4 seen classes give 40 rows, plus 40
    # auxiliary rows. multi-shot: 80 rows, the larger fold trains on 48.
    # Both regress onto d_z=6 word vectors, and training outweighs the
    # kernel rows a unit gathers after it.
    @pytest.mark.parametrize(
        "mode, n_run, n_unit", [("zsl", 120, 80), ("multishot", 80, 48)]
    )
    def test_over_budget_run_refused_before_distances(
        self, toy_world, tmp_path, monkeypatch, mode, n_run, n_unit
    ):
        # the run matrix stores each pair once, plus one zero diagonal cell;
        # the unit's Gram block sits beside the dual's p, a, cu and cl
        dual = 4 * 6 * 2 * n_unit
        need = 8 * (n_run * (n_run - 1) // 2 + 1 + n_unit**2 + dual)

        def no_distances(*args, **kwargs):
            raise AssertionError("distances computed")

        folds_path = tmp_path / "folds.json"
        TestMultishot()._write_folds(folds_path, load_dataset(toy_world["target"]))
        config = base_config(
            toy_world, tmp_path / "runs",
            auxiliary_path=str(toy_world["aux"]) if mode == "zsl" else None,
            folds_path=str(folds_path),
        )
        monkeypatch.setattr(zslkit.evaluate, "_mem_available", lambda: need - 1)
        with monkeypatch.context() as m:
            m.setattr(zslkit.kernels, "chi2_distance_matrix", no_distances)
            message = (
                f"run needs {need:,} bytes for its {n_run}-row distance matrix and its "
                f"largest unit's {n_unit}-row Gram block with the SVR dual's state "
                f"(6 targets) or its kernel rows, but {need - 1:,} bytes are available"
            )
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                run_mode(mode, config)
        assert not (tmp_path / "runs").exists()
        # the exact need, and one byte short of a dense run matrix
        for budget in (need, 8 * (n_run**2 + n_unit**2 + dual) - 1):
            monkeypatch.setattr(zslkit.evaluate, "_mem_available", lambda b=budget: b)
            run_mode(mode, config)
            assert (tmp_path / "runs").is_dir()

    def test_dual_state_is_counted_before_distances(self, toy_world, tmp_path, monkeypatch):
        # NN: 80 run rows, and a split trains on 40 of them onto d_z=6. A
        # budget that holds the run matrix and the Gram block, but not the
        # dual's four (6, 80) arrays, is refused before the run matrix is made
        gram_only = 8 * (80 * 79 // 2 + 1 + 40**2)

        def no_run_matrix(*args, **kwargs):
            raise AssertionError("the run matrix was made")

        config = base_config(toy_world, tmp_path / "runs")
        with monkeypatch.context() as m:
            m.setattr(zslkit.evaluate, "PackedDistances", no_run_matrix)
            m.setattr(zslkit.evaluate, "_mem_available", lambda: gram_only)
            with pytest.raises(ValueError, match=r"Gram block with the SVR dual's state"):
                run_zsl_evaluation(config)
        assert not (tmp_path / "runs").exists()
        monkeypatch.setattr(zslkit.evaluate, "_mem_available", lambda: gram_only + 8 * 4 * 6 * 80)
        run_zsl_evaluation(config)

    def test_kernel_rows_count_when_they_outweigh_training(self, monkeypatch):
        # the kernel rows are gathered once the Gram block and the dual are
        # freed, so the larger of the two phases counts, not their sum
        packed = 8 * (100 * 99 // 2 + 1)
        train, rows = 10**2 + 4 * 1 * 2 * 10, 90 * 10
        assert train < rows
        monkeypatch.setattr(zslkit.evaluate, "_mem_available", lambda: packed + 8 * rows - 1)
        with pytest.raises(ValueError, match="run needs"):
            zslkit.evaluate._check_memory(100, 10, 90, 1)
        monkeypatch.setattr(zslkit.evaluate, "_mem_available", lambda: packed + 8 * rows)
        zslkit.evaluate._check_memory(100, 10, 90, 1)

    def test_unread_budget_or_random_predictor_is_not_refused(
        self, toy_world, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(zslkit.evaluate, "_mem_available", lambda: None)
        run_zsl_evaluation(base_config(toy_world, tmp_path / "unread"))
        # the random baseline computes no distance matrix
        monkeypatch.setattr(zslkit.evaluate, "_mem_available", lambda: 0)
        run_zsl_evaluation(base_config(toy_world, tmp_path / "random", predictor="random"))

    def test_mem_available_reads_meminfo_or_gives_none(self, monkeypatch):
        available = zslkit.evaluate._mem_available()
        assert available is None or available > 0

        def unreadable(*args, **kwargs):
            raise PermissionError("denied")

        monkeypatch.setattr(zslkit.evaluate, "open", unreadable, raising=False)
        assert zslkit.evaluate._mem_available() is None


class TestCli:
    def test_eval_zsl_exit_zero_and_report(self, toy_world, tmp_path, capsys):
        code = main(
            [
                "eval-zsl",
                "--features", str(toy_world["target"]),
                "--embeddings", str(toy_world["embeddings"]),
                "--out", str(tmp_path / "runs"),
                "--seed", "3",
                "--splits", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "mean accuracy" in out
        reports = list((tmp_path / "runs").glob("*/report.json"))
        assert len(reports) == 1

    def test_error_is_machine_readable_json(self, tmp_path, capsys):
        code = main(
            [
                "eval-zsl",
                "--features", str(tmp_path / "missing.csv"),
                "--embeddings", str(tmp_path / "missing.txt"),
                "--out", str(tmp_path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        error = json.loads(captured.err)
        assert "not found" in error["error"]

    def test_ablation_grid_emits_four_reports(self, toy_world, tmp_path, capsys):
        code = main(
            [
                "eval-zsl",
                "--features", str(toy_world["target"]),
                "--embeddings", str(toy_world["embeddings"]),
                "--augment", str(toy_world["aux"]),
                "--out", str(tmp_path / "runs"),
                "--seed", "5",
                "--splits", "1",
                "--self-train", "5",
                "--ablation-grid",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        reports = sorted((tmp_path / "runs").glob("*/report.json"))
        assert len(reports) == 4
        variants = {json.loads(p.read_text())["variant"] for p in reports}
        assert variants == {"NN", "NN+ST", "NN+Aux", "NN+ST+Aux"}
        for name in ("NN", "NN+ST", "NN+Aux", "NN+ST+Aux"):
            assert name in out

    def test_ablation_grid_checks_every_variant_before_the_first_runs(
        self, toy_world, tmp_path, capsys
    ):
        # the Aux variants' dataset does not exist; the NN variant, which
        # does not read it, must not run and write a report before that is found
        code = main(
            [
                "eval-zsl",
                "--features", str(toy_world["target"]),
                "--embeddings", str(toy_world["embeddings"]),
                "--augment", str(tmp_path / "missing.csv"),
                "--self-train", "5",
                "--out", str(tmp_path / "runs"),
                "--splits", "2",
                "--ablation-grid",
            ]
        )
        assert code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == f"auxiliary dataset not found: {tmp_path / 'missing.csv'}"
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("missing", ["--self-train", "--augment"])
    def test_ablation_grid_needs_k_and_an_auxiliary_dataset(
        self, toy_world, tmp_path, capsys, missing
    ):
        values = {"--self-train": "5", "--augment": str(toy_world["aux"])}
        given = [arg for flag, value in values.items() if flag != missing for arg in (flag, value)]
        code = main(
            [
                "eval-zsl",
                "--features", str(toy_world["target"]),
                "--embeddings", str(toy_world["embeddings"]),
                "--out", str(tmp_path / "runs"),
                "--splits", "1",
                *given,
                "--ablation-grid",
            ]
        )
        assert code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == "--ablation-grid requires --self-train K and --augment <auxiliary dataset>"
        assert not (tmp_path / "runs").exists()

    def test_ablation_grid_runs_are_the_standalone_runs(self, toy_world, tmp_path, capsys):
        # each variant of the grid is the one experiment a standalone run
        # of it is: same run directory, byte-identical files
        common = [
            "eval-zsl",
            "--features", str(toy_world["target"]),
            "--embeddings", str(toy_world["embeddings"]),
            "--seed", "5",
            "--splits", "2",
        ]
        k, aux = ["--self-train", "5"], ["--augment", str(toy_world["aux"])]
        grid, single = tmp_path / "grid", tmp_path / "single"
        assert main([*common, *k, *aux, "--out", str(grid), "--ablation-grid"]) == 0
        for variant in ([], k, aux, [*k, *aux]):
            assert main([*common, *variant, "--out", str(single)]) == 0

        def tree(root):
            return {
                path.relative_to(root).as_posix(): path.read_bytes()
                for path in sorted(root.rglob("*"))
                if path.is_file()
            }

        grid_files = tree(grid)
        assert len({name.split("/")[0] for name in grid_files}) == 4
        assert grid_files == tree(single)

    def test_split_solves_write_the_same_run_directory(self, toy_world, tmp_path, monkeypatch):
        # every solve of the run deals its rows to two forked processes
        argv = [
            "eval-zsl",
            "--features", str(toy_world["target"]),
            "--embeddings", str(toy_world["embeddings"]),
            "--self-train", "5",
            "--augment", str(toy_world["aux"]),
            "--splits", "2",
        ]
        whole, split = tmp_path / "whole", tmp_path / "split"
        assert main([*argv, "--out", str(whole)]) == 0
        forks, fork = [], os.fork

        def counting():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(zslkit.smo, "_SPLIT_MIN_N", 0)
        monkeypatch.setattr(zslkit.kernels, "_worker_count", lambda: 2)
        monkeypatch.setattr(os, "fork", counting)
        assert main([*argv, "--out", str(split)]) == 0
        assert len(forks) == 2  # one solve per split
        diff = subprocess.run(["diff", "-r", str(whole), str(split)], capture_output=True, text=True)
        assert diff.returncode == 0, diff.stdout

    @pytest.mark.parametrize(
        "argv", [["--k-neighbors", "5"], ["--self-train"], ["--self-train", "--k-neighbors", "5"]],
        ids=["k-neighbors", "bare-self-train", "old-spelling"],
    )
    def test_old_self_train_flags_fail(self, toy_world, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(
                [
                    "eval-zsl",
                    "--features", str(toy_world["target"]),
                    "--embeddings", str(toy_world["embeddings"]),
                    "--out", str(tmp_path / "runs"),
                    *argv,
                ]
            )
        assert exit_.value.code != 0
        assert not (tmp_path / "runs").exists()

    def test_subcommands_are_the_two_evaluations(self, tmp_path, capsys):
        (subparsers,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert sorted(subparsers.choices) == ["eval-multishot", "eval-zsl"]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            main(["quantize", "--descriptors", "x.csv", "--k", "4", "--out", str(out)])
        assert exit_.value.code == 2
        assert "invalid choice: 'quantize'" in capsys.readouterr().err
        assert not out.exists()

    def test_every_flag_names_its_config_field(self):
        # _config_from_args copies each config field from the flag whose dest
        # is the field's name; a flag with any other dest would be dropped
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        (subparsers,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        for name, sub in subparsers.choices.items():
            for action in sub._actions:
                if action.dest not in ("help", "config", "ablation_grid"):
                    assert action.dest in fields, (name, action.option_strings, action.dest)

    def test_gamma_is_not_a_setting(self, toy_world, tmp_path, capsys):
        # gamma is always the reciprocal mean distance: an old config's key
        # and the old flag are refused before a run directory exists
        out = tmp_path / "runs"
        config_path = tmp_path / "old.json"
        config_path.write_text(json.dumps({
            "target_path": str(toy_world["target"]),
            "embedding_path": str(toy_world["embeddings"]),
            "out_dir": str(out),
            "gamma": 1.0,
        }))
        assert main(["eval-zsl", "--config", str(config_path)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == f"{config_path}: unknown config field 'gamma'"
        with pytest.raises(SystemExit) as exit_:
            main(["eval-zsl", "--features", str(toy_world["target"]),
                  "--embeddings", str(toy_world["embeddings"]), "--out", str(out), "--gamma", "1"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --gamma 1" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_with_flag_override(self, toy_world, tmp_path, capsys):
        config_path = tmp_path / "exp.json"
        config_path.write_text(
            json.dumps(
                {
                    "target_path": str(toy_world["target"]),
                    "embedding_path": str(toy_world["embeddings"]),
                    "out_dir": str(tmp_path / "runs"),
                    "split_count": 1,
                    "split_seed": 2,
                    "svr_c": 1.5,
                }
            )
        )
        code = main(["eval-zsl", "--config", str(config_path), "--seed", "9"])
        assert code == 0
        report_path = next((tmp_path / "runs").glob("*/report.json"))
        doc = json.loads(report_path.read_text())
        # the flag wins and the resolved value is what got fingerprinted
        assert doc["config"]["split_seed"] == 9
        assert doc["config"]["svr_c"] == 1.5

    def test_integer_and_float_spellings_share_one_run_directory(self, toy_world, tmp_path):
        runs = tmp_path / "runs"
        base = {
            "target_path": str(toy_world["target"]),
            "embedding_path": str(toy_world["embeddings"]),
            "out_dir": str(runs),
            "split_count": 1,
        }
        for k, spelling in enumerate(({"svr_c": 2}, {"svr_c": 2.0})):
            config_path = tmp_path / f"exp{k}.json"
            config_path.write_text(json.dumps({**base, **spelling}))
            assert main(["eval-zsl", "--config", str(config_path)]) == 0
        assert main(["eval-zsl", "--config", str(config_path), "--splits", "1"]) == 0
        (run_dir,) = runs.iterdir()
        config = json.loads((run_dir / "report.json").read_text())["config"]
        assert config["svr_c"] == 2.0

    def test_nonconvergence_error_json_has_diagnostics(
        self, toy_world, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(zslkit.smo, "MAX_ITER", 1)
        config_path = tmp_path / "exp.json"
        config_path.write_text(
            json.dumps(
                {
                    "target_path": str(toy_world["target"]),
                    "embedding_path": str(toy_world["embeddings"]),
                    "out_dir": str(tmp_path / "runs"),
                    "split_count": 1,
                }
            )
        )
        assert main(["eval-zsl", "--config", str(config_path)]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["type"] == "ConvergenceError"
        assert error["error"].startswith("split 1 failed: ")
        assert error["iterations"] == 1
        assert error["violation"] > 0

    def test_unknown_config_field_rejected(self, toy_world, tmp_path, capsys):
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({"target_path": "x", "no_such_field": 1}))
        code = main(["eval-zsl", "--config", str(config_path)])
        assert code == 1
        assert "no_such_field" in json.loads(capsys.readouterr().err)["error"]

    # the solver's stopping tolerance and pass budget are smo constants
    @pytest.mark.parametrize(
        "field",
        ["chi2_halved", "normalize_prototypes", "renormalize_prototypes", "augment", "self_train",
         "svr_tolerance", "svr_max_passes", "svc_tolerance", "svc_max_passes"],
    )
    def test_removed_config_field_rejected(self, tmp_path, capsys, field):
        # refused before any input is read: the target file does not exist
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({"target_path": str(tmp_path / "none.csv"), field: 1}))
        assert main(["eval-zsl", "--config", str(config_path)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == f"{config_path}: unknown config field '{field}'"

    def test_kernel_kind_is_an_unknown_field(self, toy_world, tmp_path, capsys):
        # the regressor's kernel is always chi-square RBF; a config that
        # still names it is rejected rather than silently read
        config_path = tmp_path / "exp.json"
        config_path.write_text(
            json.dumps(
                {
                    "target_path": str(toy_world["target"]),
                    "embedding_path": str(toy_world["embeddings"]),
                    "out_dir": str(tmp_path / "runs"),
                    "kernel_kind": "chi-square",
                }
            )
        )
        assert main(["eval-zsl", "--config", str(config_path)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == f"{config_path}: unknown config field 'kernel_kind'"
        assert not (tmp_path / "runs").exists()

    def test_config_value_of_the_wrong_type_fails(self, toy_world, tmp_path, capsys):
        config_path = tmp_path / "exp.json"
        config_path.write_text(
            json.dumps(
                {
                    "target_path": str(toy_world["target"]),
                    "embedding_path": str(toy_world["embeddings"]),
                    "out_dir": str(tmp_path / "runs"),
                    "split_count": True,
                }
            )
        )
        assert main(["eval-zsl", "--config", str(config_path)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == "split_count must be an integer, got True"
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("svr_c", -1, "svr_c must be positive, got -1"),
            ("svr_epsilon", -0.5, "svr_epsilon must be non-negative, got -0.5"),
            ("svc_c", 0, "svc_c must be positive, got 0"),
            *(
                (name, 10**400, f"{name} is an integer too large for a float")
                for name in ("svr_c", "svc_c", "svr_epsilon")
            ),
        ],
        ids=["svr_c", "svr_epsilon", "svc_c", "svr_c-10**400", "svc_c-10**400",
             "svr_epsilon-10**400"],
    )
    def test_config_solver_value_out_of_range_fails(
        self, toy_world, tmp_path, capsys, field, value, message
    ):
        config_path = tmp_path / "exp.json"
        config_path.write_text(
            json.dumps(
                {
                    "target_path": str(toy_world["target"]),
                    "embedding_path": str(toy_world["embeddings"]),
                    "out_dir": str(tmp_path / "runs"),
                    field: value,
                }
            )
        )
        # eval-zsl does not read svc_c; eval-multishot reads every solver value
        command = "eval-multishot" if field.startswith("svc_") else "eval-zsl"
        assert main([command, "--config", str(config_path)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == message
        assert not (tmp_path / "runs").exists()

    def test_flags_give_typed_config_values(self, toy_world, tmp_path, capsys):
        code = main(
            [
                "eval-zsl",
                "--features", str(toy_world["target"]),
                "--embeddings", str(toy_world["embeddings"]),
                "--out", str(tmp_path / "runs"),
                "--seed", "4",
                "--splits", "1",
                "--self-train", "3",
                "--augment", str(toy_world["aux"]),
            ]
        )
        assert code == 0
        doc = json.loads(next((tmp_path / "runs").glob("*/report.json")).read_text())
        config = doc["config"]
        assert (config["split_seed"], config["split_count"]) == (4, 1)
        assert (config["k_neighbors"], config["auxiliary_path"]) == (3, str(toy_world["aux"]))
        assert doc["variant"] == "NN+ST+Aux"
        assert not {"self_train", "augment", "out_dir"} & set(config)

    def test_random_runs_from_flags_and_from_a_config_are_one_experiment(
        self, toy_world, tmp_path, capsys
    ):
        # the config also sets every value the random baseline does not read
        flags = ["--features", str(toy_world["target"]), "--predictor", "random",
                 "--splits", "2", "--seed", "5"]
        assert main(["eval-zsl", *flags, "--out", str(tmp_path / "flags")]) == 0
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({
            "embedding_path": str(toy_world["embeddings"]), "auxiliary_path": str(toy_world["aux"]),
            "k_neighbors": 4, "svr_c": 8.0, "svr_epsilon": 0.01,
        }))
        config_run = ["eval-zsl", "--config", str(config_path), *flags]
        assert main([*config_run, "--out", str(tmp_path / "config")]) == 0

        def tree(root):
            return {
                path.relative_to(root).as_posix(): path.read_bytes()
                for path in sorted(root.rglob("*"))
                if path.is_file()
            }

        files = tree(tmp_path / "flags")
        assert len({name.split("/")[0] for name in files}) == 1
        assert files == tree(tmp_path / "config")
        # a value the baseline does not read is still type-checked
        config_path.write_text(json.dumps({"svr_c": True}))
        capsys.readouterr()
        assert main([*config_run, "--out", str(tmp_path / "bad")]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "svr_c must be a number, got True"
        assert not (tmp_path / "bad").exists()

    def test_unknown_predictor_is_named(self, toy_world, tmp_path, capsys):
        code = main(["eval-zsl", "--features", str(toy_world["target"]), "--predictor", "bogus",
                     "--out", str(tmp_path / "runs")])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "unknown predictor 'bogus'"
        assert not (tmp_path / "runs").exists()

    def test_ablation_grid_refuses_the_random_baseline(self, toy_world, tmp_path, capsys):
        # refused before any input is read: the target file does not exist
        code = main(
            [
                "eval-zsl",
                "--features", str(tmp_path / "none.csv"),
                "--embeddings", str(toy_world["embeddings"]),
                "--augment", str(toy_world["aux"]),
                "--self-train", "5",
                "--predictor", "random",
                "--out", str(tmp_path / "runs"),
                "--ablation-grid",
            ]
        )
        assert code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == "--ablation-grid does not take --predictor random"
        assert not (tmp_path / "runs").exists()

    def test_random_baseline_guesses_are_pinned(self, tmp_path):
        # the default synthetic corpus, two splits: a change to the split
        # or the guess streams moves these digests
        script = Path(__file__).resolve().parents[1] / "scripts" / "make_synthetic_data.py"
        subprocess.run([sys.executable, str(script), "--out", str(tmp_path / "data")],
                       check=True, capture_output=True)
        assert main(["eval-zsl", "--features", str(tmp_path / "data" / "target.csv"),
                     "--predictor", "random", "--splits", "2", "--out", str(tmp_path)]) == 0
        (predictions,) = tmp_path.glob("*/predictions")
        digests = {p.name: hashlib.md5(p.read_bytes()).hexdigest()
                   for p in sorted(predictions.iterdir())}
        assert digests == {
            "split_001.csv": "8a6cca9d55e0ce2e9430a8cbcd614c90",
            "split_002.csv": "71af2e1e31d56446a7f6bcbb22ad3852",
        }

    def test_eval_multishot_cli(self, toy_world, tmp_path, capsys):
        dataset = load_dataset(toy_world["target"])
        folds_path = tmp_path / "folds.json"
        TestMultishot()._write_folds(folds_path, dataset)
        code = main(
            [
                "eval-multishot",
                "--features", str(toy_world["target"]),
                "--embeddings", str(toy_world["embeddings"]),
                "--folds", str(folds_path),
                "--out", str(tmp_path / "runs"),
            ]
        )
        assert code == 0
        assert "mean accuracy" in capsys.readouterr().out

    def test_multishot_run_identity_leaves_out_zsl_fields(self, toy_world, tmp_path):
        # a config that also sets values only eval-zsl reads, an auxiliary
        # path that does not exist among them, runs the same experiment
        folds_path = tmp_path / "folds.json"
        TestMultishot()._write_folds(folds_path, load_dataset(toy_world["target"]))
        runs = tmp_path / "runs"
        flags = ["--features", str(toy_world["target"]), "--embeddings",
                 str(toy_world["embeddings"]), "--folds", str(folds_path), "--out", str(runs)]
        assert main(["eval-multishot", *flags]) == 0
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({"split_count": 3, "k_neighbors": 4,
                                           "auxiliary_path": str(tmp_path / "none.csv")}))
        assert main(["eval-multishot", "--config", str(config_path), *flags]) == 0
        (run_dir,) = runs.iterdir()
        config = json.loads((run_dir / "report.json").read_text())["config"]
        assert sorted(config) == ["embedding_path", "folds_path", "svc_c", "svr_c", "svr_epsilon",
                                  "target_path"]

