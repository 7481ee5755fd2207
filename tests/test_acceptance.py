"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete. Criteria are property-based at desk scale; the full-data
reproduction is an optional, skipped entry (it needs the original video
features and pretrained embeddings).
"""

import time

import numpy as np
import pytest

from qp_oracle import svr_dual_oracle
from zslkit import smo
from zslkit.data import generate_splits, save_split, write_features_csv
from zslkit.embedding import Label, save_embeddings
from zslkit.evaluate import ExperimentConfig, run_zsl_evaluation
from zslkit.kernels import distance_matrix, gram_matrix, heuristic_gamma
from zslkit.svr import predict_batch, train_semantic_regressor, train_svr
from zslkit.synthetic import make_world, world_dataset, world_store
from zslkit.zsl import label_targets, self_train


def report_line(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {description}{suffix}")


def test_criterion_1_svr_oracle_equivalence(monkeypatch):
    monkeypatch.setattr(smo, "TOLERANCE", 1e-10)
    rng = np.random.default_rng(2024)
    started = time.time()
    worst_obj, worst_pred = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(4, 21))
        d = int(rng.integers(3, 12))
        x = rng.dirichlet(np.ones(d), size=n)
        gamma = heuristic_gamma(x)
        gram = gram_matrix(gamma, distance_matrix(x))
        y = rng.normal(size=n)
        epsilon = float(rng.choice([0.0, 0.05, 0.1]))
        res = train_svr(gram, y, 2.0, epsilon)
        beta_o, bias_o, obj_o = svr_dual_oracle(gram, y, 2.0, epsilon)
        probes = rng.dirichlet(np.ones(d), size=5)
        kv = gram_matrix(gamma, distance_matrix(np.vstack([x, probes]), x))
        preds_solver = kv @ res.coef[0] + res.bias[0]
        preds_oracle = kv @ beta_o + bias_o
        worst_obj = max(
            worst_obj,
            abs(-res.objective[0] - obj_o) / max(1.0, abs(obj_o)),
        )
        worst_pred = max(worst_pred, float(np.abs(preds_solver - preds_oracle).max()))
    elapsed = time.time() - started
    ok = worst_obj <= 1e-6 and worst_pred <= 1e-4 and elapsed < 60.0
    report_line(
        1,
        "SVR dual matches brute-force QP oracle on 50 problems",
        ok,
        f"rel obj {worst_obj:.2e}, pred {worst_pred:.2e}, {elapsed:.1f}s",
    )
    assert worst_obj <= 1e-6
    assert worst_pred <= 1e-4
    assert elapsed < 60.0


def test_criterion_2_chi2_gram_psd():
    rng = np.random.default_rng(2025)
    started = time.time()
    min_eig = np.inf
    for _ in range(100):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(2, 20))
        x = rng.gamma(shape=0.7, scale=2.0, size=(n, d))  # sparse-ish histograms
        x[rng.random(size=x.shape) < 0.3] = 0.0
        gamma = float(rng.uniform(0.1, 5.0))
        gram = gram_matrix(gamma, distance_matrix(x))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(gram).min()))
    elapsed = time.time() - started
    ok = min_eig >= -1e-8 and elapsed < 60.0
    report_line(
        2,
        "RBF-chi2 Gram matrices are PSD over 100 random histogram sets",
        ok,
        f"min eigenvalue {min_eig:.2e}, {elapsed:.1f}s",
    )
    assert min_eig >= -1e-8
    assert elapsed < 60.0


def _random_predictor_accuracy(root, n_classes: int, per_class: int, seed: int):
    """Mean accuracy (%) and guess count of ``eval-zsl --predictor random``
    over 100 half splits of an ``n_classes``-class dataset."""
    rng = np.random.default_rng(seed)
    world = make_world(n_classes, d_x=2, d_z=2, rng=rng)
    dataset = world_dataset(world, list(range(n_classes)), per_class, rng)
    root.mkdir()
    write_features_csv(root / "target.csv", dataset.ids, dataset.labels, dataset.features)
    save_embeddings(world_store(world), root / "embeddings.txt")
    config = ExperimentConfig(
        target_path=str(root / "target.csv"),
        embedding_path=str(root / "embeddings.txt"),
        out_dir=str(root / "runs"),
        predictor="random",
        split_count=100,
        split_seed=seed,
    )
    report, _ = run_zsl_evaluation(config)
    return report.mean_accuracy, sum(report.n_test_per_split)


def test_criterion_3_random_guess_anchor(tmp_path):
    started = time.time()
    # 25 and 50 unseen classes, 400,000 guesses each
    acc25, n25 = _random_predictor_accuracy(tmp_path / "c50", 50, 160, seed=1)
    acc50, n50 = _random_predictor_accuracy(tmp_path / "c100", 100, 80, seed=2)
    assert min(n25, n50) >= 400_000
    elapsed = time.time() - started
    ok = abs(acc25 - 4.0) <= 0.2 and abs(acc50 - 2.0) <= 0.1 and elapsed < 60.0
    report_line(
        3,
        "uniform random guessing scores 4% on 25 classes and 2% on 50",
        ok,
        f"{acc25:.3f}% and {acc50:.3f}%, {elapsed:.1f}s",
    )
    assert abs(acc25 - 4.0) <= 0.2
    assert abs(acc50 - 2.0) <= 0.1
    assert elapsed < 60.0


def _shifted_benchmark_prototypes(dim: int, rng: np.random.Generator, tries: int = 200):
    """Ten unit prototypes (pairwise cosine distance >= 0.5) built as five
    orthonormal anchors with partners 60 degrees away, partner directions
    tilted toward a common shift axis so the shift drags points across
    decision boundaries."""
    for _ in range(tries):
        basis, _ = np.linalg.qr(rng.normal(size=(dim, 5)))
        anchors = basis.T
        shift_dir = rng.normal(size=dim)
        shift_dir /= np.linalg.norm(shift_dir)
        rows = []
        degenerate = False
        for index, anchor in enumerate(anchors):
            tilt = 1.0 if index == 0 else 0.35
            raw = tilt * shift_dir + (1.0 - tilt) * rng.normal(size=dim)
            w = raw - (raw @ anchor) * anchor
            norm = np.linalg.norm(w)
            if norm < 1e-6:
                degenerate = True
                break
            w /= norm
            rows += [anchor, 0.5 * anchor + np.sqrt(0.75) * w]
        if degenerate:
            continue
        protos = np.vstack(rows)
        cos_dist = 1.0 - protos @ protos.T
        if cos_dist[np.triu_indices(10, 1)].min() >= 0.5 - 1e-12:
            return protos, shift_dir
    raise RuntimeError("could not build the shifted benchmark prototypes")


def _shifted_benchmark_trial(seed: int, dim: int = 10, per_class: int = 50):
    sigma, shift_mag, k = 0.15, 0.2, 10
    rng = np.random.default_rng(seed)
    proto_vecs, shift_dir = _shifted_benchmark_prototypes(dim, rng)
    clouds = [
        proto_vecs[c] + sigma * rng.normal(size=(per_class, dim)) + shift_mag * shift_dir
        for c in range(10)
    ]
    projections = np.vstack(clouds)
    truth = np.repeat(np.arange(10), per_class)
    projections /= np.linalg.norm(projections, axis=1, keepdims=True)

    def accuracy(mat):
        d2 = ((projections[:, None, :] - mat[None, :, :]) ** 2).sum(axis=2)
        return float((np.argmin(d2, axis=1) == truth).mean())

    adapted = self_train(proto_vecs, projections, k)
    return accuracy(proto_vecs), accuracy(adapted)


def test_criterion_4_self_training_efficacy():
    started = time.time()
    results = np.array([_shifted_benchmark_trial(4000 + t) for t in range(30)])
    elapsed = time.time() - started
    mean_nn = float(results[:, 0].mean())
    mean_st = float(results[:, 1].mean())
    diff = mean_st - mean_nn
    ok = diff > 0.0 and elapsed < 120.0
    report_line(
        4,
        "self-training beats plain NN on the shifted synthetic benchmark",
        ok,
        f"NN {100 * mean_nn:.2f}%, NN+ST {100 * mean_st:.2f}%, diff {100 * diff:+.3f}pp, {elapsed:.1f}s",
    )
    assert diff > 0.0
    # benchmark-level invariant: adapted prototypes do at least as well
    assert mean_st >= mean_nn
    assert elapsed < 120.0


def _augmentation_trial(seed: int):
    rng = np.random.default_rng(seed)
    world = make_world(15, d_x=12, d_z=10, rng=rng, concentration=60.0)
    target = world_dataset(world, list(range(5)), per_class=20, rng=rng, name="target")
    auxiliary = world_dataset(world, list(range(5, 10)), per_class=20, rng=rng, name="aux")
    heldout = world_dataset(world, list(range(10, 15)), per_class=20, rng=rng, name="held")
    store = world_store(world)
    truth = np.vstack([store.table[lab.tokens[0]] for lab in heldout.labels])
    errors = []
    for use_aux in (False, True):
        targets = label_targets(target.labels + (auxiliary.labels if use_aux else []), store)
        x = np.vstack([target.features, auxiliary.features]) if use_aux else target.features
        gamma = heuristic_gamma(x)
        gram = gram_matrix(gamma, distance_matrix(x))
        regressor = train_semantic_regressor(targets, gram, 2.0, 0.1)
        kernel_rows = gram_matrix(
            gamma, distance_matrix(heldout.features, x[regressor.pool_indices])
        )
        proj = predict_batch(regressor, kernel_rows)
        proj /= np.linalg.norm(proj, axis=1, keepdims=True)
        errors.append(float(np.mean(1.0 - np.sum(proj * truth, axis=1))))
    return errors[0], errors[1]


def test_criterion_5_augmentation_efficacy():
    started = time.time()
    results = np.array([_augmentation_trial(5000 + t) for t in range(30)])
    elapsed = time.time() - started
    wins = int((results[:, 1] < results[:, 0]).sum())
    ok = wins >= 25 and elapsed < 300.0
    report_line(
        5,
        "auxiliary-data augmentation reduces held-out embedding error",
        ok,
        f"strict wins {wins}/30, mean error {results[:, 0].mean():.3f} -> "
        f"{results[:, 1].mean():.3f}, {elapsed:.1f}s",
    )
    assert wins >= 25
    assert elapsed < 300.0


def test_criterion_6_split_protocol(tmp_path):
    vocab = [Label.of(f"class{i}") for i in range(10)]
    splits = generate_splits(vocab, count=10_000, seed=31)
    unseen_counts = {lab.key: 0 for lab in vocab}
    exact = True
    for split in splits:
        seen = {lab.key for lab in split.seen}
        unseen = {lab.key for lab in split.unseen}
        exact &= len(seen) == 5 and len(unseen) == 5
        exact &= not (seen & unseen) and (seen | unseen) == set(unseen_counts)
        for key in unseen:
            unseen_counts[key] += 1
    freqs = {key: count / 10_000 for key, count in unseen_counts.items()}
    worst = max(abs(f - 0.5) for f in freqs.values())

    again = generate_splits(vocab, count=3, seed=31)
    byte_identical = True
    for split_a, split_b in zip(splits[:3], again):
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_split(split_a, "toy", pa)
        save_split(split_b, "toy", pb)
        byte_identical &= pa.read_bytes() == pb.read_bytes()

    ok = exact and worst <= 0.02 and byte_identical
    report_line(
        6,
        "split protocol is balanced, exact and reproducible",
        ok,
        f"max |freq-0.5| {worst:.4f}",
    )
    assert exact
    assert worst <= 0.02
    assert byte_identical


def test_criterion_8_end_to_end_determinism(tmp_path):
    rng = np.random.default_rng(88)
    world = make_world(8, d_x=8, d_z=5, rng=rng, concentration=80.0)
    dataset = world_dataset(world, list(range(8)), per_class=8, rng=rng, name="target")
    target_path = tmp_path / "target.csv"
    emb_path = tmp_path / "embeddings.txt"
    write_features_csv(target_path, dataset.ids, dataset.labels, dataset.features)
    save_embeddings(world_store(world), emb_path)

    # identical inputs: the same report bytes, whichever directory the
    # outputs go to, and again on a repeat into the same directory
    payloads = []
    for run in ("first", "second", "second"):
        config = ExperimentConfig(
            target_path=str(target_path),
            embedding_path=str(emb_path),
            out_dir=str(tmp_path / run),
            split_count=2,
            split_seed=17,
            k_neighbors=5,
        )
        _, run_dir = run_zsl_evaluation(config)
        payloads.append((run_dir / "report.json").read_bytes())
    identical = payloads[0] == payloads[1]
    byte_identical = payloads[1] == payloads[2]

    ok = identical and byte_identical
    report_line(
        8,
        "identical config and seed reproduce byte-identical reports",
        ok,
    )
    assert identical
    assert byte_identical


@pytest.mark.skip(
    reason="optional full reproduction requires the original HMDB51/UCF101 "
    "bag-of-words features and a pretrained 300-d embedding file"
)
def test_criterion_9_optional_full_reproduction():
    report_line(9, "full-data reproduction (optional)", False, "skipped")
