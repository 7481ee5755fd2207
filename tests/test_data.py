import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zslkit.data import (
    generate_splits,
    kmeans_codebook,
    load_dataset,
    quantize,
    read_descriptor_file,
    save_split,
)
from zslkit.embedding import Label


def inertia(x, centroids):
    """Sum over the rows of ``x`` of the squared distance to the nearest centroid."""
    return float(((x[:, None, :] - centroids[None]) ** 2).sum(axis=2).min(axis=1).sum())


def inertias(x, k, seed):
    """Inertia of the centroids after 0, 1, ... Lloyd steps, up to the
    first step count that gives the centroids of a default run."""
    final = kmeans_codebook(x, k, seed=seed)
    out = []
    for steps in itertools.count():
        centroids = kmeans_codebook(x, k, seed=seed, max_iters=steps)
        out.append(inertia(x, centroids))
        if np.array_equal(centroids, final):
            return out


def write_csv(path, header, rows):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")


class TestLoadDataset:
    def test_parses_rows(self, tmp_path):
        path = tmp_path / "feats.csv"
        write_csv(
            path,
            "id,label,f0,f1,f2,f3",
            ["v1,brush_hair,1,0,2,0", "v2,run,0,1,0,1", "v3,run,3,0,0,0"],
        )
        ds = load_dataset(path)
        assert len(ds) == 3
        assert ds.features.shape[1] == 4
        assert ds.labels[0] == Label.of("brush hair")
        assert [lab.key for lab in ds.class_vocabulary] == ["brush hair", "run"]

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "feats.csv"
        write_csv(path, "id,label,f0,f1", ["v1,run,1,0", "v2,run,1"])
        with pytest.raises(ValueError, match="3: expected 4 cells"):
            load_dataset(path)

    def test_duplicate_id_named(self, tmp_path):
        path = tmp_path / "feats.csv"
        write_csv(path, "id,label,f0", ["v1,run,1", "v1,run,2"])
        with pytest.raises(ValueError, match="duplicate id 'v1'"):
            load_dataset(path)

    def test_negative_feature_rejected(self, tmp_path):
        path = tmp_path / "feats.csv"
        write_csv(path, "id,label,f0", ["v1,run,-1"])
        with pytest.raises(ValueError, match="negative feature"):
            load_dataset(path)

    def test_error_names_the_line_a_record_starts_on(self, tmp_path):
        # the quoted id holds a newline, so the second record starts on line 4
        path = tmp_path / "feats.csv"
        path.write_text('id,label,f0\n"v\n1",run,1\nv2,run,-1\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r"feats\.csv:4: negative feature value"):
            load_dataset(path)

    def test_label_without_tokens_names_the_line(self, tmp_path):
        path = tmp_path / "feats.csv"
        write_csv(path, "id,label,f0", ["v1,run,1", "v2,___,2"])
        with pytest.raises(
            ValueError, match=r"feats\.csv:3: label '___' has no tokens after tokenization"
        ):
            load_dataset(path)

    def test_header_validated(self, tmp_path):
        path = tmp_path / "feats.csv"
        write_csv(path, "id,label,a,b", ["v1,run,1,2"])
        with pytest.raises(ValueError, match="header"):
            load_dataset(path)


class TestGenerateSplits:
    def test_fifty_one_classes_split_26_25(self):
        vocab = [Label.of(f"c{i:02d}") for i in range(51)]
        splits = generate_splits(vocab, count=3, seed=9)
        for s in splits:
            assert len(s.seen) == 26
            assert len(s.unseen) == 25
            assert {l.key for l in s.seen} | {l.key for l in s.unseen} == {
                l.key for l in vocab
            }
            assert not ({l.key for l in s.seen} & {l.key for l in s.unseen})

    def test_same_seed_reproduces(self):
        vocab = [Label.of(f"c{i}") for i in range(10)]
        assert generate_splits(vocab, 5, 42) == generate_splits(vocab, 5, 42)

    def test_input_order_is_immaterial(self):
        vocab = [Label.of(f"c{i}") for i in range(8)]
        shuffled = list(reversed(vocab))
        assert generate_splits(vocab, 3, 7) == generate_splits(shuffled, 3, 7)

    def test_two_class_vocabulary(self):
        splits = generate_splits([Label.of("a"), Label.of("b")], 4, 0)
        for s in splits:
            assert len(s.seen) == 1 and len(s.unseen) == 1
            assert s.seen[0] != s.unseen[0]

    def test_errors(self):
        with pytest.raises(ValueError, match="empty vocabulary"):
            generate_splits([], 1, 0)
        with pytest.raises(ValueError, match="at least 2 classes"):
            generate_splits([Label.of("a")], 1, 0)
        with pytest.raises(ValueError, match="count"):
            generate_splits([Label.of("a"), Label.of("b")], 0, 0)

    def test_split_file_round_trip(self, tmp_path):
        vocab = [Label.of(f"c{i}") for i in range(6)]
        split = generate_splits(vocab, 1, 3)[0]
        path = tmp_path / "split.json"
        save_split(split, "toy", path)
        doc = json.loads(path.read_text())
        assert (doc["dataset"], doc["seed"], doc["index"]) == ("toy", 3, 1)
        assert tuple(map(Label.of, doc["seen"])) == split.seen
        assert tuple(map(Label.of, doc["unseen"])) == split.unseen

    def test_unseen_frequency_is_balanced(self):
        # distribution check over many splits of a 10-class vocabulary
        vocab = [Label.of(f"c{i}") for i in range(10)]
        splits = generate_splits(vocab, 2000, 5)
        counts = {lab.key: 0 for lab in vocab}
        for s in splits:
            for lab in s.unseen:
                counts[lab.key] += 1
        for key, count in counts.items():
            assert abs(count / 2000 - 0.5) < 0.04, key


class TestKmeans:
    def test_k_equals_n_gives_zero_inertia(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 3))
        centroids = kmeans_codebook(x, k=5, seed=1)
        assert inertia(x, centroids) == pytest.approx(0.0, abs=1e-20)
        assert sorted(map(tuple, centroids)) == sorted(map(tuple, x))

    def test_recovers_separated_blobs(self):
        rng = np.random.default_rng(1)
        means = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        x = np.vstack([m + 0.05 * rng.normal(size=(40, 2)) for m in means])
        centroids = kmeans_codebook(x, k=3, seed=2)
        for m in means:
            assert np.linalg.norm(centroids - m, axis=1).min() < 0.1

    def test_inertia_non_increasing(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(60, 4))
        hist = inertias(x, k=6, seed=3)
        assert len(hist) > 2
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 3))
        a = kmeans_codebook(x, k=4, seed=11)
        b = kmeans_codebook(x, k=4, seed=11)
        np.testing.assert_array_equal(a, b)

    def test_too_few_descriptors(self):
        with pytest.raises(ValueError, match="need at least k=5"):
            kmeans_codebook(np.ones((3, 2)), k=5)


class TestQuantize:
    def _book(self):
        return np.eye(4)

    def test_single_descriptor_at_centroid(self):
        hist = quantize(self._book(), np.array([[0.0, 0.0, 1.0, 0.0]]))
        np.testing.assert_array_equal(hist, [0, 0, 1, 0])

    def test_normalized_bins_sum_to_one(self):
        rng = np.random.default_rng(4)
        hist = quantize(self._book(), rng.normal(size=(10, 4)), normalize=True)
        assert hist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_tie_takes_lowest_centroid_index(self):
        hist = quantize(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[0.5, 0.5]]))
        np.testing.assert_array_equal(hist, [1, 0])

    def test_additivity(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(7, 4))
        b = rng.normal(size=(9, 4))
        book = self._book()
        np.testing.assert_array_equal(
            quantize(book, np.vstack([a, b])),
            quantize(book, a) + quantize(book, b),
        )

    def test_empty_descriptors_warn(self):
        with pytest.warns(UserWarning, match="empty descriptor list"):
            hist = quantize(self._book(), np.empty((0, 4)))
        np.testing.assert_array_equal(hist, np.zeros(4))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match codebook"):
            quantize(self._book(), np.ones((2, 3)))
        with pytest.raises(ValueError, match=r"descriptors must be 2-D, got shape \(4,\)"):
            quantize(self._book(), np.ones(4))

    @settings(max_examples=25)
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_histogram_counts_total(self, count, seed):
        rng = np.random.default_rng(seed)
        hist = quantize(self._book(), rng.normal(size=(count, 4)))
        assert hist.sum() == count


class TestDescriptorFiles:
    def test_plain_file_is_single_group(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        groups = read_descriptor_file(path)
        assert len(groups) == 1
        assert groups[0][0] is None
        np.testing.assert_array_equal(groups[0][1], [[1.0, 2.0], [3.0, 4.0]])

    def test_leading_id_column_groups_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("vidA,1,2\nvidB,3,4\nvidA,5,6\n")
        groups = dict(read_descriptor_file(path))
        np.testing.assert_array_equal(groups["vidA"], [[1.0, 2.0], [5.0, 6.0]])
        np.testing.assert_array_equal(groups["vidB"], [[3.0, 4.0]])

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="expected 2 cells"):
            read_descriptor_file(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_the_line(self, tmp_path, bad):
        path = tmp_path / "d.csv"
        path.write_text(f"vidA,1,2\n\nvidA,3,{bad}\n")  # blank lines still count
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: non-finite descriptor value")):
            read_descriptor_file(path)
