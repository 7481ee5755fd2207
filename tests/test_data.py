import json

import pytest

from zslkit.data import generate_splits, load_dataset, save_split
from zslkit.embedding import Label


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

