import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import write_embedding_file
from zslkit.embedding import (
    EmbeddingStore,
    Label,
    embed_label,
    l2_normalize,
    load_embeddings,
    save_embeddings,
    tokenize,
)


class TestTokenize:
    def test_splits_whitespace_and_underscores(self):
        assert tokenize("Brush_Hair") == ("brush", "hair")
        assert tokenize("ride horse") == ("ride", "horse")

    def test_splits_camel_case(self):
        assert tokenize("ApplyEyeMakeup") == ("apply", "eye", "makeup")
        assert tokenize("YoYo") == ("yo", "yo")
        assert Label.of("BrushHair") == Label.of("brush_hair")
        # lowercase, underscored and numbered names keep their tokens
        for raw, tokens in (("brush_hair", ("brush", "hair")), ("Brush_Hair", ("brush", "hair")),
                            ("class07", ("class07",)), ("HMDB", ("hmdb",))):
            assert tokenize(raw) == tokens

    def test_strips_ascii_punctuation(self):
        assert tokenize("don't stop!") == ("dont", "stop")

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError, match="no tokens"):
            Label.of("___")

    def test_label_identity_is_by_tokens(self):
        assert Label.of("Brush_Hair") == Label.of("brush hair")
        assert hash(Label.of("Brush_Hair")) == hash(Label.of("brush hair"))
        assert Label.of("brush hair").slug == "brush_hair"


class TestLoadEmbeddings:
    def test_parses_simple_file(self, tmp_path):
        path = tmp_path / "vec.txt"
        write_embedding_file(path, {"run": [1, 0, 0], "jump": [0, 1, 0]})
        store = load_embeddings(path)
        assert store.dimension == 3
        assert len(store) == 2
        np.testing.assert_array_equal(store.table["run"], [1.0, 0.0, 0.0])

    def test_wrong_value_count(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("1 3\nrun 1 0 0 9\n")
        with pytest.raises(ValueError, match="expected 3 values"):
            load_embeddings(path)

    def test_empty_file_is_malformed_header(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="malformed header"):
            load_embeddings(path)

    def test_non_numeric_header(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("abc def\n")
        with pytest.raises(ValueError, match="malformed header"):
            load_embeddings(path)

    def test_entry_count_mismatch(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 3\nrun 1 0 0\n")
        with pytest.raises(ValueError, match="declares 2 entries, found 1"):
            load_embeddings(path)

    def test_non_finite_value(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("1 3\nrun 1 nan 0\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_embeddings(path)

    def test_duplicate_token_last_wins_with_counter(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 2\nrun 1 0\nrun 0 1\n")
        store = load_embeddings(path)
        assert store.duplicates_replaced == 1
        np.testing.assert_array_equal(store.table["run"], [0.0, 1.0])

    def test_token_filter_keeps_exactly_the_requested_entries(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "vec.txt"
        write_embedding_file(path, {f"tok{i}": list(rng.normal(size=5)) for i in range(30)})
        full = load_embeddings(path)
        wanted = {"tok3", "tok17", "tok29", "absent"}
        kept = load_embeddings(path, tokens=wanted)
        assert set(kept.table) == wanted & set(full.table)
        assert kept.dimension == full.dimension
        for token, vec in kept.table.items():
            np.testing.assert_array_equal(vec, full.table[token])
        assert len(load_embeddings(path, tokens=[])) == 0

    def test_token_filter_still_checks_every_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("3 2\nrun 1 0\nzzz 1 inf\njump 0 1\n")
        with pytest.raises(ValueError, match=r":3: non-finite value for token 'zzz'"):
            load_embeddings(path, tokens={"run", "jump"})
        path.write_text("2 2\nrun 1 0\nzzz 1 x\n")
        with pytest.raises(ValueError, match=r":3: unparseable value"):
            load_embeddings(path, tokens={"run"})
        path.write_text("2 2\nrun 1 0\nzzz 1\n")
        with pytest.raises(ValueError, match=r":3: expected 2 values"):
            load_embeddings(path, tokens={"run"})
        path.write_text("3 2\nrun 1 0\nzzz 1 1\n")
        with pytest.raises(ValueError, match="declares 3 entries, found 2"):
            load_embeddings(path, tokens={"run"})

    def test_token_filter_counts_duplicates_of_kept_tokens(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("4 2\nrun 1 0\nzzz 1 1\nzzz 2 2\nrun 0 1\n")
        store = load_embeddings(path, tokens={"run"})
        assert store.duplicates_replaced == 1
        assert list(store.table) == ["run"]
        np.testing.assert_array_equal(store.table["run"], [0.0, 1.0])

    def test_save_load_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        store = EmbeddingStore(
            dimension=4,
            table={f"tok{i}": rng.normal(size=4) for i in range(5)},
        )
        first = tmp_path / "a.txt"
        save_embeddings(store, first)
        loaded = load_embeddings(first)
        for token in store.table:
            np.testing.assert_array_equal(loaded.table[token], store.table[token])
        second = tmp_path / "b.txt"
        save_embeddings(loaded, second)
        assert first.read_bytes() == second.read_bytes()


class TestEmbedLabel:
    def test_single_word_is_identity(self, toy_store):
        np.testing.assert_array_equal(
            embed_label(toy_store, Label.of("run")), [1.0, 0.0, 0.0]
        )

    def test_two_word_average(self, toy_store):
        np.testing.assert_allclose(
            embed_label(toy_store, Label.of("brush hair")), [0.5, 0.5, 0.0]
        )

    def test_repeated_word_counts_once(self, toy_store):
        # mean over the deduplicated token set {walk}
        np.testing.assert_array_equal(
            embed_label(toy_store, Label.of("walk walk")), [2.0, 2.0, 0.0]
        )

    def test_missing_token_named_in_error(self, toy_store):
        with pytest.raises(ValueError, match="'teleport'"):
            embed_label(toy_store, Label.of("teleport"))

    @given(st.permutations(["brush", "hair", "ride"]), st.integers(1, 3))
    def test_permutation_and_repetition_invariant(self, perm, repeats):
        table = {
            "brush": np.array([1.0, 0.0, 0.0]),
            "hair": np.array([0.0, 1.0, 0.0]),
            "ride": np.array([0.0, 0.0, 1.0]),
        }
        store = EmbeddingStore(dimension=3, table=table)
        base = embed_label(store, Label.of("brush hair ride"))
        shuffled = Label.of(" ".join(list(perm) * repeats))
        np.testing.assert_allclose(embed_label(store, shuffled), base, atol=1e-12)


class TestGeometry:
    @pytest.mark.parametrize(
        "vec,expected",
        [
            ([3.0, 4.0], [0.6, 0.8]),
            ([0.0, 0.0, 5.0], [0.0, 0.0, 1.0]),
            ([1.0, 1.0, 1.0, 1.0], [0.5, 0.5, 0.5, 0.5]),
        ],
    )
    def test_l2_normalize(self, vec, expected):
        np.testing.assert_allclose(l2_normalize(np.array(vec)), expected)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="cannot normalize zero vector"):
            l2_normalize(np.zeros(3))

    @given(
        st.lists(st.floats(-5, 5), min_size=2, max_size=6),
        st.lists(st.floats(-5, 5), min_size=2, max_size=6),
    )
    def test_unit_vector_euclidean_cosine_identity(self, a, b):
        # NN by Euclidean distance after normalization == NN by cosine
        n = min(len(a), len(b))
        u, v = np.array(a[:n]), np.array(b[:n])
        if np.linalg.norm(u) < 1e-6 or np.linalg.norm(v) < 1e-6:
            return
        u, v = l2_normalize(u), l2_normalize(v)
        lhs = float(np.sum((u - v) ** 2))
        assert lhs == pytest.approx(2.0 * (1.0 - float(u @ v)), abs=1e-9)
