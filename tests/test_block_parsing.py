"""The public loaders against the per-line loops they replaced.

For any file, valid or corrupted, ``load_dataset`` and ``load_embeddings``
must return exactly what the loops in ``parse_reference`` return
(bit-identical arrays, the same ids, labels, tokens and duplicate count)
or raise the same exception with the same message. They must do so both
with numpy's reader and with ``textblocks.parse_block`` refusing every
block, so that the line step parses everything. Blocks are made a few
lines long so that every file crosses block boundaries.
"""

import contextlib
import csv
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import parse_reference
from zslkit import data, embedding, textblocks
from zslkit.data import load_dataset
from zslkit.embedding import load_embeddings

# Every character str.split() separates on.
SPLIT_WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
ENDINGS = ["\n", "\r\n", "\r"]
# Cells that float() and numpy's reader may treat differently, or that
# either rejects.
ODD_VALUES = [
    "1_0", "nan", "-nan", "inf", "-inf", "1e999", "-1e999", "1e-400", "-0.0", "+.5",
    "-1", "٣", "１", "", "#", "1#", "1#2", '"1"', "'1'", "0x10", "1.5.2",
    "1e", ".", "+", "1 2", "1\x002", "\x00",
]
# What a reader that takes "#" for a comment would cut off a line's end.
COMMENTS = ["#", "#x", "#,1", "# 1"]
TOKENS = ["run", "jump", "brush", "hair", "Run", "café", "a-b", '"q"', "x\x00y"]


def rarely(draw, one_in=8):
    """True about once in ``one_in`` draws; shrinks to False."""
    return draw(st.sampled_from(range(one_in))) == one_in - 1


def number(draw, nonnegative):
    v = draw(
        st.floats(
            min_value=0.0 if nonnegative else -1e300,
            max_value=1e300,
            allow_nan=False,
            allow_infinity=False,
        )
    )
    return draw(st.sampled_from([repr(v), f"{v:.6f}", f"{v:g}", f"{v:.3e}"]))


def value(draw, nonnegative, corrupt):
    text = number(draw, nonnegative)
    if corrupt and rarely(draw, 16):
        text = draw(st.sampled_from(ODD_VALUES))
    if corrupt and rarely(draw, 16):
        pad = st.sampled_from(SPLIT_WHITESPACE)
        text = draw(pad) * rarely(draw, 2) + text + draw(pad) * rarely(draw, 2)
    return text


@st.composite
def feature_files(draw, corrupt=True):
    """Bytes of a feature CSV with any line ending, the last one optional;
    with ``corrupt``, any line may be broken."""
    corrupt = corrupt and draw(st.booleans())
    d_x = draw(st.integers(1, 4))
    header = ["id", "label"] + [f"f{i}" for i in range(d_x)]
    if corrupt and rarely(draw):
        header = draw(
            st.sampled_from([header[:-1], header + [f"f{d_x}"], ["id", "label"], ["id"], []])
        )
    if corrupt and rarely(draw, 16):
        header = ["ID"] + header[1:]
    ending = draw(st.sampled_from(ENDINGS))
    lines = [",".join(header)]
    for k in range(draw(st.integers(0, 7))):
        if corrupt and rarely(draw, 16):
            lines.append(draw(st.sampled_from(["", " ", "\t", ","])))
            continue
        id_ = f"v{k}"
        if corrupt and rarely(draw, 16):
            id_ = draw(st.sampled_from(["v0", "", '"v"', "v,1", "v\x00", " v"]))
        label = draw(st.sampled_from(["run", "brush_hair", "Ride Horse", "café"]))
        if corrupt and rarely(draw, 16):
            label = draw(st.sampled_from(["___", "", "a,b", '"run"', "run\x00", "!"]))
        width = d_x
        if corrupt and rarely(draw):
            width = draw(st.integers(max(0, d_x - 2), d_x + 2))
        values = [value(draw, True, corrupt) for _ in range(width)]
        line = ",".join([id_, label] + values)
        if corrupt and rarely(draw):
            line += draw(st.sampled_from(COMMENTS))
        lines.append(line)
    endings = [
        draw(st.sampled_from(ENDINGS)) if corrupt and rarely(draw) else ending for _ in lines
    ]
    if rarely(draw, 4):
        endings[-1] = ""
    content = "".join(line + end for line, end in zip(lines, endings)).encode("utf-8")
    if corrupt and rarely(draw, 32):
        content += b"\xff\n"
    return content


@st.composite
def embedding_files(draw, corrupt=True):
    """Bytes of a word-vector file with any line ending, the last one
    optional; with ``corrupt``, any line may be broken."""
    corrupt = corrupt and draw(st.booleans())
    dim = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 7))):
        if corrupt and rarely(draw, 16):
            lines.append(draw(st.sampled_from(["", " ", "\t", "\xa0"])))
            continue
        token = draw(st.sampled_from(TOKENS))
        if corrupt and rarely(draw):
            # whitespace inside, before or after the token
            ws = draw(st.sampled_from(SPLIT_WHITESPACE))
            token = draw(st.sampled_from([ws + token, token + ws, token[:1] + ws + token[1:]]))
        width = dim
        if corrupt and rarely(draw):
            width = draw(st.integers(max(0, dim - 2), dim + 2))
        seps = [" "] * width
        if corrupt and rarely(draw):
            k = draw(st.integers(0, width)) if width else 0
            if width:
                seps[min(k, width - 1)] = draw(
                    st.sampled_from(SPLIT_WHITESPACE + ["  ", " \t", "\t "])
                )
        line = token + "".join(s + value(draw, False, corrupt) for s in seps)
        if rarely(draw, 4):
            line += " "  # as word2vec and fastText write their lines
        if corrupt and rarely(draw):
            line += draw(st.sampled_from(SPLIT_WHITESPACE + ["  "] + COMMENTS))
        lines.append(line)
    entries = sum(1 for line in lines if line.strip())
    header = f"{entries} {dim}"
    if corrupt and rarely(draw):
        header = draw(
            st.sampled_from(
                [f"{entries + 1} {dim}", f"{max(entries - 1, 0)} {dim}", f"{entries}",
                 f"{entries} 0", f"-1 {dim}", "x y", "", f"{entries} {dim} 1"]
            )
        )
    ending = draw(st.sampled_from(ENDINGS))
    lines.insert(0, header)
    endings = [
        draw(st.sampled_from(ENDINGS)) if corrupt and rarely(draw) else ending for _ in lines
    ]
    if rarely(draw, 4):
        endings[-1] = ""
    content = "".join(line + end for line, end in zip(lines, endings)).encode("utf-8")
    if corrupt and rarely(draw, 32):
        content += b"\xff\n"
    return content


def outcome(fn):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "returned", fn()
    except Exception as exc:  # every exception must match, not only ValueError
        return "raised", type(exc), str(exc)


def dataset_fields(d_x, ids, labels, features):
    return (
        d_x,
        ids,
        [(lab.raw, lab.tokens) for lab in labels],
        features.dtype,
        features.shape,
        features.tobytes(),
    )


def store_fields(store):
    table = [
        (token, vec.dtype, vec.shape, vec.tobytes(), vec.base is None)
        for token, vec in store.table.items()
    ]
    return store.dimension, table, store.duplicates_replaced


def load_both(content, name, block_values, public, reference, refused=False):
    """``public`` with blocks of ``block_values`` values, with numpy's
    reader or, if ``refused``, with it refusing every block, then
    ``reference``, on one file holding ``content``."""
    refusing = mock.patch.object(textblocks, "parse_block", return_value=None)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(content)
        with (
            mock.patch.object(textblocks, "BLOCK_VALUES", block_values),
            refusing if refused else contextlib.nullcontext(),
        ):
            got = outcome(lambda: public(path))
        return got, outcome(lambda: reference(path))


def line_steps(module, fn):
    """What ``fn()`` returns or raises, and the calls it made to
    ``module``'s line step."""
    with mock.patch.object(module, "_line_rows", wraps=module._line_rows) as step:
        got = outcome(fn)
    return got, step.call_args_list


def public_dataset(path):
    ds = load_dataset(path)
    assert ds.class_vocabulary == list(dict.fromkeys(ds.labels))
    return dataset_fields(ds.features.shape[1], ds.ids, ds.labels, ds.features)


def reference_dataset(path):
    return dataset_fields(*parse_reference.read_feature_lines(path))


def reference_store(path, wanted=None):
    return store_fields(
        parse_reference.read_embedding_lines(path, None if wanted is None else frozenset(wanted))
    )


@settings(max_examples=400, deadline=None)
@given(feature_files(), st.integers(1, 12))
@example(b"id,label,f0,f1\nv0,run,1,2#\n", 12)
@example(b"id,label,f0\nv0,run,1,2\n", 12)
@example(b"id,label,f0\r\nv0,run,1\rv1,run,2\r\n", 1)
@example(b"id,label,f0\nv0,run,1\x1c\n", 12)
def test_feature_loader_agrees_with_line_loop(content, block_values):
    for refused in (False, True):
        got, want = load_both(
            content, "f.csv", block_values, public_dataset, reference_dataset, refused
        )
        assert got == want


@settings(max_examples=50, deadline=None)
@given(feature_files(corrupt=False), st.integers(1, 12))
def test_clean_feature_files_take_the_block_path(content, block_values):
    def public(path):
        got, steps = line_steps(data, lambda: public_dataset(path))
        assert steps == []
        return got[1]

    got, want = load_both(content, "f.csv", block_values, public, reference_dataset)
    assert got == want


@pytest.mark.parametrize("wanted", [None, ("run", "Run", "café", "absent")])
@settings(max_examples=300, deadline=None)
@given(content=embedding_files(), block_values=st.integers(1, 12))
@example(content=b"1 2\nrun 1 2#\n", block_values=12)
@example(content=b"1 1\nrun 1 2\n", block_values=12)
@example(content=b"2 1\nrun 1 \r\njump\t2", block_values=1)
def test_embedding_loader_agrees_with_line_loop(content, block_values, wanted):
    for refused in (False, True):
        got, want = load_both(
            content,
            "v.txt",
            block_values,
            lambda path: store_fields(load_embeddings(path, tokens=wanted)),
            lambda path: reference_store(path, wanted),
            refused,
        )
        assert got == want


@pytest.mark.parametrize("ending", ENDINGS)
def test_block_without_values_skips_numpys_reader(ending, tmp_path):
    # the token's text after its one space is only the line ending, so
    # the block holds no value at all
    path = tmp_path / "v.txt"
    path.write_text(f"1 3\ntok {ending}", encoding="utf-8", newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, steps = line_steps(embedding, lambda: load_embeddings(path))
    want = outcome(lambda: parse_reference.read_embedding_lines(path, None))
    message = f"{path}:2: expected 3 values for token 'tok', got 0"
    assert got == want == ("raised", ValueError, message)
    assert len(steps) == 1
    assert textblocks.parse_block([ending], 3, " ") is None


@settings(max_examples=50, deadline=None)
@given(embedding_files(corrupt=False), st.integers(1, 12))
@example(b"1 1\nrun 0.0 ", 1)
def test_clean_embedding_files_take_the_block_path(content, block_values):
    def public(path):
        got, steps = line_steps(embedding, lambda: store_fields(load_embeddings(path)))
        assert steps == []
        return got[1]

    got, want = load_both(content, "v.txt", block_values, public, reference_store)
    assert got == want


def write_vectors(path, lines, dim, kept):
    """``lines`` six-decimal entries, the tokens in ``kept`` spread evenly."""
    rng = np.random.default_rng(lines)
    rows = rng.normal(size=(lines, dim))
    names = [f"w{i}" for i in range(lines)]
    for k, token in enumerate(kept):
        names[(2 * k + 1) * lines // (2 * len(kept))] = token
    body = "".join(
        name + " " + " ".join(f"{v:.6f}" for v in row) + "\n" for name, row in zip(names, rows)
    )
    path.write_text(f"{lines} {dim}\n{body}", encoding="utf-8")


def test_filtered_load_memory_does_not_grow_with_file_length(tmp_path):
    dim, kept = 50, ["run", "jump", "ride", "horse"]
    traced = {}
    for lines in (3_000, 12_000):
        path = tmp_path / f"{lines}.txt"
        write_vectors(path, lines, dim, kept)
        tracemalloc.start()
        try:
            store = load_embeddings(path, tokens=kept)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted(store.table) == sorted(kept)
        traced[lines] = retained, peak
    (short_retained, short_peak), (long_retained, long_peak) = traced.values()
    # four times the lines: the peak is one block's worth either way, and
    # the store keeps four rows, not the blocks they came from
    assert long_peak < 1.25 * short_peak
    assert long_retained < 64 * 1024


def test_cell_over_the_csv_field_limit_is_left_to_the_line_loop(tmp_path):
    path = tmp_path / "f.csv"
    long_id = "v" * (csv.field_size_limit() + 1)
    path.write_text(f"id,label,f0\n{long_id},run,1\n", encoding="utf-8")
    got, steps = line_steps(data, lambda: load_dataset(path))
    assert got[:2] == ("raised", csv.Error)
    assert "field larger than field limit" in got[2]
    assert len(steps) == 1


@pytest.mark.parametrize(
    "row",
    ['v1,"run",1', "v1,run,1\x00", "v1,run,1\x1c", "v1,run,\x1f1", "", "v1,___,1", "v0,run,1"],
)
def test_feature_rows_the_block_path_declines(tmp_path, row):
    path = tmp_path / "f.csv"
    path.write_text(f"id,label,f0\nv0,run,2\n{row}\n", encoding="utf-8")
    # in blocks of one line, the first block is clean and the second declined
    for block_values in (1, textblocks.BLOCK_VALUES):
        with mock.patch.object(textblocks, "BLOCK_VALUES", block_values):
            got, steps = line_steps(data, lambda: public_dataset(path))
        assert len(steps) == 1
        assert got == outcome(lambda: reference_dataset(path))


@pytest.mark.parametrize("pad", ["", " "])
@pytest.mark.parametrize("sep", [c for c in SPLIT_WHITESPACE if c not in "\n\r "] + ["  "])
def test_embedding_separators_the_block_path_declines(tmp_path, sep, pad):
    # numpy's reader strips whitespace next to a space; str.split() agrees,
    # but only single spaces are taken as given
    path = tmp_path / "v.txt"
    path.write_text(f"2 2\nrun 1 2\njump 3{pad}{sep}4\n", encoding="utf-8")
    got, steps = line_steps(embedding, lambda: store_fields(load_embeddings(path)))
    assert len(steps) == 1
    assert got == ("returned", reference_store(path))


def text_opens(fn):
    """What ``fn()`` returns, and how often it opened a file in text mode."""
    with mock.patch.object(Path, "open", autospec=True, side_effect=Path.open) as opened:
        result = fn()
    return result, sum(call.args[1] == "r" for call in opened.call_args_list)


def test_one_refused_block_leaves_the_rest_to_numpys_reader(tmp_path):
    # blocks of four lines; line 11 (the tenth entry) is tab-separated
    path = tmp_path / "v.txt"
    entries = [f"w{i} {i} {-i}.5\n" for i in range(20)]
    entries[9] = entries[9].replace(" ", "\t", 1)
    path.write_text("20 2\n" + "".join(entries), encoding="utf-8")
    parse_block, vouched = textblocks.parse_block, []

    def numpy_step(*args):
        values = parse_block(*args)
        vouched.append(values is not None)
        return values

    with (
        mock.patch.object(textblocks, "BLOCK_VALUES", 8),
        mock.patch.object(textblocks, "parse_block", numpy_step),
    ):
        (got, steps), opens = text_opens(
            lambda: line_steps(embedding, lambda: store_fields(load_embeddings(path)))
        )
    assert got == ("returned", reference_store(path))
    assert opens == 1
    # the third block, lines 10-13, is parsed line by line, and only it;
    # numpy's reader parses the other four
    assert [(call.args[0], call.args[3]) for call in steps] == [(entries[8:12], 10)]
    assert vouched == [True] * 4


def test_feature_error_after_a_multiline_cell_names_its_physical_line(tmp_path):
    # blocks of four lines: two clean blocks (lines 2-9), a quoted id that
    # spans lines 10-11, and a negative value on line 20, two blocks later
    path = tmp_path / "f.csv"
    rows = [f"v{i},run,{i},1" for i in range(18)]
    rows[8] = '"v8\nline",run,8,1'
    rows[17] = "v17,run,-1,1"
    path.write_text("id,label,f0,f1\n" + "\n".join(rows) + "\n", encoding="utf-8")
    with mock.patch.object(textblocks, "BLOCK_VALUES", 8):
        (got, steps), opens = text_opens(lambda: line_steps(data, lambda: public_dataset(path)))
    message = f"{path}:20: negative feature value"
    assert got == outcome(lambda: reference_dataset(path)) == ("raised", ValueError, message)
    assert opens == 1
    assert len(steps) == 1 and steps[0].args[3] == 10


@pytest.mark.parametrize("bad_line", [False, True])
def test_undecodable_text_raises_where_the_line_loop_does(tmp_path, bad_line):
    # one block spans several 8 KiB decoding chunks; the lines read before
    # the undecodable byte are parsed first, so an error on one of them wins
    entries = [f"w{i} {i}" for i in range(5000)]
    if bad_line:
        entries[3] = "w3 1 2"
    content = ("5000 1\n" + "\n".join(entries) + "\n").encode("utf-8")
    path = tmp_path / "v.txt"
    path.write_bytes(content[:20_000] + b"\xff" + content[20_000:])
    got = outcome(lambda: store_fields(load_embeddings(path)))
    assert got == outcome(lambda: reference_store(path))
    assert got[1] is (ValueError if bad_line else UnicodeDecodeError)


def test_blank_lines_do_not_size_the_feature_array(tmp_path):
    # every blank line is a line break, but no row of 1000 values fits in one
    d_x = 1000
    path = tmp_path / "f.csv"
    header = ",".join(["id", "label"] + [f"f{i}" for i in range(d_x)])
    row = ",".join(["v0", "run"] + ["1"] * d_x)
    path.write_text(header + "\n" + row + "\n" * 20_000, encoding="utf-8")
    tracemalloc.start()
    try:
        features = load_dataset(path).features
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert features.shape == (1, d_x)
    assert peak < 8 * 2**20
