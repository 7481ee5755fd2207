"""The per-line loops that were the whole of ``load_dataset`` and
``load_embeddings`` before each became one reader of blocks.

Each function is the loop as it stood, kept verbatim: it opens the file,
checks the header and parses every line in Python. Tests require the
public loaders to return exactly what these return, or raise the same
exception with the same message; ``scripts/bench_parse.py`` times the
two against each other.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from zslkit.embedding import EmbeddingStore, Label


def read_feature_lines(path: Path):
    """The per-line loop of `load_dataset`: (d_x, ids, labels, features)."""
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if len(header) < 3 or header[0] != "id" or header[1] != "label":
            raise ValueError(f"{path}: header must be 'id,label,f0,...'")
        d_x = len(header) - 2
        expected = ["id", "label"] + [f"f{i}" for i in range(d_x)]
        if header != expected:
            raise ValueError(f"{path}: header must be 'id,label,f0,...,f{d_x - 1}'")
        ids: list[str] = []
        labels: list[Label] = []
        rows: list[np.ndarray] = []
        seen_ids: set[str] = set()
        # a quoted cell can span lines: errors name the line a record starts on
        end = reader.line_num
        for row in reader:
            lineno, end = end + 1, reader.line_num
            if not row:
                continue
            if len(row) != d_x + 2:
                raise ValueError(
                    f"{path}:{lineno}: expected {d_x + 2} cells, got {len(row)}"
                )
            id_ = row[0]
            if id_ in seen_ids:
                raise ValueError(f"{path}:{lineno}: duplicate id {id_!r}")
            seen_ids.add(id_)
            try:
                feats = np.array([float(v) for v in row[2:]], dtype=np.float64)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: unparseable feature value") from None
            if not np.all(np.isfinite(feats)):
                raise ValueError(f"{path}:{lineno}: non-finite feature value")
            if np.any(feats < 0):
                raise ValueError(f"{path}:{lineno}: negative feature value")
            ids.append(id_)
            try:
                labels.append(Label.of(row[1]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            rows.append(feats)
    features = np.vstack(rows) if rows else np.empty((0, d_x))
    return d_x, ids, labels, features


def _read_header(fh, path: Path) -> tuple[int, int]:
    header = fh.readline().split()
    try:
        if len(header) != 2:
            raise ValueError
        count, dim = int(header[0]), int(header[1])
        if count < 0 or dim < 1:
            raise ValueError
    except ValueError:
        raise ValueError(f"{path}: malformed header") from None
    return count, dim


def read_embedding_lines(path: Path, wanted: frozenset[str] | None) -> EmbeddingStore:
    """The per-line loop of `load_embeddings`."""
    with path.open("r", encoding="utf-8") as fh:
        count, dim = _read_header(fh, path)
        table: dict[str, np.ndarray] = {}
        duplicates = 0
        parsed = 0
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split()
            token, values = parts[0], parts[1:]
            if len(values) != dim:
                raise ValueError(
                    f"{path}:{lineno}: expected {dim} values for token "
                    f"{token!r}, got {len(values)}"
                )
            try:
                floats = list(map(float, values))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: unparseable value") from None
            if not all(map(math.isfinite, floats)):
                raise ValueError(f"{path}:{lineno}: non-finite value for token {token!r}")
            parsed += 1
            if wanted is not None and token not in wanted:
                continue
            if token in table:
                duplicates += 1
            table[token] = np.array(floats, dtype=np.float64)
        if parsed != count:
            raise ValueError(f"{path}: header declares {count} entries, found {parsed}")
    return EmbeddingStore(dimension=dim, table=table, duplicates_replaced=duplicates)
