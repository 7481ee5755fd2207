"""Word-embedding store: file loading, label composition, vector geometry.

The on-disk format is the plain-text word-vector layout: a header line
``<count> <dim>`` followed by one ``<token> v1 ... v<dim>`` line per entry,
UTF-8, newline-terminated.
"""

from __future__ import annotations

import math
import re
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from . import textblocks

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)
# an ASCII lowercase letter followed by an uppercase one: UCF101's
# ``ApplyEyeMakeup`` is three words
_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z])(?=[A-Z])")


def tokenize(raw: str) -> tuple[str, ...]:
    """Split at each lowercase-to-uppercase boundary, lowercase, split on
    whitespace and underscores, strip ASCII punctuation."""
    parts = _CAMEL_BOUNDARY.sub(" ", raw).lower().replace("_", " ").split()
    return tuple(t for t in (p.translate(_PUNCT_TABLE) for p in parts) if t)


@dataclass(frozen=True, eq=False)
class Label:
    """A category name and its token decomposition.

    Identity (equality/hash) is by token sequence, so ``Brush_Hair`` and
    ``brush hair`` denote the same class regardless of the raw spelling.
    """

    raw: str
    tokens: tuple[str, ...]

    @classmethod
    def of(cls, raw: str) -> "Label":
        tokens = tokenize(raw)
        if not tokens:
            raise ValueError(f"label {raw!r} has no tokens after tokenization")
        return cls(raw=raw, tokens=tokens)

    @property
    def key(self) -> str:
        """Canonical space-joined form, used for identity and display."""
        return " ".join(self.tokens)

    @property
    def slug(self) -> str:
        """Underscore-joined form, used in CSV/JSON outputs."""
        return "_".join(self.tokens)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Label):
            return NotImplemented
        return self.tokens == other.tokens

    def __hash__(self) -> int:
        return hash(self.tokens)

    def __repr__(self) -> str:
        return f"Label({self.key!r})"


def label_tokens(labels: Iterable[Label]) -> set[str]:
    """Every token of the given labels: the entries their embeddings read."""
    return {t for label in labels for t in label.tokens}


@dataclass
class EmbeddingStore:
    """Token -> vector table with a fixed dimension.

    Immutable by convention after loading; all lookups are read-only and
    safe to share across threads.
    """

    dimension: int
    table: dict[str, np.ndarray] = field(default_factory=dict)
    duplicates_replaced: int = 0

    def __len__(self) -> int:
        return len(self.table)


def load_embeddings(path: str | Path, tokens: Iterable[str] | None = None) -> EmbeddingStore:
    """Parse a text word-vector file into an :class:`EmbeddingStore`.

    Given ``tokens``, only those entries are stored, so memory is bounded
    by the label vocabulary rather than the file; every line is still
    checked. Duplicate stored tokens are resolved last-wins and counted in
    ``duplicates_replaced``. Malformed headers, rows with the wrong number
    of values, non-finite values and entry-count mismatches all raise
    ``ValueError`` with the offending line number.

    The file is read once, in blocks of lines. numpy's reader parses each
    block (:mod:`zslkit.textblocks`) unless it cannot vouch for it; such
    a block is parsed by the per-line loop, which raises every error, and
    the next block tries numpy's reader again.
    """
    path = Path(path)
    wanted = None if tokens is None else frozenset(tokens)
    table: dict[str, np.ndarray] = {}
    duplicates = 0
    parsed = 0
    with path.open("r", encoding="utf-8") as fh:
        count, dim = _read_header(fh, path)
        lineno = 2
        for lines in textblocks.line_blocks(fh, dim):
            rows = _block_rows(lines, dim)
            names, values = _line_rows(lines, dim, path, lineno) if rows is None else rows
            lineno += len(lines)
            parsed += len(names)
            for k, token in enumerate(names):
                if wanted is None or token in wanted:
                    duplicates += token in table
                    table[token] = np.array(values[k], dtype=np.float64)
    if parsed != count:
        raise ValueError(f"{path}: header declares {count} entries, found {parsed}")
    return EmbeddingStore(dimension=dim, table=table, duplicates_replaced=duplicates)


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


# What str.split() also takes for a separator among ASCII characters, and
# NUL; a block with any of them, or with non-ASCII values, is left to the
# line loop.
_OTHER_SEPARATORS = "\t\x0b\x0c\r\x1c\x1d\x1e\x1f\x00"


def _block_rows(lines: list[str], dim: int):
    """The tokens and (len(lines), dim) values of a block, or None unless
    every line is ``<token> v1 ... v<dim>`` with single spaces (one
    trailing space allowed, as word2vec and fastText write it) and the
    line loop would read it the same."""
    split = [line.partition(" ") for line in lines]
    names = [s[0] for s in split]
    texts = [s[2] for s in split]
    joined = "".join(texts)
    if (
        " ".join(names).split() != names
        or not joined.isascii()
        or any(c in joined for c in _OTHER_SEPARATORS)
    ):
        return None
    if any(t.endswith((" \n", " ")) for t in texts):
        texts = [t.removesuffix("\n").removesuffix(" ") for t in texts]
    values = textblocks.parse_block(texts, dim, " ")
    return None if values is None else (names, values)


def _line_rows(lines: list[str], dim: int, path: Path, lineno: int):
    """The per-line loop: the tokens and value lists of the entries in
    ``lines``, the first of which is line ``lineno`` of ``path``."""
    names: list[str] = []
    values: list[list[float]] = []
    for lineno, line in enumerate(lines, start=lineno):
        if not line.strip():
            continue
        parts = line.split()
        token, cells = parts[0], parts[1:]
        if len(cells) != dim:
            raise ValueError(
                f"{path}:{lineno}: expected {dim} values for token "
                f"{token!r}, got {len(cells)}"
            )
        try:
            floats = list(map(float, cells))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: unparseable value") from None
        if not all(map(math.isfinite, floats)):
            raise ValueError(f"{path}:{lineno}: non-finite value for token {token!r}")
        names.append(token)
        values.append(floats)
    return names, values


def save_embeddings(store: EmbeddingStore, path: str | Path) -> None:
    """Write the store in the text format. Values use shortest round-trip
    decimal repr, so load(save(store)) reproduces every float bit-exactly."""
    path = Path(path)
    lines = [f"{len(store.table)} {store.dimension}"]
    for token, vec in store.table.items():
        lines.append(token + " " + " ".join(repr(float(v)) for v in vec))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def embed_label(store: EmbeddingStore, label: Label) -> np.ndarray:
    """Arithmetic mean of the embeddings of the label's distinct tokens.

    Repeated tokens count once. The result is not normalized.
    """
    if not label.tokens:
        raise ValueError(f"label {label.raw!r} has an empty token list")
    unique = list(dict.fromkeys(label.tokens))
    for tok in unique:
        if tok not in store.table:
            raise ValueError(
                f"token {tok!r} of label {label.raw!r} not in embedding vocabulary"
            )
    return np.mean([store.table[t] for t in unique], axis=0)


def l2_normalize(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("cannot normalize zero vector")
    return v / norm
