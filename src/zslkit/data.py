"""Dataset ingestion and category-split generation.

File formats
------------
Feature CSV: header ``id,label,f0,...,f{d-1}``; one instance per row,
label cells use underscores for spaces, features are non-negative reals.

Split JSON, as ``eval-zsl`` writes each split into its run directory:
``{"dataset":..., "seed":..., "index":..., "seen":[...], "unseen":[...]}``
with class slugs.

All randomness flows from explicit seeds through numpy's PCG64
generator (``np.random.default_rng``); split index i uses the seed
sequence ``[seed, i]`` so splits are independent and reproducible.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np

from . import textblocks
from .embedding import Label


@dataclass
class Dataset:
    """Labelled feature vectors."""

    name: str
    ids: list[str]
    labels: list[Label]
    features: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def class_vocabulary(self) -> list[Label]:
        """Every instance label, in order of first appearance."""
        return list(dict.fromkeys(self.labels))


def load_dataset(path: str | Path) -> Dataset:
    """Parse a feature CSV into a :class:`Dataset`, validating shape,
    non-negativity and id uniqueness.

    The file is read once, in blocks of lines. numpy's reader parses each
    block (:mod:`zslkit.textblocks`) until it cannot vouch for one; as a
    quoted cell may span lines, the csv loop then reads from that block
    to the end of the file, and raises every error.

    The rows are copied into one array sized by an upper bound on their
    number, which is then trimmed in place, so they are never held twice.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        if len(header) < 3 or header[0] != "id" or header[1] != "label":
            raise ValueError(f"{path}: header must be 'id,label,f0,...'")
        d_x = len(header) - 2
        if header != ["id", "label"] + [f"f{i}" for i in range(d_x)]:
            raise ValueError(f"{path}: header must be 'id,label,f0,...,f{d_x - 1}'")
        features = np.empty((_row_bound(path, d_x), d_x))
        ids: list[str] = []
        labels: list[Label] = []
        seen: set[str] = set()
        lineno = reader.line_num + 1
        blocks = textblocks.line_blocks(fh, d_x)
        for lines in blocks:
            rows = _block_rows(lines, d_x, seen)
            if rows is None:
                rest = chain(lines, chain.from_iterable(blocks))
                for id_, label, values in _line_rows(rest, d_x, path, lineno, seen):
                    features[len(ids)] = values
                    ids.append(id_)
                    labels.append(label)
                break
            block_ids, block_labels, values = rows
            features[len(ids) : len(ids) + len(lines)] = values
            ids += block_ids
            labels += block_labels
            seen.update(block_ids)
            lineno += len(lines)
    features.resize((len(ids), d_x), refcheck=False)
    return Dataset(name=path.stem, ids=ids, labels=labels, features=features)


def _row_bound(path: Path, d_x: int) -> int:
    """At least the rows of ``path``: each ends in a CR or LF byte, bar
    the last, which follows the header's, and takes at least 2*d_x + 2
    bytes."""
    breaks = 0
    with path.open("rb") as raw:
        while chunk := raw.read(1 << 20):
            breaks += chunk.count(b"\n") + chunk.count(b"\r")
    return min(breaks, path.stat().st_size // (2 * d_x + 2))


# A quote starts a quoted csv cell; NUL aside, the others are separators
# that numpy strips from a value and float() does not.
_UNSAFE_CHARS = '"\x00\x1c\x1d\x1e\x1f'


def _block_rows(lines: list[str], d_x: int, seen: set[str]):
    """The ids, labels and (len(lines), d_x) features of a block, or None
    wherever the csv module could read a line differently from a plain
    split on commas, or the line loop would raise; ``seen`` holds the ids
    of the rows before it."""
    limit = csv.field_size_limit()
    ids: list[str] = []
    labels: list[Label] = []
    known: dict[str, Label] = {}
    rests = []
    for line in lines:
        cells = line.split(",", 2)
        if len(cells) != 3 or any(c in line for c in _UNSAFE_CHARS):
            return None
        if len(line) > limit and max(map(len, line.rstrip("\r\n").split(","))) > limit:
            return None
        id_, raw, rest = cells
        if raw not in known:
            try:
                known[raw] = Label.of(raw)
            except ValueError:
                return None
        ids.append(id_)
        labels.append(known[raw])
        rests.append(rest)
    if len(set(ids)) != len(ids) or not seen.isdisjoint(ids):
        return None
    values = textblocks.parse_block(rests, d_x, ",")
    if values is None or (values < 0).any():
        return None
    return ids, labels, values


def _line_rows(lines: Iterable[str], d_x: int, path: Path, lineno: int, seen: set[str]):
    """The csv loop: the id, label and feature values of each record in
    ``lines``, the first of which is line ``lineno`` of ``path``; ``seen``
    holds the ids of the rows before it."""
    seen = set(seen)
    reader = csv.reader(lines)
    end = 0  # a quoted cell can span lines: errors name the line a record starts on
    for row in reader:
        start, end = lineno + end, reader.line_num
        if not row:
            continue
        if len(row) != d_x + 2:
            raise ValueError(f"{path}:{start}: expected {d_x + 2} cells, got {len(row)}")
        id_ = row[0]
        if id_ in seen:
            raise ValueError(f"{path}:{start}: duplicate id {id_!r}")
        seen.add(id_)
        try:
            feats = np.array([float(v) for v in row[2:]], dtype=np.float64)
        except ValueError:
            raise ValueError(f"{path}:{start}: unparseable feature value") from None
        if not np.all(np.isfinite(feats)):
            raise ValueError(f"{path}:{start}: non-finite feature value")
        if np.any(feats < 0):
            raise ValueError(f"{path}:{start}: negative feature value")
        try:
            label = Label.of(row[1])
        except ValueError as exc:
            raise ValueError(f"{path}:{start}: {exc}") from None
        yield id_, label, feats


def write_features_csv(
    path: str | Path, ids: list[str], labels: list[Label], features: np.ndarray
) -> None:
    features = np.asarray(features, dtype=np.float64)
    d_x = features.shape[1]
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"] + [f"f{i}" for i in range(d_x)])
        for i, id_ in enumerate(ids):
            writer.writerow([id_, labels[i].slug] + [repr(float(v)) for v in features[i]])


@dataclass(frozen=True)
class SplitSpec:
    """One 50/50 category partition (seen rounds up on odd vocabularies)."""

    seed: int
    index: int
    seen: tuple[Label, ...]
    unseen: tuple[Label, ...]


def generate_splits(vocab: list[Label], count: int, seed: int) -> list[SplitSpec]:
    """Generate ``count`` independent random 50/50 category splits.

    The vocabulary is canonicalized by sorting on class key, then split i
    shuffles it with ``default_rng([seed, i])``, so the output is
    deterministic in (vocab set, count, seed) regardless of input order.
    """
    if not vocab:
        raise ValueError("empty vocabulary")
    ordered = sorted(dict.fromkeys(vocab), key=lambda lab: lab.key)
    if len(ordered) < 2:
        raise ValueError("need at least 2 classes to split")
    if count < 1:
        raise ValueError("count must be at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    n_seen = math.ceil(len(ordered) / 2)
    splits = []
    for index in range(1, count + 1):
        rng = np.random.default_rng([seed, index])
        perm = rng.permutation(len(ordered))
        seen = sorted((ordered[i] for i in perm[:n_seen]), key=lambda lab: lab.key)
        unseen = sorted((ordered[i] for i in perm[n_seen:]), key=lambda lab: lab.key)
        splits.append(SplitSpec(seed=seed, index=index, seen=tuple(seen), unseen=tuple(unseen)))
    return splits


def save_split(split: SplitSpec, dataset_name: str, path: str | Path) -> None:
    doc = {
        "dataset": dataset_name,
        "seed": split.seed,
        "index": split.index,
        "seen": [lab.slug for lab in split.seen],
        "unseen": [lab.slug for lab in split.unseen],
    }
    path = Path(path)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")

