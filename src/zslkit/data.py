"""Dataset ingestion, category-split generation and the k-means
bag-of-words quantizer over precomputed descriptors.

File formats
------------
Feature CSV: header ``id,label,f0,...,f{d-1}``; one instance per row,
label cells use underscores for spaces, features are non-negative reals.

Descriptor CSV: headerless, one descriptor per row, optionally with a
leading non-numeric video-id column for grouped quantization.

Split JSON: ``{"dataset":..., "seed":..., "index":..., "seen":[...],
"unseen":[...]}`` with class slugs.

All randomness flows from explicit seeds through numpy's PCG64
generator (``np.random.default_rng``); split index i uses the seed
sequence ``[seed, i]`` so splits are independent and reproducible.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import textblocks
from .embedding import Label
from .kernels import squared_euclidean_matrix


@dataclass
class Dataset:
    """Labelled feature vectors with a class vocabulary.

    The vocabulary may list classes with no instances (e.g. after
    restricting to a category split side); every instance label must be
    in the vocabulary.
    """

    name: str
    d_x: int
    ids: list[str]
    labels: list[Label]
    features: np.ndarray
    class_vocabulary: list[Label]

    def __len__(self) -> int:
        return len(self.ids)

    def instances(self):
        for i, id_ in enumerate(self.ids):
            yield id_, self.labels[i], self.features[i]

    def subset_classes(self, classes: list[Label], name: str | None = None) -> "Dataset":
        """Restrict to instances of the given classes; the subset's
        vocabulary is exactly ``classes`` (kept even if instance-free)."""
        keys = {c.key for c in classes}
        missing = [c.key for c in classes if c.key not in {v.key for v in self.class_vocabulary}]
        if missing:
            raise ValueError(f"class {missing[0]!r} not in dataset vocabulary")
        idx = [i for i, lab in enumerate(self.labels) if lab.key in keys]
        return Dataset(
            name=name or self.name,
            d_x=self.d_x,
            ids=[self.ids[i] for i in idx],
            labels=[self.labels[i] for i in idx],
            features=self.features[idx] if idx else np.empty((0, self.d_x)),
            class_vocabulary=list(classes),
        )

    def subset_ids(self, instance_ids: list[str], name: str | None = None) -> "Dataset":
        pos = {id_: i for i, id_ in enumerate(self.ids)}
        idx = []
        for id_ in instance_ids:
            if id_ not in pos:
                raise ValueError(f"instance id {id_!r} not in dataset {self.name!r}")
            idx.append(pos[id_])
        labels = [self.labels[i] for i in idx]
        return Dataset(
            name=name or self.name,
            d_x=self.d_x,
            ids=list(instance_ids),
            labels=labels,
            features=self.features[idx] if idx else np.empty((0, self.d_x)),
            class_vocabulary=list(dict.fromkeys(labels)),
        )


def load_dataset(path: str | Path, format: str = "csv", name: str | None = None) -> Dataset:
    """Parse a feature CSV into a :class:`Dataset`, validating shape,
    non-negativity and id uniqueness.

    Rows are parsed in blocks by :mod:`zslkit.textblocks`; a file that
    path cannot vouch for is re-read by the per-line loop, which raises
    every error.
    """
    if format != "csv":
        raise ValueError(f"unsupported dataset format {format!r}")
    path = Path(path)
    try:
        parsed = _read_feature_blocks(path)
    except ValueError:  # a label without tokens, or undecodable text
        parsed = None
    d_x, ids, labels, features = _read_feature_lines(path) if parsed is None else parsed
    return Dataset(
        name=name or path.stem,
        d_x=d_x,
        ids=ids,
        labels=labels,
        features=features,
        class_vocabulary=list(dict.fromkeys(labels)),
    )


# A quote starts a quoted csv cell; NUL aside, the others are separators
# that numpy strips from a value and float() does not.
_UNSAFE_CHARS = '"\x00\x1c\x1d\x1e\x1f'


def _read_feature_blocks(path: Path):
    """The block path of :func:`load_dataset`: (d_x, ids, labels,
    features), or None wherever the csv module could read a line
    differently from a plain split on commas, or the line loop would
    raise.

    Each block is copied into one array sized by an upper bound on the
    rows, which is then trimmed in place, so the rows are never held
    twice.
    """
    limit = csv.field_size_limit()
    with path.open("r", encoding="utf-8", newline="") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        d_x = len(header) - 2
        if d_x < 1 or header != ["id", "label"] + [f"f{i}" for i in range(d_x)]:
            return None
        ids: list[str] = []
        labels: list[Label] = []
        known: dict[str, Label] = {}
        features = np.empty((_row_bound(path, d_x), d_x))
        for lines in textblocks.line_blocks(fh, d_x):
            rests = []
            for line in lines:
                cells = line.split(",", 2)
                if len(cells) != 3 or any(c in line for c in _UNSAFE_CHARS):
                    return None
                if len(line) > limit and max(map(len, line.rstrip("\r\n").split(","))) > limit:
                    return None
                id_, raw, rest = cells
                if raw not in known:
                    known[raw] = Label.of(raw)
                ids.append(id_)
                labels.append(known[raw])
                rests.append(rest)
            values = textblocks.parse_block(rests, d_x, ",")
            if values is None or (values < 0).any():
                return None
            features[len(ids) - len(lines) : len(ids)] = values
    if len(set(ids)) != len(ids):
        return None
    features.resize((len(ids), d_x), refcheck=False)
    return d_x, ids, labels, features


def _row_bound(path: Path, d_x: int) -> int:
    """At least the rows the block path can read from ``path``: each ends
    in a CR or LF byte, bar the last, which follows the header's, and
    takes at least 2*d_x + 2 bytes."""
    breaks = 0
    with path.open("rb") as raw:
        while chunk := raw.read(1 << 20):
            breaks += chunk.count(b"\n") + chunk.count(b"\r")
    return min(breaks, path.stat().st_size // (2 * d_x + 2))


def _read_feature_lines(path: Path):
    """The per-line loop of :func:`load_dataset`."""
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
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_split(path: str | Path) -> tuple[str, SplitSpec]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return doc["dataset"], SplitSpec(
        seed=int(doc["seed"]),
        index=int(doc["index"]),
        seen=tuple(Label.of(s) for s in doc["seen"]),
        unseen=tuple(Label.of(s) for s in doc["unseen"]),
    )


@dataclass
class Codebook:
    """K-means centroids over descriptor space."""

    k: int
    centroids: np.ndarray
    descriptor_dim: int
    inertia_history: list[float] = field(default_factory=list)


def kmeans_codebook(
    descriptors: np.ndarray, k: int, seed: int = 0, max_iters: int = 100
) -> Codebook:
    """Lloyd's algorithm with seeded k-means++ initialization.

    Stops when assignments are stable or ``max_iters`` is reached. Empty
    clusters are re-seeded to the point farthest from its assigned
    centroid. ``inertia_history`` records the (non-increasing) inertia at
    each assignment step.
    """
    x = np.asarray(descriptors, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"descriptors must be 2-D, got shape {x.shape}")
    n = x.shape[0]
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < k:
        raise ValueError(f"need at least k={k} descriptors, got {n}")
    rng = np.random.default_rng(seed)

    centroids = np.empty((k, x.shape[1]), dtype=np.float64)
    centroids[0] = x[int(rng.integers(n))]
    closest = squared_euclidean_matrix(x, centroids[:1])[:, 0]
    for c in range(1, k):
        total = closest.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centroids[c] = x[idx]
        closest = np.minimum(closest, squared_euclidean_matrix(x, centroids[c : c + 1])[:, 0])

    history: list[float] = []
    prev_assign: np.ndarray | None = None
    for _ in range(max_iters):
        d2 = squared_euclidean_matrix(x, centroids)
        assign = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), assign].sum()))
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
        assigned_d2 = d2[np.arange(n), assign].copy()
        for c in range(k):
            members = assign == c
            if members.any():
                centroids[c] = x[members].mean(axis=0)
            else:
                far = int(np.argmax(assigned_d2))
                centroids[c] = x[far]
                assigned_d2[far] = 0.0
    return Codebook(k=k, centroids=centroids, descriptor_dim=x.shape[1], inertia_history=history)


def quantize(codebook: Codebook, descriptors: np.ndarray, normalize: bool = False) -> np.ndarray:
    """Histogram of nearest-centroid assignments (ties take the lowest
    centroid index). With ``normalize`` the bins sum to 1. An empty
    descriptor list yields a zero histogram and a warning."""
    x = np.asarray(descriptors, dtype=np.float64)
    if x.size == 0:
        warnings.warn("quantize: empty descriptor list, returning zero histogram")
        return np.zeros(codebook.k, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != codebook.descriptor_dim:
        raise ValueError(
            f"descriptor dimension {x.shape[1]} does not match codebook "
            f"dimension {codebook.descriptor_dim}"
        )
    assign = np.argmin(squared_euclidean_matrix(x, codebook.centroids), axis=1)
    hist = np.bincount(assign, minlength=codebook.k).astype(np.float64)
    if normalize:
        hist /= x.shape[0]
    return hist


CODEBOOK_VERSION = 1


def save_codebook(codebook: Codebook, path: str | Path, seed: int | None = None) -> None:
    doc = {
        "schema": "zslkit-codebook",
        "version": CODEBOOK_VERSION,
        "k": codebook.k,
        "descriptor_dim": codebook.descriptor_dim,
        "seed": seed,
        "centroids": [[float(v) for v in row] for row in codebook.centroids],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_codebook(path: str | Path) -> Codebook:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or doc.get("schema") != "zslkit-codebook":
        raise ValueError(f"{path}: not a codebook file")
    if doc.get("version") != CODEBOOK_VERSION:
        raise ValueError(f"{path}: unsupported codebook schema version {doc.get('version')!r}")
    try:
        k, dim, rows = int(doc["k"]), int(doc["descriptor_dim"]), doc["centroids"]
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from None
    try:
        centroids = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: centroids is not a numeric array ({exc})") from None
    if centroids.shape != (k, dim):
        raise ValueError(
            f"{path}: centroids has shape {centroids.shape}, expected ({k}, {dim}) "
            f"to match k and descriptor_dim"
        )
    if not np.all(np.isfinite(centroids)):
        raise ValueError(f"{path}: centroids contain non-finite values")
    return Codebook(k=k, centroids=centroids, descriptor_dim=dim)


def read_descriptor_file(path: str | Path) -> list[tuple[str | None, np.ndarray]]:
    """Read a descriptor CSV, returning (group id, descriptor matrix) pairs.

    A leading non-numeric column is treated as a per-row video id and rows
    are grouped by it in order of first appearance; otherwise the whole
    file is one anonymous group.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        rows = [(lineno, row) for lineno, row in enumerate(csv.reader(fh), start=1) if row]
    if not rows:
        raise ValueError(f"{path}: empty descriptor file")
    first = rows[0][1]
    try:
        float(first[0])
        has_id = False
    except ValueError:
        has_id = True
    width = len(first)
    groups: dict[str | None, list[list[float]]] = {}
    for lineno, row in rows:
        if len(row) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} cells, got {len(row)}")
        key = row[0] if has_id else None
        try:
            values = [float(v) for v in (row[1:] if has_id else row)]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: unparseable descriptor value") from None
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{path}:{lineno}: non-finite descriptor value")
        groups.setdefault(key, []).append(values)
    return [(key, np.asarray(vals, dtype=np.float64)) for key, vals in groups.items()]
