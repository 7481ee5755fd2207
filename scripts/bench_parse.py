#!/usr/bin/env python3
"""Time the feature-CSV and word-vector loaders against the per-line loops
they replaced, and write the result to BENCH_parse.json.

    python3 scripts/bench_parse.py                  # writes BENCH_parse.json
    python3 scripts/bench_parse.py --repeats 1 --out /tmp/bench.json

Run it from the repository root. The corpora are the three perfbench
workloads, written by ``perfbench/corpus.py`` at ``--seed``, and one corpus
at the paper's shape: a d_x=4000 feature CSV and d_z=300 word vectors
among 5,000 distractor tokens. Word vectors are loaded as an evaluation
loads them, keeping only the tokens of the class names. Two odd files
have one line in the middle that numpy's reader refuses: the zsl-deep
word vectors with a tab after one token (``embeddings_tab.txt``), and the
zsl-wide target with one quoted id (``target_quoted.csv``).

For every file, each path gets the best and median wall time of
``--repeats`` loads, the peak memory traced by ``tracemalloc`` during one
more load, and a sha256 of what it parsed (arrays, ids, labels, tokens).
The two paths take turns: each repeat loads the file once on each, and
which one goes first alternates.
``line`` is the per-line loop kept in ``tests/parse_reference.py``, which
was the whole loader before numpy's reader parsed blocks, so its numbers
are the earlier loader's; ``block`` is the public loader. Exits 1, after
writing the file, if any hash differs between the two paths.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import corpus  # noqa: E402
import parse_reference as reference  # noqa: E402
from zslkit import data, embedding  # noqa: E402
from zslkit.embedding import label_tokens  # noqa: E402

PAPER_SHAPE = corpus.Workload(
    name="paper-shape",
    mode="zsl",
    target_classes=26,
    aux_classes=0,
    per_class=10,
    d_x=4000,
    d_z=300,
    n_bases=8,
    concentration=50.0,
    distractor_tokens=5000,
    units=1,
    k_neighbors=None,
)


def dataset_digest(parsed) -> str:
    d_x, ids, labels, features = parsed
    h = hashlib.sha256(repr((d_x, features.dtype.str, features.shape)).encode())
    h.update(features.tobytes())
    h.update(repr((ids, [lab.raw for lab in labels])).encode())
    return h.hexdigest()


def store_digest(store) -> str:
    h = hashlib.sha256(repr((store.dimension, store.duplicates_replaced)).encode())
    for token, vec in store.table.items():
        h.update(repr((token, vec.dtype.str, vec.shape)).encode())
        h.update(vec.tobytes())
    return h.hexdigest()


def measure(paths: dict, digest, repeats: int) -> dict:
    """For each named call in ``paths``: the times of ``repeats`` calls,
    then the traced peak of one more call and the digest of what it
    returned. Each repeat times every path once, in reverse order on odd
    repeats, so drift of the host lands on both sides alike."""
    names = list(paths)
    times = {name: [] for name in names}
    for k in range(repeats):
        for name in names[::-1] if k % 2 else names:
            start = time.perf_counter()
            result = paths[name]()
            times[name].append(time.perf_counter() - start)
            del result
    out = {}
    for name in names:
        tracemalloc.start()
        try:
            result = paths[name]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out[name] = {
            "best_s": round(min(times[name]), 5),
            "median_s": round(statistics.median(times[name]), 5),
            "peak_traced_mb": round(peak / 2**20, 3),
            "sha256": digest(result),
        }
        del result
    return out


def bench_file(corpus_name: str, path: Path, tokens, repeats: int) -> dict:
    """Both paths on one feature CSV, or, given ``tokens``, one word-vector
    file loaded for those tokens."""
    if tokens is None:
        loader, digest = "load_dataset", dataset_digest

        def block():
            ds = data.load_dataset(path)
            return ds.features.shape[1], ds.ids, ds.labels, ds.features

        def line():
            return reference.read_feature_lines(path)
    else:
        loader, digest, wanted = "load_embeddings", store_digest, frozenset(tokens)

        def block():
            return embedding.load_embeddings(path, tokens=wanted)

        def line():
            return reference.read_embedding_lines(path, wanted)
    entry = {"corpus": corpus_name, "file": path.name, "loader": loader,
             "bytes": path.stat().st_size}
    entry.update(measure({"line": line, "block": block}, digest, repeats))
    entry["speedup_best"] = round(entry["line"]["best_s"] / entry["block"]["best_s"], 3)
    entry["hashes_match"] = entry["line"]["sha256"] == entry["block"]["sha256"]
    return entry


# The corpus file of which a workload also gets an odd copy.
ODD_FILES = {"zsl-wide": "target", "zsl-deep": "embeddings"}


def odd_copy(path: Path) -> Path:
    """A copy of ``path`` whose middle line numpy's reader refuses: a tab
    after the token of a word-vector line, or quotes round a row's id."""
    lines = path.read_text(encoding="utf-8").split("\n")
    mid = len(lines) // 2
    if path.suffix == ".csv":
        lines[mid] = '"{}",{}'.format(*lines[mid].split(",", 1))
        out = path.with_name(f"{path.stem}_quoted.csv")
    else:
        lines[mid] = lines[mid].replace(" ", "\t", 1)
        out = path.with_name(f"{path.stem}_tab.txt")
    out.write_text("\n".join(lines), encoding="utf-8")
    return out


def bench_corpus(workload, seed: int, root: Path, repeats: int) -> list[dict]:
    paths = {k: Path(v) for k, v in corpus.generate(workload, seed, root / workload.name).items()}
    datasets = [key for key in ("target", "auxiliary") if key in paths]
    labels = [lab for key in datasets for lab in data.load_dataset(paths[key]).class_vocabulary]
    tokens = label_tokens(labels)
    files = [(paths[key], None) for key in datasets] + [(paths["embeddings"], tokens)]
    if workload.name in ODD_FILES:
        odd = ODD_FILES[workload.name]
        files.append((odd_copy(paths[odd]), tokens if odd == "embeddings" else None))
    return [bench_file(workload.name, path, wanted, repeats) for path, wanted in files]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="corpus seed")
    parser.add_argument("--repeats", type=int, default=5, help="timed loads per path and file")
    parser.add_argument("--out", default=str(ROOT / "BENCH_parse.json"))
    args = parser.parse_args()
    workloads = [*corpus.WORKLOADS.values(), PAPER_SHAPE]
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads:
            entries += bench_corpus(workload, args.seed, Path(tmp), args.repeats)
    doc = {
        "benchmark": "feature-CSV and word-vector parsing, public loader vs per-line loop",
        "command": f"python3 scripts/bench_parse.py --seed {args.seed} --repeats {args.repeats}",
        "paths": {
            "line": "per-line loop (the loader before the block path), tests/parse_reference.py",
            "block": "public loader (numpy's reader per block, the line loop where it refuses)",
        },
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "all_hashes_match": all(e["hashes_match"] for e in entries),
        "files": entries,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for e in entries:
        print(f"{e['corpus']:>11} {e['file']:<18} line {e['line']['best_s']:8.4f} s  "
              f"block {e['block']['best_s']:8.4f} s  x{e['speedup_best']:<6} "
              f"peak {e['line']['peak_traced_mb']:7.2f} -> {e['block']['peak_traced_mb']:7.2f} MB  "
              f"{'match' if e['hashes_match'] else 'HASH MISMATCH'}")
    return 0 if doc["all_hashes_match"] else 1


if __name__ == "__main__":
    sys.exit(main())
