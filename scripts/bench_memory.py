#!/usr/bin/env python3
"""Trace and time the steps that now run in bounded chunks against their
former whole-array, per-prototype or stacked forms, and write
BENCH_memory.json.

    python3 scripts/bench_memory.py                  # writes BENCH_memory.json
    python3 scripts/bench_memory.py --repeats 1 --out /tmp/bench.json

Run it from the repository root. Each stage runs at a fixed seeded shape:

- ``matching``: ``zsl.nearest_prototype`` of 3,383 projections against 26
  prototypes at d_z=300, one HMDB51 half-split;
- ``self_train``: ``zsl.self_train`` of the same 26 prototypes on the same
  3,383 projections, k=10;
- ``symmetry``: ``svr._validate_gram`` of an exactly symmetric 4,000-row
  Gram matrix, which it returns uncopied (any asymmetry raises); its
  former form compares the whole matrix with its transpose at once;
- ``run_distances``: the run-wide chi-square matrix of 320 target and 128
  auxiliary histograms of 1,000 bins (the zsl-wide shape): the rows
  stacked by ``evaluate._run_features``, then ``kernels.PackedDistances``,
  one symmetric fill with each pair stored once; its former form mirrors
  a dense matrix of the stacked rows, row by row. The packed matrix is
  hashed as its dense expansion, and the entry records both sizes;
- ``unit_block``: the (1,040, 1,040) block of one unit's rows, gathered
  from the packed matrix of a 1,440-row run (the zsl-deep shape) against
  ``np.ix_`` on the dense matrix.

``reference`` is the former form, kept in ``tests/memory_reference.py``;
``library`` is zslkit's code. For each path the file records the best and
median wall time of ``--repeats`` calls, taken in turn with the other
path's and alternating which goes first, the peak memory traced by
``tracemalloc`` during one more call (inputs are allocated before tracing
starts) and a sha256 of the result. Exits 1, after writing the file, if any
hash differs between the two paths.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import memory_reference as reference  # noqa: E402
from bench_parse import measure  # noqa: E402
from zslkit import evaluate, kernels, svr, zsl  # noqa: E402


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def matching(rng):
    mat = rng.normal(size=(26, 300))
    proj = rng.normal(size=(3383, 300))
    return ("3383 x 26 x 300",
            lambda: reference.nearest_prototype(mat, proj),
            lambda: zsl.nearest_prototype(mat, proj),
            lambda r: digest(*r))


def self_train(rng):
    mat = rng.normal(size=(26, 300))
    proj = rng.normal(size=(3383, 300))
    proj /= np.linalg.norm(proj, axis=1, keepdims=True)
    return ("3383 x 26 x 300, k=10",
            lambda: reference.self_train(mat, proj, 10),
            lambda: zsl.self_train(mat, proj, 10),
            lambda r: digest(r))


def symmetry(rng):
    n = 4000
    v = rng.random(n)
    g = np.add.outer(v, v)
    return (f"n={n}", lambda: reference.validate_gram(g), lambda: svr._validate_gram(g),
            lambda r: digest(r))


def dense(r) -> np.ndarray:
    """A result as a dense array; a packed run matrix is expanded."""
    if isinstance(r, np.ndarray):
        return r
    every = np.arange(r.n)
    return r.block(every, every)


def run_matrix(target, aux):
    """A run's packed matrix, from its target and auxiliary rows."""
    return kernels.PackedDistances(evaluate._run_features(target, aux))


def run_distances(rng):
    target, aux = (rng.random((n, 1000)) * (rng.random((n, 1000)) < 0.5) for n in (320, 128))
    n = len(target) + len(aux)
    packed = run_matrix(target, aux).cells.nbytes
    return ("320 + 128 x 1000",
            lambda: reference.run_distances(target, aux),
            lambda: run_matrix(target, aux),
            lambda r: digest(dense(r)),
            {"dense_bytes": 8 * n * n, "packed_bytes": packed})


def unit_block(rng):
    target, aux = rng.random((800, 32)), rng.random((640, 32))
    full, packed = reference.run_distances(target, aux), run_matrix(target, aux)
    rows = np.sort(rng.choice(len(full), 1040, replace=False))
    return ("1040 of 1440 rows",
            lambda: full[np.ix_(rows, rows)],
            lambda: packed.block(rows, rows),
            lambda r: digest(r))


STAGES = {"matching": matching, "self_train": self_train, "symmetry": symmetry,
          "run_distances": run_distances, "unit_block": unit_block}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="seed of the stage inputs")
    parser.add_argument("--repeats", type=int, default=5, help="timed calls per path and stage")
    parser.add_argument("--out", default=str(ROOT / "BENCH_memory.json"))
    args = parser.parse_args()
    entries = []
    for name, build in STAGES.items():
        shape, ref_call, lib_call, result_digest, *sizes = build(np.random.default_rng(args.seed))
        entry = {"stage": name, "shape": shape, **(sizes[0] if sizes else {})}
        entry.update(measure({"reference": ref_call, "library": lib_call}, result_digest,
                             args.repeats))
        entry["hashes_match"] = entry["reference"]["sha256"] == entry["library"]["sha256"]
        entries.append(entry)
    doc = {
        "benchmark": "traced peak memory, chunked or blockwise steps vs their former forms",
        "command": f"python3 scripts/bench_memory.py --seed {args.seed} --repeats {args.repeats}",
        "paths": {
            "reference": (
                "former whole-array, per-prototype or stacked form (tests/memory_reference.py)"
            ),
            "library": "zslkit's chunked or blockwise form",
        },
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "all_hashes_match": all(e["hashes_match"] for e in entries),
        "stages": entries,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for e in entries:
        ref, lib = e["reference"], e["library"]
        print(f"{e['stage']:>13} {e['shape']:<33} peak {ref['peak_traced_mb']:9.3f} -> "
              f"{lib['peak_traced_mb']:7.3f} MB  best {ref['best_s']:7.4f} -> "
              f"{lib['best_s']:7.4f} s  {'match' if e['hashes_match'] else 'HASH MISMATCH'}")
    return 0 if doc["all_hashes_match"] else 1


if __name__ == "__main__":
    sys.exit(main())
