#!/usr/bin/env python3
"""Time the dual solver with every step batched and with its rows split
across processes against its default, and write BENCH_smo.json.

    python3 scripts/bench_smo.py                  # writes BENCH_smo.json
    python3 scripts/bench_smo.py --repeats 1 --out /tmp/bench.json

Run it from the repository root. The problems are every ``smo.solve`` call
of one evaluation of each perfbench workload, on the corpus that
``perfbench/corpus.py`` writes at ``--seed``; one SVR problem at the
paper's shape, 520 clips of a 26-class ``make_world`` world with d_x=1000
and d_z=300 unit-norm targets; and three SVR problems on the mixture world
of ``perfbench/corpus.py`` at the same d_x and d_z (26 classes, 8 bases,
concentration 12): 20 clips of each of the first 15 classes (n=300), 20
of each of the 26 (n=520) and 40 of each (n=1040). Every SVR problem is
solved at the default SVR settings.

Each problem is solved ``--repeats`` times on each path, rotating which
path goes first in each repeat: ``batched`` (``smo._TAIL_ROWS`` at 0:
every step is one batched step), ``default`` (the default ``_TAIL_ROWS``)
and ``split`` (the default ``_TAIL_ROWS``, with ``smo._SPLIT_MIN_N`` at 0:
the rows are dealt to one forked process per usable CPU, whatever the
problem's size). The first two run in this process at every size; a run
takes the split path from ``smo._SPLIT_MIN_N`` samples on, which is chosen
from where ``split`` starts to beat ``default``. For each path the file records
the best and median wall time, the best time per row-iteration (the cost
of one row's pair update on that path) and a sha256 over every
``SmoResult`` field.
For each problem it records its steps and row-iterations by live-row
band: a step with L live rows counts once under L's band and adds L
row-iterations. The default path takes the steps of the bands up to
``_TAIL_ROWS`` one row at a time. Each workload's entry also records the
prediction hash, whether it matches the hash perfbench recorded for the
seed, and the mean accuracy.
Exits 1, after writing the file, if any hash differs between the paths.

BLAS runs on one thread, as in perfbench.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import fields, replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import corpus  # noqa: E402
import worker  # noqa: E402
from zslkit import kernels, smo  # noqa: E402
from zslkit.evaluate import ExperimentConfig  # noqa: E402
from zslkit.kernels import distance_matrix, gram_matrix, heuristic_gamma  # noqa: E402
from zslkit.svr import train_svr  # noqa: E402
from zslkit.synthetic import make_world, world_dataset  # noqa: E402

# upper ends of the live-row bands
BANDS = (1, 2, 4, 12, 50)


@contextmanager
def recorded_solves():
    """Collect the arguments of every ``smo.solve`` call made in the block."""
    problems, solve = [], smo.solve

    def keep(gram, z, p, c, tolerance, max_iter):
        # an SVR dual has 2n variables, an SVC dual n
        problems.append({"kind": "svr" if p.shape[1] == 2 * gram.shape[0] else "svc",
                         "args": (gram.copy(), z.copy(), p.copy(), c, tolerance, max_iter)})
        return solve(gram, z, p, c, tolerance, max_iter)

    smo.solve = keep
    try:
        yield problems
    finally:
        smo.solve = solve


def capture(w: corpus.Workload, seed: int, root: Path) -> tuple[list[dict], dict]:
    """Every solve of one evaluation of ``w``, and that run's outputs."""
    paths = corpus.generate(w, seed, root / w.name)
    with recorded_solves() as problems:
        out_dir = root / "runs" / w.name
        report, run_dir = worker.evaluator(w)(worker.experiment(w, paths, out_dir))
    digest, wrong = worker.check_outputs(w, paths, report, run_dir)
    if wrong:
        raise RuntimeError(f"{w.name}: {wrong}")
    run = {"output_hash": digest, "recorded": worker.recorded_hash(w.name, seed, [digest]),
           "mean_accuracy_pct": report.mean_accuracy}
    return problems, run


def svr_problem(world, classes: int, per_class: int, rng: np.random.Generator) -> dict:
    """The SVR dual of ``per_class`` clips of each of the world's first
    ``classes`` classes, at the default SVR settings."""
    ds = world_dataset(world, list(range(classes)), per_class, rng)
    # rows come class by class
    targets = np.repeat(world.class_embeddings[:classes], per_class, axis=0)
    gram = gram_matrix(heuristic_gamma(ds.features), distance_matrix(ds.features))
    defaults = ExperimentConfig()
    with recorded_solves() as problems:
        train_svr(gram, targets, defaults.svr_c, defaults.svr_epsilon)
    return problems[0]


def paper_problem(seed: int) -> dict:
    """The SVR dual of 20 clips of each of 26 classes at d_z=300."""
    rng = np.random.default_rng(seed)
    return svr_problem(make_world(26, 1000, 300, rng), 26, 20, rng)


def mixture_problems(seed: int) -> list[dict]:
    """SVR duals at n = 300, 520 and 1040 on a 26-class mixture world at
    d_x=1000 and d_z=300."""
    shape = replace(corpus.WORKLOADS["zsl-deep"], target_classes=26, aux_classes=0,
                    d_x=1000, d_z=300)
    world = corpus.mixture_world(shape, np.random.default_rng(corpus.WORLD_SEED))
    rng = np.random.default_rng(seed)
    return [svr_problem(world, classes, per_class, rng)
            for classes, per_class in ((15, 20), (26, 20), (26, 40))]


def result_digest(res: smo.SmoResult) -> str:
    h = hashlib.sha256()
    for f in fields(res):
        value = np.asarray(getattr(res, f.name))
        h.update(repr((f.name, value.dtype.str, value.shape)).encode())
        h.update(value.tobytes())
    return h.hexdigest()


def live_row_bands(row_iterations: np.ndarray) -> dict:
    """Steps and row-iterations of a batched solve by live-row count. Every
    live row takes each batched step, and a row stays live through its last
    step, so step s has as many rows as there are rows with >= s steps."""
    counts = np.sort(np.asarray(row_iterations))[::-1]
    out = {}
    low = 1
    for high in (*BANDS, None):
        live = np.arange(low, counts.size + 1 if high is None else min(high, counts.size) + 1)
        # live rows L step (counts[L - 1] - counts[L]) times, counts[r] = 0
        steps = counts[live - 1] - np.append(counts, 0)[live]
        name = f"{low}+" if high is None else (f"{low}" if low == high else f"{low}-{high}")
        out[name] = {"steps": int(steps.sum()), "row_iterations": int((steps * live).sum())}
        if high is None:
            break
        low = high + 1
    return out


@contextmanager
def patched(**values):
    """``smo``'s module constants set to ``values`` within the block."""
    saved = {name: getattr(smo, name) for name in values}
    try:
        for name, value in values.items():
            setattr(smo, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(smo, name, value)


# each path's smo constants; batched and default run in this process only
ONE_PROCESS = {"_SPLIT_MIN_N": sys.maxsize}
PATHS = {"batched": {"_TAIL_ROWS": 0, **ONE_PROCESS}, "default": ONE_PROCESS,
         "split": {"_SPLIT_MIN_N": 0}}


def bench_problem(prob: dict, repeats: int) -> dict:
    gram, z, p, c, tolerance, max_iter = prob["args"]
    times = {path: [] for path in PATHS}
    digests = {}
    for k in range(repeats):
        order = list(PATHS)
        for path in order[k % len(order):] + order[:k % len(order)]:
            with patched(**PATHS[path]):
                start = time.perf_counter()
                res = smo.solve(gram, z, p, c, tolerance, max_iter)
                times[path].append(time.perf_counter() - start)
            digests[path] = result_digest(res)
    entry = {"kind": prob["kind"], "n": gram.shape[0], "m": p.shape[1], "rows": p.shape[0],
             "row_iterations": int(res.iterations),
             "live_row_bands": live_row_bands(res.row_iterations)}
    for path, ts in times.items():
        entry[path] = {"best_s": round(min(ts), 5), "median_s": round(statistics.median(ts), 5),
                       "us_per_row_iteration": round(1e6 * min(ts) / res.iterations, 3),
                       "sha256": digests[path]}
    entry["speedup_best"] = round(entry["batched"]["best_s"] / entry["default"]["best_s"], 3)
    entry["split_speedup_best"] = round(entry["default"]["best_s"] / entry["split"]["best_s"], 3)
    entry["hashes_match"] = len(set(digests.values())) == 1
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="corpus seed")
    parser.add_argument("--repeats", type=int, default=5, help="timed solves per path and problem")
    parser.add_argument("--out", default=str(ROOT / "BENCH_smo.json"))
    args = parser.parse_args()
    corpora = {}
    with tempfile.TemporaryDirectory() as tmp:
        for w in corpus.WORKLOADS.values():
            corpora[w.name] = capture(w, args.seed, Path(tmp))
    corpora["paper-shape"] = ([paper_problem(args.seed)], None)
    corpora["mixture"] = (mixture_problems(args.seed), None)

    entries, totals = [], {}
    for name, (problems, run) in corpora.items():
        done = [bench_problem(prob, args.repeats) for prob in problems]
        for i, e in enumerate(done):
            entries.append({"corpus": name, "index": i, **e})
        totals[name] = {
            "problems": len(done),
            **{f"{path}_best_s": round(sum(e[path]["best_s"] for e in done), 5)
               for path in PATHS},
            "run": run,
        }
    doc = {
        "benchmark": "smo.solve, every step batched and rows split across processes "
                     "vs the default",
        "command": f"python3 scripts/bench_smo.py --seed {args.seed} --repeats {args.repeats}",
        "paths": {
            "batched": "_TAIL_ROWS = 0: every step is one batched step over the live rows",
            "default": f"_TAIL_ROWS = {smo._TAIL_ROWS}: the last rows finish one at a time, "
                       "in this process",
            "split": f"the default, with _SPLIT_MIN_N = 0: rows dealt to "
                     f"{kernels._worker_count()} processes at every n (a run splits from "
                     f"n = {smo._SPLIT_MIN_N})",
        },
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "all_hashes_match": all(e["hashes_match"] for e in entries),
        "corpora": totals,
        "problems": entries,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for e in entries:
        print(f"{e['corpus']:>11} #{e['index']} {e['kind']} n={e['n']:<4} r={e['rows']:<3} "
              f"iters={e['row_iterations']:<7} batched {e['batched']['best_s']:8.4f} s  "
              f"default {e['default']['best_s']:8.4f} s  split {e['split']['best_s']:8.4f} s  "
              f"{'match' if e['hashes_match'] else 'HASH MISMATCH'}")
    for name, t in totals.items():
        print(f"{name:>11} total batched {t['batched_best_s']:8.4f} s  "
              f"default {t['default_best_s']:8.4f} s  split {t['split_best_s']:8.4f} s  "
              f"run {t['run']}")
    return 0 if doc["all_hashes_match"] else 1


if __name__ == "__main__":
    sys.exit(main())
