"""Measure one workload in a fresh process.

Runs the public evaluation entry point repeatedly on a generated corpus
until ``--seconds`` have passed (at least twice), checks every repeat's
outputs, and writes the aggregated result as JSON to ``--out``. With
``--trace 1`` traced and untraced repeats alternate, so the per-layer
figures and the tracing overhead come from the same process.

Started by ``run.py``, which pins the BLAS/OpenMP thread counts in the
environment before this process imports numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import zslkit
from zslkit.evaluate import ExperimentConfig, run_multishot_evaluation, run_zsl_evaluation
from zslkit.smo import ConvergenceError

from corpus import SPLIT_SEED, WORKLOADS, Workload
from spans import EXACT_COUNTS, SELF_METRICS, Recorder, SetupDone, instrument

UNIT_FAILED = re.compile(r"^(split|fold) \d+ failed")
MIN_REPEATS = 2
RECORDED_HASHES = Path(__file__).with_name("hashes.json")
SETUP_PROBES = 3  # set-up-only samples taken after each timed repeat


@dataclass
class Repeat:
    traced: bool
    run_s: float
    setup_s: float | None
    units: list[float]
    attempted: int
    error: str | None = None
    digest: str | None = None
    accuracy: float | None = None
    problems: list[str] = field(default_factory=list)
    layers: dict | None = None


def experiment(w: Workload, paths: dict, out_dir: Path) -> ExperimentConfig:
    cfg = ExperimentConfig(
        target_path=paths["target"],
        embedding_path=paths["embeddings"],
        out_dir=str(out_dir),
        split_count=w.units,
        split_seed=SPLIT_SEED,
    )
    if w.mode == "zsl":
        cfg.auxiliary_path = paths["auxiliary"]
        cfg.augment = True
        cfg.self_train = True
        cfg.k_neighbors = w.k_neighbors
    else:
        cfg.folds_path = paths["folds"]
    return cfg


def check_outputs(w: Workload, paths: dict, report, run_dir: Path) -> tuple[str, list[str]]:
    """Content hash of the per-unit predictions and accuracies, plus every
    disagreement between the outputs and the corpus ground truth.

    ``report.json`` is not hashed: its config embeds input paths and the
    output directory, which differ between repeats."""
    truth = json.loads(Path(paths["truth"]).read_text(encoding="utf-8"))
    problems: list[str] = []
    accs = report.per_split_accuracy
    if len(accs) != w.units:
        problems.append(f"report lists {len(accs)} units, expected {w.units}")
    if w.mode == "multishot":
        folds = json.loads(Path(paths["folds"]).read_text(encoding="utf-8"))["folds"]
        all_classes = set(truth.values())
    digest = hashlib.sha256()
    chance = []
    for k, acc in enumerate(accs, start=1):
        if w.mode == "zsl":
            csv_path = run_dir / "predictions" / f"split_{k:03d}.csv"
            split = json.loads((run_dir / "splits" / f"split_{k:03d}.json").read_text())
            allowed = set(split["unseen"])
            if allowed & set(split["seen"]) or len(allowed) != w.target_classes // 2:
                problems.append(f"split {k}: malformed seen/unseen partition")
            expected = {i for i, lab in truth.items() if lab in allowed}
        else:
            csv_path = run_dir / "predictions" / f"fold_{k:03d}.csv"
            allowed = all_classes
            expected = set(folds[k - 1]["test"])
        raw = csv_path.read_bytes()
        digest.update(csv_path.name.encode() + b"\0" + raw + b"\0" + repr(acc).encode() + b"\n")
        rows = [line.split(",") for line in raw.decode("utf-8").splitlines()[1:]]
        ids = [r[0] for r in rows]
        if len(ids) != len(expected) or set(ids) != expected:
            problems.append(f"{csv_path.name}: predicted ids differ from the unit's test set")
            continue
        if not {r[1] for r in rows} <= allowed:
            problems.append(f"{csv_path.name}: predicts a class outside the unit's candidates")
        hits = sum(truth[r[0]] == r[1] for r in rows)
        if abs(100.0 * hits / len(rows) - acc) > 1e-9:
            problems.append(f"{csv_path.name}: report accuracy {acc} disagrees with predictions")
        chance.append(100.0 / len(allowed))
    if accs and abs(statistics.fmean(accs) - report.mean_accuracy) > 1e-9:
        problems.append("mean_accuracy is not the mean of the per-unit accuracies")
    if chance and report.mean_accuracy < 2.0 * statistics.fmean(chance):
        problems.append(
            f"mean accuracy {report.mean_accuracy:.2f}% is under twice chance "
            f"({statistics.fmean(chance):.2f}%)"
        )
    return digest.hexdigest(), problems


def evaluator(w: Workload):
    return run_zsl_evaluation if w.mode == "zsl" else run_multishot_evaluation


def probe_setup(w: Workload, paths: dict, out_dir: Path) -> float:
    """Time one set-up alone: the evaluation is stopped once its inputs
    are parsed, before it creates the run directory."""
    rec = Recorder(setup_only=True)
    start = time.perf_counter()
    try:
        with instrument(rec, False):
            evaluator(w)(experiment(w, paths, out_dir))
    except SetupDone:
        return rec.setup_end - start
    raise RuntimeError("evaluation ran past set-up without reaching the set-up marker")


def run_once(w: Workload, paths: dict, out_dir: Path, traced: bool) -> Repeat:
    cfg = experiment(w, paths, out_dir)
    evaluate = evaluator(w)
    rec = Recorder()
    error = None
    start = time.perf_counter()
    try:
        with instrument(rec, traced):
            report, run_dir = evaluate(cfg)
    except (ConvergenceError, MemoryError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    except RuntimeError as exc:
        if not UNIT_FAILED.match(str(exc)):
            raise
        error = f"RuntimeError: {exc}"
    run_s = time.perf_counter() - start
    rep = Repeat(
        traced=traced,
        run_s=run_s,
        setup_s=None if rec.setup_end is None else rec.setup_end - start,
        units=rec.unit_durations(),
        attempted=rec.units_done + (error is not None),
        error=error,
    )
    if error is None:
        rep.digest, rep.problems = check_outputs(w, paths, report, run_dir)
        rep.accuracy = report.mean_accuracy
        if traced:
            rep.layers = rec.layer_totals()
    shutil.rmtree(out_dir, ignore_errors=True)
    return rep


def timing(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples above it."""
    s = sorted(values)
    out = {"n": len(s), "median": statistics.median(s) if s else None}
    if len(s) >= 11:
        out["tail_pct"] = round(100.0 * (len(s) - 10) / len(s), 1)
        out["tail"] = s[-11]
    return out


def recorded_hash(workload: str, seed: int, digests: list[str]) -> str:
    """Whether this seed's output hash matches the one recorded for it.

    Informational, not part of the gate: a deliberate numeric change moves
    the hash, and the benchmark must keep running across it."""
    recorded = json.loads(RECORDED_HASHES.read_text(encoding="utf-8")) if RECORDED_HASHES.is_file() else {}
    expected = recorded.get(workload, {}).get(str(seed))
    if expected is None:
        return "none for this seed"
    return "match" if digests == [expected] else "differs"


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        return "unknown"


def environment() -> dict:
    return {
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
    }


def end_to_end(timed: list[Repeat], reps: list[Repeat], probes: list[float]) -> tuple[dict, dict]:
    """Medians over the timed untraced repeats (and, for set-up, the set-up
    probes); accuracy and the completed share of units over every repeat."""
    ok = [r for r in timed if r.error is None] or timed
    setup = [r.setup_s for r in ok if r.setup_s is not None] + probes
    units = [u for r in ok for u in r.units]
    attempted = sum(r.attempted for r in reps)
    completed = sum(len(r.units) for r in reps)
    accuracy = next((r.accuracy for r in reps if r.accuracy is not None), 0.0)
    stats = {"setup_s": timing(setup), "run_s": timing([r.run_s for r in ok]),
             "unit_s": timing(units)}
    metrics = {
        "setup_s": (stats["setup_s"]["median"] or 0.0, "s"),
        "run_s": (stats["run_s"]["median"], "s"),
        "unit_s": (stats["unit_s"]["median"] or 0.0, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "mean_accuracy_pct": (accuracy, "%"),
        "completed_frac": (completed / attempted if attempted else 0.0, "frac"),
    }
    return metrics, stats


def per_layer(traced: list[Repeat], untraced: list[Repeat]) -> tuple[dict, list[str]]:
    problems = []
    for key in EXACT_COUNTS:
        values = {r.layers[key] for r in traced}
        if len(values) > 1:
            problems.append(f"{key} differs between repeats of one seed: {sorted(values)}")
    timed = list(SELF_METRICS.values()) + ["smo.solve_s.svr", "smo.solve_s.svc"]
    metrics = {}
    for key in traced[0].layers:
        if key in timed:
            metrics[key] = (statistics.median(r.layers[key] for r in traced), "s")
        else:
            metrics[key] = (statistics.median_low(r.layers[key] for r in traced), "count")
    for kind in ("svr", "svc"):
        per_iter = [r.layers[f"smo.solve_s.{kind}"] * 1e6 / r.layers[f"smo.iterations.{kind}"]
                    for r in traced if r.layers[f"smo.iterations.{kind}"]]
        metrics[f"smo.us_per_iter.{kind}"] = (statistics.median(per_iter) if per_iter else 0.0, "us")
    coverage = [sum(r.layers[k] for k in timed) / r.run_s for r in traced]
    traced_run = statistics.median(r.run_s for r in traced)
    untraced_run = statistics.median(r.run_s for r in untraced)
    metrics["trace.overhead_frac"] = (traced_run / untraced_run - 1.0, "frac")
    metrics["trace.coverage_frac"] = (statistics.median(coverage), "frac")
    return metrics, problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--corpus", required=True, help="JSON of corpus paths")
    parser.add_argument("--work", required=True, help="scratch directory for run outputs")
    parser.add_argument("--out", required=True, help="where to write the result JSON")
    args = parser.parse_args()

    w = WORKLOADS[args.workload]
    paths = json.loads(args.corpus)
    work = Path(args.work)
    # The first repeat pays one-off costs (lazy imports, first page faults);
    # it is checked like the others but left out of every timing.
    reps = [run_once(w, paths, work / "warmup", False)]
    probes: list[float] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 0
        rep = run_once(w, paths, work / f"rep{len(reps):03d}", traced)
        reps.append(rep)
        if not args.trace:
            probes += [probe_setup(w, paths, work / "probe") for _ in range(SETUP_PROBES)]
        print(f"repeat {len(reps)}: {'traced ' if traced else ''}run_s={rep.run_s:.3f}"
              f"{' error=' + rep.error if rep.error else ''}", file=sys.stderr)
        n_traced = sum(r.traced for r in reps)
        n_plain = len(reps) - 1 - n_traced
        enough = n_plain >= MIN_REPEATS and (not args.trace or n_traced >= MIN_REPEATS)
        if enough and time.perf_counter() >= deadline:
            break

    ok = [r for r in reps if r.error is None]
    problems = [p for r in ok for p in r.problems]
    digests = sorted({r.digest for r in ok})
    if len(ok) < MIN_REPEATS:
        problems.append(f"only {len(ok)} repeat(s) completed; the gate needs {MIN_REPEATS}")
    if len(digests) > 1:
        problems.append(f"repeats of one seed produced {len(digests)} different outputs")
    untraced = [r for r in reps[1:] if not r.traced]
    e2e, stats = end_to_end(untraced, reps, probes)
    metrics = e2e
    if args.trace:
        traced_ok = [r for r in ok if r.traced]
        untraced_ok = [r for r in untraced if r.error is None]
        if traced_ok and untraced_ok:
            metrics, count_problems = per_layer(traced_ok, untraced_ok)
            problems += count_problems
        else:
            problems.append("no traced and untraced repeat pair completed")
            metrics = {}
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.error is not None for r in reps),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": {
            "workload": w.name,
            "seed": args.seed,
            "repeats": len(reps),
            "warmup_run_s": reps[0].run_s,
            "mean_accuracy_pct": e2e["mean_accuracy_pct"][0],
            "traced_repeats": sum(r.traced for r in reps),
            "output_hash": digests[0] if len(digests) == 1 else digests,
            "recorded_hash": recorded_hash(w.name, args.seed, digests),
            "problems": problems,
            "errors": [r.error for r in reps if r.error],
            "timings": stats,
            "zslkit": zslkit.__file__,
            "environment": environment(),
        },
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
