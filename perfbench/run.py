#!/usr/bin/env python3
"""zslkit benchmark: seeded synthetic corpora through eval-zsl and
eval-multishot, timed end to end (--trace 0) or by layer (--trace 1).

    python3 perfbench/run.py --workload zsl-wide --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root. Each workload gets a fresh corpus process
and a fresh measuring process (``worker.py``), both with one BLAS/OpenMP
thread. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a summary table precedes it.
Exits non-zero without a result if ``src/zslkit`` is missing or a child
fails or overruns.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Pinned before anything imports numpy; the child processes inherit it.
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("ZSLKIT_THREADS", None)
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _child(args: list[str], deadline: float, **kwargs) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left to start {Path(args[0]).name}")
    try:
        proc = subprocess.run([sys.executable, *args], timeout=remaining, **kwargs)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{Path(args[0]).name} overran the {TIME_LIMIT_S:.0f} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{Path(args[0]).name} exited with code {proc.returncode}")
    return proc


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    work = WORK / f"{name}-s{seed}-t{trace}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        gen = _child([str(HERE / "corpus.py"), "--workload", name, "--seed", str(seed),
                      "--out", str(work / "corpus")],
                     deadline, stdout=subprocess.PIPE, text=True)
        corpus = gen.stdout.strip().splitlines()[-1]
        result_path = work / "result.json"
        _child([str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace), "--corpus", corpus,
                "--work", str(work / "runs"), "--out", str(result_path)],
               deadline, stdout=sys.stderr)
        return json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def declared_metrics(trace: int) -> set[str] | None:
    """Metric names BENCHMARK.json promises for this mode, if it is present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"] for m in doc["per_layer" if trace else "end_to_end"]}


def summarize(name: str, result: dict) -> None:
    d = result["detail"]
    env = d["environment"]
    print(f"== {name} seed={d['seed']} repeats={d['repeats']} (traced {d['traced_repeats']}) "
          f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    print(f"   output_hash={d['output_hash']} (recorded: {d['recorded_hash']})")
    print(f"   python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"nproc {env['nproc']}, threads {env['threads']}")
    for metric, m in result["metrics"].items():
        stat = d["timings"].get(metric)
        tail = ""
        if stat is not None:
            tail = f"  (n={stat['n']}"
            if "tail" in stat:
                tail += f", p{stat['tail_pct']:g}={stat['tail']:.4f}"
            tail += ")"
        print(f"   {metric:<34} {m['value']:>14.6g} {m['unit']}{tail}")
    for problem in d["problems"]:
        print(f"   PROBLEM: {problem}")


def main() -> int:
    if not (SRC / "zslkit" / "__init__.py").is_file():
        print(f"error: {SRC / 'zslkit'} not found; run from a zslkit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from corpus import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    declared = declared_metrics(args.trace)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            summarize(name, results[name])
            if declared is not None and set(results[name]["metrics"]) != declared:
                raise BenchError(f"{name}: metrics differ from those BENCHMARK.json declares")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
        final = {k: final[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
