"""graphlift benchmark: one workload per process, one JSON result line.

    python3 bench/run.py --workload train-cascade --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from `src/` of
the checkout this file sits in and from nowhere else.  With --trace 0 the
workload runs whole rounds of its command for --seconds and prints the
end-to-end metrics; with --trace 1 a separate traced replay prints the
per-layer metrics (see README.md).  Diagnostics go to stderr and to
bench/runs/; the last line of stdout is the result.
"""

import time

T0 = time.perf_counter()   # set-up time counts from here, before any import

import argparse
import json
import os
import sys
from pathlib import Path

from spec import END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> int:
    """Cap every BLAS thread-count variable at the cores this process may
    use; must run before numpy is imported."""
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= cores):
            os.environ[var] = str(cores)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def import_program():
    """Import graphlift from this checkout's src/, or return None."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import graphlift
    except ImportError:
        return None
    if Path(graphlift.__file__).resolve().parent.parent != src:
        return None
    return graphlift


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = limit_blas_threads()
    os.environ["GRAPHLIFT_VERBOSE"] = "0"
    if import_program() is None:
        print(f"graphlift sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    out_dir = ROOT / "bench" / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        import traced
        result = traced.run(args.workload, args.seed, args.seconds, out_dir)
        wanted = PER_LAYER
    else:
        result = workloads.run(args.workload, args.seed, args.seconds, out_dir, T0)
        wanted = END_TO_END
    result.details["blas_threads"] = threads
    missing = sorted(set(wanted) - set(result.metrics))
    if missing:
        result.problems.append(f"metrics not measured: {missing}")
    for path in out_dir.iterdir():
        if path.suffix in (".jsonl", ".bin"):     # generated data, checkpoint blobs
            path.unlink()
    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    (out_dir / "result.json").write_text(json.dumps(
        {"metrics": result.metrics, "details": result.details,
         "problems": result.problems}, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": float(result.metrics[name]), "unit": wanted[name][0]}
                    for name in wanted if name in result.metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
