"""Benchmark of fracbv: three workloads of checks, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload families --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in its own single-threaded process as a closed loop with
one client.  ``--trace 0`` reports the end-to-end metrics, with times scaled
to a fixed host speed (see ``bench_core``); set-up time is the median over
several processes that each set up and exit, plus the measuring one.
``--trace 1`` makes a separate traced run and reports the per-layer metrics.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("families", "oracle", "systems")
END_TO_END = (("setup_s", "s"), ("checks_per_s", "1/s"), ("check_p50_s", "s"), ("peak_rss_mb", "MiB"))
SETUP_PROBES = 3  # set-up-only processes per run, besides the measuring one (see README)
CHILD_TIMEOUT_S = 150.0
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: this process is a worker started by the orchestrating process
    parser.add_argument("--worker", choices=("setup", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def worker(args) -> None:
    """Set up (and, unless probing set-up only, measure); print one JSON line."""
    import bench_core  # only workers load numpy and the program

    module = importlib.import_module(f"bench_{args.workload}")
    result = bench_core.run_workload(
        module,
        args.seed,
        args.seconds,
        trace=bool(args.trace),
        spawned_at=args.spawned_at,
        setup_only=args.worker == "setup",
    )
    print(json.dumps(result))


def spawn(args, workload: str, role: str) -> dict:
    """Run one worker process to its end and return the JSON it printed last."""
    argv = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--worker", role,
    ]
    env = {**os.environ, **SINGLE_THREAD}
    argv += ["--spawned-at", repr(time.monotonic())]  # CLOCK_MONOTONIC is system-wide
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {workload} {role} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, workload: str) -> dict:
    """The result object of one workload: correct, attempted, failed, metrics."""
    probes = [] if args.trace else [spawn(args, workload, "setup") for _ in range(SETUP_PROBES)]
    run = spawn(args, workload, "measure")
    for failure in run["failures"]:
        print(f"{workload}: failed check {failure}")
    if args.trace:
        metrics = run["layers"]
        print(f"{workload}: traced checks_per_s {run['checks_per_s']!r} over {run['rounds']} rounds")
    else:
        for key in ("setup_s", "setup_wall_s"):
            run[key] = statistics.median([p[key] for p in probes] + [run[key]])
        metrics = {name: {"value": run[name], "unit": unit} for name, unit in END_TO_END}
        medians = ", ".join(f"{kind} {s:.3f}s" for kind, s in run["by_kind"].items())
        print(f"{workload}: {run['rounds']} rounds; median check time by kind: {medians}")
        wall = run["wall"]
        print(
            f"{workload}: as measured, before scaling to the reference speed: setup_s {run['setup_wall_s']!r}, "
            f"checks_per_s {wall['checks_per_s']!r}, check_p50_s {wall['check_p50_s']!r}; "
            f"median reference task {wall['reference_p50_s']!r} s"
        )
    for name, m in metrics.items():
        print(f"{workload}: {name} = {m['value']!r} {m['unit']}")
    print(f"{workload}: attempted {run['attempted']}, failed {run['failed']}")
    return {"correct": run["correct"], "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker:
        worker(args)
        return 0
    if not (BENCH_DIR.parent / "src" / "fracbv" / "__init__.py").is_file():
        sys.stderr.write("error: run from a checkout of fracbv; src/fracbv is missing\n")
        return 2
    if args.workload == "all":
        print(json.dumps({w: measure(args, w) for w in WORKLOADS}))
    else:
        print(json.dumps(measure(args, args.workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
