"""Benchmark of hypjacobi: one workload, one run, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload spectrum|eval|cli --seed N --seconds S --trace 0|1

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced run.  The
measuring happens in a fresh worker process (worker.py) with one BLAS
thread.  Set-up is measured SETUP_SAMPLES times, from the spawn of a fresh
interpreter to its first timed operation, and reported as the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 3

#: a worker that has not finished by then is killed and the run fails
WORKER_TIMEOUT_S = 170


def worker_env() -> dict:
    env = dict(os.environ)
    # one BLAS thread: the default OpenBLAS pool doubles the CPU time of an
    # eigensolve on two cores without shortening it
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], deadline: float) -> dict:
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")] + argv + ["--t-spawn", repr(t_spawn)],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, check=False,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description="hypjacobi benchmark")
    ap.add_argument("--workload", required=True, choices=("spectrum", "eval", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "hypjacobi", "__init__.py")):
        print(f"error: no hypjacobi sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + WORKER_TIMEOUT_S
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(spawn(argv + ["--setup-only"], deadline)["setup_s"])
        res = spawn(argv, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = res["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"][0])
        metrics["setup_s"] = (statistics.median(setups), "s")
    res["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
