"""One measured process of the benchmark; run.py starts it.

Imports hypjacobi, builds the seeded inputs, warms up, then runs whole
passes over the op list until ``--seconds`` have passed and at least the
workload's ``min_ops`` operations are done.  Afterwards every distinct
output is checked against the independent references, the checks are made
to reject deliberately wrong outputs, and one JSON line is printed.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

PER_LAYER = (
    "spectral.eig", "spectral.discrete_spectrum", "spectral.build_truncated",
    "spectral.trace_norm_bound", "spectral.m_function", "spectral.b_function",
    "cfrac.coeffs", "cfrac.cf_ratio_eval", "cfrac.termination",
    "classify.kappa_certificate", "classify.negative_squares",
    "classify.sign_signature", "classify.quadrature", "cli.main",
)


class OpError:
    """An exception raised by an operation, kept in place of its output."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, OpError) and other.text == self.text

    def __hash__(self):
        return hash(self.text)


def _guarded(run, i):
    try:
        return run(i)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return OpError(exc)


def judge(wl, i: int, outs) -> str | None:
    """None if every output of op i is right, else the first reason."""
    if wl.name == "cli" and len(set(outs)) > 1:
        return "payload differs between two runs of the same configuration"
    for out in outs:
        reason = out.text if isinstance(out, OpError) else wl.check(i, out)
        if reason:
            return reason
    return None


_CAL_DATA: dict = {}


def _cal_coeff(j: int) -> complex:
    m, a, b, c = j // 2, 1.3 + 0.2j, 0.7, 2.9
    return -(a + m) * (c - b + m) / ((c + 2 * m) * (c + 2 * m + 1))


def calibrate() -> float:
    """Wall time of a fixed kernel shaped like the work the workloads do.

    2047 fraction coefficients built one Python call at a time, a backward
    recurrence over them, a banded solve of order 2048 and a 64x64 complex
    eigensolve.  It runs no hypjacobi code, so a change to the program
    leaves it alone.  On a shared two-core host the speed drifts by up to a
    third within minutes; the kernel's time tracks the drift, and dividing
    by it removes most of the drift from run-to-run comparisons (README.md).
    """
    import numpy as np
    from scipy.linalg import solve_banded

    if not _CAL_DATA:
        k = np.arange(64)
        band = np.zeros((3, 2048), dtype=complex)
        band[0, 1:], band[1], band[2, :-1] = 1.0, 3.0 + 0.5j, 1.0
        _CAL_DATA.update(matrix=np.cos(np.outer(k, k + 1.0)) + 1j * np.sin(np.outer(k + 2.0, k)),
                         band=band, rhs=np.eye(1, 2048, dtype=complex)[0])
    t = time.perf_counter()
    cs = [_cal_coeff(j) for j in range(1, 2048)]
    v = 1.0 + 0.0j
    for cj in reversed(cs):
        v = 1.0 + cj * (0.4 + 0.3j) / v
    np.asarray(cs)
    solve_banded((1, 1), _CAL_DATA["band"], _CAL_DATA["rhs"])
    np.linalg.eig(_CAL_DATA["matrix"])
    return time.perf_counter() - t


def calibrate_startup() -> float:
    """Wall time of a fresh interpreter that imports numpy and exits: the
    process start-up that dominates a cli op, without hypjacobi."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t


#: calibration kernels by name: (kernel, its wall time at the machine speed
#: the end-to-end times are reported in, least op time between two samples,
#: distance within which samples scale an op), all in seconds
KERNELS = {
    "compute": (calibrate, 0.010, 0.25, 1.5),
    "startup": (calibrate_startup, 0.2, 2.0, 4.0),
}


def record(outputs: dict, i: int, out) -> None:
    seen = outputs.setdefault(i, {})
    seen[out] = seen.get(out, 0) + 1


def run_passes(wl, run, seconds: float, min_ops: int, outputs: dict, before=None):
    """Whole passes until ``seconds`` and ``min_ops`` are both reached.

    Returns the op latencies, their start times and the calibration samples
    (time, kernel time) taken between ops.  ``before(i)``, if given, runs
    ahead of each op, outside its timing.
    """
    clock = time.perf_counter
    kernel, _, every, _ = KERNELS[wl.calibration]
    lat, starts, cal = [], [], [(clock(), kernel())]
    t0 = clock()
    since_cal = 0.0
    while True:
        for i in range(len(wl.items)):
            if before is not None:
                before(i)
            s = clock()
            out = _guarded(run, i)
            lat.append(clock() - s)
            starts.append(s)
            record(outputs, i, out)
            since_cal += lat[-1]
            if since_cal >= every:
                cal.append((clock(), kernel()))
                since_cal = 0.0
        if clock() - t0 >= seconds and len(lat) >= min_ops:
            cal.append((clock(), kernel()))
            return lat, starts, cal


def at_nominal_speed(lat, starts, cal, calibration: str) -> list:
    """Each latency scaled by the kernel's nominal time / its mean time over
    the samples within the kernel's window of the op (the nearest sample if
    none is that close)."""
    _, nominal, _, window = KERNELS[calibration]
    times = [t for t, _ in cal]
    out = []
    for s, dt in zip(starts, lat):
        lo = bisect.bisect_left(times, s - window)
        hi = bisect.bisect_right(times, s + dt + window)
        near = cal[lo:hi] or [min(cal, key=lambda c: abs(c[0] - s))]
        out.append(dt * nominal / statistics.fmean(k for _, k in near))
    return out


def verify(wl, outputs: dict):
    """(correct, failed operation count), with reasons on stderr."""
    import refs

    correct, failed = True, 0
    try:
        for i, seen in sorted(outputs.items()):
            reason = judge(wl, i, list(seen))
            if reason is None:
                continue
            failed += sum(seen.values())
            known = i in wl.known_faults
            correct = correct and known
            print(f"{'known fault' if known else 'WRONG'}: op {i} {wl.items[i][:3]}: {reason}",
                  file=sys.stderr)
        first = {i: next(iter(seen)) for i, seen in outputs.items()
                 if i not in wl.known_faults and not isinstance(next(iter(seen)), OpError)}
        for i, bad, label in wl.mutants(first):
            reason = judge(wl, i, [first[i], bad])
            print(f"self-test: {label}: {'rejected (' + reason + ')' if reason else 'NOT REJECTED'}",
                  file=sys.stderr)
            correct = correct and reason is not None
    except refs.UnsettledReference as exc:
        print(f"reference failure: {exc}", file=sys.stderr)
        correct = False
    return correct, failed


def tail(lat, min_ops: int) -> float:
    """The percentile with 10 operations beyond it at ``min_ops`` operations."""
    q = 1.0 - 10.0 / min_ops
    ordered = sorted(lat)
    return ordered[math.ceil(q * len(ordered)) - 1]


def environment() -> str:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    with open("/proc/self/status", encoding="ascii") as fh:
        threads = next(line.split()[1] for line in fh if line.startswith("Threads:"))
    return (f"python {sys.version.split()[0]}, numpy {numpy.__version__}, scipy {scipy.__version__}, "
            f"BLAS {blas['name']} {blas['version']}, OPENBLAS_NUM_THREADS="
            f"{os.environ.get('OPENBLAS_NUM_THREADS')}, process threads {threads}, cores {os.cpu_count()}")


def make_workload(name: str, seed: int, env: dict):
    import workloads

    if name == "spectrum":
        return workloads.Spectrum(seed)
    if name == "eval":
        return workloads.Eval(seed)
    return workloads.Cli(seed, ROOT, env)


def timed(wl, seconds: float, setup_s: float, setup_cal: list) -> dict:
    outputs: dict = {}
    lat, starts, cal = run_passes(wl, wl.run, seconds, wl.min_ops, outputs)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    correct, failed = verify(wl, outputs)
    kernel = statistics.fmean(k for _, k in cal)
    print(f"raw wall times: ops_per_s={len(lat) / sum(lat):.6g}, op_p50_s={statistics.median(lat):.6g}, "
          f"op_tail_s={tail(lat, wl.min_ops):.6g}, setup_s={setup_s:.6g}; "
          f"calibration kernel {kernel * 1e3:.3f} ms mean over {len(cal)} samples", file=sys.stderr)
    nominal = at_nominal_speed(lat, starts, cal, wl.calibration)
    return {
        "correct": correct, "attempted": len(lat), "failed": failed,
        "metrics": {
            "ops_per_s": (len(nominal) / sum(nominal), "1/s"),
            "op_p50_s": (statistics.median(nominal), "s"),
            "op_tail_s": (tail(nominal, wl.min_ops), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "setup_s": (setup_s * KERNELS["compute"][1] / statistics.fmean(setup_cal), "s"),
        },
    }


def traced(wl, seconds: float, import_s: float, seed: int) -> dict:
    """Each op twice back to back, untraced and traced, in alternating order.

    The pairs see the same machine speed, so their time ratio is the
    tracing overhead.
    """
    from spans import Tracer

    clock = time.perf_counter
    outputs: dict = {}
    walls: list = []
    before = None
    inproc = wl.run
    if wl.name == "cli":
        # the child process gives the op's wall time; cli.main then runs
        # in this process, where the spans can see it
        inproc = wl.run_inprocess

        def before(i):
            s = clock()
            record(outputs, i, _guarded(wl.run, i))
            walls.append(clock() - s)

    tracer = Tracer()
    root = tracer.root()
    plain, spanned = [], []

    def untraced_run(i):
        s = clock()
        out = _guarded(inproc, i)
        plain.append(clock() - s)
        return out

    def traced_run(i):
        restore = tracer.install()
        try:
            tracer.op = len(spanned)
            s = clock()
            out = _guarded(lambda j: root(inproc, j), i)
            spanned.append(clock() - s)
        finally:
            restore()
        return out

    def pair(i):
        first, second = (untraced_run, traced_run) if len(plain) % 2 == 0 else (traced_run, untraced_run)
        record(outputs, i, first(i))
        return second(i)

    run_passes(wl, pair, seconds, 1, outputs, before)
    correct, failed = verify(wl, outputs)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"trace-{wl.name}-{seed}.jsonl"))

    n = len(spanned)
    stats = tracer.stats()
    get = lambda name, key: stats.get(name, {}).get(key, 0)  # noqa: E731
    untraced_s = sum(plain) / len(plain)
    traced_s = sum(spanned) / n
    m = {f"{name}.self_s_per_op": (get(name, "self") / n, "s") for name in PER_LAYER}
    kept, dropped = get("spectral.discrete_spectrum", "count") or (0, 0)
    cf_calls = get("cfrac.cf_ratio_eval", "calls")
    m.update({
        "spectral.eig.calls_per_op": (get("spectral.eig", "calls") / n, "count"),
        "spectral.eig.order_cubed_per_op": (
            sum(r[5] ** 3 for r in tracer.spans if r[0] == "spectral.eig") / n, "count"),
        "spectral.discrete_spectrum.kept_ratio": (kept / (kept + dropped) if kept + dropped else 0.0, "ratio"),
        "spectral.m_function.order_sum_per_op": (get("spectral.m_function", "count") / n, "count"),
        "cfrac.coeffs.count_per_op": (get("cfrac.coeffs", "count") / n, "count"),
        "cfrac.cf_ratio_eval.calls_per_op": (cf_calls / n, "count"),
        "cfrac.cf_ratio_eval.depth_per_call": (get("cfrac.cf_ratio_eval", "count") / cf_calls if cf_calls else 0.0, "count"),
        "cli.import_s": (import_s, "s"),
        "cli.startup_s_per_op": ((sum(walls) / len(walls) - untraced_s) if walls else 0.0, "s"),
        "trace.op_s_per_op": (untraced_s, "s"),
        "trace.traced_op_s_per_op": (traced_s, "s"),
        "trace.overhead_share": (traced_s / untraced_s - 1.0, "ratio"),
        "trace.unattributed_s_per_op": (get("op", "self") / n, "s"),
    })
    return {"correct": correct, "attempted": len(plain) + n, "failed": failed, "metrics": m}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("spectrum", "eval", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-spawn", type=float, default=T_START)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t = time.perf_counter()
    import hypjacobi.cli  # noqa: F401

    import_s = time.perf_counter() - t
    wl = make_workload(args.workload, args.seed, dict(os.environ))
    wl.warm_up()
    setup_s = time.monotonic() - args.t_spawn
    setup_cal = [calibrate() for _ in range(3)]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s * KERNELS["compute"][1] / statistics.fmean(setup_cal)}))
        return 0
    print(f"env: {environment()}", file=sys.stderr)
    if args.trace:
        res = traced(wl, args.seconds, import_s, args.seed)
    else:
        res = timed(wl, args.seconds, setup_s, setup_cal)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
