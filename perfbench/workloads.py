"""The three workloads: seeded inputs, the timed operation, its checks.

A workload holds the op list of one pass.  ``run(i)`` is the timed
operation; ``check(i, out)`` compares an output with the independent
references of :mod:`refs` and returns None or the reason it is wrong;
``mutants(outputs)`` yields deliberately wrong outputs that ``check`` must
reject, so a check that passes everything cannot go unnoticed.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _refs():
    # mpmath is imported after the timed loop, so it adds to neither set-up
    # time nor peak memory
    import refs

    return refs


def _cplx_arg(x: complex) -> str:
    x = complex(x)
    return repr(x.real) if x.imag == 0.0 else f"{x.real!r},{x.imag!r}"


def _off_band_z(rng: random.Random, stratum: float | None = None) -> complex:
    """z = lam + 1/lam with |lam| = r in [0.4, 0.85], outside the band.

    The convergence of both routes to B is set by r, so an op list that
    spreads r evenly costs about the same whatever the seed: ``stratum`` in
    [0, 1) places r, a uniform draw does when it is not given.
    """
    u = rng.random() if stratum is None else stratum
    lam = cmath.rect(0.4 + 0.45 * u, rng.uniform(0.0, 2.0 * math.pi))
    return lam + 1.0 / lam


def _strata(rng: random.Random, n: int) -> list[float]:
    """The midpoints of n equal slots of [0, 1), in random order."""
    slots = [(k + 0.5) / n for k in range(n)]
    rng.shuffle(slots)
    return slots


def _c_value(rng: random.Random, lo: float, hi: float) -> float:
    """A real c in [lo, hi] at least 0.1 from every nonpositive integer."""
    while True:
        c = rng.uniform(lo, hi)
        if c > 0.1 or abs(c - round(c)) > 0.1:
            return c


def _moderate_real(rng: random.Random):
    while True:
        a, b, c = rng.uniform(-6.0, 6.0), rng.uniform(-3.0, 3.0), _c_value(rng, -4.5, 5.0)
        if abs(a) > 0.1 and abs(c - b) > 0.1:
            return a, b, c


def _stieltjes(rng: random.Random):
    c = rng.uniform(0.5, 4.0)
    return rng.uniform(0.2, c + 0.8), rng.uniform(-0.8, c - 0.2), c


class Spectrum:
    """discrete_spectrum(p) at N=256, tol=1e-10, then w = -4/(lam-2).

    Two triples of each kind from the stored pool, whose zero counts were
    found by the argument principle (refcounts.py).
    """

    name = "spectrum"
    min_ops = 40
    calibration = "compute"
    KINDS = ("kappa", "stieltjes", "complex", "nearband")

    def __init__(self, seed: int):
        import hypjacobi as hj

        self.hj = hj
        with open(os.path.join(HERE, "spectrum_pool.json"), encoding="utf-8") as fh:
            pool = json.load(fh)
        rng = random.Random(seed)
        self.items = []
        for kind in self.KINDS:
            for e in rng.sample([e for e in pool if e["kind"] == kind], 2):
                abc = tuple(complex(*e[k]) for k in "abc")
                self.items.append((kind, abc, e["zeros"], hj.validate_params(*abc)))
        self.known_faults = frozenset()

    def warm_up(self) -> None:
        self.hj.discrete_spectrum(self.items[0][3], N=16)

    def run(self, i: int):
        res = self.hj.discrete_spectrum(self.items[i][3])
        zeros = tuple(self.hj.band_to_cut(lam) for lam in res.eigenvalues)
        return res.eigenvalues, zeros, res.trace_bound

    def check(self, i: int, out):
        _, (a, b, c), n_zeros, p = self.items[i]
        eigs, zeros, bound = out
        if len(zeros) != n_zeros or len(eigs) != n_zeros:
            return f"{len(zeros)} zeros, argument principle counts {n_zeros}"
        for lam, w in zip(eigs, zeros):
            if abs(w - (-4.0 / (lam - 2.0))) > 1e-14 * abs(w):
                return f"zero {w} is not the image of eigenvalue {lam}"
            try:
                root = _refs().polish_zero(a, b, c, w)
            except (ValueError, ZeroDivisionError) as exc:
                return f"findroot failed from {w}: {exc}"
            if abs(root - w) > 1e-8 * abs(root):
                return f"zero {w} polishes to {root}"
        dist = sum(_refs().band_distance(lam) for lam in eigs)
        if not dist <= bound + 1e-9:
            return f"distance sum {dist} above trace bound {bound}"
        if p.is_real:
            nonreal = sum(1 for lam in eigs if lam.imag != 0.0)
            kappa = _refs().kappa_real(a.real, b.real, c.real)
            if nonreal > 2 * kappa:
                return f"{nonreal} non-real eigenvalues, kappa = {kappa}"
        return None

    def mutants(self, outputs):
        for i, (eigs, zeros, bound) in outputs.items():
            if eigs:
                moved = (eigs[0] + 1e-6,) + eigs[1:]
                yield i, (moved, tuple(-4.0 / (lam - 2.0) for lam in moved), bound), "eigenvalue moved by 1e-6"
                yield i, (eigs[1:], zeros[1:], bound), "zero dropped"
                return


class Eval:
    """B(a,b,c;z) by cf and by resolvent at tol=1e-12.

    Per pass: PER_KIND ops of each kind, then the fixed known fault.
    """

    name = "eval"
    min_ops = 2000
    calibration = "compute"
    PER_KIND = 24
    FAULT = ((-250.5, 3.1, 20.2), 0.3 + 0.8j)

    def __init__(self, seed: int):
        import hypjacobi as hj

        self.hj = hj
        rng = random.Random(seed)
        raw = []
        for kind in ("terminating", "real", "complex", "large"):
            r_strata, c_strata = _strata(rng, self.PER_KIND), _strata(rng, self.PER_KIND)
            for k in range(self.PER_KIND):
                abc = self._triple(kind, k, c_strata[k], rng)
                raw.append((kind, abc, _off_band_z(rng, r_strata[k])))
        raw.append(("large",) + self.FAULT)
        self.items = [(kind, abc, z, hj.validate_params(*abc)) for kind, abc, z in raw]
        self.known_faults = frozenset({len(self.items) - 1})
        self._ref_cache = {}

    @staticmethod
    def _triple(kind: str, k: int, stratum: float, rng: random.Random):
        if kind == "terminating":
            a = -float(1 + k % 6)
            return a, rng.uniform(-3.0, 3.0), _c_value(rng, 0.3, 5.0)
        if kind == "real":
            return _moderate_real(rng)
        if kind == "complex":
            return tuple(complex(x, rng.uniform(-2.0, 2.0)) for x in _moderate_real(rng))
        # large: c log-uniform over [10, 100] by stratum, a and b log-uniform
        # over [10, c].  Negative parameters in the tens, or a or b above c,
        # make the program return wrong B on some seeds (see CHANGES.md).
        # Odd slots get imaginary parts.
        c = 10.0 ** (1.0 + stratum)
        a, b = (10.0 ** rng.uniform(1.0, 1.0 + stratum) for _ in range(2))
        if k % 2:
            a, b, c = (complex(x, rng.uniform(-5.0, 5.0)) for x in (a, b, c))
        return a, b, c

    def warm_up(self) -> None:
        self.run(0)

    def run(self, i: int):
        p, z = self.items[i][3], self.items[i][2]
        b = self.hj.b_function
        return b(p, z, method="cf", tol=1e-12), b(p, z, method="resolvent", tol=1e-12)

    def reference(self, i: int) -> complex:
        if i not in self._ref_cache:
            kind, (a, b, c), z, _ = self.items[i]
            self._ref_cache[i] = _refs().reference_b(a, b, c, z, large=(kind == "large"))
        return self._ref_cache[i]

    def check(self, i: int, out):
        ref = self.reference(i)
        for route, v in zip(("cf", "resolvent"), out):
            if not _refs().close(v, ref, 1e-9):
                return f"{route} gives {v}, reference {ref}"
        return None

    def mutants(self, outputs):
        for i, (cf, res) in outputs.items():
            if i not in self.known_faults:
                off = 1e-8 * max(1.0, abs(self.reference(i)))
                yield i, (cf + off, res), "B off by 1e-8"
                return


class Cli:
    """One ``python -m hypjacobi.cli`` process per op, spawn to exit.

    Per pass: seven eval, seven measure, one classify and one coeffs
    process, each with its own seeded triple and the subcommand's default
    settings.  classify and coeffs, the two slow ones, are one op in eight,
    so the p75 tail falls well inside the start-up bound ops and not on
    the edge between the groups.
    """

    name = "cli"
    min_ops = 40
    calibration = "startup"
    PASS = ("eval", "measure") * 2 + ("classify",) + ("eval", "measure") * 2 + ("coeffs",) + (
        "eval", "measure") * 3

    def __init__(self, seed: int, root: str, env: dict):
        rng = random.Random(seed)
        self.root, self.env = root, env
        self.items = []
        for sub in self.PASS:
            if sub == "eval" and rng.random() < 0.5:
                abc = tuple(complex(x, rng.uniform(-1.0, 1.0)) for x in _moderate_real(rng))
            elif sub == "measure":
                abc = _stieltjes(rng)
            else:
                abc = _moderate_real(rng)
            z = _off_band_z(rng)
            argv = [sub] + [f"-{k}={_cplx_arg(v)}" for k, v in zip("abc", abc)]
            if sub == "eval":
                argv.append(f"--z={_cplx_arg(z)}")
            self.items.append((sub, abc, z, argv))
        self.known_faults = frozenset()
        self._ref_cache = {}

    def warm_up(self) -> None:
        # in-process: the worker has just read the files a child will load,
        # and a warm-up child would add its own start-up noise to setup_s
        self.run_inprocess(0)

    def run_inprocess(self, i: int):
        """cli.main in this process, payload written with --out."""
        import hypjacobi.cli

        path = os.path.join(HERE, "out", "cli-payload.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        code = hypjacobi.cli.main(self.items[i][3] + ["--out", path])
        with open(path, "rb") as fh:
            return code, fh.read()

    def run(self, i: int):
        proc = subprocess.run([sys.executable, "-m", "hypjacobi.cli"] + self.items[i][3],
                              cwd=self.root, env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
        return proc.returncode, proc.stdout

    def _reference(self, i: int):
        if i not in self._ref_cache:
            sub, (a, b, c), z, _ = self.items[i]
            if sub in ("eval", "measure"):
                self._ref_cache[i] = _refs().reference_b(a, b, c, z, large=False)
            elif sub == "classify":
                self._ref_cache[i] = _refs().kappa_real(a, b, c)
            else:
                self._ref_cache[i] = _refs().jacobi_closed(a, b, c, 256)
        return self._ref_cache[i]

    def check(self, i: int, out):
        code, payload = out
        if code != 0:
            return f"exit code {code}"
        try:
            doc = json.loads(payload)
            return self._check_doc(i, doc)
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed payload: {exc!r}"

    def _check_doc(self, i: int, doc):
        sub, (a, b, c), z, _ = self.items[i]
        if doc["schema_version"] != 1 or doc["subcommand"] != sub:
            return "wrong schema_version or subcommand"
        for key, v in zip("abc", (a, b, c)):
            if complex(doc["params"][key]["re"], doc["params"][key]["im"]) != complex(v):
                return f"params.{key} does not echo the input"
        ref = self._reference(i)
        cplx = lambda d: complex(d["re"], d["im"])  # noqa: E731
        if sub == "eval":
            if cplx(doc["z"]) != z:
                return "z does not echo the input"
            for route in ("cf", "resolvent"):
                if not _refs().close(cplx(doc[route]), ref, 1e-9):
                    return f"{route} gives {doc[route]}, reference {ref}"
        elif sub == "classify":
            if doc["kappa"] != ref or doc["kappa_bound_ok"] is not True:
                return f"kappa {doc['kappa']} (bound ok {doc['kappa_bound_ok']}), independent kappa {ref}"
        elif sub == "measure":
            nodes, weights = doc["nodes"], doc["weights"]
            if len(nodes) != 256 or len(weights) != 256:
                return "quadrature order is not 256"
            if not all(w > 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-12:
                return "weights not positive or not summing to 1"
            # 1e-12 slack: near a = c+1 the measure has an atom at the band
            # edge, and its node comes out as 2 + 1.3e-15
            if not all(abs(x) <= 2.0 + 1e-12 for x in nodes):
                return "node outside [-2, 2]"
            quad = sum(w / (x - z) for x, w in zip(nodes, weights))
            if not _refs().close(quad, ref, 1e-9):
                return f"sum w/(x-z) = {quad}, reference B = {ref}"
        else:
            cs, diag, offdiag_sq = ref
            got = [[cplx(v) for v in doc[k]] for k in ("c", "d", "diag", "offdiag_sq")]
            want = [cs, [-v for v in cs], diag, offdiag_sq]
            for key, g, w in zip(("c", "d", "diag", "offdiag_sq"), got, want):
                if len(g) != len(w) or not all(_refs().close(x, y, 1e-12) for x, y in zip(g, w)):
                    return f"{key} differs from the closed form"
            if doc["terminated_at"] is not None:
                return "terminated_at set for a non-terminating triple"
        return None

    def mutants(self, outputs):
        for i, (code, payload) in outputs.items():
            pos = len(payload) // 2
            flipped = payload[:pos] + bytes([payload[pos] ^ 1]) + payload[pos + 1 :]
            yield i, (code, flipped), "one byte changed"
            return
