"""Bit-identity probe of the spectrum path, of B and of every refinement loop.

    python tests/repr_probe.py

Runs ``discrete_spectrum`` at N = 8, 16, 64 and 256 and ``b_function`` by
both routes at three points on a fixed set of triples, and prints the
number of triples, of spectra and of typed errors, and one SHA-256 over
the ``repr`` of every result (or the class and message of every error).
Then the same for the other readers of ``cfrac.settle`` and the symmetric
m-function: ``cf_ratio_eval`` at the four in-disk points of
``invariants.run`` and at w = -4/(z-2) of the three points,
``schur_reconstruct`` at 2.5+1.5i and 1.5+0.05i on each real triple, and
``m_function`` at N = 100 at the three points; a count line and a second
SHA-256.  Last, a third SHA-256 over the same spectra with ``trace_bound``
left out, which stays put when only the trace-norm bound moves.  Two
checkouts give the same hashes when these values agree to the last bit.
Run both on one host with one BLAS thread (set here unless
already set); the package is imported from this checkout's ``src``, and
the grids from ``tests/test_invariants.py`` (so pytest must be installed).
The triples: the 27 of ``perfbench/spectrum_pool.json``,
``seeded_grid(21, 60, False)``, ``seeded_grid(32, 60, True)``, the 60 of
``hidden_real_grid`` and the ``NAMED`` ones.  Not collected by pytest.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
from dataclasses import replace
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from hypjacobi import HypJacobiError, validate_params  # noqa: E402
from hypjacobi.cfrac import cf_ratio_eval  # noqa: E402
from hypjacobi.classify import schur_reconstruct  # noqa: E402
from hypjacobi.spectral import (  # noqa: E402
    SpectralResult, b_function, band_to_cut, discrete_spectrum, m_function,
)
from test_invariants import POOL, seeded_grid  # noqa: E402

ORDERS = (8, 16, 64, 256)
POINTS = (3.1 + 0.7j, -2.6 + 1.2j, 4.0 + 0j)
DISK = (0.3 + 0.0j, -0.5 + 0.1j, 0.2 - 0.4j, 0.55 + 0.2j)
SCHUR = (2.5 + 1.5j, 1.5 + 0.05j)

#: triples whose spectra changed or were examined one by one in earlier
#: changes of the spectrum path: late-complex entries, far zeros, a lost
#: value of the ladder
NAMED = [
    (-3, 0.5, 1.7),
    (-6, 2.2, 3.1),
    (-184, -3.2, 3.3),
    (-2.1, -192, 3.6),
    (-183, 2.4 - 0.9j, -3.6 - 1j),
    (-60, -3.2, 3.3),
    (-5.05, -3.37, -3.98),
    (-4 - 1.25j, 6.890000000000001 - 1.25j, 2.89),
    (3.27 - 0.25j, -4.18 - 0.25j, -0.91),
    (3.11 + 0.75j, -1 + 0.75j, 2.11),
    (3.18 - 1.48j, 2.23, -4.28),
    (-18.39 - 2.24j, -5.98, 6.39),
    (-2.98 + 1.92j, -3.34, 3.28),
]


def hidden_real_grid(n: int = 60) -> list[tuple]:
    """(alpha + i beta, c - alpha + i beta, c) with alpha ~ U[-7, 4], beta ~
    U[-2, 2] nonzero and c ~ U[-1, 5], drawn in that order from
    ``random.Random(11)`` and rounded to 2 decimals (b = c - alpha is not
    rounded); nonpositive-integer and terminating triples are skipped.  The
    J-fraction entries are real up to rounding."""
    rng = random.Random(11)
    out = []
    while len(out) < n:
        alpha, beta, c = (round(rng.uniform(lo, hi), 2) for lo, hi in ((-7, 4), (-2, 2), (-1, 5)))
        if beta == 0 or any(float(x).is_integer() and x <= 0 for x in (alpha, c)):
            continue
        abc = (complex(alpha, beta), complex(c - alpha, beta), c)
        try:
            if validate_params(*abc).zeros:
                continue
        except HypJacobiError:
            continue
        out.append(abc)
    return out


def triples() -> list[tuple]:
    out = [tuple(complex(*e[k]) for k in "abc") for e in POOL]
    out += seeded_grid(21, 60, False) + seeded_grid(32, 60, True)
    return out + hidden_real_grid() + NAMED


def main() -> None:
    grid = triples()
    counts = dict.fromkeys(("spectra", "b", "cf", "schur", "m_function"), 0)
    digest, errors = None, 0

    def record(kind, tag, fn):
        # the result, or the typed error in its place, and its text
        nonlocal errors
        counts[kind] += 1
        try:
            out = fn()
            text = repr(out)
        except HypJacobiError as exc:
            errors += 1
            out, text = exc, f"{type(exc).__name__}: {exc}"
        digest.update(f"{tag} {text}\n".encode())
        return out, text

    digest, no_bound = hashlib.sha256(), hashlib.sha256()
    for abc in grid:
        p = validate_params(*abc)
        for n in ORDERS:
            out, text = record("spectra", (abc, n), lambda: discrete_spectrum(p, N=n))
            if isinstance(out, SpectralResult):
                text = repr(replace(out, trace_bound=None))
            no_bound.update(f"{(abc, n)} {text}\n".encode())
        for z in POINTS:
            for method in ("cf", "resolvent"):
                record("b", (abc, z, method), lambda: b_function(p, z, method=method))
    print(f"triples {len(grid)} spectra {counts['spectra']} errors {errors}")
    print(digest.hexdigest())

    digest, errors = hashlib.sha256(), 0
    for abc in grid:
        p = validate_params(*abc)
        for w in DISK + tuple(band_to_cut(z) for z in POINTS):
            record("cf", (abc, w, "cf_ratio_eval"), lambda: cf_ratio_eval(p, w))
        for z in SCHUR if p.is_real else ():
            record("schur", (abc, z, "schur"), lambda: schur_reconstruct(p, z))
        for z in POINTS:
            record("m_function", (abc, z, "m_function"), lambda: m_function(p, z, 100))
    print(" ".join(f"{k} {counts[k]}" for k in ("cf", "schur", "m_function")), f"errors {errors}")
    print(digest.hexdigest())
    print(f"spectra {counts['spectra']} without trace_bound")
    print(no_bound.hexdigest())


if __name__ == "__main__":
    main()
