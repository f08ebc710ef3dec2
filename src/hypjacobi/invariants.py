"""The invariant suite: identities of the paper tested on one triple.

``run`` returns one ``Check`` per identity, in this order: the C-fraction
against the series ratio inside the disk (``series_vs_cf``), the moments
of B against a_0, b_0^2 and a_1 (``moment_match``), the J-fraction against
the even part of the S-fraction (``even_part``), B by cf against B by
resolvent (``method_agreement``), the distance sum of the spectrum against
the trace-norm bound (``lt_inequality``); for real triples the sign
signature (``signature_consistent``) and the m-function of the model H
against eps_0 B (``h_matches_eps0_B``); for Stieltjes triples the Gauss
rule (``stieltjes_quadrature``).  The README lists every tolerance.

The library is called through module attributes, so that a wrapper around
``spectral.discrete_spectrum`` or ``cfrac.jacobi_coeffs`` sees these calls.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import cfrac, classify, hyp, spectral
from .hyp import HypParams


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str


def _rel(err: float, ref: complex) -> float:
    """err relative to max(1, |ref|); nan, and so failing, when both overflow."""
    return err / max(1.0, abs(ref))


def run(p: HypParams, N: int = 256, tol: float = 1e-10) -> list[Check]:
    """The checks of ``p``, its spectrum taken at order N and tolerance tol.

    Raises what the library raises when a check cannot be evaluated at all.
    """
    checks = []

    def record(name: str, passed: bool, detail: str) -> None:
        checks.append(Check(name, bool(passed), detail))

    # first, and to the horizon the spectrum step builds, so that a triple
    # whose horizon is too deep or whose entries overflow is refused
    # before the series comparison
    spectral.trace_norm_bound(p, 2 * N)
    worst = 0.0
    for z in (0.3 + 0.0j, -0.5 + 0.1j, 0.2 - 0.4j, 0.55 + 0.2j):
        series = hyp.ratio_series(p, z)
        cf = cfrac.cf_ratio_eval(p, z, tol=1e-13).value
        worst = max(worst, _rel(abs(cf - series), series))
    record("series_vs_cf", worst <= 1e-9, f"max rel diff {worst:.3e}")

    # the moments grow without bound as c approaches -1: relative bounds;
    # complex arithmetic throughout, also for a real triple's float64 entries
    s = cfrac.moment_oracle(p, 3)
    coeffs = cfrac.jacobi_coeffs(p, 2)
    a0 = complex(coeffs.diag[0])
    err = abs(s[1] - a0)
    detail = [f"|s1-a0|={err:.3e}"]
    ok = _rel(err, s[1]) <= 1e-9
    if len(coeffs.offdiag_sq) >= 1:
        b0 = complex(coeffs.offdiag_sq[0])
        e2 = abs(s[2] - (a0 * a0 + b0))
        ok = ok and _rel(e2, s[2]) <= 1e-8
        detail.append(f"|s2-(a0^2+b0^2)|={e2:.3e}")
    if len(coeffs.diag) >= 2 and len(coeffs.offdiag_sq) >= 1:
        a1 = complex(coeffs.diag[1])
        e3 = abs(s[3] - (a0**3 + 2 * a0 * b0 + a1 * b0))
        ok = ok and _rel(e3, s[3]) <= 1e-7
        detail.append(f"|s3-...|={e3:.3e}")
    record("moment_match", ok, ", ".join(detail))

    worst = 0.0
    for n in (3, 8):
        for z in (5 + 2j, -3 + 1.5j):
            jn = cfrac.approximant(p, "j-fraction", n, z)
            s2n = cfrac.approximant(p, "s-fraction", 2 * n, (z - 2.0) / 4.0)
            lifted = p.scale * (s2n - 1.0)
            worst = max(worst, _rel(abs(jn - lifted), jn))
    record("even_part", worst <= 1e-10, f"max rel diff {worst:.3e}")

    worst = 0.0
    for z in (4 + 0j, 3j, -2.5 + 1j):
        v1 = spectral.b_function(p, z, method="cf", tol=1e-12)
        v2 = spectral.b_function(p, z, method="resolvent", tol=1e-12)
        worst = max(worst, _rel(abs(v1 - v2), v1))
    record("method_agreement", worst <= 1e-9, f"max rel diff {worst:.3e}")

    res = spectral.discrete_spectrum(p, N=N, tol=tol)
    record("lt_inequality", res.holds,
           f"lhs={res.distance_sum:.6g} rhs={res.trace_bound:.6g}")

    if not p.is_real:
        return checks
    sig = classify.sign_signature(p)
    coeffs_n = cfrac.jacobi_coeffs(p, max(sig.N + 4, 8))
    ok = all(
        sig.eps(j) * sig.eps(j + 1) * b2 > 0
        for j, b2 in enumerate(coeffs_n.offdiag_sq)
        if b2 != 0
    )
    record("signature_consistent", ok, f"N={sig.N} kappa={sig.kappa}")
    z0 = 3.5 + 1.5j
    order = max(2 * sig.N + 8, 64)
    hm = classify.h_m_function(p, z0, order)
    err = abs(hm - sig.eps(0) * spectral.b_function(p, z0, method="cf", tol=1e-12))
    record("h_matches_eps0_B", err <= 1e-6, f"|diff|={err:.3e} at N={order}")
    if classify.stieltjes_check(p):
        quad = classify.quadrature(p, 32)
        in_band = bool(np.all(quad.nodes >= -2 - 1e-8) and np.all(quad.nodes <= 2 + 1e-8))
        wsum = float(np.sum(quad.weights))
        ok = in_band and abs(wsum - 1.0) <= 1e-12 and np.all(quad.weights > 0)
        record("stieltjes_quadrature", ok, f"weights_sum={wsum:.17g}")
    return checks
