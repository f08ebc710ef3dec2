"""Independent references for the benchmark's correctness checks.

Nothing in this module calls hypjacobi.  Every value comes from mpmath
arithmetic or exact rationals, starting from the closed-form C-fraction
coefficients

    c_{2j+1} = -(a+j)(c-b+j) / ((c+2j)(c+2j+1)),
    c_{2j}   = -(b+j)(c-a+j) / ((c+2j-1)(c+2j)),

and from the identity B(z) = -(R(w) - 1) / (4 d_1), w = -4/(z-2), where
R = F(a,b,c;.)/F(a,b+1,c+1;.) and d_1 = a(c-b)/(c(c+1)).
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp


class UnsettledReference(RuntimeError):
    """A reference could not be settled (its two precisions disagree)."""


def c_closed(a, b, c, j: int):
    """The j-th C-fraction coefficient in the arithmetic of a, b, c."""
    if j % 2 == 1:
        m = (j - 1) // 2
        return -(a + m) * (c - b + m) / ((c + 2 * m) * (c + 2 * m + 1))
    m = j // 2
    return -(b + m) * (c - a + m) / ((c + 2 * m - 1) * (c + 2 * m))


def _mpc3(a, b, c):
    return mp.mpc(a), mp.mpc(b), mp.mpc(c)


def _b_from_ratio(a, b, c, ratio):
    return -(ratio - 1) / (4 * a * (c - b) / (c * (c + 1)))


def b_hyp2f1(a, b, c, z, dps: int) -> complex:
    """B(a,b,c;z) from two mpmath.hyp2f1 calls at ``dps`` digits."""
    with mp.workdps(dps):
        a, b, c = _mpc3(a, b, c)
        w = -4 / (mp.mpc(z) - 2)
        ratio = mp.hyp2f1(a, b, c, w) / mp.hyp2f1(a, b + 1, c + 1, w)
        return complex(_b_from_ratio(a, b, c, ratio))


def b_cfrac(a, b, c, z, dps: int, max_depth: int = 1 << 16) -> complex:
    """B(a,b,c;z) from the C-fraction in ``dps``-digit arithmetic.

    Backward recurrence, doubling the depth until two values agree to
    10^(5-dps).  A vanishing c_j cuts the fraction exactly.
    """
    with mp.workdps(dps):
        a, b, c = _mpc3(a, b, c)
        w = -4 / (mp.mpc(z) - 2)
        cs = [None]
        eps = mp.mpf(10) ** (5 - dps)
        prev = None
        depth = 16
        while depth <= max_depth:
            while len(cs) <= depth:
                cs.append(c_closed(a, b, c, len(cs)))
            t = mp.mpc(1)
            for j in range(depth, 0, -1):
                t = 1 + cs[j] * w / t
            if prev is not None and abs(t - prev) <= eps * max(1, abs(t)):
                return complex(_b_from_ratio(a, b, c, t))
            prev = t
            depth *= 2
    raise UnsettledReference(f"C-fraction unsettled at depth {max_depth} for {(a, b, c)}, z={z}")


def reference_b(a, b, c, z, large: bool) -> complex:
    """B at two precisions that must agree to 1e-13 relative.

    ``mpmath.hyp2f1`` loses its way for parameters in the thousands (at
    (3000.5, 10.2, 700.3), z = -2.5+0.5i it gives 0.0584+0.00003i where the
    C-fraction gives 0.2232+0.0247i at 30 and at 80 digits), so large
    parameters use the C-fraction at 30 and 60 digits instead.
    """
    if large:
        lo, hi = b_cfrac(a, b, c, z, 30), b_cfrac(a, b, c, z, 60)
    else:
        lo, hi = b_hyp2f1(a, b, c, z, 30), b_hyp2f1(a, b, c, z, 45)
    if abs(lo - hi) > 1e-13 * max(1.0, abs(hi)):
        raise UnsettledReference(f"reference B unsettled at {(a, b, c)}, z={z}: {lo} vs {hi}")
    return hi


def close(x: complex, ref: complex, rel: float) -> bool:
    return abs(complex(x) - ref) <= rel * max(1.0, abs(ref))


def band_distance(lam: complex) -> float:
    if -2.0 <= lam.real <= 2.0:
        return abs(lam.imag)
    return math.hypot(abs(lam.real) - 2.0, lam.imag)


def polish_zero(a, b, c, w: complex, dps: int = 30) -> complex:
    """Zero of F(a,b+1,c+1;.) reached by mpmath.findroot from ``w``."""
    with mp.workdps(dps):
        a, b, c = _mpc3(a, b, c)
        root = mp.findroot(lambda x: mp.hyp2f1(a, b + 1, c + 1, x), mp.mpc(w))
        return complex(root)


def kappa_real(a: float, b: float, c: float) -> int:
    """kappa of a real non-terminating triple from exact signs of b_n^2.

    b_n^2 = 16 c_{2n+2} c_{2n+3}.  Every linear factor of these two
    coefficients is positive once n exceeds the parameters, so the scan
    below sees the last negative square.  Then eps_j = 1 for j >= N,
    eps_j = eps_{j+1} sign(b_j^2) below it, and kappa counts eps_j = -1.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    horizon = math.ceil(max(abs(a), abs(b), abs(c), abs(c - a), abs(c - b))) + 4
    signs = []
    for n in range(horizon):
        bsq = c_closed(a, b, c, 2 * n + 2) * c_closed(a, b, c, 2 * n + 3)
        if bsq == 0:
            raise ValueError(f"b_{n}^2 vanishes: {(a, b, c)} terminates")
        signs.append(1 if bsq > 0 else -1)
    n_stab = max((n + 1 for n, s in enumerate(signs) if s < 0), default=0)
    eps, kappa = 1, 0
    for n in range(n_stab - 1, -1, -1):
        eps *= signs[n]
        kappa += eps < 0
    return kappa


def jacobi_closed(a, b, c, n: int, dps: int = 30):
    """c_1..c_{2n}, a_0..a_{n-1} and b_0^2..b_{n-2}^2 in mpmath arithmetic."""
    with mp.workdps(dps):
        a, b, c = _mpc3(a, b, c)
        d = [None] + [-c_closed(a, b, c, j) for j in range(1, 2 * n + 2)]
        cs = [complex(-x) for x in d[1 : 2 * n + 1]]
        diag = [complex(2 - 4 * d[2])]
        diag += [complex(2 - 4 * d[2 * k + 1] - 4 * d[2 * k + 2]) for k in range(1, n)]
        offdiag_sq = [complex(16 * d[2 * k + 2] * d[2 * k + 3]) for k in range(n - 1)]
    return cs, diag, offdiag_sq
