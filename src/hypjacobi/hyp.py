"""Gauss hypergeometric series core.

Direct summation of F(a,b,c;z) inside the unit disk.  This is deliberately
plain: the series is the ground-truth oracle against which the
continued-fraction machinery is checked, so it must stay independent of it.
Terms are updated in ratio form,

    t_{n+1} = t_n * (a+n)(b+n) / ((c+n)(n+1)) * z,

and summed forward until the next term falls below tolerance or the series
terminates (a or b a nonpositive integer).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import (
    CNonpositiveInteger,
    DenominatorZero,
    NoConvergence,
    NonFiniteParameter,
    OutsideDisk,
)

#: guard distance from c to the excluded set {0, -1, -2, ...}
EPS_C = 1e-9

#: series evaluation refuses |z| >= 1 - DISK_MARGIN unless terminating
DISK_MARGIN = 1e-3

#: |denominator| below this raises DenominatorZero in ratio_series
UNDERFLOW_GUARD = 1e-280


@dataclass(frozen=True)
class HypParams:
    """Validated parameter triple (a, b, c).

    ``is_real`` is true iff all three imaginary parts are exactly zero;
    several real-case operations key off this flag rather than re-testing.
    """

    a: complex
    b: complex
    c: complex
    is_real: bool

    def shifted(self, da: int = 0, db: int = 0, dc: int = 0) -> "HypParams":
        """Validated triple with integer-shifted parameters."""
        return validate_params(self.a + da, self.b + db, self.c + dc)


@dataclass(frozen=True)
class SeriesValue:
    """Partial sum of a hypergeometric series with truncation metadata.

    ``truncation_estimate`` is the magnitude of the first omitted term; for
    a terminating series it is exactly zero.
    """

    value: complex
    terms_used: int
    truncation_estimate: float
    converged: bool


def _dist_to_nonpositive_integers(c: complex) -> float:
    k = round(c.real)
    if k > 0:
        k = 0
    return abs(c - k)


def is_nonpositive_integer(x: complex) -> bool:
    """Exact test, no tolerance: termination must not be fuzzy."""
    return x.imag == 0.0 and x.real == int(x.real) and x.real <= 0.0


def validate_params(a: complex, b: complex, c: complex, eps_c: float = EPS_C) -> HypParams:
    """Validate a parameter triple.

    Raises
    ------
    NonFiniteParameter
        If a real or imaginary part of a, b, c, c - a or c - b is NaN or
        infinite (the differences enter every fraction coefficient), or if
        the fraction does not terminate and its leading entries overflow
        (see ``_leading_entries_finite``).
    CNonpositiveInteger
        If c lies within ``eps_c`` of {0, -1, -2, ...}.  The series (and
        every continued-fraction coefficient denominator) degenerates there.
    """
    a, b, c = complex(a), complex(b), complex(c)
    for name, x in (("a", a), ("b", b), ("c", c), ("c - a", c - a), ("c - b", c - b)):
        if not cmath.isfinite(x):
            raise NonFiniteParameter(f"{name} = {x} is not finite")
    if _dist_to_nonpositive_integers(c) <= eps_c:
        raise CNonpositiveInteger(
            f"c = {c} is within {eps_c} of a nonpositive integer"
        )
    # the fraction terminates iff a factor a + m or c - b + m (m >= 0), or
    # b + m or c - a + m (m >= 1), vanishes
    terminating = any(is_nonpositive_integer(x) for x in (a, c - b, b + 1, c - a + 1))
    if not (terminating or _leading_entries_finite(a, b, c)):
        raise NonFiniteParameter(
            f"the J-fraction entries of (a,b,c) = ({a}, {b}, {c}) are not finite (overflow)"
        )
    is_real = a.imag == 0.0 and b.imag == 0.0 and c.imag == 0.0
    return HypParams(a=a, b=b, c=c, is_real=is_real)


def _leading_entries_finite(a: complex, b: complex, c: complex) -> bool:
    """Whether c_1, c_2, c_3 and b_0^2 = 16 c_2 c_3 are finite, formed as
    the coefficient kernel forms them.

    Every J-fraction entry is a product of the linear factors a + m,
    b + m, c - a + m, c - b + m over factors in c; for a huge parameter
    (e.g. a = 1e200 + 1j, where b_n^2 ~ |a|^2) the leading entries
    overflow, so such a triple is refused at once.  A later entry can still
    overflow when c + m is small; ``cfrac.jacobi_coeffs`` screens every
    entry it forms.  A terminating triple is not checked, so that one with
    a huge parameter still reaches TerminationTooDeep.
    """
    c1 = -a * (c - b) / (c * (c + 1))
    c2 = -(b + 1) * (c - a + 1) / ((c + 1) * (c + 2))
    c3 = -(a + 1) * (c - b + 1) / ((c + 2) * (c + 3))
    return all(cmath.isfinite(x) for x in (c1, c2, c3, 16 * c2 * c3))


def hyp2f1_series(
    p: HypParams, z: complex, tol: float = 1e-14, max_terms: int = 10000
) -> SeriesValue:
    """Sum F(a,b,c;z) by the defining series.

    Parameters
    ----------
    p : HypParams
        Validated parameters.
    z : complex
        Point with |z| < 1 - DISK_MARGIN, or anywhere if the series
        terminates.
    tol : float
        Stop once the next term magnitude drops below
        ``tol * max(1, |partial sum|)``.
    max_terms : int
        Iteration budget.

    Returns
    -------
    SeriesValue

    Raises
    ------
    OutsideDisk
        Non-terminating series requested too close to the unit circle.
    NoConvergence
        Budget exhausted (only possible pathologically near the circle).
    """
    z = complex(z)
    terminating = is_nonpositive_integer(p.a) or is_nonpositive_integer(p.b)
    if not terminating and abs(z) >= 1.0 - DISK_MARGIN:
        raise OutsideDisk(f"|z| = {abs(z):.6g} >= {1.0 - DISK_MARGIN}")

    # extended-precision accumulation: intermediate partial sums can exceed
    # the final value by orders of magnitude (cancellation for negative
    # parameters), and an oracle must not lose those digits
    a = np.clongdouble(p.a)
    b = np.clongdouble(p.b)
    c = np.clongdouble(p.c)
    zz = np.clongdouble(z)
    term = np.clongdouble(1.0)
    total = term
    n = 0
    while n < max_terms:
        term = term * (a + n) * (b + n) / ((c + n) * (n + 1)) * zz
        n += 1
        if term == 0:
            return SeriesValue(complex(total), n, 0.0, True)
        if abs(term) <= tol * max(1.0, abs(total)):
            return SeriesValue(complex(total), n, float(abs(term)), True)
        total += term
    raise NoConvergence(
        f"series did not converge in {max_terms} terms at z = {z}",
        last_value=complex(total),
        last_correction=float(abs(term)),
    )


def ratio_series(p: HypParams, z: complex, tol: float = 1e-14) -> complex:
    """F(a,b,c;z) / F(a,b+1,c+1;z) by direct series division.

    The in-disk oracle for the continued fraction: both series converge for
    |z| < 1 and nothing else enters.
    """
    q = p.shifted(db=1, dc=1)
    num = hyp2f1_series(p, z, tol=tol)
    den = hyp2f1_series(q, z, tol=tol)
    if abs(den.value) < UNDERFLOW_GUARD:
        raise DenominatorZero(f"|F(a,b+1,c+1;{z})| < {UNDERFLOW_GUARD}")
    return num.value / den.value


def contiguous_residual(p: HypParams, z: complex, tol: float = 1e-14) -> float:
    """Residual of the contiguous relation linking (b,c) -> (b+1,c+1).

    Returns |F(a,b,c;z) - F(a,b+1,c+1;z) + a(c-b)/(c(c+1)) z F(a+1,b+1,c+2;z)|,
    a pure diagnostic that must vanish to series tolerance.  Used as a
    self-test of the series code, since the same relation generates the
    continued-fraction coefficients.
    """
    f0 = hyp2f1_series(p, z, tol=tol).value
    f1 = hyp2f1_series(p.shifted(db=1, dc=1), z, tol=tol).value
    f2 = hyp2f1_series(p.shifted(da=1, db=1, dc=2), z, tol=tol).value
    coeff = p.a * (p.c - p.b) / (p.c * (p.c + 1))
    return abs(f0 - f1 + coeff * z * f2)
