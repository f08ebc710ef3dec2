"""Gauss hypergeometric series core.

Direct summation of F(a,b,c;z) inside the unit disk.  This is deliberately
plain: the series is the ground-truth oracle against which the
continued-fraction machinery is checked, so it must stay independent of it.
Terms are updated in ratio form,

    t_{n+1} = t_n * (a+n)(b+n) / ((c+n)(n+1)) * z,

and summed forward until the next term falls below tolerance or the series
terminates (a or b a nonpositive integer).

:func:`validate_params` also decides, once per triple, where the continued
fraction terminates (``HypParams.zeros``); nothing downstream decides it
again.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace

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
    ``c1`` is the leading coefficient c_1 as ``cfrac.c_array`` forms it;
    it is derived, so it enters neither repr nor equality.
    """

    a: complex
    b: complex
    c: complex
    is_real: bool
    zeros: tuple[int, ...]  # every j >= 1 with c_j = 0, see _zero_indices
    c1: complex = field(repr=False, compare=False)

    def shifted(self, da: int = 0, db: int = 0, dc: int = 0) -> "HypParams":
        """Validated triple with integer-shifted parameters."""
        return validate_params(self.a + da, self.b + db, self.c + dc)

    @property
    def scale(self) -> complex:
        """B's scale -1/(4 d_1), d_1 = -c_1: B = scale * (ratio - 1)."""
        return -1.0 / (4.0 * -self.c1)


@dataclass(frozen=True)
class SeriesValue:
    """Partial sum of a hypergeometric series with truncation metadata.

    ``truncation_estimate`` is the magnitude of the first omitted term; for
    a terminating series it is exactly zero.
    """

    value: complex
    terms_used: int
    truncation_estimate: float


def _dist_to_nonpositive_integers(c: complex) -> float:
    k = round(c.real)
    if k > 0:
        k = 0
    return abs(c - k)


def is_nonpositive_integer(x: complex) -> bool:
    """Exact test, no tolerance: termination must not be fuzzy."""
    return x.imag == 0.0 and x.real == int(x.real) and x.real <= 0.0


def validate_params(a: complex, b: complex, c: complex, eps_c: float = EPS_C) -> HypParams:
    """Validate a parameter triple and record its zero indices (``zeros``).

    Raises
    ------
    NonFiniteParameter
        If a real or imaginary part of a, b, c, c - a or c - b is NaN or
        infinite (the differences enter every fraction coefficient), or if
        the fraction does not terminate and one of c_1, c_2, c_3 or
        b_0^2 = 16 c_2 c_3, as the coefficient kernel ``cfrac.c_array``
        forms them, overflows; or if one of c_1, c_2, c_3 below the first
        zero index underflows to 0 (there an exact 0 can only come from an
        underflow, e.g. of a/(c(c+1)) once c(c+1) overflows; it would
        divide B's scale by zero or cut J off at a spurious b_0^2 = 0); or
        if c_1 is so small that B's scale -1/(4 d_1), d_1 = -c_1, overflows.
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
    zeros = _zero_indices(a, b, c)
    is_real = a.imag == 0.0 and b.imag == 0.0 and c.imag == 0.0
    p = HypParams(a=a, b=b, c=c, is_real=is_real, zeros=zeros, c1=0j)  # c1 formed below
    from .cfrac import c_array  # cfrac imports this module

    # a huge parameter (e.g. a = 1e200 + 1j, where b_n^2 ~ |a|^2) is refused
    # at once; a terminating triple is not screened, so that one with a huge
    # parameter still reaches TerminationTooDeep
    with np.errstate(over="ignore", invalid="ignore"):
        c1, c2, c3 = c_array(p, 3)
        if not zeros and not np.isfinite([c1, c2, c3, 16 * c2 * c3]).all():
            raise NonFiniteParameter(
                f"the J-fraction entries of (a,b,c) = ({a}, {b}, {c}) are not finite (overflow)"
            )
    # c_j before the first zero index is exactly 0 only by underflow
    if not all((c1, c2, c3)[: (zeros[0] if zeros else 4) - 1]):
        raise NonFiniteParameter(
            f"a leading fraction coefficient of (a,b,c) = ({a}, {b}, {c}) underflows to 0"
        )
    p = replace(p, c1=complex(c1))
    if c1 and cmath.isinf(p.scale):
        raise NonFiniteParameter(
            f"c_1 = {p.c1} of (a,b,c) = ({a}, {b}, {c}) is so small that "
            "B's scale -1/(4 d_1) overflows"
        )
    return p


def _zero_indices(a: complex, b: complex, c: complex) -> tuple[int, ...]:
    """Every index j >= 1 with c_j exactly zero, ascending.

    c_{2m+1} carries the factors (a+m) and (c-b+m), c_{2m} (m >= 1) the
    factors (b+m) and (c-a+m).  A factor x + m vanishes only at m = -x, and
    only when x is a nonpositive integer, so there are at most four such
    indices and no scan is needed.  A zero c_j truncates the fraction: it
    becomes a rational function of z, convergent everywhere off its poles
    (including on the cut).
    """
    factors = ((a, 1), (c - b, 1), (b, 0), (c - a, 0))
    js = {parity - 2 * int(x.real) for x, parity in factors if is_nonpositive_integer(x)}
    return tuple(sorted(js - {0}))


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
        Budget exhausted (only possible pathologically near the circle),
        or a term overflowed (a huge parameter).
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
    with np.errstate(over="ignore", invalid="ignore"):
        while n < max_terms:
            term = term * (a + n) * (b + n) / ((c + n) * (n + 1)) * zz
            n += 1
            if term == 0:
                return SeriesValue(complex(total), n, 0.0)
            if not np.isfinite(term):
                break
            if abs(term) <= tol * max(1.0, abs(total)):
                return SeriesValue(complex(total), n, float(abs(term)))
            total += term
        last = float(abs(term))
        raise NoConvergence(
            f"series did not converge at z = {z}: term {n} has magnitude {last:.3g}",
            last_value=complex(total),
            last_correction=last,
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
