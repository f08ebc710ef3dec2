"""Continued-fraction engine.

Builds the regular C-fraction for the ratio F(a,b,c;z)/F(a,b+1,c+1;z),

    1 + c1 z / (1 + c2 z / (1 + ...)),

with coefficients

    c_{2j+1} = -(a+j)(c-b+j) / ((c+2j)(c+2j+1)),      j >= 0,
    c_{2j}   = -(b+j)(c-a+j) / ((c+2j-1)(c+2j)),      j >= 1,

and runs the chain of equivalence transformations (z -> -1/z giving the
S-fraction in d_j = -c_j, its even part, the rescaling z -> (z-2)/4) that
ends in the J-fraction

    B(z) = -1 / (z - a_0 - b_0^2 / (z - a_1 - b_1^2 / (...)))

with

    a_0 = 2 - 4 d_2,
    a_n = 2 - 4 d_{2n+1} - 4 d_{2n+2}   (n >= 1),
    b_n^2 = 16 d_{2n+2} d_{2n+3}        (n >= 0).

These index placements are forced by the even-part contraction and are
cross-checked two independent ways in the test suite: against the moment
expansion of B at infinity (``moment_oracle``) and against exact rational
closed forms in the terminating polynomial cases.

Every coefficient comes from one vectorized kernel, :func:`c_array`, and
J has one form, the arrays of :class:`JacobiCoeffs` built by
:func:`jacobi_coeffs` in the triple's own arithmetic (float64 for a real
triple, complex128 otherwise).  Termination is decided once per triple,
in closed form, by ``hyp.validate_params`` (``HypParams.zeros``); both
termination indices derive from it.  So is the sign pattern of the b_n^2
of a real triple (:func:`stabilization_index`).
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateRatio,
    NoConvergence,
    NonFiniteParameter,
    OnCut,
    PoleOfApproximant,
    TerminationTooDeep,
)
from .hyp import HypParams

#: a non-terminating fraction is refused at w this close to the cut
#: [1, inf), or at z = 2 - 4/w this close to its image, the band [-2, 2]
CUT_GUARD = 1e-9
BAND_EVAL_GUARD = 1e-9

#: replacement for an exactly vanishing backward-recurrence denominator
TINY = 1e-280


#: a fraction that terminates beyond this coefficient index is refused:
#: its exact evaluation would take work proportional to the index
TERMINATION_CAP = 1 << 20

#: depth cap of :func:`cf_ratio_eval`; a depth is twice an order of J, whose
#: cap on the resolvent route is ``spectral.RESOLVENT_NMAX``
CF_MAX_DEPTH = 1 << 17

#: the shortest build of a triple's coefficient store: the resolvent route's
#: first block (order 2 * ``spectral.RESOLVENT_N0`` = 128) reads 256 c_j, so a
#: shorter first build by the C-fraction would be built again for it
BUILD_FLOOR = 256


def c_array(p: HypParams, n: int) -> np.ndarray:
    """C-fraction coefficients c_1..c_n as one array.

    float64 for a real triple, complex128 otherwise.  An entry is exactly 0
    where a linear factor of its numerator vanishes (the indices of
    ``p.zeros``).  One ``m = 0..n//2`` and one ``t = c + 2m`` serve both
    halves: c_{2m+1} reads their first (n+1)//2 entries, c_{2m} all but the
    first.  No entry depends on n.
    """
    a, b, c = (x.real if p.is_real else x for x in (p.a, p.b, p.c))
    out = np.empty(n, dtype=float if p.is_real else complex)
    m = np.arange(n // 2 + 1, dtype=float)
    t = c + 2 * m
    mo, to = m[: (n + 1) // 2], t[: (n + 1) // 2]  # c_{2m+1}
    # (t + 1) * t as numpy orders it in a large build: no entry may depend on n
    out[0::2] = -(a + mo) * (c - b + mo) / ((to + 1) * to)
    me, te = m[1:], t[1:]  # c_{2m}
    out[1::2] = -(b + me) * (c - a + me) / ((te - 1) * te)
    for k in p.zeros:
        if k <= n:
            out[k - 1] = 0.0
    return out


def finite_c_array(p: HypParams, n: int) -> np.ndarray:
    """c_1..c_n as :func:`c_array` forms them, read from the triple's
    coefficient store (:func:`_stored`) as a read-only view, or
    NonFiniteParameter (without a numpy warning) if one of them overflows.
    ``validate_params`` screens only c_1..c_3 of a non-terminating
    triple."""
    return _screened_c(p, n).c[:n]


def _screened_c(p: HypParams, n: int) -> "_Build":
    """The stored build holding c_1..c_n, or NonFiniteParameter if one of
    them is not finite."""
    made = _stored(p, n)
    if made.c_finite < n:
        raise NonFiniteParameter(
            f"the C-fraction coefficients of (a,b,c) = ({p.a}, {p.b}, {p.c}) "
            "are not finite (overflow)"
        )
    return made


def _leading_finite(x: np.ndarray) -> int:
    """The number of entries of ``x`` before its first non-finite one."""
    finite = np.isfinite(x)
    return len(x) if finite.all() else int(finite.argmin())


def _read_only(*arrays: np.ndarray) -> None:
    for x in arrays:
        x.flags.writeable = False


@dataclass(frozen=True, eq=False)
class _Build:
    """One coefficient build of a triple, the record that its store
    (``HypParams._store.build``) keeps: c_1..c_S from :func:`c_array`,
    read-only, and ``c_finite``, the number of its leading finite c_j (the
    C-fraction's overflow screen, run once per build, so that a request
    raises only if it reads a non-finite entry).  What is read from the
    c_j is made on first use and kept with them, read-only: ``cz``, their
    complex128 copy for the C-fraction's recurrence; ``jacobi``, the
    ``diag`` and ``offdiag_sq`` of J of order S // 2 as
    :func:`jacobi_coeffs` describes and the largest order whose block of J
    is finite (J's screen); ``offdiag``, the principal roots b_n of the
    squares within that order, from which :func:`jacobi_coeffs` slices
    each block's roots.  No entry depends on S, so a shorter request reads
    a prefix, bit for bit a build of its own length."""

    c: np.ndarray
    c_finite: int

    @cached_property
    def cz(self) -> np.ndarray:
        if np.iscomplexobj(self.c):
            return self.c
        cz = self.c.astype(complex)
        _read_only(cz)
        return cz

    @cached_property
    def jacobi(self) -> tuple[np.ndarray, np.ndarray, int]:
        n = len(self.c) // 2
        with np.errstate(over="ignore", invalid="ignore"):
            d = -self.c[: 2 * n]  # d[j - 1] = d_j, j = 1..2n
            diag = np.empty(n, dtype=d.dtype)
            if n:
                diag[0] = 2.0 - 4.0 * d[1]
            diag[1:] = 2.0 - 4.0 * d[2::2] - 4.0 * d[3::2]
            offdiag_sq = 16.0 * d[1 : 2 * n - 2 : 2] * d[2 : 2 * n - 1 : 2]
        _read_only(diag, offdiag_sq)
        return diag, offdiag_sq, min(_leading_finite(diag), _leading_finite(offdiag_sq) + 1)

    @cached_property
    def offdiag(self) -> np.ndarray:
        # only the squares that a screened block can hold, all finite
        _, offdiag_sq, j_finite = self.jacobi
        roots = _principal_roots(offdiag_sq[: max(j_finite - 1, 0)])
        _read_only(roots)
        return roots


def _stored(p: HypParams, size: int) -> _Build:
    """The triple's build of at least ``size`` coefficients c_j: the one
    its store holds, or, when that is shorter, a build of ``size`` (at
    least BUILD_FLOOR) that replaces it whole.  This is the one place that
    decides the length of a build: every reader asks for just the entries
    it reads.  The store lives with ``p``; nothing is ever extended in
    place, so a concurrent reader holds either record.  There is no lock:
    threads that build at once each keep their own complete record, the
    last one stored stays, and a longer build lost that way costs a later
    request its rebuild, never a different value."""
    store = p._store
    made = store.build
    if made is not None and len(made.c) >= size:
        return made
    # entries may overflow (a terminating triple is not screened by
    # validate_params, a non-terminating one only in c_1..c_3): the screen
    # records where, and only a request that reads such an entry raises
    with np.errstate(over="ignore", invalid="ignore"):
        c = c_array(p, max(size, BUILD_FLOOR))
    _read_only(c)
    made = store.build = _Build(c, _leading_finite(c))
    return made


def c_coeff(p: HypParams, j: int) -> complex:
    """The j-th C-fraction coefficient, j >= 1."""
    if j < 1:
        raise ValueError("coefficient index starts at 1")
    return complex(c_array(p, j)[-1])


def _first_zero(p: HypParams, start: int) -> Optional[int]:
    """First j >= start with c_j exactly zero; TerminationTooDeep above the cap."""
    j = next((k for k in p.zeros if k >= start), None)
    if j is not None and j > TERMINATION_CAP:
        raise TerminationTooDeep(
            f"the fraction for (a,b,c) = ({p.a}, {p.b}, {p.c}) terminates "
            f"beyond coefficient index {TERMINATION_CAP}"
        )
    return j


def cfrac_termination_index(p: HypParams) -> Optional[int]:
    """First index j >= 1 with c_j exactly zero, or None."""
    return _first_zero(p, 1)


def termination_index(p: HypParams) -> Optional[int]:
    """First n with b_n^2 exactly zero, or None.

    b_n^2 = 16 d_{2n+2} d_{2n+3}, so n = (j - 2) // 2 for the first zero
    coefficient index j >= 2.
    """
    j = _first_zero(p, 2)
    return None if j is None else (j - 2) // 2


def stabilization_index(p: HypParams) -> int:
    """Stabilization index N of a real triple: b_n^2 > 0 for every n >= N
    below termination, and b_{N-1}^2 < 0 when N > 0.

    With m = n + 1, b_n^2 is a positive multiple of

        (a+m)(b+m)(c-a+m)(c-b+m) / ((c+2m-1)(c+2m+1)),

    six factors that increase with n, so each is negative on an initial run
    n <= last (ceil(-x) - 2 for a numerator factor x + m).  The sign of b_n^2
    is (-1)^(number of negative factors) and can change only at the end of
    a run; the run ends, clipped below :func:`termination_index`, are the
    only candidates for the last negative b_n^2.  O(1), no coefficient is
    built.
    """
    a, b, c = p.a.real, p.b.real, p.c.real
    lasts = [math.ceil(-x) - 2 for x in (a, b, c - a, c - b)]
    lasts += [math.ceil(-(c + 1.0) / 2.0) - 1, math.ceil(-(c + 3.0) / 2.0) - 1]
    t = termination_index(p)
    if t is not None:
        lasts = [min(last, t - 1) for last in lasts]
    odd = [k for k in lasts if k >= 0 and sum(k <= last for last in lasts) % 2]
    return max(odd) + 1 if odd else 0


def require_nondegenerate(p: HypParams) -> None:
    """Reject triples with c_1 = 0 (a = 0 or c = b).

    There the ratio is identically 1 and the normalized function B is a
    0/0 expression; nothing downstream of the C-fraction is defined.
    """
    if p.a == 0 or p.c == p.b:
        raise DegenerateRatio(
            f"c_1 vanishes for (a,b,c) = ({p.a}, {p.b}, {p.c}); B is undefined"
        )


class CoeffStream:
    """Lazily extended, cached sequence of C-fraction coefficients.

    Each extension is one :func:`c_array` call, serialized by a lock so a
    stream may be shared between threads.  The library itself reads the
    triple's coefficient store (:func:`finite_c_array`,
    :func:`jacobi_coeffs`) instead.
    """

    def __init__(self, params: HypParams):
        self.params = params
        self._cache: list[complex] = []
        self._lock = threading.Lock()

    def _extend(self, n: int) -> None:
        with self._lock:
            if n > len(self._cache):
                new = c_array(self.params, n)[len(self._cache):]
                self._cache.extend(new.astype(complex).tolist())

    def c(self, j: int) -> complex:
        if j < 1:
            raise ValueError("coefficient index starts at 1")
        if j > len(self._cache):
            self._extend(j)
        return self._cache[j - 1]

    def d(self, j: int) -> complex:
        return -self.c(j)

    def c_array(self, n: int) -> np.ndarray:
        """c_1..c_n as a numpy array."""
        if n > len(self._cache):
            self._extend(n)
        return np.asarray(self._cache[:n], dtype=complex)


@dataclass(frozen=True)
class CFValue:
    """Converged continued-fraction evaluation."""

    value: complex
    depth_used: int
    last_correction: float


def dense_tridiagonal(diag: np.ndarray, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """diag + superdiag(upper) + subdiag(lower) as one dense array in the
    widest dtype of the three, each entry added to a zero (a -0.0 part
    comes out +0.0, as in a sum of ``np.diag`` terms)."""
    n = len(diag)
    t = np.zeros((n, n), dtype=np.result_type(diag, upper, lower))
    flat = t.reshape(-1)
    flat[:: n + 1] += diag
    flat[1 :: n + 1] += upper
    flat[n :: n + 1] += lower
    return t


@dataclass(frozen=True, eq=False)
class JacobiCoeffs:
    """The leading block of J: diagonal a_n and off-diagonal squares b_n^2
    in the triple's own arithmetic (float64 for a real triple, as
    :func:`c_array`, complex128 otherwise), and their principal roots b_n.

    J is complex symmetric (equal sub- and superdiagonal b_n), not
    Hermitian unless the triple is real with positive b_n^2.  ``offdiag``
    holds the principal roots b_n of ``offdiag_sq`` as complex128, a
    negative real square getting the positive imaginary root.
    ``terminated_at`` is the first n with b_n^2 exactly zero, or None; the
    arrays are truncated there (``diag`` keeps n+1 entries, ``offdiag_sq``
    and ``offdiag`` keep n), since the operator decouples.
    """

    diag: np.ndarray
    offdiag_sq: np.ndarray
    offdiag: np.ndarray
    terminated_at: Optional[int]

    def matrix(self) -> np.ndarray:
        """The block as a dense complex128 matrix, b_n on both off-diagonals."""
        return dense_tridiagonal(self.diag, self.offdiag, self.offdiag)


def band_distance(z: complex) -> float:
    """Exact distance from z to the segment [-2, 2]."""
    z = complex(z)
    if -2.0 <= z.real <= 2.0:
        return abs(z.imag)
    return math.hypot(abs(z.real) - 2.0, z.imag)


def near_band(z: complex) -> bool:
    """Whether a non-terminating fraction is refused at z.

    True if z lies within BAND_EVAL_GUARD of the band [-2, 2] or w =
    -4/(z-2) within CUT_GUARD of the cut [1, inf).  |dw/dz| = 4/|z-2|^2 is
    1/4 at z = -2, so neither distance bounds the other.  The one rule of
    ``spectral.b_function`` (OnBand, both methods) and of
    :func:`cf_ratio_eval` (OnCut, at z = 2 - 4/w).
    """
    z = complex(z)
    if band_distance(z) <= BAND_EVAL_GUARD:
        return True
    w = -4.0 / (z - 2.0)
    return (abs(w.imag) if w.real >= 1.0 else abs(w - 1.0)) <= CUT_GUARD


def _backward_eval(coeffs: np.ndarray, z: complex, depth: int) -> np.complex128:
    """The C-fraction 1 + c_1 z/(1 + ... c_depth z/1) by its backward
    recurrence t = 1 + c_j z / t, a vanishing t replaced by TINY.

    ``coeffs`` holds c_1..c_depth or more as complex128 (a float64 entry
    times a complex z is ~5x slower per step); the loop walks the reversed
    prefix view.  Every step stays in numpy complex128 scalars, z converted
    exactly: Python ``complex`` arithmetic rounds differently.
    """
    z, one = np.complex128(z), np.complex128(1.0)
    t = one
    for c in coeffs[:depth][::-1]:
        t = one + c * z / t
        if not t:
            t = TINY
    return t


def convergence_order(p: HypParams, z: complex, tol: float) -> float:
    """The order n of J from which the m-function of J_n at z is expected
    within ``tol`` of its limit, from z and the triple alone: the
    prediction that sizes the first build of a :func:`settle` loop.

    Past the transient the entries are close to those of the free matrix,
    and the truncation error falls like K |lam|^(2n), lam + 1/lam = z with
    |lam| < 1 (Jones and Thron, Math. Comp. 28, 1974).  z lies on the
    ellipse with foci -2 and 2 and semi-major axis 1/|lam| + |lam|, so
    ln(1/|lam|) = acosh((|z - 2| + |z + 2|) / 4), without a complex root.
    The prefactor K is large next to a pole of B and is taken as 1000, so
    the error falls below tol from n* = ln(1000/tol) / (2 ln(1/|lam|)) on.
    The transient is taken as the largest of |a|, |b|, |c|: the entries
    are rational in t = 2n + c with numerators quadratic in the parameters,
    and the index from which the closed-form tail certifies their
    asymptotic regime (n_min of ``spectral._tail_constants``) is of that
    size for large parameters, 252 for (-250.5, 3.1, 20.2); computing n_min
    itself would cost a call about what the smaller build saves on a real
    triple.  The order is n*, or the transient when that is longer, up to
    8 n*: many triples with large parameters settle long before it, so a
    transient that the loop does not need may cost at most a first build
    below 32 n*, 16 times the one that n* alone sizes (at least 2 n*).
    inf for z on the band [-2, 2] or a tol that is not positive and finite
    (:func:`settle` refuses NaN and inf).
    """
    if not 0.0 < tol < math.inf:
        return math.inf
    z = complex(z)
    # moduli by hypot: inf, where abs of a complex raises OverflowError
    # (a huge z, or a parameter whose parts are finite but |x| is not)
    foci = math.hypot(z.real - 2.0, z.imag) + math.hypot(z.real + 2.0, z.imag)
    rate = math.acosh(max(1.0, foci / 4.0))
    free = max(0.0, math.log(1e3 / tol)) / (2.0 * rate) if rate else math.inf
    transient = max(math.hypot(x.real, x.imag) for x in (p.a, p.b, p.c))
    return max(free, min(transient, 8.0 * free))


def settle(
    build: Callable, evaluate: Callable, n: int, n_max: int, tol: float, what: str, reach: float
):
    """The one refinement loop: ``evaluate(made, n)`` at n, 2n, ... up to
    n_max.  Returns (value, order, correction) for the first value within
    ``tol * max(1, |value|)`` of the one before; else NoConvergence with
    ``last_value`` and ``last_correction`` (inf below two evaluations).
    ValueError for a NaN or +inf ``tol``; a negative one is never met.

    ``made = build(size)`` holds the first ``size`` entries; its first size
    is where the loop is expected to stop: the first order of the sequence
    from 2n on that is at least 2 ``reach`` (the order from which the
    caller expects values within tol, :func:`convergence_order` in the
    caller's units), so that the order before it is within tol too; at
    most n_max.  An order that outgrows the build requests just the
    entries it reads.  Every caller's build reads the triple's coefficient
    store, which decides how long a build is (``_stored``), so a size that
    an earlier call reached is a view of that build, made anew only when
    longer.  No entry depends on the size of its build, so neither does a
    value.  A first build that raises NonFiniteParameter for an entry past
    the order being read is requested again at that order: only an entry
    that is read decides the verdict.
    """
    if not tol < math.inf:
        raise ValueError(f"tolerance tol must be a number below inf, got {tol}")
    first = 2 * n
    while first < 2.0 * reach and first < n_max:
        first *= 2
    prev, corr, made, size = None, math.inf, None, 0
    while n <= n_max:
        if n > size:
            size = n if size else min(first, n_max)
            try:
                made = build(size)
            except NonFiniteParameter:
                if size == n:
                    raise
                size, made = n, build(n)
        val = evaluate(made, n)
        if prev is not None:
            corr = abs(val - prev)
            if corr <= tol * max(1.0, abs(val)):
                return val, n, corr
        prev = val
        n *= 2
    raise NoConvergence(
        f"{what} not settled by order {n_max}: last relative correction "
        f"{corr / max(1.0, abs(prev or 0)):.3g}",
        last_value=prev,
        last_correction=corr,
    )


def cf_ratio_eval(p: HypParams, z: complex, tol: float = 1e-13) -> CFValue:
    """Evaluate the C-fraction for F(a,b,c;z)/F(a,b+1,c+1;z).

    Backward recurrence, doubling the depth from 8 (:func:`settle`) until
    two evaluations agree to ``tol * max(1, |value|)``.  Converges
    everywhere off the cut [1, inf) where the ratio is finite.  The depth is
    twice the order of J: the loop's reach is twice the
    :func:`convergence_order` at 2 - 4/z.

    A terminating fraction (some c_j = 0) is rational: it is evaluated at
    its exact finite depth, anywhere in the plane, cut included.

    Raises
    ------
    NonFiniteParameter
        z is not finite, or a coefficient that an evaluation reads overflows.
    OnCut
        z within guard distance of [1, inf) for a non-terminating fraction,
        measured in z or in 2 - 4/z (:func:`near_band`).
    NoConvergence
        Depth CF_MAX_DEPTH reached without two agreeing evaluations.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise NonFiniteParameter(f"z = {z} is not finite")
    if z == 0:
        return CFValue(1.0 + 0.0j, 1, 0.0)

    j_zero = cfrac_termination_index(p)
    if j_zero is not None:
        depth = j_zero - 1
        if depth == 0:
            return CFValue(1.0 + 0.0j, 1, 0.0)
        # validate_params screens no coefficient of a terminating triple
        return CFValue(_backward_eval(_screened_c(p, depth).cz, z, depth), depth, 0.0)

    band_z = 2.0 - 4.0 / z
    if near_band(band_z):
        raise OnCut(f"z = {z} lies within {CUT_GUARD} of the cut [1, inf)")
    return CFValue(*settle(
        lambda n: _screened_c(p, n).cz[:n],
        lambda coeffs, n: _backward_eval(coeffs, z, n),
        8, CF_MAX_DEPTH, tol, f"continued fraction at z = {z}",
        2.0 * convergence_order(p, band_z, tol),
    ))


def _principal_roots(sq: np.ndarray) -> np.ndarray:
    """Principal roots of the squares ``sq`` as complex128, a negative real
    square getting the positive imaginary root."""
    # -0.0 imaginary parts (artifacts of d_j = -c_j) would land on the
    # wrong side of the sqrt branch cut; the fix goes on a copy, so the
    # stored squares keep their signed zeros
    sq = sq.astype(complex)
    sq.imag[sq.imag == 0.0] = 0.0
    return np.sqrt(sq)


def jacobi_coeffs(p: HypParams, n_max: int) -> JacobiCoeffs:
    """The J-fraction coefficients, the one form of J.

    Produces up to ``n_max`` diagonal entries a_0..a_{n_max-1} and
    ``n_max - 1`` squares b_0^2..b_{n_max-2}, float64 for a real triple
    and complex128 otherwise; their principal roots b_n are
    ``JacobiCoeffs.offdiag`` (the m-function and the spectrum only see
    b_n^2, so any other branch would give a diagonally similar matrix with
    the same results).  If some b_n^2 vanishes exactly (a linear factor of
    d_{2n+2} or d_{2n+3} hits zero) the fraction terminates:
    ``terminated_at = n`` and the arrays stop with a_n as the last diagonal
    entry.  NonFiniteParameter if an entry of the block overflows.

    The three arrays are read-only views of the triple's coefficient store
    (:func:`_stored`): a block within the longest build made so far costs
    a slice, a longer one builds c_1..c_2n once and keeps it.  A caller
    that writes into a block makes its own copy.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    require_nondegenerate(p)
    t = termination_index(p)
    terminated_at = t if t is not None and t < n_max - 1 else None
    n = n_max if terminated_at is None else terminated_at + 1
    # validate_params screens only c_1..c_3 and b_0^2 of a non-terminating
    # triple (a later entry overflows where c + m is small, and a terminating
    # one must still reach TerminationTooDeep); the stored build screened
    # every entry, and a block that holds a non-finite one is refused here
    made = _stored(p, 2 * n)
    diag, offdiag_sq, j_finite = made.jacobi
    if j_finite < n:
        raise NonFiniteParameter(
            f"the J-fraction entries of (a,b,c) = ({p.a}, {p.b}, {p.c}) "
            "are not finite (overflow)"
        )
    return JacobiCoeffs(diag[:n], offdiag_sq[: n - 1], made.offdiag[: n - 1], terminated_at)


def _cfrac_approximant(p: HypParams, n: int, z: complex) -> complex:
    if n == 0:
        return 1.0 + 0.0j
    cs = c_array(p, n).astype(complex).tolist()
    t = 1.0 + 0.0j
    for j in range(n, 0, -1):
        if abs(t) < TINY:
            raise PoleOfApproximant(f"C-fraction approximant {n} has a pole near z = {z}")
        t = 1.0 + cs[j - 1] * z / t
    return t


def _sfrac_approximant(p: HypParams, m: int, zeta: complex) -> complex:
    # 1 + d1/(zeta + d2/(1 + d3/(zeta + ...))), truncated after d_m
    if m == 0:
        return 1.0 + 0.0j
    cs = c_array(p, m).astype(complex).tolist()
    t = zeta if m % 2 == 1 else 1.0 + 0.0j
    for j in range(m - 1, 0, -1):
        if abs(t) < TINY:
            raise PoleOfApproximant(f"S-fraction approximant {m} has a pole near {zeta}")
        den = zeta if j % 2 == 1 else 1.0
        t = den + (-cs[j]) / t
    if abs(t) < TINY:
        raise PoleOfApproximant(f"S-fraction approximant {m} has a pole near {zeta}")
    return 1.0 + (-cs[0]) / t


def jfrac_backward(diag, numer, lower_abs, z: complex, tiny: float = 0.0):
    """Backward recurrence of the J-fraction -1/(z - d_0 - n_0/(z - d_1 - ...)),

        t_{m-1} = z - d_{m-1},   t_k = z - d_k - n_k / t_{k+1},

    over sequences of Python numbers.  For T = diag + superdiag(upper) +
    subdiag(lower) and n_k = upper_k lower_k, the solution of (T - z) x = e_0
    has x_0 = -1/t_0 and x_{k+1} = (lower_k / t_{k+1}) x_k, so the same loop
    carries M = max_k |x_k| / |x_0| from ``lower_abs`` = |lower_k|.  Returns
    (t_0, M), or None as soon as some |t_k| <= ``tiny``.
    """
    t = z - diag[-1]
    growth = 1.0
    for k in range(len(diag) - 2, -1, -1):
        t_abs = abs(t)
        if t_abs <= tiny:
            return None
        growth = lower_abs[k] / t_abs * growth
        if growth < 1.0:
            growth = 1.0
        t = z - diag[k] - numer[k] / t
    if abs(t) <= tiny:
        return None
    return t, growth


def _jfrac_approximant(p: HypParams, n: int, z: complex) -> complex:
    coeffs = jacobi_coeffs(p, n)  # may be shorter if terminated
    ones = (1.0,) * len(coeffs.offdiag_sq)
    out = jfrac_backward(coeffs.diag.tolist(), coeffs.offdiag_sq.tolist(), ones, z, TINY)
    if out is None:
        raise PoleOfApproximant(f"J-fraction approximant {n} has a pole near z = {z}")
    return -1.0 / out[0]


def approximant(p: HypParams, kind: str, n: int, z: complex) -> complex:
    """Finite approximant of one of the three fraction forms.

    ``kind`` is one of ``c-fraction`` (variable z), ``s-fraction``
    (variable zeta = -1/z of the C-fraction), ``j-fraction`` (the fraction
    for B).  Exact truncation, no adaptivity; these exist so the algebraic
    contraction identities can be tested level by level.
    """
    z = complex(z)
    if kind == "c-fraction":
        if n < 0:
            raise ValueError("approximant order must be >= 0")
        return _cfrac_approximant(p, n, z)
    if kind == "s-fraction":
        if n < 0:
            raise ValueError("approximant order must be >= 0")
        return _sfrac_approximant(p, n, z)
    if kind == "j-fraction":
        if n < 1:
            raise ValueError("J-fraction approximant order must be >= 1")
        require_nondegenerate(p)
        return _jfrac_approximant(p, n, z)
    raise ValueError(f"unknown fraction kind: {kind!r}")


def _poly_mul(u: Sequence[complex], v: Sequence[complex], order: int) -> list[complex]:
    out = [0.0 + 0.0j] * (order + 1)
    for i, ui in enumerate(u[: order + 1]):
        if ui == 0:
            continue
        for j, vj in enumerate(v[: order + 1 - i]):
            out[i + j] += ui * vj
    return out


def _poly_inv(v: Sequence[complex], order: int) -> list[complex]:
    inv = [1.0 / v[0]] + [0.0 + 0.0j] * order
    for k in range(1, order + 1):
        s = 0.0 + 0.0j
        for j in range(1, min(k, len(v) - 1) + 1):
            s += v[j] * inv[k - j]
        inv[k] = -s / v[0]
    return inv


def _hyp_taylor(a: complex, b: complex, c: complex, order: int) -> list[complex]:
    out = [1.0 + 0.0j]
    t = 1.0 + 0.0j
    for n in range(order):
        t = t * (a + n) * (b + n) / ((c + n) * (n + 1))
        out.append(t)
    return out


def moment_oracle(p: HypParams, order: int) -> tuple[complex, ...]:
    """Moments s_0..s_order of B from series arithmetic alone.

    Expands B(z) = -s_0/z - s_1/z^2 - ... near infinity by dividing the two
    hypergeometric Taylor series, normalizing, and composing with
    w = -4/(z-2) as a formal series in 1/z.  Shares nothing with
    :func:`jacobi_coeffs` beyond the scalar c_1, which makes it an
    independent check on the J-fraction coefficient indices (the identities
    s_1 = a_0, s_2 = a_0^2 + b_0^2, ... pin them uniquely).

    Accuracy degrades slowly with order through the series division; orders
    up to ~10 are good to near machine precision for moderate parameters.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    require_nondegenerate(p)
    m = order + 1
    f_num = _hyp_taylor(p.a, p.b, p.c, m)
    f_den = _hyp_taylor(p.a, p.b + 1, p.c + 1, m)
    ratio = _poly_mul(f_num, _poly_inv(f_den, m), m)
    g = [p.scale * x for x in ratio]
    g[0] = 0.0 + 0.0j

    # w(v) = -4v/(1-2v) = -sum_{j>=1} 4 * 2^(j-1) v^j, v = 1/z
    w = [0.0 + 0.0j] + [-4.0 * (2.0 ** (j - 1)) for j in range(1, m + 1)]
    b_of_v = [0.0 + 0.0j] * (m + 1)
    w_pow = [1.0 + 0.0j] + [0.0 + 0.0j] * m
    for k in range(1, m + 1):
        w_pow = _poly_mul(w_pow, w, m)
        if g[k] == 0:
            continue
        for i in range(m + 1):
            b_of_v[i] += g[k] * w_pow[i]
    return tuple(-b_of_v[k + 1] for k in range(order + 1))
