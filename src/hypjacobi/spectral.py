"""Truncated complex Jacobi operators and their discrete spectrum.

The J-fraction coefficients define a complex symmetric tridiagonal matrix

    J = tridiag(b_{k-1}; a_k; b_k),     J_0 = tridiag(1; 0; 1),

with J - J_0 trace class, so the essential spectrum is the band [-2, 2] and
B(z) = <(J - z)^{-1} e, e> is meromorphic off the band with poles exactly at
the eigenvalues of J.  Every function here reads the leading block of J
from ``cfrac.JacobiCoeffs``, in the triple's own arithmetic: the
m-function through the roots b_k, the spectrum and the trace-norm bound
through the diagonal and the squares.  This module evaluates B by
resolvent and by the continued fraction, filters truncation spectra for
stable eigenvalues (stopping at a zero count where one is known: the
classical count of Klein for real triples; for complex ones the winding of
the Jost function, whose zeros on the same contour also seed the
eigenvalues without an eigensolve), bounds the trace norm of J - J_0, and maps
eigenvalues back to zeros of the underlying hypergeometric function
through w = -4/(z-2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable
import numpy as np

from .cfrac import (
    BAND_EVAL_GUARD,
    TERMINATION_CAP,
    JacobiCoeffs,
    band_distance,
    cf_ratio_eval,
    convergence_order,
    dense_tridiagonal,
    jacobi_coeffs,
    jfrac_backward,
    near_band,
    require_nondegenerate,
    settle,
    termination_index,
)
from .errors import (
    CNonpositiveInteger,
    EigensolverFailure,
    HorizonTooDeep,
    NearSingular,
    NoConvergence,
    NonFiniteParameter,
    OnBand,
    ShiftInvalid,
)
from .hyp import HypParams, validate_params

#: eigenvalues within this distance of [-2, 2] are never retained
BAND_GUARD = 1e-6

#: resolvent solves with solution norm beyond this raise NearSingular
GROWTH_LIMIT = 1e12

#: eigenpair residual contract, relative to the operator norm
EIG_RESIDUAL = 1e-8

#: truncation orders for the adaptive resolvent path
RESOLVENT_N0 = 64
RESOLVENT_NMAX = 4096

#: retained eigenvalues closer than this are merged as one multiple pole
MERGE_TOL = 1e-6

#: Newton steps, at most, that refine one candidate at one truncation order
NEWTON_STEPS = 4

#: times, at most, that the Jost count doubles its contour samples
JOST_DOUBLINGS = 2

#: the zeros of the Jost function seed the ladder for counts up to this;
#: Newton's identities lose the zeros far from the band beyond it (at
#: N = 256 every count up to 14 was met, and from 16 on most were not)
JOST_SEEDS_MAX = 12

#: the trace-norm bound sums the coefficients out to at least this index
#: (2N at the default N) before the closed-form tail of ``_tail_constants``
TAIL_HORIZON = 512


def band_to_cut(z: complex) -> complex:
    """w = -4/(z-2), mapping C minus [-2,2] onto C minus [1,inf)."""
    return -4.0 / (complex(z) - 2.0)


def cut_to_band(w: complex) -> complex:
    """Inverse map z = 2 - 4/w."""
    return 2.0 - 4.0 / complex(w)


def build_truncated(p: HypParams, N: int) -> JacobiCoeffs:
    """The order-N truncation of J (or the shorter exact block of a
    terminating triple): ``jacobi_coeffs(p, N)`` for N >= 1."""
    if N < 1:
        raise ValueError("truncation order must be >= 1")
    return jacobi_coeffs(p, N)


def resolvent_first(diag, upper, lower, z: complex) -> complex:
    """x_0 of (T - z) x = e_0, T = diag + superdiag(upper) + subdiag(lower).

    The general solve (:func:`_grown_m` reads symmetric builds, bit for bit
    the same): the J-fraction of T at z by :func:`cfrac.jfrac_backward`,
    whose loop also bounds max_k |x_k|.  NearSingular if a pivot vanishes or
    max_k |x_k| is not finite or exceeds GROWTH_LIMIT (z numerically
    indistinguishable from an eigenvalue); NonFiniteParameter there if z is
    not finite.
    """
    numer = [u * v for u, v in zip(np.asarray(upper).tolist(), np.asarray(lower).tolist())]
    return _resolvent_x0(np.asarray(diag).tolist(), numer, np.abs(lower).tolist(), z)


def _resolvent_x0(diag: list, numer: list, lower_abs: list, z: complex) -> complex:
    """:func:`resolvent_first` from its Python-number lists: the diagonal,
    the products upper_k lower_k and |lower_k|."""
    out = jfrac_backward(diag, numer, lower_abs, z)
    if out is not None:
        x0 = 1.0 / -out[0]
        if abs(x0) * out[1] <= GROWTH_LIMIT:
            return complex(x0)
    if not cmath.isfinite(z):
        raise NonFiniteParameter(f"z = {z} is not finite")
    raise NearSingular(f"resolvent solve blew up at z = {z} (order {len(diag)})")


def _grown_m(z: complex):
    """``m(diag, off, n)``: x_0 at z for the leading n rows of a symmetric
    build, bit for bit ``resolvent_first(diag[:n], off[:n-1], off[:n-1], z)``.
    Each entry becomes a Python number once per evaluator, the first time
    an n reaches it, so n must not decrease and a longer build must repeat
    a shorter one.  The lists live with the evaluator, not with the
    triple's coefficient store: as Python objects they take two to three
    times the memory of the stored arrays they are read from."""
    diag, numer, lower_abs = [], [], []

    def m(d, off, n: int) -> complex:
        diag.extend(d[len(diag) : n].tolist())
        off = off[len(numer) : n - 1]
        numer.extend([u * u for u in off.tolist()])
        lower_abs.extend(np.abs(off).tolist())
        return _resolvent_x0(diag, numer, lower_abs, z)

    return m


def m_function(p: HypParams, z: complex, N: int) -> complex:
    """<(J_N - z)^{-1} e, e> by the backward J-fraction recurrence."""
    jc = build_truncated(p, N)
    return _grown_m(complex(z))(jc.diag, jc.offdiag, len(jc.diag))


def b_function(p: HypParams, z: complex, method: str = "cf", tol: float = 1e-12) -> complex:
    """Evaluate B(a,b,c;z) off the band.

    ``method="cf"`` goes through the continued fraction at w = -4/(z-2),
    scaled by -1/(4 d_1) (``HypParams.scale``, from the c_1 = -d_1 that
    ``validate_params`` formed); ``method="resolvent"`` doubles the order of
    J_N from 64 until two values agree to ``tol`` (``cfrac.settle``, read by
    one :func:`_grown_m`, its reach ``cfrac.convergence_order`` at z).  Both
    routes read the triple's coefficient store, so a second call on the
    same ``HypParams`` builds nothing that an earlier one built, and
    returns the same bits.  The routes are algebraically identical; their
    numerical agreement is one of the package's standing invariants.  Both
    return a Python ``complex``.

    Terminating triples give a rational B, so for them the band guard is
    waived and evaluation works anywhere off the (finitely many) poles.

    Raises
    ------
    ValueError
        ``method`` is neither ``"cf"`` nor ``"resolvent"``, whatever z is.
    NonFiniteParameter
        z has a NaN or infinite real or imaginary part, or the coefficients
        of a terminating fraction overflow (both routes), or an entry that
        the route reads: a C-fraction coefficient that a depth reads, an
        entry of J that an order of the resolvent reads.
    OnBand
        z within guard distance of [-2, 2] for a non-terminating triple,
        measured in z or in w = -4/(z-2) (``cfrac.near_band``), for both
        methods.
    NoConvergence
        The chosen route would not settle: the continued fraction by depth
        ``cfrac.CF_MAX_DEPTH`` (z at or next to a pole, or a parameter so
        large that the fraction has not begun to converge), the resolvent
        by order RESOLVENT_NMAX.  ``last_value`` and ``last_correction``
        refer to B by both routes.
    """
    if method not in ("cf", "resolvent"):
        raise ValueError(f"unknown method: {method!r}")
    z = complex(z)
    if not cmath.isfinite(z):
        raise NonFiniteParameter(f"z = {z} is not finite")
    require_nondegenerate(p)
    t = termination_index(p)
    if t is None and near_band(z):
        raise OnBand(
            f"z = {z} is too close to [-2, 2]: within {BAND_EVAL_GUARD} of the band, "
            "or w = -4/(z-2) as close to the cut"
        )

    if method == "cf":
        # the Moebius variable is infinite at z = 2 (or overflows next to it):
        # only reachable for a terminating (rational) triple, whose block is exact
        w = band_to_cut(z) if z != 2.0 else math.inf
        if not cmath.isfinite(w):
            return m_function(p, z, t + 1)
        scale = p.scale
        try:
            r = cf_ratio_eval(p, w, tol=tol)
        except NoConvergence as exc:
            raise NoConvergence(
                f"B at z = {z}: {exc}",
                last_value=complex(scale * (exc.last_value - 1.0)),
                last_correction=abs(scale) * exc.last_correction,
            ) from exc
        # the product in numpy scalars, as r.value is one; then a Python complex
        return complex(scale * (r.value - 1.0))

    if t is not None:
        return m_function(p, z, t + 1)
    m = _grown_m(z)
    return settle(
        lambda n: build_truncated(p, n), lambda jc, n: m(jc.diag, jc.offdiag, n),
        RESOLVENT_N0, RESOLVENT_NMAX, tol, f"resolvent m-function at z = {z}",
        convergence_order(p, z, tol),
    )[0]


@dataclass(frozen=True)
class SpectralResult:
    """Stable point spectrum outside the band, with inequality data.

    ``eigenvalues`` is a multiset (algebraic multiplicity by repetition);
    ``discarded`` holds the seed candidates that were not retained (the
    eigenvalues of the order-``N_used`` truncation, or the Jost seeds),
    ``merged`` the representatives of clusters collapsed at MERGE_TOL.
    ``N_check`` is the highest order at which candidates were confirmed,
    not a second eigensolve.  Without a count the orders are N and 2N.
    With a Klein count (``klein_count``; a real triple with c+1 > 0)
    ``N_used`` is the seed order whose candidates met the count, min(64, N)
    or else N, and ``N_check`` is at most 64N.  With a Jost count
    (``_jost_zeros``; a complex non-terminating triple) whose seeds met it,
    ``N_used`` is N, the order the Jost function reads, ``N_check`` at most
    64N and ``discarded`` the seeds not retained; otherwise the result is
    the one without a count.  A count of 0 solves nothing and reports 0
    for both orders.  For a terminating triple with a block shorter than N
    both orders are the size of that block.  ``trace_bound`` is
    ``trace_norm_bound(p, 2N)``, bit for bit.
    """

    eigenvalues: tuple[complex, ...]
    distance_sum: float
    trace_bound: float
    N_used: int
    N_check: int
    discarded: tuple[complex, ...]
    merged: tuple[complex, ...]

    @property
    def holds(self) -> bool:
        """The Lieb-Thirring inequality distance_sum <= trace_bound, with
        1e-9 slack for rounding in the sum."""
        return self.distance_sum <= self.trace_bound + 1e-9


def _leading_entries(coeffs: JacobiCoeffs, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The first n entries a_k and n - 1 squares b_k^2 of ``coeffs``, read
    as real when none has an imaginary part (a complex triple a = alpha +
    i beta, b = c - alpha + i beta with real c has such entries)."""
    diag, sq = coeffs.diag[:n], coeffs.offdiag_sq[: n - 1]
    if np.iscomplexobj(diag) and not (diag.imag.any() or sq.imag.any()):
        diag, sq = diag.real, sq.real
    return diag, sq


def _tridiagonal(coeffs: JacobiCoeffs, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The leading order-n block of J in the form

        T = diag(a_k) + superdiag(s_k) + subdiag(b_k^2 / s_k),   s_k = |b_k^2|^(1/2),

    which is diagonally similar to J (no b_k inside a block vanishes) and
    needs no complex square root, so T is real whenever its entries are
    (``_leading_entries``), as for every real triple.  Scaling by s_k
    rather than putting 1 on the superdiagonal keeps the off-diagonal
    magnitudes of J: with a unit superdiagonal, complex triples with large
    leading coefficients lost a decimal digit in their eigenvalues.
    Returns (diag, upper, lower), the one form of T here, in one dtype."""
    diag, sq = _leading_entries(coeffs, n)
    scale = np.sqrt(np.abs(sq))
    return diag, scale.astype(diag.dtype, copy=False), sq / scale


def _tridiagonal_eigvals(coeffs: JacobiCoeffs, n: int):
    """Eigenvalues of the leading order-n block of J, without eigenvectors:
    dense QR on the form T of ``_tridiagonal``, in real arithmetic when T
    is real.  Returns T as (diag, upper, lower) and its eigenvalues as
    complex128."""
    tri = _tridiagonal(coeffs, n)
    try:
        vals = np.linalg.eigvals(dense_tridiagonal(*tri))
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(f"QR iteration failed: {exc}") from exc
    return tri, vals.astype(complex)


def _twisted_columns(diag, upper, lower):
    """The twisted column of T - mu as a function of mu, for T = diag +
    superdiag(upper) + subdiag(lower) given as sequences or arrays.

    The column is column k of (T - mu)^{-1} up to scale, entry k equal to
    1.  T is read into Python lists, and its products upper_i lower_i
    formed, once; each column then costs one pivot recurrence run from each
    end, in Python arithmetic: real for a real mu and a real T, complex
    otherwise.
    Only the residual check uses it, so the check shares no code with the
    Newton refinement whose values it checks.
    p_i are the pivots of eliminating T - mu from the top row down, q_i
    those from the bottom row up (the pivots of :func:`cfrac.jfrac_backward`,
    negated), and gamma_i = p_i + q_i - (d_i - mu) is 1 / ((T - mu)^{-1})_{ii}.
    The twist k minimizes |gamma_k|, the row where the eigenvector nearest
    mu is large.  Then x_i = -upper_i x_{i+1} / p_i above k and x_i =
    -lower_{i-1} x_{i-1} / q_i below it, so (T - mu) x = gamma_k e_k.
    Every operation commutes with conjugation in IEEE arithmetic, so for a
    real T the column at conj(mu) is the conjugate of the column at mu, bit
    for bit.  ZeroDivisionError on a vanishing pivot.
    """
    diag, upper, lower = np.asarray(diag), np.asarray(upper), np.asarray(lower)
    d = diag.tolist()
    prod = [u * v for u, v in zip(upper.tolist(), lower.tolist())]
    down = list(zip(d[-2::-1], prod[::-1]))
    up = list(zip(d[1:], prod))

    def pivots(first, rows, mu) -> list:
        # pivot_i = (d_i - mu) - b2_i / pivot_{i-1}, from the row ``first`` on
        pivot = first - mu
        out = [pivot]
        for di, b2 in rows:
            pivot = (di - mu) - b2 / pivot
            out.append(pivot)
        return out

    def column(mu) -> np.ndarray:
        p = np.array(pivots(d[0], up, mu))
        q = np.array(pivots(d[-1], down, mu)[::-1])
        k = int(np.argmin(np.abs(p + q - (diag - mu))))
        x = np.ones(len(d), dtype=p.dtype)
        x[:k] = np.cumprod((-upper[:k] / p[:k])[::-1])[::-1]
        x[k + 1 :] = np.cumprod(-lower[k:] / q[k + 1 :])
        return x

    return column


def _residual(tri, column, lam, mu) -> float:
    """||(T - lam) v|| for T = (diag, upper, lower) and v = ``column(mu)``
    (``_twisted_columns`` of T) normalized."""
    diag, upper, lower = tri
    v = column(mu)
    v = v / np.linalg.norm(v)
    tv = diag * v
    tv[:-1] += upper * v[1:]
    tv[1:] += lower * v[:-1]
    return float(np.linalg.norm(tv - lam * v))


def _newton_steps(diag, prod, mu):
    """One Newton step on det(T - mu), for T with diagonal ``diag`` and
    off-diagonal products ``prod`` (upper_i lower_i).

    The forward pivots p_i = (d_i - mu) - prod_{i-1} / p_{i-1} of T - mu
    multiply to the determinant, and their derivatives are p_i' = -1 +
    prod_{i-1} p_{i-1}' / p_{i-1}^2.  With s = sum_{i<n-1} p_i' / p_i the
    step -det / det' is -p_{n-1} / (p_{n-1}' + p_{n-1} s): zero when mu is
    an eigenvalue of T (a vanishing last pivot), NaN when it is one of a
    leading block.  No pivot is stored.  ``mu`` is either an array of
    shifts, stepped all at once in numpy (a vanishing pivot gives inf or
    NaN), or one shift as a Python number, stepped in Python arithmetic
    (real for a real T and a real mu; ZeroDivisionError on a vanishing
    pivot).
    """
    with np.errstate(all="ignore"):
        p = diag[0] - mu
        dp = -1.0
        s = 0.0
        for d, b2 in zip(diag[1:], prod):
            s += dp / p
            r = b2 / p
            dp = r * dp / p - 1.0
            p = (d - mu) - r
        return -p / (dp + p * s)


def _refine(diag, prod, mu):
    """Up to NEWTON_STEPS Newton steps on det(T - mu) from ``mu`` alone, in
    Python arithmetic (real for a real ``mu`` of a real T).  Stops early at
    a vanishing pivot (mu an eigenvalue of a leading block), a NaN step or
    a step below rounding; returns the last value as complex."""
    for _ in range(NEWTON_STEPS):
        try:
            step = _newton_steps(diag, prod, mu)
        except ZeroDivisionError:
            break
        if cmath.isnan(step):
            break
        mu += step
        if abs(step) <= 4.0 * np.finfo(float).eps * max(1.0, abs(mu)):
            break
    return complex(mu)


def _ladder(tri_at, orders, candidates, tol: float, count: int | None = None):
    """Refine candidates at the truncation ``orders`` in turn (``tri_at(n)``
    is ``_tridiagonal`` of T_n) and split them into retained and discarded.

    At each order every climbing candidate is refined from its value v to
    mu (``_refine``).  v is retained, reported as mu, when mu lies within
    r = tol max(1, |v|) of v, outside BAND_GUARD, and farther than r from
    every value retained before; otherwise mu climbs to the next order
    unless it has sunk into BAND_GUARD.  A one-order ladder, where most
    candidates are debris, first screens them all by one vectorized Newton
    step and refines only those whose step is at most 2r; longer ladders
    are stopped by ``count`` instead (a vectorized step costs about as much
    for one shift as for many).  With a ``count`` candidates climb farthest
    from the band first and the ladder stops once ``count`` values are
    retained.  For a real T only the member of each conjugate pair in the
    upper half plane climbs, and a later complex T is read by its real
    part.  Each candidate below the axis is matched once, before the climb,
    to its partner: the last climbing candidate of its conjugate value.  It
    mirrors that partner (retained as the conjugate of its value) and is
    discarded when the partner is not retained or there is none.  Values are checked
    (``_check_eigenvalues``) on the block of the order that retained them.
    Returns (retained, discarded), both in candidate order, and the
    highest order reached.
    """
    tri = tri_at(orders[0])
    real = not np.iscomplexobj(tri[0])
    climbing = {i: lam for i, lam in enumerate(candidates) if not (real and lam.imag < 0)}
    # each mirror's partner: the last climbing candidate of its conjugate value
    last = {lam: i for i, lam in climbing.items()}
    partner = {i: last.get(lam.conjugate()) for i, lam in enumerate(candidates) if i not in climbing}
    if count is not None:
        climbing = dict(sorted(climbing.items(), key=lambda item: -band_distance(item[1])))
    found: dict[int, complex] = {}
    taken: list[complex] = []
    reached = orders[0]
    for n in orders:
        if not climbing or (count is not None and len(taken) >= count):
            break
        tri = tri if n == reached else tuple(np.real(x) if real else x for x in tri_at(n))
        diag = tri[0].tolist()
        prod = (tri[1] * tri[2]).tolist()
        screen = {}
        if len(orders) == 1:
            steps = _newton_steps(diag, prod, np.array(list(climbing.values()), dtype=complex))
            screen = dict(zip(climbing, steps))
        accepted: list[complex] = []
        carried: dict[int, complex] = {}
        for i, v in climbing.items():
            if count is not None and len(taken) >= count:
                break
            r = tol * max(1.0, abs(v))
            if not abs(screen.get(i, 0.0)) <= 2.0 * r:
                continue
            mu = _refine(diag, prod, v.real if real and v.imag == 0 else v)
            outside = band_distance(mu) > BAND_GUARD
            if abs(mu - v) <= r and outside and all(abs(mu - w) > r for w in taken):
                pair = [mu, mu.conjugate()] if real and mu.imag else [mu]
                taken += pair
                accepted += pair
                found[i] = mu
            elif outside and cmath.isfinite(mu):
                carried[i] = mu
        _check_eigenvalues(tri, accepted)
        climbing = carried
        reached = n

    for i, j in partner.items():
        if j in found:
            found[i] = found[j].conjugate()
    retained = [found[i] for i in sorted(found)]
    discarded = [lam for i, lam in enumerate(candidates) if i not in found]
    return retained, discarded, reached


def _check_eigenvalues(tri, vals) -> None:
    """Residual contract for eigenvalues of T = (diag, upper, lower).

    Each value gets one step of inverse iteration, one O(N) solve: the
    column of (T - mu)^{-1} picked by a twisted factorization
    (``_twisted_columns``).  A start vector fixed in advance fails when the
    eigenvector is small there; e_0 misses eigenvectors localized at the
    end of a block, whose first entry is tiny though nonzero.  The twist
    reads the diagonal of (T - mu)^{-1} to choose e_k instead.  The shift
    mu = lam + 8 eps ||T||_inf is nudged so that an exact eigenvalue (a
    terminating 1x1 block) leaves the pivots nonzero.  The normalized
    column v must satisfy ||(T - lam) v|| <= EIG_RESIDUAL * max(||T||_inf, 1).

    T is converted once per call, not once per value.  On a real T a real
    value is checked in float arithmetic (Python's complex division with
    zero imaginary parts gives the same real quotients and the same
    ZeroDivisionError), and a value below the real axis whose exact
    conjugate is also in ``vals`` is not checked again: its column and
    residual are the conjugate and the same float as those of its mirror
    (the ladder mirrors each pair as ``mu.conjugate()``).
    """
    if len(vals) == 0:
        return
    diag, upper, lower = tri
    row_sums = np.abs(diag)
    row_sums[:-1] += np.abs(upper)
    row_sums[1:] += np.abs(lower)
    scale = max(float(np.max(row_sums)), 1.0)
    # a Python float: a float plus an np.float64 would compute in numpy
    # scalars, which return inf on a vanishing pivot instead of raising
    nudge = float(8.0 * np.finfo(float).eps * scale)
    real = not np.iscomplexobj(diag)
    column = _twisted_columns(diag, upper, lower)
    vals = [complex(lam) for lam in vals]
    mirrored = set(vals) if real else set()
    for lam in vals:
        if lam.imag < 0 and lam.conjugate() in mirrored:
            continue
        at = lam.real if real and lam.imag == 0 else lam
        try:
            res = _residual(tri, column, at, at + nudge)
        except ZeroDivisionError as exc:
            raise EigensolverFailure(f"inverse iteration singular at eigenvalue {lam}") from exc
        if not res <= EIG_RESIDUAL * scale:
            raise EigensolverFailure(
                f"eigenpair residual {res:.3e} exceeds contract at eigenvalue {lam}"
            )


def _gamma_sign(x: float) -> int:
    """Sign of Gamma(x) for real x off its poles: + for x > 0, and
    (-1)^ceil(-x) for x < 0, read from the parity alone, so that it holds
    where ``math.gamma`` overflows or underflows (|x| beyond about 171)."""
    return -1 if x < 0 and math.ceil(-x) % 2 else 1


def klein_count(p: HypParams) -> int | None:
    """Number of zeros of F(a, b+1, c+1; .) in the cut plane C minus [1, inf),
    that is of eigenvalues of J off the band, or None where it is not known.

    With (a', b', c') = (a, b+1, c+1), S = min(a', b', c'-a', c'-b') and
    sigma the sign of Gamma(a') Gamma(b') Gamma(c'-a') Gamma(c'-b'), the
    count is 0 for S > 0 and floor(-S) + (1 + sigma)/2 otherwise (Klein
    1890, Van Vleck 1902; DLMF 15.13).  It is used for real non-terminating
    triples with c+1 > 0; for every other triple (complex, c+1 <= 0, or
    terminating) it returns None.  The four are exactly the factors of the
    termination test in ``validate_params``, so none of them is a
    nonpositive integer here.  O(1); no coefficient is built.
    """
    if not p.is_real or p.zeros or p.c.real + 1.0 <= 0.0:
        return None
    a, b, c = p.a.real, p.b.real, p.c.real
    four = (a, b + 1.0, c - a + 1.0, c - b)
    s = min(four)
    if s > 0:
        return 0
    sigma = math.prod(_gamma_sign(x) for x in four)
    return math.floor(-s) + (1 + sigma) // 2


def _jost_values(diag: np.ndarray, sq: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """psi_{-1}(lam) for J_M glued to the free tail, as its phase and the
    log of its modulus: a_n = ``diag[n]`` for n <= M, b_n^2 = ``sq[n]``
    for n < M, a_n = 0 and b_n^2 = 1 beyond.

    With z = lam + 1/lam, x_n = lam^(n-M) solves (J - z) x = 0 on the tail,
    and the recurrence of the rows, x_{n-1} = ((z - a_n) x_n - x_{n+1}) /
    b_{n-1}^2 with b_{-1}^2 = 1, follows it down to the row above the first.
    psi_{-1} = lam^(M+1) x_{-1} is a polynomial in lam whose zeros in the
    unit disk are the eigenvalues of the glued operator off the band (it is
    1 for the free matrix).  Every few steps, the last of them at n = 0,
    each point is divided by its own |x_n|, which keeps x O(1) and does not
    change its argument; the logs of those divisors are summed per point.
    The division is one multiply by the complex 1/s - 0i: numpy divides a
    complex by a real s as a multiply by fl(1/s) (Smith's algorithm), and
    the imaginary part -0.0 gives the quotient's signed zeros too, which
    decide np.angle of a real negative psi_{-1} (pi or -pi).
    """
    z = lam + 1.0 / lam
    x, nxt = np.ones_like(lam), lam.copy()
    log = len(diag) * np.log(np.abs(lam))
    inv = 1.0 / np.concatenate(([1.0 + 0j], sq))
    new = np.empty_like(lam)
    s = np.empty(lam.shape)
    recip = np.empty_like(lam)
    recip.imag = -0.0
    for n in range(len(diag) - 1, -1, -1):
        np.subtract(z, diag[n], out=new)
        new *= x
        new -= nxt
        new *= inv[n]
        x, nxt, new = new, x, nxt
        if n % 8 == 0:
            np.abs(x, out=s)
            np.divide(1.0, s, out=recip.real)
            x *= recip
            nxt *= recip
            log += np.log(s)
    return x * np.exp(1j * len(diag) * np.angle(lam)), log


def _jost_zeros(coeffs: JacobiCoeffs, M: int, rho: float) -> tuple[int | None, tuple[complex, ...]]:
    """Count and locate the eigenvalues z = lam + 1/lam of J_M glued to the
    free tail with |lam| < rho, from the first M + 1 entries of the
    ``JacobiCoeffs`` ``coeffs`` (``diag`` and ``offdiag_sq``):
    the zeros of its Jost function psi_{-1} (``_jost_values``; Killip and
    Simon, Ann. of Math. 158, 2003) inside |lam| = rho.

    The count is the winding of psi_{-1} around that circle, summed from
    its arguments at 2K points rho e^(i theta_l), theta_l = pi l / K, and
    at every other one of them, starting from the power of two
    K >= 16 / (1 - rho): a curve sampled too sparsely can wind the wrong
    number of times with every step small.  The count is accepted when both
    samplings round to the same integer, the summed winding is within 1e-3
    of it and every step of the finer one is below pi/4; otherwise K
    doubles, up to JOST_DOUBLINGS times.

    The same 2K samples locate the k counted zeros lam_i (Delves and
    Lyness, Math. Comp. 21, 1967).  L(theta) = log psi_{-1}(rho e^(i theta))
    - i k theta, with the argument unwrapped along the accepted steps, is
    periodic, and integration by parts turns the power sums
    s_j = sum_i lam_i^j = (1 / 2 pi i) oint lam^j psi'/psi dlam into
    s_j = -j rho^j mean_l(L(theta_l) e^(i j theta_l)), j = 1..k, k sums
    over the samples.  Newton's identities give the polynomial
    with roots lam_i, and the seeds are z_i = lam_i + 1/lam_i; seeds that
    are not finite are dropped.  When the entries are real
    (``_leading_entries``) the real part of the polynomial is solved, so
    real zeros come out real and the others in exact conjugate pairs, as
    the ladder climbs and mirrors them.

    Returns (count, seeds): (None, ()) when no sampling is accepted, the
    accepted winding is negative, psi_{-1} is not finite and nonzero at
    every point, or rho is not in (0, 1); (count, ()) for no zero or for
    a count above JOST_SEEDS_MAX, whose zeros are not located.
    """
    if not 0.0 < rho < 1.0:
        return None, ()
    diag, sq = _leading_entries(coeffs, M + 1)
    k = 1 << math.ceil(math.log2(16.0 / (1.0 - rho)))
    for _ in range(JOST_DOUBLINGS + 1):
        theta = np.arange(2 * k) * (math.pi / k)
        with np.errstate(all="ignore"):
            psi, log = _jost_values(diag, sq, rho * np.exp(1j * theta))
            if not (np.isfinite(psi).all() and np.isfinite(log).all()):
                return None, ()
            fine = np.angle(np.roll(psi, -1) / psi)
            coarse = np.angle(np.roll(psi[::2], -1) / psi[::2])
        wind = fine.sum() / (2.0 * math.pi)
        count = round(wind)
        if (
            count == round(coarse.sum() / (2.0 * math.pi))
            and abs(wind - count) <= 1e-3
            and np.abs(fine).max() < math.pi / 4
        ):
            break
        k *= 2
    else:
        return None, ()
    if count < 0:
        # psi_{-1} is a polynomial, with no pole inside the circle
        return None, ()
    if not 0 < count <= JOST_SEEDS_MAX:
        return count, ()
    arg = np.angle(psi[0]) + np.concatenate(([0.0], np.cumsum(fine[:-1])))
    big_l = log + 1j * (arg - count * theta)
    j = np.arange(1, count + 1)
    power = -j * rho**j * (np.exp(1j * np.outer(j, theta)) @ big_l) / theta.size
    # Newton's identities: m e_m = sum_{i=1..m} (-1)^(i-1) e_{m-i} s_i
    e = [1.0 + 0j]
    for m in range(1, count + 1):
        e.append(sum((-1) ** (i - 1) * e[m - i] * power[i - 1] for i in range(1, m + 1)) / m)
    poly = [(-1) ** i * e[i] for i in range(count + 1)]
    if not np.isfinite(poly).all():
        return count, ()
    if not np.iscomplexobj(diag):
        poly = np.real(poly)
    with np.errstate(all="ignore"):
        lam = np.roots(poly)
        z = lam + 1.0 / lam
    return count, tuple(complex(v) for v in z if cmath.isfinite(v))


def discrete_spectrum(p: HypParams, N: int = 256, tol: float = 1e-10) -> SpectralResult:
    """Stable eigenvalues of J outside the band.

    A truncation of J is solved for eigenvalues only (dense QR on a
    tridiagonal matrix T similar to J, see ``_tridiagonal_eigvals``), in
    real arithmetic for a real triple; its eigenvalues with band distance
    above BAND_GUARD are the candidates.  Larger truncations then confirm
    them without another eigensolve (``_ladder``): Newton steps on
    det(T_n - mu) refine each candidate at orders n = 2s, 4s, ... of the
    seed order s, and a candidate is retained, reported as its refined
    value, once two successive values agree within ``tol * max(1, |v|)``
    outside BAND_GUARD and apart from the values already retained.
    Everything else lands in ``discarded``: truncations pollute the band
    vicinity and only agreement across orders separates genuine poles of B
    from that debris.  Each block (the exact one, the seed, the Jost
    entries, each rung) is ``jacobi_coeffs(p, n)`` of just its order, a
    ``JacobiCoeffs``, float64 for a real triple, and the bound is
    ``trace_norm_bound(p, 2N)``.  They all read the triple's coefficient
    store: the bound's build to its horizon (at least 2N + 1 and 513
    entries) serves every block that it covers, a longer block builds once
    at its order, and a later call reads what an earlier one built.

    When ``klein_count`` knows how many zeros F(a, b+1, c+1; .) has (a real
    triple with c+1 > 0), that count decides when the spectrum is complete.
    A count of 0 needs no eigensolve (N_used = N_check = 0).  Otherwise the
    seed is the order-min(64, N) truncation, its candidates climb farthest
    from the band first up to order 64N, and the ladder stops at the count.
    If the count is not met, the order-N truncation seeds a second ladder
    to 64N, whose result is returned even when it still falls short.
    ``N_used`` is the seed order of the returned result and ``N_check`` the
    highest order reached.  Without a count (real triples with c+1 <= 0,
    terminating triples whose block is longer than N - 1, and complex
    triples without a Jost count) the seed is the order-N truncation and
    the ladder has one rung, 2N.  Terminating triples with a shorter block
    are exact and skip the filter.

    A complex non-terminating triple is counted and located by
    ``_jost_zeros``: the eigenvalues z = lam + 1/lam of J_N glued to the
    free tail with |lam| < rho = tol^(1/(4N)), read from the N + 1
    entries of ``jacobi_coeffs(p, N + 1)``.  A value confirmed by order 2N
    has a truncation error of about |lam|^(2N), so one outside rho is not
    retained unless its prefactor is above 1/tol.  A count of 0 solves
    nothing.  A count 0 < k <= JOST_SEEDS_MAX takes the k zeros of the
    Jost function as the candidates, with no eigensolve, and ladders them
    at orders 2N, 4N, ... up to 64N, stopping at k (N_used = N, N_check at
    most 64N, ``discarded`` the seeds not retained).  The first rung is 2N,
    not N: a seed is about as accurate as the glued operator, so it agrees
    with an order-N value whose truncation error is just below tol, and
    that value would be reported.  If the seeds do not meet k, k is larger
    than JOST_SEEDS_MAX, or there is no count, the order-N seed with one
    rung at 2N and no count decides, as for the triples without a count.

    Every retained eigenvalue is checked against the residual contract
    EIG_RESIDUAL with a resolvent column (T - mu)^{-1} e_k, mu next to
    lam, as its eigenvector, one O(n) twisted solve on the block of the
    order that retained it (``_check_eigenvalues``), which shares no code
    with the Newton recurrence that produced the value; a failure raises
    EigensolverFailure.

    Near-coincident retained values (within MERGE_TOL) are averaged and
    repeated, so multiplicity is reported by repetition and the merge is
    flagged in ``merged``.

    ValueError unless N >= 1 (N >= 8 for a non-terminating triple) and
    0 < tol < inf.
    """
    if N < 1:
        raise ValueError(f"truncation order N must be >= 1, got {N}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance tol must be positive and finite, got {tol}")
    if N < 8 and termination_index(p) is None:
        raise ValueError("truncation order must be >= 8 for non-terminating triples")

    count = klein_count(p)
    # a complex non-terminating triple is counted and located by the Jost function
    jost = count is None and not (p.is_real or p.zeros)
    bound = trace_norm_bound(p, 2 * N)
    coeffs = jacobi_coeffs(p, N)
    seeds: tuple[complex, ...] = ()
    if jost:
        count, seeds = _jost_zeros(jacobi_coeffs(p, N + 1), N, tol ** (1.0 / (4 * N)))

    def tri_at(n):
        return _tridiagonal(jacobi_coeffs(p, n), n)

    if coeffs.terminated_at is not None:
        # the exact block, shorter than N
        tri, vals = _tridiagonal_eigvals(coeffs, N)
        retained = [complex(v) for v in vals if band_distance(v) > BAND_GUARD]
        _check_eigenvalues(tri, retained)
        discarded: list[complex] = []
        n_used = n_check = len(tri[0])
    else:
        # (seed order s, candidates or None for the order-s eigenvalues, count
        # that stops the ladder), tried in turn until one meets its count
        if jost or count is None:
            tries = [(N, list(seeds), count)] if seeds else []
            tries.append((N, None, None))
        else:
            tries = [(s, None, count) for s in dict.fromkeys((min(64, N), N))]
        if count == 0:
            retained, discarded, n_used, n_check = [], [], 0, 0
        else:
            for n_used, candidates, stop in tries:
                if candidates is None:
                    _, vals = _tridiagonal_eigvals(jacobi_coeffs(p, n_used), n_used)
                    candidates = [complex(v) for v in vals if band_distance(v) > BAND_GUARD]
                # 2s, 4s, ... up to 64N with a count, the one rung 2N without
                last = (64 if stop else 2) * N
                orders = [n_used << k for k in range(1, (last // n_used).bit_length())]
                retained, discarded, n_check = _ladder(tri_at, orders, candidates, tol, stop)
                if stop is None or len(retained) >= stop:
                    break

    # collapse near-coincident values into explicit multiplicities; a real
    # triple is solved in real arithmetic, so its non-real values come in
    # exact conjugate pairs, and a pair this close averages to a real value
    clusters: list[list[complex]] = []
    for v in sorted(retained, key=lambda v: (v.real, v.imag)):
        if clusters and abs(v - clusters[-1][-1]) <= MERGE_TOL:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    reps = [c[0] if len(c) == 1 else sum(c) / len(c) for c in clusters]
    merged = [rep for rep, c in zip(reps, clusters) if len(c) > 1]
    final = [rep for rep, c in zip(reps, clusters) for _ in c]

    dist_sum = float(sum(band_distance(v) for v in final))
    return SpectralResult(
        eigenvalues=tuple(final),
        distance_sum=dist_sum,
        trace_bound=bound,
        N_used=n_used,
        N_check=n_check,
        discarded=tuple(discarded),
        merged=tuple(merged),
    )


def _tail_constants(p: HypParams) -> tuple[int | float, Callable[[int], float]]:
    """The coefficient tails in closed form: (n_min, rest), ``rest(n)`` a
    bound on the sum of |a_k| + 2|b_k - 1| over k >= n, for 2n + Re c > 0.

    With t = 2n + c (n >= 1), alpha = 2a - c, beta = c - 2b, gamma =
    2b + 2 - c, delta = c - 2a + 2, q = 2(a - b) - 1, A = alpha beta,
    G = gamma delta - 2, R = A + G and S = A + 3G + 2q, exactly

        a_n       = -(P t + Q) / (t (t+1) (t+2)),        P = 2q + R,  Q = 2A,
        b_n^2 - 1 = (W2 t^2 + W1 t + W0) / ((t+1) (t+2)^2 (t+3)),

    W2 = R - q^2, W1 = 2R + S - 2q^2 - qA + qG, W0 = 2S + G(2q + A).  For
    s = Re t >= s_0 = 2n_0 + Re c > 0, |t + k| >= s + k and |t| <= |t + k|
    (k >= 0), so |a_n| <= (|P| + |Q|/s_0)/(s+1)^2 and |b_n^2 - 1| <= H/(s+1)^2,
    H = |W2| + |W1|/s_0 + |W0|/s_0^2.  The principal root has Re b_n >= 0,
    so |b_n + 1| >= max(1, 2 - |b_n - 1|) and 2|b_n - 1| <= 2H/(s+1)^2 /
    max(1, 2 - H/(s_0+1)^2).  1/(s+1)^2 is convex in n, so its sum over
    n >= n_0 is at most its integral from n_0 - 1/2, 1/(2 s_0).  Past n_min
    the tail is in its asymptotic regime: s_n >= 3 and |W2|/s_n^2 +
    |W1|/s_n^3 + |W0|/s_n^4 <= 1, about n >= |a| for large |a|.  That sum
    is 1 at the fixed point of the decreasing map g(s) = (|W2| + |W1|/s +
    |W0|/s^2)^(1/2), which is at least |W2|^(1/2), so one step of g from
    max(3, |W2|^(1/2)) lands past it.  n_min is inf when they overflow.
    """
    a, b, c = p.a, p.b, p.c
    q = 2.0 * (a - b) - 1.0
    A = (2.0 * a - c) * (c - 2.0 * b)
    G = (2.0 * b + 2.0 - c) * (c - 2.0 * a + 2.0) - 2.0
    R, S = A + G, A + 3.0 * G + 2.0 * q
    pa, qa = abs(2.0 * q + R), abs(2.0 * A)
    w2, w0 = abs(R - q * q), abs(2.0 * S + G * (2.0 * q + A))
    w1 = abs(2.0 * R + S - 2.0 * q * q - q * A + q * G)
    lo = max(3.0, math.sqrt(w2))
    high = math.sqrt(w2 + w1 / lo + w0 / (lo * lo))
    n_min = max(1, math.ceil((max(3.0, high) - c.real) / 2.0)) if math.isfinite(high) else math.inf

    def rest(n: int) -> float:
        s = 2.0 * n + c.real
        h = w2 + w1 / s + w0 / (s * s)
        return (pa + qa / s + 2.0 * h / max(1.0, 2.0 - h / ((s + 1.0) * (s + 1.0)))) / (2.0 * s)

    return n_min, rest


def _trace_horizon(p: HypParams, K: int) -> tuple[int, float]:
    """The index n below which :func:`trace_norm_bound` sums the
    coefficients, max(K, TAIL_HORIZON, n_min), and the closed-form bound
    on the rest (``_tail_constants``, formed once per triple and kept in
    its coefficient store).  HorizonTooDeep, before any coefficient is
    built, if n would exceed ``cfrac.TERMINATION_CAP``."""
    if K < 1:
        raise ValueError("K must be >= 1")
    require_nondegenerate(p)

    t = termination_index(p)
    if t is not None:
        return t + 1, 2.0
    store = p._store
    if store.tail is None:
        store.tail = _tail_constants(p)
    n_min, rest = store.tail
    n = max(K, TAIL_HORIZON, n_min)
    if not n <= TERMINATION_CAP:
        raise HorizonTooDeep(
            f"the trace-norm bound for (a,b,c) = ({p.a}, {p.b}, {p.c}) needs "
            f"coefficients out to index {n:.3g}, beyond {TERMINATION_CAP}"
        )
    return n, rest(n)


def _trace_sum(coeffs: JacobiCoeffs, n: int, rest: float) -> float:
    """|a_k| summed over k < n, plus 2|b_k - 1| over the bonds k < n,
    plus ``rest``, from a build of at least n + 1 entries; b_k is
    ``coeffs.offdiag``."""
    dev = np.abs(coeffs.offdiag[:n] - 1.0)
    return float(np.sum(np.abs(coeffs.diag[:n])) + 2.0 * np.sum(dev) + rest)


def trace_norm_bound(p: HypParams, K: int) -> float:
    """Computable upper bound for ||J - J_0||_1.

    Each diagonal entry contributes |a_k| and each symmetric off-diagonal
    pair at most 2|b_k - 1| to the trace norm.  The bound sums the
    coefficients k < n and adds what lies beyond.  For a non-terminating
    triple n = max(K, TAIL_HORIZON, n_min) and the rest is the sharp
    closed-form C/s_k^2 tail of ``_tail_constants``, so the bound is a true
    upper bound for every K and essentially constant once K is moderate.
    For a terminating triple the sum over the block is exact, and the
    broken bond b_t = 0 against the free matrix still costs 2|b_t - 1| = 2.

    HorizonTooDeep, before any coefficient is built, if n would exceed
    ``cfrac.TERMINATION_CAP`` (n_min is about |a| for large |a|).
    """
    n, rest = _trace_horizon(p, K)
    return _trace_sum(jacobi_coeffs(p, n + 1), n, rest)


def hyp_zeros(
    p: HypParams,
    N: int = 256,
    tol: float = 1e-10,
    which: str = "denominator",
) -> list[complex]:
    """Zeros of a hypergeometric function in the cut plane C minus [1, inf).

    ``which="denominator"`` (default) locates the zeros of F(a,b+1,c+1;.):
    they are exactly the images w = -4/(lambda-2) of the stable eigenvalues
    of J.  ``which="numerator"`` locates zeros of F(a,b,c;.) by running the
    same pipeline at the shifted triple (a, b-1, c-1).
    """
    if which == "numerator":
        try:
            p = validate_params(p.a, p.b - 1.0, p.c - 1.0)
        except CNonpositiveInteger as exc:
            raise ShiftInvalid(f"shift (a, b-1, c-1) invalid: {exc}") from exc
    elif which != "denominator":
        raise ValueError(f"unknown variant: {which!r}")
    res = discrete_spectrum(p, N=N, tol=tol)
    return [band_to_cut(lam) for lam in res.eigenvalues]
