"""Truncated complex Jacobi operators and their discrete spectrum.

The J-fraction coefficients define a complex symmetric tridiagonal matrix

    J = tridiag(b_{k-1}; a_k; b_k),     J_0 = tridiag(1; 0; 1),

with J - J_0 trace class, so the essential spectrum is the band [-2, 2] and
B(z) = <(J - z)^{-1} e, e> is meromorphic off the band with poles exactly at
the eigenvalues of J.  This module evaluates B by resolvent and by the
continued fraction, filters truncation spectra for stable eigenvalues,
bounds the trace norm of J - J_0, and maps eigenvalues back to zeros of the
underlying hypergeometric function through w = -4/(z-2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cfrac import (
    BAND_EVAL_GUARD,
    JacobiCoeffs,
    band_distance,
    c_coeff,
    cf_ratio_eval,
    jacobi_coeffs,
    jfrac_backward,
    near_band,
    offdiag_roots,
    require_nondegenerate,
    termination_index,
)
from .errors import (
    CNonpositiveInteger,
    EigensolverFailure,
    NearPole,
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

#: the trace-norm bound sums the explicit coefficient formulas out to at
#: least this index before switching to the dominating series
TAIL_HORIZON = 20000


def band_to_cut(z: complex) -> complex:
    """w = -4/(z-2), mapping C minus [-2,2] onto C minus [1,inf)."""
    return -4.0 / (complex(z) - 2.0)


def cut_to_band(w: complex) -> complex:
    """Inverse map z = 2 - 4/w."""
    return 2.0 - 4.0 / complex(w)


@dataclass(frozen=True)
class TruncatedJacobi:
    """Leading principal block of the Jacobi matrix.

    Complex symmetric (equal sub- and superdiagonal), not Hermitian unless
    the parameters are real with positive b_k^2.  For a terminating triple
    the operator decouples and only the leading block is ever built.
    """

    order: int
    diag: np.ndarray
    offdiag: np.ndarray
    source: HypParams
    terminated: bool

    def matrix(self) -> np.ndarray:
        m = np.diag(self.diag.astype(complex))
        if self.order > 1:
            m += np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)
        return m


def build_truncated(p: HypParams, N: int) -> TruncatedJacobi:
    """Assemble the order-N truncation (or the exact decoupled block)."""
    if N < 1:
        raise ValueError("truncation order must be >= 1")
    coeffs = offdiag_roots(jacobi_coeffs(p, N))
    return TruncatedJacobi(
        order=len(coeffs.diag),
        diag=np.asarray(coeffs.diag, dtype=complex),
        offdiag=np.asarray(coeffs.offdiag, dtype=complex),
        source=p,
        terminated=coeffs.terminated_at is not None,
    )


def resolvent_first(diag, upper, lower, z: complex) -> complex:
    """x_0 of (T - z) x = e_0, T = diag + superdiag(upper) + subdiag(lower).

    x_0 is the J-fraction of T at z, evaluated backward by
    :func:`cfrac.jfrac_backward`: x_0 = 1/u_0, where u_0 = -t_0 is the last
    pivot of eliminating T - z from the bottom row up.  The same loop
    bounds max_k |x_k|.  NearSingular if a pivot vanishes or max_k |x_k| is
    not finite or exceeds GROWTH_LIMIT (z numerically indistinguishable
    from an eigenvalue).
    """
    up, lo = np.asarray(upper).tolist(), np.asarray(lower).tolist()
    numer = [u * v for u, v in zip(up, lo)]
    out = jfrac_backward(np.asarray(diag).tolist(), numer, np.abs(lower).tolist(), z)
    if out is not None:
        x0 = 1.0 / -out[0]
        if abs(x0) * out[1] <= GROWTH_LIMIT:
            return complex(x0)
    raise NearSingular(f"resolvent solve blew up at z = {z} (order {len(diag)})")


def m_function(p: HypParams, z: complex, N: int) -> complex:
    """<(J_N - z)^{-1} e, e> by the backward J-fraction recurrence."""
    tj = build_truncated(p, N)
    return resolvent_first(tj.diag, tj.offdiag, tj.offdiag, complex(z))


def b_function(p: HypParams, z: complex, method: str = "cf", tol: float = 1e-12) -> complex:
    """Evaluate B(a,b,c;z) off the band.

    ``method="cf"`` goes through the continued fraction at w = -4/(z-2);
    ``method="resolvent"`` doubles the truncation order until two
    successive m-function values agree to ``tol``.  The two routes are
    algebraically identical and their numerical agreement is one of the
    package's standing invariants.

    Terminating triples give a rational B, so for them the band guard is
    waived and evaluation works anywhere off the (finitely many) poles.

    Raises
    ------
    NonFiniteParameter
        z has a NaN or infinite real or imaginary part.
    OnBand
        z within guard distance of [-2, 2] for a non-terminating triple,
        measured in z or in w = -4/(z-2) (``cfrac.near_band``), for both
        methods.
    NearPole
        The continued fraction would not settle (z at or next to a pole).
    """
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
        if z == 2.0:
            # the Moebius variable is infinite there; only reachable for a
            # terminating (rational) triple, where the block is exact
            return m_function(p, z, t + 1)
        w = band_to_cut(z)
        try:
            r = cf_ratio_eval(p, w, tol=tol)
        except NoConvergence as exc:
            raise NearPole(f"continued fraction unsettled at z = {z}: {exc}") from exc
        d1 = -c_coeff(p, 1)
        return (-1.0 / (4.0 * d1)) * (r.value - 1.0)

    if method == "resolvent":
        if t is not None:
            return m_function(p, z, t + 1)
        n = RESOLVENT_N0
        prev = m_function(p, z, n)
        while n < RESOLVENT_NMAX:
            n *= 2
            cur = m_function(p, z, n)
            if abs(cur - prev) <= tol * max(1.0, abs(cur)):
                return cur
            prev = cur
        raise NoConvergence(
            f"resolvent m-function not settled at order {RESOLVENT_NMAX} for z = {z}",
            last_value=prev,
        )

    raise ValueError(f"unknown method: {method!r}")


@dataclass(frozen=True)
class SpectralResult:
    """Stable point spectrum outside the band, with inequality data.

    ``eigenvalues`` is a multiset (algebraic multiplicity by repetition);
    ``discarded`` holds truncation eigenvalues that failed the N vs 2N
    stability match, ``merged`` the representatives of clusters collapsed
    at MERGE_TOL.
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


def _tridiagonal_eigvals(coeffs: JacobiCoeffs, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the leading order-n block of J, without eigenvectors.

    The block is solved in the form

        T = diag(a_k) + superdiag(s_k) + subdiag(b_k^2 / s_k),   s_k = |b_k^2|^(1/2),

    which is diagonally similar to J (no b_k inside a block vanishes) and
    needs no complex square root, so T is real whenever every a_k and b_k^2
    is, which holds for every real triple.  Scaling by s_k rather than
    putting 1 on the superdiagonal keeps the off-diagonal magnitudes of J:
    with a unit superdiagonal, complex triples with large leading
    coefficients lost a decimal digit in their eigenvalues.  Returns the
    bands of T as a 3 x n array (rows: superdiagonal, diagonal,
    subdiagonal, the first and last entry unused) together with its
    eigenvalues as complex128.
    """
    diag = np.asarray(coeffs.diag[:n], dtype=complex)
    sq = np.asarray(coeffs.offdiag_sq[: n - 1], dtype=complex)
    if not (diag.imag.any() or sq.imag.any()):
        diag, sq = diag.real, sq.real
    scale = np.sqrt(np.abs(sq))
    bands = np.zeros((3, len(diag)), dtype=diag.dtype)
    bands[0, 1:] = scale
    bands[1] = diag
    bands[2, :-1] = sq / scale
    t = np.diag(bands[1])
    if len(diag) > 1:
        t += np.diag(bands[0, 1:], 1) + np.diag(bands[2, :-1], -1)
    try:
        vals = np.linalg.eigvals(t)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(f"QR iteration failed: {exc}") from exc
    return bands, vals.astype(complex)


def _twisted_column(diag, upper, lower, mu: complex) -> np.ndarray:
    """Column k of (T - mu)^{-1} up to scale, entry k equal to 1, for T =
    diag + superdiag(upper) + subdiag(lower) over sequences of Python numbers.

    One twisted factorization: p_i are the pivots of eliminating T - mu
    from the top row down, q_i those from the bottom row up (the pivots of
    :func:`cfrac.jfrac_backward`, negated), and gamma_k = p_k + q_k -
    (d_k - mu) is 1 / ((T - mu)^{-1})_{kk}.  The twist k minimizes
    |gamma_k|, which picks the column where the eigenvector nearest mu is
    large; then x_i = -upper_i x_{i+1} / p_i above k and x_i = -lower_{i-1}
    x_{i-1} / q_i below it, so (T - mu) x = gamma_k e_k.  ZeroDivisionError
    on a vanishing pivot.
    """
    n = len(diag)
    a = [d - mu for d in diag]
    p, q = [a[0]], [a[-1]]
    for i in range(1, n):
        p.append(a[i] - lower[i - 1] * upper[i - 1] / p[-1])
        j = n - 1 - i
        q.append(a[j] - upper[j] * lower[j] / q[-1])
    p, q = np.array(p), np.array(q[::-1])
    k = int(np.argmin(np.abs(p + q - np.array(a))))
    x = np.ones(n, dtype=p.dtype)
    x[:k] = np.cumprod((-np.asarray(upper[:k]) / p[:k])[::-1])[::-1]
    x[k + 1 :] = np.cumprod(-np.asarray(lower[k:]) / q[k + 1 :])
    return x


def _check_eigenvalues(bands: np.ndarray, vals) -> None:
    """Residual contract for eigenvalues of the tridiagonal T in ``bands``.

    Each value gets one step of inverse iteration, one O(N) solve: the
    column of (T - mu)^{-1} picked by a twisted factorization
    (``_twisted_column``).  A start vector fixed in advance fails when the
    eigenvector is small there; e_0 misses eigenvectors localized at the
    end of a block, whose first entry is tiny though nonzero.  The twist
    reads the diagonal of (T - mu)^{-1} to choose e_k instead.  The shift
    mu = lam + 8 eps ||T||_inf is nudged so that an exact eigenvalue (a
    terminating 1x1 block) leaves the pivots nonzero.  The normalized
    column v must satisfy ||(T - lam) v|| <= EIG_RESIDUAL * max(||T||_inf, 1).
    """
    if len(vals) == 0:
        return
    row_sums = np.abs(bands[1])
    row_sums[:-1] += np.abs(bands[0, 1:])
    row_sums[1:] += np.abs(bands[2, :-1])
    scale = max(float(np.max(row_sums)), 1.0)
    nudge = 8.0 * np.finfo(float).eps * scale
    diag, upper, lower = bands[1].tolist(), bands[0, 1:].tolist(), bands[2, :-1].tolist()
    for lam in vals:
        try:
            v = _twisted_column(diag, upper, lower, complex(lam) + nudge)
        except ZeroDivisionError as exc:
            raise EigensolverFailure(f"inverse iteration singular at eigenvalue {lam}") from exc
        v = v / np.linalg.norm(v)
        tv = bands[1] * v
        tv[:-1] += bands[0, 1:] * v[1:]
        tv[1:] += bands[2, :-1] * v[:-1]
        res = float(np.linalg.norm(tv - lam * v))
        if not res <= EIG_RESIDUAL * scale:
            raise EigensolverFailure(
                f"eigenpair residual {res:.3e} exceeds contract at eigenvalue {lam}"
            )


def discrete_spectrum(p: HypParams, N: int = 256, tol: float = 1e-10) -> SpectralResult:
    """Stable eigenvalues of J outside the band.

    Non-terminating triples are solved at truncation orders N and 2N, both
    taken from one order-2N coefficient build; an order-N eigenvalue with
    band distance above BAND_GUARD is retained only if an order-2N
    eigenvalue sits within ``tol * max(1, |.|)`` of it, in which case the
    finer value is reported.  Everything else lands in ``discarded``:
    truncations pollute the band vicinity and only double-truncation
    agreement separates genuine poles of B from that debris.  Terminating
    triples are exact and skip the filter.

    Each truncation is solved for eigenvalues only (dense QR on a
    tridiagonal matrix similar to J, see ``_tridiagonal_eigvals``), in real
    arithmetic for a real triple.  Every retained eigenvalue is then
    checked against the residual contract EIG_RESIDUAL with a resolvent
    column (T - mu)^{-1} e_k, mu next to lam, as its eigenvector, one O(N)
    twisted solve (``_check_eigenvalues``); a failure raises
    EigensolverFailure.

    Near-coincident retained values (within MERGE_TOL) are averaged and
    repeated, so multiplicity is reported by repetition and the merge is
    flagged in ``merged``.
    """
    if N < 8 and termination_index(p) is None:
        raise ValueError("truncation order must be >= 8 for non-terminating triples")

    coeffs = jacobi_coeffs(p, 2 * N)
    if coeffs.terminated_at is not None and coeffs.terminated_at < N - 1:
        # the order-N build would already have stopped at the exact block
        bands, vals = _tridiagonal_eigvals(coeffs, N)
        retained = [complex(v) for v in vals if band_distance(v) > BAND_GUARD]
        _check_eigenvalues(bands, retained)
        discarded: list[complex] = []
        n_used = n_check = bands.shape[1]
    else:
        _, vals1 = _tridiagonal_eigvals(coeffs, N)
        bands2, vals2 = _tridiagonal_eigvals(coeffs, 2 * N)

        candidates = [complex(v) for v in vals1 if band_distance(v) > BAND_GUARD]
        claimed = [False] * len(vals2)
        retained = []
        discarded = []
        for lam in candidates:
            dists = np.abs(vals2 - lam)
            dists[claimed] = np.inf
            j = int(np.argmin(dists))
            if dists[j] <= tol * max(1.0, abs(lam)) and band_distance(vals2[j]) > BAND_GUARD:
                claimed[j] = True
                retained.append(complex(vals2[j]))
            else:
                discarded.append(lam)
        _check_eigenvalues(bands2, retained)
        n_used, n_check = N, 2 * N

    if p.is_real:
        # a real triple is solved in real arithmetic, so non-real values
        # already come in exact conjugate pairs; only rounding-level
        # imaginary parts are dropped
        retained = [
            complex(v.real, 0.0) if abs(v.imag) <= max(tol * max(1.0, abs(v)), 1e-12) else v
            for v in retained
        ]

    # collapse near-coincident values into explicit multiplicities
    retained.sort(key=lambda v: (v.real, v.imag))
    merged: list[complex] = []
    final: list[complex] = []
    i = 0
    while i < len(retained):
        cluster = [retained[i]]
        j = i + 1
        while j < len(retained) and abs(retained[j] - cluster[-1]) <= MERGE_TOL:
            cluster.append(retained[j])
            j += 1
        if len(cluster) > 1:
            rep = sum(cluster) / len(cluster)
            merged.append(rep)
            final.extend([rep] * len(cluster))
        else:
            final.append(cluster[0])
        i = j

    dist_sum = float(sum(band_distance(v) for v in final))
    bound = trace_norm_bound(p, max(n_check, 64))
    return SpectralResult(
        eigenvalues=tuple(final),
        distance_sum=dist_sum,
        trace_bound=bound,
        N_used=n_used,
        N_check=n_check,
        discarded=tuple(discarded),
        merged=tuple(merged),
    )


def _tail_constants(p: HypParams) -> tuple[float, float, int, float]:
    """Dominating-series data for the coefficient tails.

    With t = 2n + c the exact partial-fraction forms

        a_n      = -2q/((t+1)(t+2)) - g1/(t(t+1)) - g2/((t+1)(t+2)),
        b_n^2 - 1 = u + v + uv,   u,v the deviations of 4d_{2n+2}, 4d_{2n+3},

    give |a_n| <= C_A / s_n^2 and |b_n^2 - 1| <= C_B / s_n^2 with
    s_n = 2n - |c| - 3, once n is large enough that s_n >= 1,
    |t| <= 2 s_n and C_B / s_n^2 < 1 (the last also makes Re b_n^2 > 0, so
    the principal root satisfies |b_n - 1| <= |b_n^2 - 1|).
    """
    a, b, c = p.a, p.b, p.c
    q = 2.0 * (a - b) - 1.0
    g1 = 2.0 * a * c + 2.0 * b * c - 4.0 * a * b - c * c
    g2 = (2.0 + 2.0 * b - c) * (2.0 + c - 2.0 * a) - 2.0
    g3 = (2.0 + 2.0 * a - c) * (2.0 + c - 2.0 * b) - 6.0
    r = abs(q)
    ca = 2.0 * r + abs(g1) + abs(g2)
    cb = 4.0 * r + abs(g2) + abs(g3) + (2.0 * r + abs(g2)) * (2.0 * r + abs(g3))
    beta = abs(c) + 3.0
    n_min = int(
        math.ceil(
            max(
                (beta + 1.0) / 2.0,          # s_n >= 1
                (3.0 * abs(c) + 6.0) / 2.0,  # |t| <= 2 s_n
                (beta + math.sqrt(cb)) / 2.0,  # C_B / s_n^2 < 1
            )
        )
    ) + 1
    return ca, cb, n_min, beta


def trace_norm_bound(p: HypParams, K: int) -> float:
    """Computable upper bound for ||J - J_0||_1.

    Each diagonal entry contributes |a_k| and each symmetric off-diagonal
    pair at most 2|b_k - 1| to the trace norm.  The bound sums the
    coefficients k < n and adds what lies beyond.  For a non-terminating
    triple n = max(K, TAIL_HORIZON, ...) and the rest is capped by the
    dominating series C/k^2 of ``_tail_constants`` via integral comparison,
    so the bound is a true upper bound for every K and essentially
    constant once K is moderate.  For a terminating triple the sum over
    the block is exact, and the broken bond b_t = 0 against the free
    matrix still costs 2|b_t - 1| = 2.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    require_nondegenerate(p)

    t = termination_index(p)
    if t is None:
        ca, cb, n_min, beta = _tail_constants(p)
        n = max(K, TAIL_HORIZON, n_min)
        # sum_{k >= n} 1/(2k - beta)^2 <= 1/(2 (2(n - 1) - beta))
        rest = (ca + 2.0 * cb) / (2.0 * (2.0 * (n - 1.0) - beta))
    else:
        n, rest = t + 1, 2.0
    coeffs = offdiag_roots(jacobi_coeffs(p, n + 1))
    diag = np.asarray(coeffs.diag[:n], dtype=complex)
    roots = np.asarray(coeffs.offdiag[:n], dtype=complex)
    return float(np.sum(np.abs(diag)) + 2.0 * np.sum(np.abs(roots - 1.0)) + rest)


class LiebThirring(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def lieb_thirring_check(p: HypParams, N: int = 256, tol: float = 1e-10) -> LiebThirring:
    """Distance sum of the stable spectrum against the trace-norm bound."""
    res = discrete_spectrum(p, N=N, tol=tol)
    return LiebThirring(res.distance_sum, res.trace_bound, res.holds)


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
