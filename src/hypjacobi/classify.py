"""Real-parameter classification in the Nevanlinna hierarchy.

For real (a, b, c) the J-fraction entries are real and the squares b_j^2
are eventually positive.  Absorbing the finitely many negative signs into a
sequence eps_j = +-1 (eps_j = 1 from the stabilization index N on, and
eps_j eps_{j+1} b_j^2 > 0 throughout) grades eps_0 B into the generalized
Nevanlinna class with kappa = #{j < N : eps_j = -1} negative squares.  This
module computes the signature, certifies the kernel count by seeded
sampling, reconstructs eps_0 B by the backward Schur chain, produces Gauss
quadrature for the classical (Stieltjes) case, and builds the finite-rank
nonsymmetric model H with its indefinite G-form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .cfrac import jacobi_coeffs, require_nondegenerate, stabilization_index, termination_index
from .errors import (
    DegenerateSamples,
    NearPole,
    NoConvergence,
    NotRealParams,
    NotStieltjes,
    ScanExhausted,
)
from .hyp import HypParams
from .spectral import b_function, resolvent_first

#: bound on the stabilization index accepted by the sign signature
SCAN_LIMIT = 1000

#: kernel eigenvalues below -KERNEL_TOL count as negative squares
KERNEL_TOL = 1e-9

#: sampling rectangle for the kappa certificate (upper half-plane)
SAMPLE_RE = (-4.0, 4.0)
SAMPLE_IM = (0.3, 3.0)


def _require_real(p: HypParams) -> None:
    if not p.is_real:
        raise NotRealParams(f"(a,b,c) = ({p.a}, {p.b}, {p.c}) is not a real triple")


def stieltjes_check(p: HypParams) -> bool:
    """Classical positivity box: 0 < a < c+1, 0 < b+1 < c+1, c > 0.

    Inside the box every fraction coefficient c_k is negative and B is a
    Stieltjes transform of a probability measure on [-2, 2].
    """
    _require_real(p)
    a, b, c = p.a.real, p.b.real, p.c.real
    return 0.0 < a < c + 1.0 and 0.0 < b + 1.0 < c + 1.0 and c > 0.0


@dataclass(frozen=True)
class SignSignature:
    """Sign data of the off-diagonal squares.

    ``epsilons`` stores a prefix; every later entry is +1 (use :meth:`eps`).
    ``N`` is the stabilization index (b_j^2 > 0 for all j >= N, and
    b_{N-1}^2 < 0 when N > 0), ``kappa`` the count of -1 entries below N,
    ``btilde`` the positive roots sqrt(|b_j^2|) for the stored prefix.
    For a terminating triple the signature refers to the leading block only
    and ``terminated_at`` flags it.
    """

    epsilons: tuple[int, ...]
    N: int
    kappa: int
    btilde: tuple[float, ...]
    terminated_at: Optional[int] = None

    def eps(self, j: int) -> int:
        if j < 0:
            raise ValueError("index must be >= 0")
        return self.epsilons[j] if j < len(self.epsilons) else 1


def _real_bands(p: HypParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal a_j and roots btilde_j = sqrt(|b_j^2|) of a real triple,
    from ``jacobi_coeffs(p, n)``."""
    coeffs = jacobi_coeffs(p, n)
    return np.asarray(coeffs.diag).real, np.sqrt(np.abs(np.asarray(coeffs.offdiag_sq).real))


def sign_signature(p: HypParams) -> SignSignature:
    """Compute the eps-sequence, stabilization index N and kappa.

    N comes in closed form from :func:`cfrac.stabilization_index` (each
    linear factor of b_j^2 changes sign at most once), so no coefficient
    beyond the stored prefix of max(N + 3, 8) entries is built.  The
    backward fill

        eps_j = eps_{j+1} * sign(b_j^2),  eps_j = 1 for j >= N,

    is the unique choice with eps_j eps_{j+1} b_j^2 > 0 everywhere.

    A terminating triple gets the signature of its leading block, flagged
    by ``terminated_at``.

    Raises
    ------
    ScanExhausted
        A negative b_j^2 sits at or beyond SCAN_LIMIT; raised before any
        coefficient is built.
    """
    _require_real(p)
    require_nondegenerate(p)

    n_stab = stabilization_index(p)
    if n_stab > SCAN_LIMIT:
        raise ScanExhausted(f"negative b^2 at index {n_stab - 1} >= scan limit {SCAN_LIMIT}")

    bsq = np.asarray(jacobi_coeffs(p, max(n_stab + 3, 8)).offdiag_sq).real
    prefix = len(bsq) + 1
    eps = [1] * prefix
    for j in range(n_stab - 1, -1, -1):
        eps[j] = eps[j + 1] * (1 if bsq[j] > 0 else -1)
    kappa = sum(1 for j in range(n_stab) if eps[j] == -1)
    btilde = tuple(math.sqrt(abs(x)) for x in bsq)
    return SignSignature(
        epsilons=tuple(eps),
        N=n_stab,
        kappa=kappa,
        btilde=btilde,
        terminated_at=termination_index(p),
    )


def negative_squares(
    samples: Sequence[tuple[complex, complex]], tol: float = KERNEL_TOL
) -> int:
    """Negative eigenvalue count of the sampled Nevanlinna kernel.

    Builds the Hermitian matrix K_ij = (phi_i - conj(phi_j))/(z_i - conj(z_j))
    over the given (z_i, phi(z_i)) pairs and counts eigenvalues below -tol.
    Off the real axis the diagonal needs no limiting formula.
    """
    if not samples:
        raise DegenerateSamples("need at least one sample point")
    z = np.asarray([complex(s[0]) for s in samples])
    phi = np.asarray([complex(s[1]) for s in samples])
    if np.any(np.abs(z.imag) < 1e-12):
        raise DegenerateSamples("sample points must stay off the real axis")
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            if abs(z[i] - z[j]) < 1e-12:
                raise DegenerateSamples(f"coincident sample points at {z[i]}")
    kern = (phi[:, None] - phi[None, :].conj()) / (z[:, None] - z[None, :].conj())
    kern = (kern + kern.conj().T) / 2.0
    eigs = np.linalg.eigvalsh(kern)
    return int(np.sum(eigs < -tol))


class KappaCertificate(NamedTuple):
    kappa_bound_ok: bool
    max_negatives_seen: int
    kappa: int
    counts: tuple[int, ...]


def kappa_certificate(
    p: HypParams,
    trials: int = 200,
    sample_size: int = 6,
    seed: int = 42,
    tol: float = KERNEL_TOL,
) -> KappaCertificate:
    """Randomized check that the kernel of eps_0 B never exceeds kappa.

    Draws ``trials`` seeded sample sets in the rectangle [-4,4] x [0.3,3]
    of the upper half-plane (so every point keeps distance >= 0.3 from the
    band), evaluates eps_0 B through the continued fraction and counts
    negative squares per set.  Membership in the kappa class guarantees
    every count <= kappa; equality for some set is expected for rich
    samples but no finite search can certify it, so the maximum seen is
    reported alongside the bound verdict.
    """
    sig = sign_signature(p)
    eps0 = sig.eps(0)
    counts = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        zs = rng.uniform(*SAMPLE_RE, sample_size) + 1j * rng.uniform(*SAMPLE_IM, sample_size)
        vals = [(z, eps0 * b_function(p, z, method="cf", tol=1e-12)) for z in zs]
        counts.append(negative_squares(vals, tol=tol))
    return KappaCertificate(
        kappa_bound_ok=all(c <= sig.kappa for c in counts),
        max_negatives_seen=max(counts),
        kappa=sig.kappa,
        counts=tuple(counts),
    )


def schur_step(
    psi: Callable[[complex], complex], epsilon: int, gamma: float, delta: float
) -> Callable[[complex], complex]:
    """One backward Schur step: z -> -eps / (z - gamma + eps delta^2 psi(z)).

    Prepending a step with eps = +1 preserves the negative-square count of
    psi; eps = -1 raises it by one.  Chaining the steps with
    (eps_j, a_j, btilde_j) from the sign signature rebuilds eps_0 B from
    the classical tail.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if epsilon not in (-1, 1):
        raise ValueError("epsilon must be +1 or -1")

    def phi(z: complex) -> complex:
        den = z - gamma + epsilon * delta * delta * psi(z)
        if den == 0:
            raise NearPole(f"Schur step denominator vanishes at z = {z}")
        return -epsilon / den

    return phi


def schur_reconstruct(p: HypParams, z: complex, tol: float = 1e-12) -> complex:
    """Rebuild eps_0 B(z) by the N-step backward Schur chain.

    The tail fraction from the stabilization index on has real diagonal and
    positive squares, hence is a classical Nevanlinna function; it is
    evaluated as the m-function of the tail operator (adaptively in the
    truncation order), then pulled down through

        phi_j = -eps_j / (z - a_j + eps_j btilde_j^2 phi_{j+1}).
    """
    z = complex(z)
    sig = sign_signature(p)
    n_stab = sig.N

    def tail_at(n: int):
        diag, btilde = _real_bands(p, n)
        return diag, btilde, resolvent_first(diag[n_stab:], btilde[n_stab:], btilde[n_stab:], z)

    if sig.terminated_at is not None:
        diag, btilde, tail = tail_at(sig.terminated_at + 2)
    else:
        m = max(64, 2 * n_stab + 2)
        tail = None
        while m <= 8192:
            diag, btilde, cur = tail_at(n_stab + m + 1)
            if tail is not None and abs(cur - tail) <= tol * max(1.0, abs(cur)):
                tail = cur
                break
            tail = cur
            m *= 2
        else:
            raise NoConvergence(f"tail m-function not settled at z = {z}", last_value=tail)

    phi = tail
    for j in range(n_stab - 1, -1, -1):
        step = schur_step(lambda _z, v=phi: v, sig.eps(j), diag[j], btilde[j])
        phi = step(z)
    return phi


@dataclass(frozen=True)
class Quadrature:
    """Gauss rule discretizing the spectral measure of the classical case."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


def quadrature(p: HypParams, N: int) -> Quadrature:
    """N-point Gauss quadrature for the measure behind B.

    Golub-Welsch on the real symmetric truncation: the nodes are its
    eigenvalues, the weights the squared first components of the
    normalized eigenvectors, so the first 2N-1 moments of the rule equal
    <J^k e, e> exactly and the weights sum to one (B ~ -1/z).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not stieltjes_check(p):
        raise NotStieltjes(
            f"(a,b,c) = ({p.a.real}, {p.b.real}, {p.c.real}) violates the classical box"
        )
    # the library's only SciPy call, imported here so that nothing else
    # pays for loading SciPy
    from scipy.linalg import eigh_tridiagonal

    nodes, vecs = eigh_tridiagonal(*_real_bands(p, N))
    weights = vecs[0, :] ** 2
    return Quadrature(nodes=nodes, weights=weights, order=N)


def _h_bands(p: HypParams, N: int) -> tuple[np.ndarray, ...]:
    """Diagonal, superdiagonal, subdiagonal of H and the signs eps_k."""
    _require_real(p)
    sig = sign_signature(p)
    if N < sig.N:
        raise ValueError(f"N = {N} is below the stabilization index {sig.N}")
    if sig.terminated_at is not None:
        N = min(N, sig.terminated_at + 1)
    diag, btilde = _real_bands(p, N)
    eps = np.array([float(sig.eps(k)) for k in range(len(diag))])
    return diag, btilde, eps[:-1] * eps[1:] * btilde, eps


def build_H(p: HypParams, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The real nonsymmetric model H and its signature matrix G.

    H_{k,k} = a_k, H_{k,k+1} = btilde_k, H_{k+1,k} = eps_k eps_{k+1} btilde_k
    and G = diag(eps_0, ..., eps_{N-1}).  H is G-symmetric by construction:
    (Hx, y)_G = (x, Hy)_G holds as an algebraic identity, making H a finite
    rank perturbation of a real symmetric matrix.
    """
    diag, upper, lower, eps = _h_bands(p, N)
    h = np.diag(diag)
    k = np.arange(len(diag) - 1)
    h[k, k + 1] = upper
    h[k + 1, k] = lower
    return h, np.diag(eps)


def h_m_function(p: HypParams, z: complex, N: int) -> complex:
    """m-function of H in the G-form: ((H - z)^{-1} e, e)_G = eps_0 x_0.

    Agrees with eps_0 B(z) in the large-N limit (exactly beyond the block
    for terminating triples), which is the numerical face of the statement
    that eps_0 B is a generalized Nevanlinna function modeled by H.
    """
    diag, upper, lower, eps = _h_bands(p, N)
    return complex(eps[0] * resolvent_first(diag, upper, lower, complex(z)))
