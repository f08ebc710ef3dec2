"""Jacobi operators: m-function, B by both routes, stable spectrum,
trace-norm bound, the distance-sum inequality and the zero map."""

import math

import numpy as np
import pytest

from hypjacobi import (
    EigensolverFailure,
    NearSingular,
    OnBand,
    ShiftInvalid,
    b_function,
    band_distance,
    band_to_cut,
    build_truncated,
    cut_to_band,
    discrete_spectrum,
    hyp_zeros,
    jacobi_coeffs,
    lieb_thirring_check,
    m_function,
    offdiag_roots,
    termination_index,
    trace_norm_bound,
    validate_params,
)
from hypjacobi.spectral import (
    GROWTH_LIMIT,
    _check_eigenvalues,
    _twisted_column,
    _tridiagonal_eigvals,
    resolvent_first,
)

P101 = validate_params(1, 0, 1)
PTERM1 = validate_params(-1, -1.5, 1)
PTERM2 = validate_params(-2, 0, 1)
PKAPPA = validate_params(-1.5, 0, 1)

B_101_AT_4 = -(0.5) * (2.0 / math.log(3.0) - 1.0)


class TestGeometry:
    def test_band_distance(self):
        assert band_distance(3.0) == 1.0
        assert band_distance(1 + 1j) == 1.0
        assert band_distance(2.0) == 0.0
        assert abs(band_distance(-3 - 4j) - math.hypot(1, 4)) < 1e-15

    def test_map_involution(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-6, 6, 1000) + 1j * rng.uniform(-6, 6, 1000)
        pts = pts[np.abs(pts - 2.0) > 1e-3]
        for z in pts:
            back = cut_to_band(band_to_cut(z))
            assert abs(back - z) <= 1e-12 * max(1.0, abs(z))

    def test_map_sends_band_to_cut(self):
        for x in np.linspace(-2 + 1e-9, 1.99, 50):
            w = band_to_cut(x)
            assert abs(w.imag) < 1e-12 and w.real >= 1.0 - 1e-12

    def test_termination_index(self):
        assert termination_index(PTERM1) == 0
        assert termination_index(PTERM2) == 1
        assert termination_index(P101) is None


class TestBuildTruncated:
    def test_terminating_one_by_one(self):
        tj = build_truncated(PTERM1, 10)
        assert tj.order == 1
        assert tj.terminated
        assert abs(tj.diag[0] - 3.0) < 1e-15

    def test_terminating_two_by_two(self):
        tj = build_truncated(PTERM2, 10)
        assert tj.order == 2
        m = tj.matrix()
        assert abs(m[0, 1] - m[1, 0]) == 0.0
        assert abs(m[0, 1] ** 2 + 16.0 / 9.0) < 1e-14

    def test_plain_order(self):
        tj = build_truncated(P101, 3)
        assert tj.order == 3 and not tj.terminated
        assert abs(tj.offdiag[0] - math.sqrt(8.0 / 9.0)) < 1e-15


class TestMFunction:
    def test_exact_pole_case(self):
        assert abs(m_function(PTERM1, 5.0, 10) + 0.5) < 1e-15

    def test_leading_order_at_infinity(self):
        z = 1e7 + 1e6j
        assert abs(z * m_function(P101, z, 64) + 1.0) < 1e-5

    def test_log_value(self):
        assert abs(m_function(P101, 4.0, 256) - B_101_AT_4) < 1e-12

    def test_near_singular(self):
        with pytest.raises(NearSingular):
            m_function(PTERM1, 3.0 + 1e-13, 10)


def _seeded_tridiagonal(rng, n, symmetric):
    """A J-like complex tridiagonal: small diagonal, off-diagonals near 1."""
    diag = 0.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    upper = 1.0 + 0.3 * (rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1))
    lower = upper if symmetric else 1.0 + 0.3 * (rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1))
    return diag, upper, lower


def _dense(diag, upper, lower):
    return np.diag(diag) + np.diag(upper, 1) + np.diag(lower, -1)


class TestResolventSolvers:
    """The J-fraction recurrence of ``resolvent_first`` and the twisted
    column of the eigenpair check, against dense LAPACK solves and
    inverses."""

    @pytest.mark.parametrize("n", [1, 2, 64, 512])
    @pytest.mark.parametrize("symmetric", [True, False], ids=["upper==lower", "upper!=lower"])
    def test_recurrence_matches_dense_solve(self, n, symmetric):
        rng = np.random.default_rng(n + 1000 * symmetric)
        for z in (3.5 + 1j, -0.4 + 3j, 1j * 5):
            diag, upper, lower = _seeded_tridiagonal(rng, n, symmetric)
            rhs = np.zeros(n, dtype=complex)
            rhs[0] = 1.0
            ref = np.linalg.solve(_dense(diag, upper, lower) - z * np.eye(n), rhs)
            got = resolvent_first(diag, upper, lower, z)
            assert abs(got - ref[0]) <= 1e-13 * abs(ref[0]), (n, z)
            # the eigenpair check's column: column k of the resolvent, up to
            # scale, where k maximizes |((T - z)^{-1})_kk|
            inv = np.linalg.inv(_dense(diag, upper, lower) - z * np.eye(n))
            k = int(np.argmax(np.abs(np.diag(inv))))
            ref = inv[:, k] / inv[k, k]
            col = _twisted_column(diag.tolist(), upper.tolist(), lower.tolist(), z)
            assert np.linalg.norm(col - ref) <= 1e-13 * np.linalg.norm(ref), (n, z)

    def test_growth_beyond_limit(self):
        # diag 0, upper 0, lower 1, z = eps: x_0 = -1/eps and x_k = x_0 / eps^k,
        # so the first entry stays small while the last one passes the limit
        eps = 1e-3
        assert eps ** -6 > GROWTH_LIMIT > eps ** -3
        with pytest.raises(NearSingular):
            resolvent_first([0.0] * 6, [0.0] * 5, [1.0] * 5, eps)
        assert abs(resolvent_first([0.0] * 3, [0.0] * 2, [1.0] * 2, eps) + 1e3) < 1e-9

    def test_nan_entry(self):
        diag = [0.5, np.nan, 0.2]
        with pytest.raises(NearSingular):
            resolvent_first(diag, [1.0, 1.0], [1.0, 1.0], 3j)


class TestBFunction:
    def test_closed_form_both_methods(self):
        for method in ("cf", "resolvent"):
            val = b_function(P101, 4.0, method=method, tol=1e-13)
            assert abs(val - B_101_AT_4) < 1e-12, method

    def test_rational_case_inside_band(self):
        # terminating triple: B is rational, the band guard is waived
        val = b_function(PTERM2, 1.0, method="cf")
        assert abs(val + 1.0 / 7.0) < 1e-13
        val = b_function(PTERM2, 1.0, method="resolvent")
        assert abs(val + 1.0 / 7.0) < 1e-13

    def test_on_band_rejected(self):
        with pytest.raises(OnBand):
            b_function(P101, 1.0)
        with pytest.raises(OnBand):
            b_function(P101, 2.0 + 1e-12j)

    @pytest.mark.parametrize("method", ["cf", "resolvent"])
    def test_one_guard_for_both_methods(self, method):
        # band distance 2e-9 passes the z guard, but w = -4/(z-2) lies
        # 5e-10 from the cut: both methods refuse the same z as OnBand
        z = -2.0 - 2e-9
        with pytest.raises(OnBand, match=r"z = \(-2\.000000002"):
            b_function(P101, z, method=method)

    def test_near_pole_magnitude(self):
        val = b_function(PTERM1, 3.0 + 1e-8, method="cf")
        assert abs(val) >= 1e7

    def test_near_pole_nonterminating(self):
        from hypjacobi import NearPole

        # park the evaluation point on top of a genuine pole of a
        # non-terminating B: either the fraction refuses or it blows up
        pole = discrete_spectrum(PKAPPA, 128).eigenvalues[0]
        try:
            val = b_function(PKAPPA, pole, method="cf", tol=1e-13)
        except NearPole:
            return
        assert abs(val) >= 1e6

    @pytest.mark.parametrize(
        "abc", [(1, 0, 1), (1, 1, 2), (-1.5, 0.25, 2.5), (2 + 1j, 0.5, 3)]
    )
    def test_method_agreement_grid(self, abc):
        p = validate_params(*abc)
        rng = np.random.default_rng(5)
        done = 0
        while done < 50:
            z = complex(rng.uniform(-5, 5), rng.uniform(-4, 4))
            if band_distance(z) < 0.5:
                continue
            v1 = b_function(p, z, method="cf", tol=1e-12)
            v2 = b_function(p, z, method="resolvent", tol=1e-12)
            assert abs(v1 - v2) <= 1e-9 * max(1.0, abs(v1))
            done += 1


class TestDiscreteSpectrum:
    def test_simple_pole(self):
        res = discrete_spectrum(PTERM1, 16)
        assert len(res.eigenvalues) == 1
        assert abs(res.eigenvalues[0] - 3.0) < 1e-12
        assert abs(res.distance_sum - 1.0) < 1e-12

    def test_imaginary_pair(self):
        res = discrete_spectrum(PTERM2, 16)
        assert len(res.eigenvalues) == 2
        lam = 2.0 / math.sqrt(3.0)
        got = sorted(res.eigenvalues, key=lambda v: v.imag)
        assert abs(got[0] + 1j * lam) < 1e-10
        assert abs(got[1] - 1j * lam) < 1e-10

    def test_stieltjes_empty(self):
        res = discrete_spectrum(P101, 128)
        assert res.eigenvalues == ()
        assert res.distance_sum == 0.0

    def test_conjugate_pairing_exact(self):
        res = discrete_spectrum(PKAPPA, 128)
        nonreal = [v for v in res.eigenvalues if v.imag != 0]
        assert len(nonreal) == 2
        assert nonreal[0] == np.conj(nonreal[1])

    def test_truncation_stability_filter(self):
        res = discrete_spectrum(PKAPPA, 128, tol=1e-10)
        for lam in res.eigenvalues:
            assert band_distance(lam) > 1e-6
        for lam in res.eigenvalues:
            assert all(abs(lam - d) > 1e-12 for d in res.discarded)

    def test_pole_eigenvalue_duality(self):
        res = discrete_spectrum(PTERM2, 16)
        for lam in res.eigenvalues:
            away = lam + 1e-6 * lam / abs(lam)
            assert abs(1.0 / b_function(PTERM2, away, method="cf")) <= 1e-3
            probe = lam + 0.1 * lam / abs(lam)
            assert abs(b_function(PTERM2, probe, method="cf")) < 1e3

    def test_eigenvalues_settle_with_n(self):
        r1 = discrete_spectrum(PKAPPA, 64)
        r2 = discrete_spectrum(PKAPPA, 128)
        assert len(r1.eigenvalues) == len(r2.eigenvalues)
        for u, v in zip(
            sorted(r1.eigenvalues, key=lambda x: (x.real, x.imag)),
            sorted(r2.eigenvalues, key=lambda x: (x.real, x.imag)),
        ):
            assert abs(u - v) < 1e-9


class TestEigensolveLayer:
    @pytest.mark.parametrize("abc", [(-3.7, 0.2, 1.1), (1 + 2j, 3, -0.5)])
    def test_matches_complex_symmetric_reference(self, abc):
        # eigenvalues-only solve of the scaled real/complex form against the
        # dense complex symmetric J with eigenvectors
        p = validate_params(*abc)
        res = discrete_spectrum(p, 64)
        ref_n = np.linalg.eig(build_truncated(p, 64).matrix())[0]
        ref_2n = np.linalg.eig(build_truncated(p, 128).matrix())[0]
        assert res.eigenvalues and not res.merged
        for lam in res.eigenvalues:
            assert np.min(np.abs(ref_2n - lam)) <= 1e-12
        for lam in res.discarded:
            assert np.min(np.abs(ref_n - lam)) <= 1e-12

    def test_real_triple_solved_in_real_arithmetic(self):
        bands, _ = _tridiagonal_eigvals(jacobi_coeffs(PKAPPA, 64), 64)
        assert bands.dtype == np.float64
        bands, _ = _tridiagonal_eigvals(jacobi_coeffs(validate_params(1 + 2j, 3, -0.5), 64), 64)
        assert bands.dtype == np.complex128

    @pytest.mark.parametrize(
        "abc", [(-1.5, 0, 1), (-3.7, 0.2, 1.1), (-6.5, -0.4, 0.7), (-12.5, -7.5, -3.5)]
    )
    def test_real_triple_gives_exact_conjugate_pairs(self, abc):
        # discrete_spectrum relies on this and does no pairing of its own
        coeffs = jacobi_coeffs(validate_params(*abc), 128)
        for n in (64, 128):
            _, vals = _tridiagonal_eigvals(coeffs, n)
            nonreal = vals[vals.imag != 0]
            assert nonreal.size
            key = lambda z: (z.real, z.imag)
            assert sorted(nonreal.tolist(), key=key) == sorted(nonreal.conj().tolist(), key=key)

    def test_residual_check_exact_block(self):
        # 1x1 terminating block: the eigenvalue is exact, the nudged shift
        # keeps the inverse iteration regular
        bands, vals = _tridiagonal_eigvals(jacobi_coeffs(PTERM1, 16), 16)
        assert bands.shape == (3, 1) and vals[0] == 3.0
        _check_eigenvalues(bands, vals)

    @pytest.mark.parametrize("shift", [1e-6, 1e-6j], ids=["real", "imag"])
    @pytest.mark.parametrize(
        "abc", [(-3.7, 0.2, 1.1), (-2.5 + 0.7j, 0.3, 1.4), (-5.3, -2.6, 0.4)],
        ids=["kappa", "complex", "nearband"],
    )
    def test_residual_check_rejects_moved_eigenvalue(self, abc, shift):
        p = validate_params(*abc)
        lam = discrete_spectrum(p, 64).eigenvalues[0]
        bands, _ = _tridiagonal_eigvals(jacobi_coeffs(p, 128), 128)
        _check_eigenvalues(bands, [lam])
        with pytest.raises(EigensolverFailure, match="residual"):
            _check_eigenvalues(bands, [lam + shift])

    def test_residual_check_localized_eigenvector(self):
        # the eigenvector of the value near 10.1 decays from the last entry
        # to about 1e-29 at the first: a column started at e_0 misses it
        n = 30
        bands = np.zeros((3, n))
        bands[0, 1:] = bands[2, :-1] = 1.0
        bands[1, -1] = 10.0
        vals = np.linalg.eigvals(_dense(bands[1], bands[0, 1:], bands[2, :-1]))
        _check_eigenvalues(bands, vals)
        top = vals[np.argmax(vals.real)]
        with pytest.raises(EigensolverFailure, match="residual"):
            _check_eigenvalues(bands, [top + 1e-6])

    @pytest.mark.parametrize(
        "abc", [(-184, -3.2, 3.3), (-2.1, -192, 3.6), (-183, 2.4 - 0.9j, -3.6 - 1j), (-60, -3.2, 3.3)]
    )
    def test_residual_check_long_terminating_block(self, abc):
        # the couplings of a terminating block shrink toward its end, where
        # some eigenvectors localize
        res = discrete_spectrum(validate_params(*abc), 256)
        assert 60 <= res.N_used <= 192 and res.eigenvalues

    def test_residual_check_zero_pivot(self):
        # off-diagonals 0.5 keep ||T||_inf <= 1, so the nudged shift is
        # exactly 8 eps and the last pivot mu - d_1 vanishes
        nudge = 8.0 * np.finfo(float).eps
        bands = np.array([[0.0, 0.5], [0.0, nudge], [0.5, 0.0]])
        with pytest.raises(EigensolverFailure, match="singular"):
            _check_eigenvalues(bands, [0.0])


class TestTraceNormBound:
    def test_terminating_exact(self):
        # diagonal |3| plus the broken-bond pair 2|b_0 - 1| = 2
        for k in (1, 5, 100):
            assert abs(trace_norm_bound(PTERM1, k) - 5.0) < 1e-14

    def test_dominates_actual_nuclear_norm_terminating(self):
        # decoupled completion: exact block, broken bond, then a free tail
        n = 12
        jc = offdiag_roots(jacobi_coeffs(PTERM2, n))
        block = len(jc.diag)
        mat = np.zeros((n, n), dtype=complex)
        for i, v in enumerate(jc.diag):
            mat[i, i] = v
        for i, v in enumerate(jc.offdiag):
            mat[i, i + 1] = mat[i + 1, i] = v
        for i in range(block, n - 1):
            mat[i, i + 1] = mat[i + 1, i] = 1.0
        free = np.zeros((n, n))
        for i in range(n - 1):
            free[i, i + 1] = free[i + 1, i] = 1.0
        nuclear = np.linalg.norm(mat - free, "nuc")
        assert nuclear <= trace_norm_bound(PTERM2, 8) + 1e-12

    @pytest.mark.parametrize("abc", [(1, 0, 1), (1, 1, 2), (1.2 - 0.5j, 0.7, 1.8)])
    def test_dominates_actual_nuclear_norm(self, abc):
        p = validate_params(*abc)
        n = 300
        jc = offdiag_roots(jacobi_coeffs(p, n))
        mat = np.diag(np.asarray(jc.diag, dtype=complex))
        mat += np.diag(np.asarray(jc.offdiag, dtype=complex), 1)
        mat += np.diag(np.asarray(jc.offdiag, dtype=complex), -1)
        free = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
        nuclear = np.linalg.norm(mat - free, "nuc")
        assert nuclear <= trace_norm_bound(p, 64) + 1e-10

    def test_cauchy_in_cutoff(self):
        b1 = trace_norm_bound(P101, 1000)
        b2 = trace_norm_bound(P101, 2000)
        assert np.isfinite(b1) and np.isfinite(b2)
        assert abs(b1 - b2) < 1e-6

    def test_monotone_tail(self):
        p = validate_params(1, 1, 2)
        vals = [trace_norm_bound(p, k) for k in (50, 200, 800)]
        assert all(np.isfinite(v) for v in vals)
        assert vals[0] >= vals[1] >= vals[2] - 1e-12


class TestLiebThirring:
    def test_examples(self):
        lt = lieb_thirring_check(PTERM1, 16)
        assert abs(lt.lhs - 1.0) < 1e-12 and lt.holds
        lt = lieb_thirring_check(P101, 64)
        assert lt.lhs == 0.0 and lt.holds
        lt = lieb_thirring_check(PTERM2, 16)
        assert abs(lt.lhs - 4.0 / math.sqrt(3.0)) < 1e-10 and lt.holds

    def test_randomized_suite(self):
        rng = np.random.default_rng(20260808)
        done = 0
        while done < 30:
            a = complex(rng.uniform(-3, 3), rng.uniform(-1.5, 1.5) * rng.integers(0, 2))
            b = complex(rng.uniform(-3, 3), rng.uniform(-1.5, 1.5) * rng.integers(0, 2))
            c = complex(rng.uniform(-3, 4), rng.uniform(-1.5, 1.5) * rng.integers(0, 2))
            k = round(c.real)
            if k <= 0 and abs(c - k) < 1e-3:
                continue
            if abs(a) < 0.05 or abs(c - b) < 0.05:
                continue
            lt = lieb_thirring_check(validate_params(a, b, c), N=64, tol=1e-8)
            assert lt.lhs <= lt.rhs + 1e-9
            done += 1


class TestHypZeros:
    def test_quadratic_zeros(self):
        # F(-2,1,2;w) = 1 - w + w^2/3 has roots (3 +- i sqrt(3))/2
        zeros = sorted(hyp_zeros(PTERM2, 16), key=lambda v: v.imag)
        assert abs(zeros[0] - (1.5 - 1j * math.sqrt(3) / 2)) < 1e-10
        assert abs(zeros[1] - (1.5 + 1j * math.sqrt(3) / 2)) < 1e-10

    def test_linear_zero(self):
        # F(-1,-1/2,2;w) = 1 + w/4 vanishes at -4
        zeros = hyp_zeros(PTERM1, 16)
        assert len(zeros) == 1
        assert abs(zeros[0] + 4.0) < 1e-10

    def test_no_zeros_for_log(self):
        assert hyp_zeros(P101, 64) == []

    def test_numerator_variant(self):
        # zeros of F(-1,-1/2,2;.) itself via the shifted pipeline
        p = validate_params(-1, -0.5, 2)
        zeros = hyp_zeros(p, 16, which="numerator")
        assert len(zeros) == 1 and abs(zeros[0] + 4.0) < 1e-10

    def test_shift_invalid(self):
        with pytest.raises(ShiftInvalid):
            hyp_zeros(validate_params(1, 0.5, 1), 16, which="numerator")

    def test_zero_annihilates_series(self):
        # mapped eigenvalues must actually kill the denominator series
        from hypjacobi import hyp2f1_series

        zeros = hyp_zeros(PTERM2, 16)
        q = PTERM2.shifted(db=1, dc=1)
        for w in zeros:
            assert abs(hyp2f1_series(q, w).value) < 1e-10
