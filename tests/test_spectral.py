"""Jacobi operators: m-function, B by both routes, stable spectrum,
trace-norm bound, the distance-sum inequality and the zero map."""

import cmath
import json
import math
import random
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from repr_probe import hidden_real_grid
from test_extreme_inputs import extreme_triples
from test_invariants import seeded_grid

from hypjacobi import (
    EigensolverFailure,
    HorizonTooDeep,
    HypJacobiError,
    NearSingular,
    NoConvergence,
    NonFiniteParameter,
    OnBand,
    ShiftInvalid,
    b_function,
    band_distance,
    band_to_cut,
    build_truncated,
    c_coeff,
    cut_to_band,
    discrete_spectrum,
    hyp_zeros,
    jacobi_coeffs,
    klein_count,
    m_function,
    termination_index,
    trace_norm_bound,
    validate_params,
)
from hypjacobi import spectral
from hypjacobi.spectral import (
    BAND_GUARD,
    GROWTH_LIMIT,
    SpectralResult,
    _check_eigenvalues,
    _ladder,
    _newton_steps,
    _twisted_columns,
    _tridiagonal_eigvals,
    resolvent_first,
)

P101 = validate_params(1, 0, 1)
PTERM1 = validate_params(-1, -1.5, 1)
PTERM2 = validate_params(-2, 0, 1)
PKAPPA = validate_params(-1.5, 0, 1)

B_101_AT_4 = -(0.5) * (2.0 / math.log(3.0) - 1.0)

#: real triples with negative b_n^2 (below their stabilization index)
NEGATIVE_SQUARES = [(-0.21, -2.99, -4.48), (2.83, -1.61, -1.07), (-5.01, 3.64, -2.63)]


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
        assert len(tj.diag) == 1
        assert tj.terminated_at is not None
        assert abs(tj.diag[0] - 3.0) < 1e-15

    def test_terminating_two_by_two(self):
        tj = build_truncated(PTERM2, 10)
        assert len(tj.diag) == 2
        m = tj.matrix()
        assert abs(m[0, 1] - m[1, 0]) == 0.0
        assert abs(m[0, 1] ** 2 + 16.0 / 9.0) < 1e-14

    def test_plain_order(self):
        tj = build_truncated(P101, 3)
        assert len(tj.diag) == 3 and tj.terminated_at is None
        assert abs(tj.offdiag[0] - math.sqrt(8.0 / 9.0)) < 1e-15

    def test_matrix_keeps_imaginary_roots(self):
        # a real triple with negative squares: their roots i |b_n| sit next
        # to a float diagonal, bit for bit the sum of np.diag terms
        tj = jacobi_coeffs(PKAPPA, 8)
        k = np.flatnonzero(tj.offdiag_sq < 0)
        assert k.size and tj.diag.dtype == np.float64
        m = tj.matrix()
        ref = np.diag(tj.diag) + np.diag(tj.offdiag, 1) + np.diag(tj.offdiag, -1)
        assert m.dtype == ref.dtype == np.complex128 and m.tobytes() == ref.tobytes()
        assert (m[k, k + 1].imag > 0).all() and (m[k + 1, k].imag > 0).all()


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

    @pytest.mark.parametrize("z", [math.nan, complex(1, math.nan)])
    def test_nan_z_refused(self, z):
        # was NearSingular ("resolvent solve blew up"); z = inf keeps its value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteParameter, match="not finite"):
                m_function(P101, z, 100)
            with pytest.raises(NonFiniteParameter, match="not finite"):
                resolvent_first([0.5, 0.2], [1.0], [1.0], z)
            assert m_function(P101, math.inf, 100) == -0j


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
            col = _twisted_columns(diag.tolist(), upper.tolist(), lower.tolist())(z)
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
    @pytest.mark.parametrize(
        "abc",
        [(-1, -1.6770215441802886e263, 5.4577398424171344e107), (4.6274424674579763e285, -39, 2.41692139056693e41)],
    )
    def test_terminating_overflow_refused_by_both_routes(self, abc):
        # a terminating C-fraction whose coefficients overflow: the cf route
        # returned NaN with a RuntimeWarning, the resolvent route refused it
        p = validate_params(*abc)
        assert p.zeros
        for method in ("cf", "resolvent"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteParameter, match="not finite"):
                    b_function(p, 3.1 + 0.7j, method=method)

    @pytest.mark.parametrize("abc", [(5e-324, -1.92, 1), (1e-300, -32.5, 3.717362548317856e16)])
    def test_overflowing_scale_refused(self, abc):
        # c_1 is tiny but not 0, and B's scale -1/(4 d_1) overflows: the cf
        # route returned nan+inf*i, the resolvent route a value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteParameter, match="scale"):
                validate_params(*abc)

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
        # park the evaluation point on top of a genuine pole of a
        # non-terminating B: either the fraction refuses or it blows up
        pole = discrete_spectrum(PKAPPA, 128).eigenvalues[0]
        try:
            val = b_function(PKAPPA, pole, method="cf", tol=1e-13)
        except NoConvergence:
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

    def test_resolvent_no_convergence_reports_state(self):
        # |a| = 1e6 needs far more than order 4096 to settle
        with pytest.raises(NoConvergence) as err:
            b_function(validate_params(1e6, 0.5, 1.5), 4.0, method="resolvent")
        assert err.value.last_value is not None
        assert err.value.last_correction is not None

    def test_cf_no_convergence_reports_state(self):
        # |a| = 1e150: the fraction has not begun to converge by its depth
        # cap, though z = 4 is no pole; the state is mapped from the ratio
        # to B = s (r - 1), s = -1/(4 d_1)
        p = validate_params(1e150 + 1j, 0, 1)
        with pytest.raises(NoConvergence, match=r"^B at z = \(4\+0j\): continued fraction") as err:
            b_function(p, 4.0, method="cf")
        ratio = err.value.__cause__
        assert isinstance(ratio, NoConvergence)
        s = -1.0 / (4.0 * -c_coeff(p, 1))
        assert err.value.last_value == s * (ratio.last_value - 1.0)
        assert err.value.last_correction == abs(s) * ratio.last_correction
        assert 0.0 < err.value.last_correction < math.inf


    @pytest.mark.parametrize("method", ["cf", "resolvent"])
    @pytest.mark.parametrize(
        "abc, z",
        [((1.3, 0.4, 2.1), 3.0), ((1.3, 0.4, 2.1), -0.5 + 2j), ((2 + 1j, 0.5, 3), 3.0 - 1j),
         ((-2, 0, 1), 1.0), ((-2, 0, 1), 2.0), ((-2, 0, 1), -3.0)],
    )
    def test_both_routes_return_python_complex(self, method, abc, z):
        # the cf route computes in numpy scalars; its value keeps its bits
        # and its signed zeros as a Python complex
        val = b_function(validate_params(*abc), z, method=method)
        assert type(val) is complex

    def test_cf_value_is_the_numpy_product(self):
        p = validate_params(1.3, 0.4, 2.1)
        r = spectral.cf_ratio_eval(p, band_to_cut(-3.0))
        scale = -1.0 / (4.0 * -c_coeff(p, 1))
        assert repr(b_function(p, -3.0, method="cf")) == repr(complex(scale * (r.value - 1.0)))

    @pytest.mark.parametrize("z", [2.0, 2 + 1e-308j, 2 - 5e-324j])
    def test_cf_next_to_two_reads_the_block(self, z):
        # w = -4/(z-2) is infinite: the cf route returned nan+nanj with a
        # RuntimeWarning next to z = 2; like at z = 2 it reads the exact block
        p = validate_params(-2, 0.4, 2.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert repr(b_function(p, z, "cf")) == repr(b_function(p, z, "resolvent"))

    @pytest.mark.parametrize("abc", [(1.3, 0.4, 2.1), (2 + 1j, 0.5, 3), (-1.2 + 0.4j, 0.6, 1.1 + 0.3j)])
    def test_resolvent_orders_match_sliced_build(self, monkeypatch, abc):
        # each build is converted to lists once, as the orders reach it; the
        # value at every order is resolvent_first on the build sliced there
        p = validate_params(*abc)
        z = cmath.rect(0.985, 1.0) + 1.0 / cmath.rect(0.985, 1.0)  # slow: orders beyond 512
        seen = []
        settle = spectral.settle

        def spy(build, evaluate, *args):
            return settle(
                build, lambda made, n: seen.append((n, evaluate(made, n))) or seen[-1][1], *args
            )

        monkeypatch.setattr(spectral, "settle", spy)
        val = b_function(p, z, method="resolvent")
        assert [n for n, _ in seen] == [64, 128, 256, 512, 1024, 2048, 4096][: len(seen)]
        assert len(seen) >= 5 and val == seen[-1][1]
        full = jacobi_coeffs(p, spectral.RESOLVENT_NMAX)
        for n, got in seen:
            off = full.offdiag[: n - 1]
            assert repr(got) == repr(resolvent_first(full.diag[:n], off, off, z)), n

    @pytest.mark.parametrize("method", ["cf", "resolvent"])
    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_nan_or_inf_tol_refused(self, method, tol):
        # unchecked, tol = inf takes the first cf value, 2.5e-7 off at z = 3
        with pytest.raises(ValueError, match="tol"):
            b_function(validate_params(1.3, 0.4, 2.1), 3.0, method=method, tol=tol)


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

    @pytest.mark.parametrize("N", [-3, 0])
    @pytest.mark.parametrize("p", [PTERM2, validate_params(-40, 0.5, 1.5), PKAPPA],
                             ids=["terminating", "terminating-long", "non-terminating"])
    def test_order_below_one_names_n(self, p, N):
        # every triple needs N >= 1, named as N, before any bound is taken
        with pytest.raises(ValueError, match=r"^truncation order N must be >= 1, got -?\d+$"):
            discrete_spectrum(p, N)
        with pytest.raises(ValueError, match="truncation order N"):
            hyp_zeros(p, N)

    @pytest.mark.parametrize("tol", [math.nan, -1e-10, 0.0, math.inf])
    @pytest.mark.parametrize("abc", [(-5.1, -2.6, 0.5), (-2.5 + 0.7j, 0.3, 1.4)],
                             ids=["real", "complex"])
    def test_bad_tolerance_refused(self, abc, tol):
        # these spectra have 6 and 2 values, of which a tol outside (0, inf)
        # would report 0 or 1 with no error
        p = validate_params(*abc)
        with pytest.raises(ValueError, match=r"^tolerance tol must be positive and finite"):
            discrete_spectrum(p, 64, tol)
        with pytest.raises(ValueError, match="tolerance tol"):
            hyp_zeros(p, 64, tol)

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
        tri, _ = _tridiagonal_eigvals(jacobi_coeffs(PKAPPA, 64), 64)
        assert all(x.dtype == np.float64 for x in tri)
        tri, _ = _tridiagonal_eigvals(jacobi_coeffs(validate_params(1 + 2j, 3, -0.5), 64), 64)
        assert all(x.dtype == np.complex128 for x in tri)

    def test_all_real_complex_triple_solved_in_real_arithmetic(self):
        # a = alpha + i beta, b = c - alpha + i beta with real c: a complex
        # triple whose entries are all real, read in real arithmetic
        p = validate_params(0.5 + 1j, 1.5 + 1j, 2)
        assert not p.is_real
        assert all(x.dtype == np.float64 for x in spectral._tridiagonal(jacobi_coeffs(p, 64), 64))
        for N in (64, 256):
            res = discrete_spectrum(p, N)
            assert res.eigenvalues, N
            for values in (res.eigenvalues, res.discarded):
                for v in values:
                    assert v.imag == 0 or v.conjugate() in values, (N, v)

    @pytest.mark.parametrize(
        "abc", [(-1.5, 0, 1), (-3.7, 0.2, 1.1), (-6.5, -0.4, 0.7), (-12.5, -7.5, -3.5)]
    )
    def test_real_triple_gives_exact_conjugate_pairs(self, abc):
        # discrete_spectrum relies on this: it refines one member of each
        # candidate pair and mirrors it, so its values pair exactly too
        p = validate_params(*abc)
        coeffs = jacobi_coeffs(p, 128)
        key = lambda z: (z.real, z.imag)
        for n in (64, 128):
            _, vals = _tridiagonal_eigvals(coeffs, n)
            for values in (vals, np.array(discrete_spectrum(p, n).eigenvalues)):
                nonreal = values[values.imag != 0]
                assert nonreal.size
                assert sorted(nonreal.tolist(), key=key) == sorted(nonreal.conj().tolist(), key=key)

    def test_residual_check_exact_block(self):
        # 1x1 terminating block: the eigenvalue is exact, the nudged shift
        # keeps the inverse iteration regular
        tri, vals = _tridiagonal_eigvals(jacobi_coeffs(PTERM1, 16), 16)
        assert [len(x) for x in tri] == [1, 0, 0] and vals[0] == 3.0
        _check_eigenvalues(tri, vals)

    @pytest.mark.parametrize("shift", [1e-6, 1e-6j], ids=["real", "imag"])
    @pytest.mark.parametrize(
        "abc", [(-3.7, 0.2, 1.1), (-2.5 + 0.7j, 0.3, 1.4), (-5.3, -2.6, 0.4)],
        ids=["kappa", "complex", "nearband"],
    )
    def test_residual_check_rejects_moved_eigenvalue(self, abc, shift):
        p = validate_params(*abc)
        lam = discrete_spectrum(p, 64).eigenvalues[0]
        tri, _ = _tridiagonal_eigvals(jacobi_coeffs(p, 128), 128)
        _check_eigenvalues(tri, [lam])
        with pytest.raises(EigensolverFailure, match="residual"):
            _check_eigenvalues(tri, [lam + shift])

    def test_residual_check_localized_eigenvector(self):
        # the eigenvector of the value near 10.1 decays from the last entry
        # to about 1e-29 at the first: a column started at e_0 misses it
        n = 30
        tri = np.zeros(n), np.ones(n - 1), np.ones(n - 1)
        tri[0][-1] = 10.0
        vals = np.linalg.eigvals(_dense(*tri))
        _check_eigenvalues(tri, vals)
        top = vals[np.argmax(vals.real)]
        with pytest.raises(EigensolverFailure, match="residual"):
            _check_eigenvalues(tri, [top + 1e-6])

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
        tri = np.array([0.0, nudge]), np.array([0.5]), np.array([0.5])
        with pytest.raises(EigensolverFailure, match="singular"):
            _check_eigenvalues(tri, [0.0])

    def test_residual_of_conjugate_is_same_float(self):
        # the check skips the mirror of a value of a real T: its column is
        # the exact conjugate (up to the sign of a zero, as at the twist's
        # entry 1), so its residual is the same float
        pairs = 0
        for abc in seeded_grid(21, 30, False):
            tri, vals = _tridiagonal_eigvals(jacobi_coeffs(validate_params(*abc), 64), 64)
            assert not np.iscomplexobj(tri[0])
            column = spectral._twisted_columns(*tri)
            for lam in (complex(v) for v in vals if v.imag > 0):
                mu = lam + 1e-13
                x, y = column(mu), column(mu.conjugate())
                assert (x.conj() == y).all(), (abc, lam)
                res = spectral._residual(tri, column, lam, mu)
                assert spectral._residual(tri, column, lam.conjugate(), mu.conjugate()) == res, (abc, lam)
                pairs += 1
        assert pairs >= 10

    def test_residual_check_once_per_conjugate_pair(self, monkeypatch):
        # real T: the exact mirror below the axis is skipped, a real value is
        # checked in float arithmetic; complex T: every value is checked
        tri, vals = _tridiagonal_eigvals(jacobi_coeffs(validate_params(-3.2, 0.8, 0.7), 64), 64)
        lam = complex(next(v for v in vals if v.imag > 0))
        real = float(next(v.real for v in vals if v.imag == 0))
        seen = []
        residual = spectral._residual

        def spy(tri, column, at, mu):
            seen.append(at)
            return residual(tri, column, at, mu)

        monkeypatch.setattr(spectral, "_residual", spy)
        _check_eigenvalues(tri, [lam, lam.conjugate(), complex(real)])
        assert seen == [lam, real] and type(seen[1]) is float
        seen.clear()
        ctri = tuple(x.astype(complex) for x in tri)
        _check_eigenvalues(ctri, [lam, lam.conjugate(), complex(real)])
        assert seen == [lam, lam.conjugate(), real] and type(seen[2]) is complex

    @pytest.mark.parametrize("below", [False, True], ids=["partner_below", "partner_above"])
    def test_residual_check_moved_partner(self, below):
        # a partner that is not the exact conjugate is checked on its own
        p = validate_params(-3.2, 0.8, 0.7)
        tri, vals = _tridiagonal_eigvals(jacobi_coeffs(p, 128), 128)
        lam = next(v for v in discrete_spectrum(p, 64).eigenvalues if v.imag > 0)
        lam = lam.conjugate() if below else lam
        _check_eigenvalues(tri, [lam, lam.conjugate()])
        with pytest.raises(EigensolverFailure, match="residual"):
            _check_eigenvalues(tri, [lam, lam.conjugate() + 1e-6])


def _dense_confirm(vals2, candidates, tol):
    """Reference: the order-2N confirmation as a dense eigensolve.  Every
    eigenvalue of the order-2N block is computed, and each candidate is
    matched, in order, to the nearest one not yet claimed by an earlier
    candidate."""
    claimed = [False] * len(vals2)
    retained, discarded = [], []
    for lam in candidates:
        dists = np.abs(vals2 - lam)
        dists[claimed] = np.inf
        j = int(np.argmin(dists))
        if dists[j] <= tol * max(1.0, abs(lam)) and band_distance(vals2[j]) > BAND_GUARD:
            claimed[j] = True
            retained.append(complex(vals2[j]))
        else:
            discarded.append(lam)
    return retained, discarded


def _polished_eigenvalue(p, lam):
    """The eigenvalue of J next to lam, from the zero of F(a, b+1, c+1; .)
    that mpmath.findroot reaches from w = -4/(lam-2) at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        a, b, c = mp.mpc(p.a), mp.mpc(p.b), mp.mpc(p.c)
        w = mp.findroot(lambda x: mp.hyp2f1(a, b + 1, c + 1, x), mp.mpc(band_to_cut(lam)))
    return cut_to_band(complex(w))


def _one_rung(tri, candidates, tol):
    """The ladder with one rung, on T = (diag, upper, lower): the order-2N
    confirmation.  Returns (retained, discarded)."""
    return _ladder(lambda n: tri, [len(tri[0])], candidates, tol)[:2]


def _reference_spectrum(monkeypatch, p, N, tol, vals2=None):
    """discrete_spectrum as it was before the ladder: the order-N
    candidates confirmed at order 2N by ``_dense_confirm`` (against
    ``vals2``, the eigenvalues of the order-2N block), with no count,
    neither Klein's nor the Jost function's."""
    if vals2 is None:
        _, vals2 = _tridiagonal_eigvals(jacobi_coeffs(p, 2 * N), 2 * N)
    with monkeypatch.context() as m:
        m.setattr(spectral, "klein_count", lambda p: None)
        m.setattr(spectral, "_jost_zeros", lambda coeffs, M, rho: (None, ()))
        m.setattr(
            spectral, "_ladder",
            lambda tri_at, orders, cands, t, count=None: (
                *_dense_confirm(vals2, cands, t), orders[-1]
            ),
        )
        return discrete_spectrum(p, N, tol)


def _compare_with_dense(monkeypatch, p, N, tols):
    """discrete_spectrum against the dense reference (``_reference_spectrum``)
    at each tol.  Without a count, counts, discarded candidates and merges
    must be identical.  With one (``klein_count``, or the Jost count that
    ``discrete_spectrum`` computed for a complex triple) the count is never
    below the reference's nor above that count, and discarded candidates
    are not compared (they come from a different seed order).  Where the
    counts agree, values agree to 1e-12 relative, or else the polished
    eigenvalue decides: the new value is within 1e-12 of it, or the dense
    one is not and the new one is at most twice as far.  Returns the number
    of values compared and of those that took the exception."""
    _, vals2 = _tridiagonal_eigvals(jacobi_coeffs(p, 2 * N), 2 * N)
    jost = spectral._jost_zeros
    compared = excused = 0
    for tol in tols:
        counts = [klein_count(p)]

        def spy(coeffs, M, rho):
            found = jost(coeffs, M, rho)
            counts.append(found[0])
            return found

        with monkeypatch.context() as m:
            m.setattr(spectral, "_jost_zeros", spy)
            new = discrete_spectrum(p, N, tol)
        count = counts[-1]
        ref = _reference_spectrum(monkeypatch, p, N, tol, vals2)
        case = ((p.a, p.b, p.c), N, tol)
        if count is None:
            assert len(new.eigenvalues) == len(ref.eigenvalues), case
            assert new.discarded == ref.discarded, case
            assert len(new.merged) == len(ref.merged), case
        else:
            assert len(ref.eigenvalues) <= len(new.eigenvalues) <= count, case
            if len(new.eigenvalues) != len(ref.eigenvalues):
                continue
        rest = list(ref.eigenvalues)
        for u in new.eigenvalues:
            v = rest.pop(int(np.argmin(np.abs(np.array(rest) - u))))
            scale = max(1.0, abs(v))
            compared += 1
            if abs(u - v) > 1e-12 * scale:
                exact = _polished_eigenvalue(p, v)
                err_new, err_ref = abs(u - exact) / scale, abs(v - exact) / scale
                assert err_new <= 1e-12 or (err_ref > 1e-12 and err_new <= 2.0 * err_ref), (
                    case, u, v, exact,
                )
                excused += 1
    return compared, excused


def _confirmation_grid():
    """216 seeded non-terminating triples, alternately real and complex,
    each with its truncation order and tol: 8 at N = 256, 24 at N = 128
    and the rest at N = 64, the dense reference being the costly side."""
    rng = np.random.default_rng(20261018)
    grid = []
    while len(grid) < 216:
        i = len(grid)
        cplx = i % 2 == 1
        a = rng.uniform(-7, 4) + (1j * rng.uniform(-1.5, 1.5) if cplx else 0)
        b = rng.uniform(-3, 3) + (1j * rng.uniform(-1, 1) if cplx and rng.random() < 0.5 else 0)
        c = rng.uniform(-5, 5) + (1j * rng.uniform(-1, 1) if cplx and rng.random() < 0.3 else 0)
        p = validate_params(a, b, c)
        if termination_index(p) is not None:
            continue
        N = 256 if i < 8 else 128 if i < 32 else 64
        grid.append((p, N, (1e-8, 1e-10, 1e-12)[i % 3]))
    return grid


POOL = Path(__file__).resolve().parents[1] / "perfbench" / "spectrum_pool.json"


class TestOrder2NConfirmation:
    """discrete_spectrum confirms its order-N candidates at order 2N by
    Newton steps on det(T_2N - mu), one to screen and up to four to refine;
    the dense order-2N eigensolve it replaced is the reference, and the
    argument-principle zero counts stored with the pool are an oracle that
    shares nothing with either."""

    def test_matches_dense_on_pool(self, monkeypatch):
        pool = json.loads(POOL.read_text(encoding="utf-8"))
        assert len(pool) == 27
        compared = 0
        for entry in pool:
            p = validate_params(*(complex(*entry[k]) for k in "abc"))
            compared += _compare_with_dense(monkeypatch, p, 128, (1e-8, 1e-10, 1e-12))[0]
        assert compared > 100

    def test_pool_counts_match_zero_counts(self):
        # zeros of F(a, b+1, c+1; .) in the cut plane by the argument
        # principle, stored with each pool triple
        pool = json.loads(POOL.read_text(encoding="utf-8"))
        assert len(pool) == 27
        for entry in pool:
            p = validate_params(*(complex(*entry[k]) for k in "abc"))
            got = len(discrete_spectrum(p, 256, 1e-10).eigenvalues)
            assert got == entry["zeros"], (entry["kind"], entry["a"], entry["b"], entry["c"])

    @pytest.mark.parametrize("N", [64, 128, 256])
    def test_matches_dense_on_seeded_grid(self, monkeypatch, N):
        cases = [(p, tol) for p, n, tol in _confirmation_grid() if n == N]
        compared = 0
        for p, tol in cases:
            compared += _compare_with_dense(monkeypatch, p, N, (tol,))[0]
        # the grid is not vacuous: most cases retain eigenvalues
        assert compared >= len(cases)

    def test_ill_conditioned_values_no_worse_than_dense(self, monkeypatch):
        # c next to -4: values of the refinement and of the dense solve differ
        # by up to 1.4e-10 relative, and the polished zeros decide between them
        p = validate_params(-1.061669061401826, -3.4411566114030485, -4.0021568532174845)
        compared, excused = _compare_with_dense(monkeypatch, p, 256, (1e-10,))
        assert compared == 4 and excused >= 1

    def test_ill_conditioned_value_accurate(self):
        # the same triple: the real eigenvalue near 3.647 has condition
        # number about 2e3, and its refined value must still lie well
        # within tol of the zero of F(a, b+1, c+1; .) that mpmath.findroot
        # polishes at 40 digits, mapped to z = 2 - 4/w
        p = validate_params(-1.061669061401826, -3.4411566114030485, -4.0021568532174845)
        exact = 3.6469754867334497
        vals = np.array(discrete_spectrum(p, 256, 1e-10).eigenvalues)
        lam = vals[np.argmin(np.abs(vals - exact))]
        assert abs(lam - exact) <= 2e-11 * exact

    def test_newton_step_matches_eigenvalues(self):
        # -det/det' = -1 / sum_j 1/(mu - lambda_j) over the eigenvalues of T
        rng = np.random.default_rng(11)
        diag, upper, lower = _seeded_tridiagonal(rng, 40, symmetric=False)
        vals = np.linalg.eigvals(_dense(diag, upper, lower))
        mus = [3.5 + 1j, -0.4 + 3j, complex(vals[0]) + 1e-6]
        diag, prod = diag.tolist(), (upper * lower).tolist()
        got = _newton_steps(diag, prod, np.array(mus))
        for mu, step in zip(mus, got):
            ref = -1.0 / np.sum(1.0 / (mu - vals))
            assert abs(step - ref) <= 1e-12 * max(1.0, abs(ref))
            # one shift as a Python number takes the same step
            one = _newton_steps(diag, prod, mu)
            assert isinstance(one, complex)
            assert abs(one - ref) <= 1e-12 * max(1.0, abs(ref))

    @staticmethod
    def _path(dtype):
        # T - 3 = tridiag(1; 1, 2, ..., 2, 1; 1), the signless Laplacian of
        # a path: 3 is an exact eigenvalue, the next one is 3.038, and every
        # forward pivot of T - 3 is 1 except the last, which is exactly 0
        n = 16
        diag = np.full(n, 5.0, dtype=dtype)
        diag[[0, -1]] = 4.0
        return diag, np.ones(n - 1, dtype=dtype), np.ones(n - 1, dtype=dtype)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_tol_decides_on_refined_value(self, dtype):
        tri = self._path(dtype)
        retained, discarded = _one_rung(tri, [3.0 + 1e-12], 1e-10)
        assert discarded == [] and abs(retained[0] - 3.0) <= 1e-15
        retained, discarded = _one_rung(tri, [3.0 + 1e-8], 1e-10)
        assert retained == [] and discarded == [3.0 + 1e-8]

    def test_band_guard_on_refined_value(self):
        # shifted so that the exact eigenvalue sits 1e-9 inside the band
        # guard; the candidate, 2e-9 above it, is outside the guard
        tri = self._path(float)
        tri[0][:] -= 1.0 - BAND_GUARD + 1e-9
        mu = 2.0 + BAND_GUARD - 1e-9
        lam = complex(mu + 2e-9)
        assert band_distance(lam) > BAND_GUARD
        assert _one_rung(tri, [lam], 1e-8) == ([], [lam])

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_exact_eigenvalue_zero_pivot(self, dtype):
        # the screen's last pivot vanishes: a zero step, not a warning (the
        # suite turns RuntimeWarning into an error)
        tri = self._path(dtype)
        retained, discarded = _one_rung(tri, [3.0 + 0j], 1e-10)
        assert retained == [3.0] and discarded == []
        _check_eigenvalues(tri, retained)
        # 4 is an eigenvalue of the leading 1 x 1 block: the screen yields
        # NaN and the candidate is discarded, again without a warning
        assert _one_rung(tri, [4.0 + 0j], 1e-10) == ([], [4.0])

    def test_refine_stops_at_vanishing_pivot(self):
        # mu = 1 is the eigenvalue of the leading 1 x 1 block: the first
        # pivot is zero, and mu comes back unchanged
        got = spectral._refine([1.0, 2.0], [0.5], 1.0)
        assert got == 1.0 + 0j and isinstance(got, complex)

    def test_refine_stops_at_nan_step(self):
        # a NaN entry makes the step NaN: mu comes back unchanged, not NaN
        assert spectral._refine([1.0, math.nan], [0.5], 3.0) == 3.0 + 0j

    def test_claimed_value_is_not_retained_twice(self):
        # three candidates, two of them equal, all converge onto 3
        tri = self._path(float)
        cands = [3.0 + 1e-12, 3.0 + 1e-12, 3.0 - 1e-12]
        retained, discarded = _one_rung(tri, cands, 1e-10)
        assert retained == [3.0] and discarded == cands[1:]

    def test_near_band_real_eigenvalues_counted(self):
        # six zeros of F(a, b+1, c+1; .) by the argument principle; the
        # pair next to the band moves by 1.9e-6 relative between orders 256
        # and 512, and the ladder follows it until two orders agree.  The
        # zero w of the pair in the upper half plane, polished by
        # mpmath.findroot at 40 digits
        w = 10.71979297179533221402315018624206251045 + 0.7302996056119669702123241612743381827794j
        res = discrete_spectrum(validate_params(-5.1, -2.6, 0.5))
        assert len(res.eigenvalues) == 6
        for zero in (w, w.conjugate()):
            got = min(res.eigenvalues, key=lambda lam: abs(band_to_cut(lam) - zero))
            assert abs(band_to_cut(got) - zero) <= 1e-9 * abs(zero)
            assert abs(got - cut_to_band(zero)) <= 1e-9

    @pytest.mark.xfail(strict=True, reason="both eigenvalues have |lam| = 0.994, outside the Jost radius rho = 0.978, so the count is 0 and nothing is solved")
    @pytest.mark.parametrize("abc, zeros", [((2 + 1j, 0.5, 3), 2)], ids=["complex"])
    def test_near_band_eigenvalues_counted(self, abc, zeros):
        # zero count of F(a, b+1, c+1; .) by the argument principle; the
        # Jost function sees only |lam| < rho = tol^(1/4N), z = lam + 1/lam,
        # and a count of 0 reports no eigenvalue
        assert len(discrete_spectrum(validate_params(*abc)).eigenvalues) == zeros


class TestMergeStep:
    """Retained values within MERGE_TOL are averaged and repeated, the
    average flagged in ``merged``; the values are fed through the
    ``_ladder`` seam."""

    @staticmethod
    def _spectrum(monkeypatch, abc, values):
        monkeypatch.setattr(spectral, "klein_count", lambda p: None)
        monkeypatch.setattr(spectral, "_jost_zeros", lambda coeffs, M, rho: (None, ()))
        monkeypatch.setattr(
            spectral, "_ladder",
            lambda tri_at, orders, cands, tol, count=None: (list(values), [], orders[-1]),
        )
        return discrete_spectrum(validate_params(*abc), 64)

    def test_close_values_merge(self, monkeypatch):
        close = [3.0 + 1j, 3.0 + 1e-8 + 1j]
        res = self._spectrum(monkeypatch, (1 + 2j, 3, -0.5), [-4.0 + 0j] + close)
        rep = sum(close) / 2
        assert abs(rep - (3.0 + 5e-9 + 1j)) <= 1e-15
        assert res.eigenvalues == (-4.0, rep, rep) and res.merged == (rep,)

    def test_close_conjugate_pair_of_real_triple_merges_to_real(self, monkeypatch):
        # a real triple is solved in real arithmetic, so a non-real value
        # comes with its exact conjugate; a pair this close averages to a
        # real double value with a +0.0 imaginary part
        res = self._spectrum(monkeypatch, (-12.5, -7.5, -3.5), [3.5 + 1e-11j, 3.5 - 1e-11j])
        assert repr(res.eigenvalues) == repr((3.5 + 0j, 3.5 + 0j))
        assert repr(res.merged) == repr((3.5 + 0j,))


def _counted_grid():
    """60 seeded real non-terminating triples with c + 1 > 0, where
    ``klein_count`` is known, each with N = 64 or 128 and a tol."""
    rng = np.random.default_rng(20261019)
    grid = []
    while len(grid) < 60:
        i = len(grid)
        p = validate_params(rng.uniform(-7, 4), rng.uniform(-4, 4), rng.uniform(-0.9, 5))
        if termination_index(p) is not None:
            continue
        grid.append((p, 128 if i % 4 == 0 else 64, (1e-8, 1e-10, 1e-12)[i % 3]))
    return grid


class TestKleinCount:
    """The classical zero count of F(a, b+1, c+1; .) in the cut plane."""

    def test_matches_pool_zero_counts(self):
        pool = json.loads(POOL.read_text(encoding="utf-8"))
        real = [e for e in pool if all(e[k][1] == 0.0 for k in "abc")]
        assert len(real) == 21
        for entry in real:
            p = validate_params(*(complex(*entry[k]) for k in "abc"))
            assert klein_count(p) == entry["zeros"], (entry["a"], entry["b"], entry["c"])

    @pytest.mark.parametrize(
        "abc",
        [(-2.5 + 0.7j, 0.3, 1.4), (1.5, 0.2 + 0.5j, 2.5), (-1.2, 0.6, 1.1 + 0.3j),
         (-3.7, 0.2, -1.1), (2.3, 1.3, -1.8), (-12.5, -7.5, -3.5)],
    )
    def test_unknown_elsewhere(self, abc):
        # complex triples and c + 1 <= 0
        assert klein_count(validate_params(*abc)) is None

    def test_none_for_terminating(self):
        assert klein_count(PTERM1) is None and klein_count(PTERM2) is None

    @pytest.mark.parametrize("x", [-300.5, 400.25, -0.5, -1.5, -2.25, 0.5, 1.5, 171.5, -171.5])
    def test_gamma_sign_by_parity(self, x):
        # math.gamma overflows or underflows at |x| beyond about 171
        mp = pytest.importorskip("mpmath")
        assert spectral._gamma_sign(x) == (1 if mp.gamma(x) > 0 else -1)

    def test_large_parameters(self):
        # a' = -300.5: the sign of Gamma(a') from parity; c' - a' = 400.25
        # has Gamma far beyond float range
        mp = pytest.importorskip("mpmath")
        p = validate_params(-300.5, 0.2, 98.75)
        four = (-300.5, 1.2, 400.25, 98.55)
        sigma = 1 if mp.fprod(mp.gamma(mp.mpf(x)) for x in four) > 0 else -1
        assert klein_count(p) == 300 + (1 + sigma) // 2


class TestCountedLadder:
    """Real triples with c + 1 > 0: the Klein count stops the ladder, and
    the dense order-2N confirmation it replaced is the reference."""

    def test_matches_dense_on_seeded_grid(self, monkeypatch):
        compared = 0
        for p, N, tol in _counted_grid():
            assert klein_count(p) is not None
            compared += _compare_with_dense(monkeypatch, p, N, (tol,))[0]
        assert compared >= 60

    def test_count_zero_needs_no_eigensolve(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("eigensolve")

        monkeypatch.setattr(spectral, "_tridiagonal_eigvals", refuse)
        res = discrete_spectrum(validate_params(1.0, 0.2, 2.5))
        assert res.eigenvalues == res.discarded == () and res.N_used == res.N_check == 0
        assert res.trace_bound == trace_norm_bound(validate_params(1.0, 0.2, 2.5), 512)

    def test_seed_and_orders_reported(self):
        # the far eigenvalues agree at order 128; the near-band pair climbs
        res = discrete_spectrum(validate_params(-3.7, 0.2, 1.1))
        assert (res.N_used, res.N_check) == (64, 128) and res.discarded == ()
        res = discrete_spectrum(validate_params(-5.1, -2.6, 0.5))
        assert res.N_used == 64 and res.N_check > 512

    def test_fallback_seed_reaches_missing_value(self):
        # the order-64 seed has no candidate for the pair near the band, so
        # the order-N seed is laddered; the dense confirmation keeps 4 of 6
        p = validate_params(-5.01, -2.64, 1.09)
        res = discrete_spectrum(p)
        assert klein_count(p) == len(res.eigenvalues) == 6
        assert res.N_used == 256

    def test_shortfall_returns_what_is_retained(self, monkeypatch):
        # count 1, but the candidate sinks into the band guard: no error,
        # and the same result as the dense confirmation
        p = validate_params(-0.01, -1.07, 1.08)
        assert klein_count(p) == 1
        res = discrete_spectrum(p)
        assert res.eigenvalues == _reference_spectrum(monkeypatch, p, 256, 1e-10).eigenvalues == ()
        # the candidate stops climbing once it is inside the guard, 3.2e-7
        # from the band at order 1024
        assert res.N_used == 256 and res.N_check == 1024

    def test_count_stops_the_ladder(self):
        # candidates for the eigenvalues 3 and 5 + 2 cos(pi/16) of the path
        # matrix: with count 1 only the one farther from the band climbs
        tri = TestOrder2NConfirmation._path(float)
        top = 5.0 + 2.0 * math.cos(math.pi / 16)
        cands = [3.0 + 1e-12, top + 1e-12]
        retained, discarded, reached = _ladder(lambda n: tri, [8, 16], cands, 1e-10, count=1)
        assert discarded == cands[:1] and abs(retained[0] - top) <= 1e-14 and reached == 8
        retained, discarded, _ = _ladder(lambda n: tri, [8, 16], cands, 1e-10, count=2)
        assert discarded == [] and len(retained) == 2

    def test_value_that_moves_is_followed(self):
        # the candidate is 1e-8 from the eigenvalue 3 of every rung: the
        # first refinement moves it by more than tol, the second agrees
        tri = TestOrder2NConfirmation._path(float)
        retained, discarded, reached = _ladder(lambda n: tri, [8, 16], [3.0 + 1e-8], 1e-10, count=1)
        assert retained == [3.0] and discarded == [] and reached == 16


#: the seed-32 complex grid and the complex triples of the pool
JOST_GATE = seeded_grid(32, 60, True) + [
    tuple(complex(*e[k]) for k in "abc")
    for e in json.loads(POOL.read_text(encoding="utf-8"))
    if any(e[k][1] for k in "abc")
]


def _jost_values_by_division(diag, sq, lam):
    """``spectral._jost_values`` as it was before its renormalization
    became a multiply: x and its neighbour divided by the real |x|."""
    z = lam + 1.0 / lam
    x, nxt = np.ones_like(lam), lam.copy()
    log = len(diag) * np.log(np.abs(lam))
    inv = 1.0 / np.concatenate(([1.0 + 0j], sq))
    new = np.empty_like(lam)
    for n in range(len(diag) - 1, -1, -1):
        np.subtract(z, diag[n], out=new)
        new *= x
        new -= nxt
        new *= inv[n]
        x, nxt, new = new, x, nxt
        if n % 8 == 0:
            s = np.abs(x)
            x /= s
            nxt /= s
            log += np.log(s)
    return x * np.exp(1j * len(diag) * np.angle(lam)), log


#: complex, hidden-real (real entries from a complex triple) and real triples
JOST_SWEEP_TRIPLES = [
    *seeded_grid(32, 4, True),
    (0.5 + 1j, 1.5 + 1j, 2),
    (3.11 + 0.75j, -1 + 0.75j, 2.11),
    (-2.46 - 1.35j, 5.32 - 1.35j, 2.86),
    (-3.7, 0.2, 1.1),
    (-5.3, -2.6, 0.4),
    (1.0, 0.2, 2.5),
]


class TestJostSweepBits:
    """The renormalizing multiply by 1/s - 0i gives the bits of the
    division by s that it replaced, signed zeros included (with 1/s + 0i a
    real negative psi_{-1} at theta = 0 can read angle -pi for pi)."""

    @pytest.mark.parametrize("M", [64, 256])
    def test_sweep_matches_division(self, M):
        for abc in JOST_SWEEP_TRIPLES:
            diag, sq = spectral._leading_entries(jacobi_coeffs(validate_params(*abc), M + 1), M + 1)
            rho = 1e-10 ** (1.0 / (4 * M))
            for k in (256, 1024, 2048):
                lam = rho * np.exp(1j * np.arange(2 * k) * (math.pi / k))
                with np.errstate(all="ignore"):
                    got = spectral._jost_values(diag, sq, lam)
                    ref = _jost_values_by_division(diag, sq, lam)
                for a, b in zip(got, ref):
                    assert a.tobytes() == b.tobytes(), (abc, M, k)

    def test_spectra_match_division(self, monkeypatch):
        pool = [validate_params(*(complex(*e[k]) for k in "abc")) for e in json.loads(POOL.read_text())]
        spectra = lambda: [repr(discrete_spectrum(p, N)) for p in pool for N in (64, 256)]
        now = spectra()
        monkeypatch.setattr(spectral, "_jost_values", _jost_values_by_division)
        assert spectra() == now


class TestJostCount:
    """Complex triples: the winding of the Jost function of J_N glued to
    the free tail counts the eigenvalues with |lam| < rho, z = lam + 1/lam,
    rho = tol^(1/4N), and the same samples locate them: the seeds of a
    ladder from 2N to 64N."""

    @staticmethod
    def _zeros(p, N=256, tol=1e-10):
        return spectral._jost_zeros(jacobi_coeffs(p, N + 1), N, tol ** (1.0 / (4 * N)))

    def test_matches_pool_zero_counts(self):
        # all 27 triples, the 21 real ones included, where klein_count
        # gives the same numbers
        pool = json.loads(POOL.read_text(encoding="utf-8"))
        assert len(pool) == 27
        for entry in pool:
            p = validate_params(*(complex(*entry[k]) for k in "abc"))
            count, seeds = self._zeros(p)
            assert count == len(seeds) == entry["zeros"], (entry["a"], entry["b"], entry["c"])

    def test_seeds_locate_pool_eigenvalues(self):
        # the seeds alone, with no eigensolve, are within 1e-9 relative of
        # the eigenvalues that discrete_spectrum reports
        pool = json.loads(POOL.read_text(encoding="utf-8"))
        for entry in pool:
            p = validate_params(*(complex(*entry[k]) for k in "abc"))
            rest = list(self._zeros(p)[1])
            for lam in discrete_spectrum(p).eigenvalues:
                seed = rest.pop(int(np.argmin(np.abs(np.array(rest) - lam))))
                assert abs(seed - lam) <= 1e-9 * max(1.0, abs(lam)), (entry["kind"], lam, seed)

    def test_sparse_contour_does_not_alias(self):
        # at rho = 0.995, 128 points gave 0 with every argument step below
        # pi/4; the sampling starts at K >= 16 / (1 - rho) instead
        coeffs = jacobi_coeffs(validate_params(-3.7, 0.2, 1.1), 257)
        assert spectral._jost_zeros(coeffs, 256, 0.995)[0] in (4, None)

    def test_free_matrix_counts_nothing(self):
        # psi_{-1} is 1 for the free matrix; rho outside (0, 1) gives None
        p = validate_params(-2.5 + 0.7j, 0.3, 1.4)
        coeffs = jacobi_coeffs(p, 257)
        free = replace(coeffs, diag=np.zeros(257, complex), offdiag_sq=np.ones(256, complex))
        assert spectral._jost_zeros(free, 256, 0.98) == (0, ())
        assert spectral._jost_zeros(coeffs, 256, 1.0) == (None, ())

    def test_infinite_entry_counts_nothing(self):
        # psi_{-1} is not finite on the contour: no count, and no warning
        coeffs = jacobi_coeffs(validate_params(-2.5 + 0.7j, 0.3, 1.4), 257)
        diag = coeffs.diag.copy()
        diag[3] = np.inf
        assert spectral._jost_zeros(replace(coeffs, diag=diag), 256, 0.98) == (None, ())

    def test_seed_and_orders_reported(self):
        # the Jost function reads order N; its seeds are all retained, no
        # higher than 64N
        res = discrete_spectrum(validate_params(-2.5 + 0.7j, 0.3, 1.4))
        assert len(res.eigenvalues) == 2 and res.N_used == 256 and res.N_check <= 64 * 256
        assert res.discarded == ()

    def test_real_entries_give_real_seeds(self):
        # (0.5+1i, 1.5+1i, 2) has real entries; seeds from the complex
        # polynomial carried rounding-level imaginary parts of both signs,
        # and the seed with Im < 0 had no partner to mirror it, so N = 64
        # kept 1 of its 2 values
        p = validate_params(0.5 + 1j, 1.5 + 1j, 2)
        count, seeds = self._zeros(p, 64)
        assert count == 2 and all(v.imag == 0 for v in seeds)
        ref = discrete_spectrum(p, 1024).eigenvalues
        for N in (64, 256):
            res = discrete_spectrum(p, N)
            assert len(res.eigenvalues) == 2 and res.discarded == (), N
            for v in res.eigenvalues:
                assert min(abs(v - r) for r in ref) <= 1e-12, (N, v)

    @pytest.mark.parametrize(
        "abc, N, values",
        [
            *[
                ((-4 - 1.25j, 6.890000000000001 - 1.25j, 2.89), N,
                 (-14.378798586595849, -5.882938717533155, -3.3024864951626602))
                for N in (8, 9)
            ],
            ((3.27 - 0.25j, -4.18 - 0.25j, -0.91), 8,
             (-445.2226762479192, -9.946296589890448, -3.020817376352968)),
            *[
                ((3.27 - 0.25j, -4.18 - 0.25j, -0.91), N,
                 (-445.2226762479192, -9.94629658989045, -3.0208173763529684))
                for N in (9, 10)
            ],
            *[((3.11 + 0.75j, -1 + 0.75j, 2.11), N, (-2.2188063147066877,)) for N in range(13, 19)],
        ],
    )
    def test_ladder_keeps_arithmetic_of_first_rung(self, abc, N, values):
        # entries exactly real up to the first rung (2N) and complex by
        # rounding further on: a later rung refined in complex arithmetic
        # gave real values an imaginary part of 1e-44 to 1e-33, whose
        # phantom conjugate filled the count before the last seed climbed
        # (the first two triples lost -3.3025 and -3.0208 at N = 8), or
        # was reported without a conjugate
        res = discrete_spectrum(validate_params(*abc), N)
        assert len(res.eigenvalues) == len(values), res.eigenvalues
        for u, v in zip(res.eigenvalues, values):
            assert u.imag == 0 and abs(u.real - v) <= 1e-12 * abs(v), (u, v)

    def test_met_count_needs_no_eigensolve(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("eigensolve")

        monkeypatch.setattr(spectral, "_tridiagonal_eigvals", refuse)
        pool = json.loads(POOL.read_text(encoding="utf-8"))
        cplx = [e for e in pool if any(e[k][1] for k in "abc")]
        assert len(cplx) == 6
        for entry in cplx:
            res = discrete_spectrum(validate_params(*(complex(*entry[k]) for k in "abc")))
            assert len(res.eigenvalues) == entry["zeros"] > 0

    def test_large_count_not_located(self, monkeypatch):
        # 30 zeros: beyond JOST_SEEDS_MAX they are counted, not located,
        # and the order-N seed with one rung at 2N and no count decides
        p = validate_params(-30.5 + 1j, 0.3, 1.4)
        assert self._zeros(p) == (30, ()) and 30 > spectral.JOST_SEEDS_MAX
        res = discrete_spectrum(p)
        monkeypatch.setattr(spectral, "_jost_zeros", lambda coeffs, M, rho: (None, ()))
        ref = discrete_spectrum(p)
        assert (res.N_used, res.N_check) == (256, 512)
        for name in SpectralResult.__dataclass_fields__:
            assert repr(getattr(res, name)) == repr(getattr(ref, name)), name

    def test_overcount_falls_back_to_order_n(self, monkeypatch):
        # a count the seeds cannot meet: the order-N seed with one rung at
        # 2N and no count, byte for byte
        p = validate_params(-2.5 + 0.7j, 0.3, 1.4)
        jost = spectral._jost_zeros
        with monkeypatch.context() as m:
            m.setattr(spectral, "_jost_zeros", lambda coeffs, M, rho: (None, ()))
            ref = discrete_spectrum(p)
        monkeypatch.setattr(spectral, "_jost_zeros", lambda coeffs, M, rho: (3, jost(coeffs, M, rho)[1]))
        res = discrete_spectrum(p)
        assert (res.N_used, res.N_check) == (256, 512)
        for name in SpectralResult.__dataclass_fields__:
            assert repr(getattr(res, name)) == repr(getattr(ref, name)), name

    @pytest.mark.parametrize(
        "N",
        [
            pytest.param(8, marks=pytest.mark.xfail(
                strict=True,
                reason="rho = 0.4870 passes 0.12% outside the zero |lam| = 0.4864: the largest "
                "argument step is 3.0 rad, so the count is refused and the order-N/2N path "
                "keeps no value",
            )),
            32,
            64,
        ],
    )
    def test_counted_at_small_order(self, monkeypatch, N):
        # below order 64 the Jost function counts and seeds as it does at
        # 256, and the values are those of order 256
        def refuse(*args):
            raise AssertionError("eigensolve")

        p = validate_params(-2.5 + 0.7j, 0.3, 1.4)
        ref = discrete_spectrum(p)
        count = self._zeros(p, N)[0]
        monkeypatch.setattr(spectral, "_tridiagonal_eigvals", refuse)
        res = discrete_spectrum(p, N)
        assert count == len(res.eigenvalues) == 2 and res.N_used == N
        for u, v in zip(res.eigenvalues, ref.eigenvalues):
            assert abs(u - v) <= 1e-12 * abs(v), (N, u, v)

    @pytest.mark.parametrize("abc", JOST_GATE, ids=str)
    def test_small_orders_lose_no_value(self, monkeypatch, abc):
        # at N = 16 and 64 no triple keeps fewer values than without the
        # Jost function, and every value is one of the order-256 spectrum
        p = validate_params(*abc)
        ref = np.array(discrete_spectrum(p).eigenvalues)
        for N in (16, 64):
            res = discrete_spectrum(p, N)
            with monkeypatch.context() as m:
                m.setattr(spectral, "_jost_zeros", lambda coeffs, M, rho: (None, ()))
                uncounted = discrete_spectrum(p, N)
            assert len(res.eigenvalues) >= len(uncounted.eigenvalues), N
            for u in res.eigenvalues:
                assert np.min(np.abs(ref - u)) <= 1e-8 * abs(u), (N, u)

    def test_count_zero_needs_no_eigensolve(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("eigensolve")

        p = validate_params(2.27 + 1.53j, 0.18, 4.67)
        assert self._zeros(p) == (0, ())
        monkeypatch.setattr(spectral, "_tridiagonal_eigvals", refuse)
        res = discrete_spectrum(p)
        assert res.eigenvalues == res.discarded == () and res.N_used == res.N_check == 0
        assert res.trace_bound == trace_norm_bound(p, 512)

    @pytest.mark.parametrize("abc", JOST_GATE, ids=str)
    def test_counts_met_and_no_value_lost(self, monkeypatch, abc):
        # the seed-32 complex grid and the complex pool triples at N = 256:
        # every Jost count is met, and no triple keeps fewer values than
        # the order-N candidates confirmed by the dense order-2N eigensolve
        p = validate_params(*abc)
        count = self._zeros(p)[0]
        res = discrete_spectrum(p)
        if count is not None:
            assert len(res.eigenvalues) == count
        ref = _reference_spectrum(monkeypatch, p, 256, 1e-10)
        assert len(res.eigenvalues) >= len(ref.eigenvalues)

    @pytest.mark.parametrize(
        "abc, N, zeros",
        [
            # the one eigenvalue lies 0.09 from the band; its order-256
            # value is 5.1e-10 from the order-512 one, more than tol, so
            # the order-N/2N confirmation drops it
            (
                (3.15 + 0.75j, -1.63, 4.97), 256,
                [1.890596209512175178482049437589815 - 0.08060312662516796648353115552677824j],
            ),
            # five zeros; the order-N/2N confirmation keeps four, and
            # misses the one next to w = 1.2148
            (
                (-4.97 - 1.01j, 3.9, 4.86), 128,
                [
                    0.8554654102240987627929504292429981 + 0.3241400062002437653026223408515708j,
                    0.8976275041697918399607550067237306 - 0.4968466312906976263991366810978035j,
                    1.126952606285145612115318535089966 + 0.2307143916356217619904227209298892j,
                    1.214793876842528359510065041383404 + 0.03142933508290962722612907136552509j,
                    1.329188812769756030355227664371436 - 0.3702217782267229465899082886279748j,
                ],
            ),
        ],
        ids=["one-near-band", "five"],
    )
    def test_recovered_spectra(self, abc, N, zeros):
        # zeros w of F(a, b+1, c+1; .) polished by mpmath.findroot at 40
        # digits; every one is reported, as z = 2 - 4/w, within 1e-12
        p = validate_params(*abc)
        res = discrete_spectrum(p, N)
        assert len(res.eigenvalues) == len(zeros) == self._zeros(p, N)[0]
        rest = list(res.eigenvalues)
        for w in zeros:
            got = rest.pop(int(np.argmin(np.abs(np.array(rest) - cut_to_band(w)))))
            assert abs(got - cut_to_band(w)) <= 1e-12 * max(1.0, abs(got)), (w, got)

    @pytest.mark.parametrize("abc", seeded_grid(41, 30, True), ids=str)
    def test_conjugate_triple_has_conjugate_spectrum(self, abc):
        # J(conj a, conj b, conj c) is the conjugate of J(a, b, c)
        res = discrete_spectrum(validate_params(*abc), 128)
        con = discrete_spectrum(validate_params(*(complex(x).conjugate() for x in abc)), 128)
        assert (res.N_used, res.N_check) == (con.N_used, con.N_check)
        assert len(res.eigenvalues) == len(con.eigenvalues)
        rest = [v.conjugate() for v in con.eigenvalues]
        for u in res.eigenvalues:
            v = rest.pop(int(np.argmin(np.abs(np.array(rest) - u))))
            assert abs(u - v) <= 1e-12 * max(1.0, abs(u)), (abc, u, v)


class TestResolventBuild:
    """The resolvent route of B reads one build per three doublings of its
    order: orders n up to 512 slice one build of 512 entries, orders 1024
    to 4096 one of RESOLVENT_NMAX."""

    P = validate_params(1.3, 0.4, 2.1)

    @staticmethod
    def _z(r):
        lam = cmath.rect(r, 2.0)
        return lam + 1.0 / lam

    @staticmethod
    def _spy(monkeypatch, floor=0):
        # records the size of every build, building at least ``floor``, and
        # the order at which the loop settled
        sizes, orders = [], []
        build, loop = spectral.build_truncated, spectral.settle

        def spy_build(p, n):
            sizes.append(n)
            return build(p, max(n, floor))

        def spy_settle(*args):
            out = loop(*args)
            orders.append(out[1])
            return out

        monkeypatch.setattr(spectral, "build_truncated", spy_build)
        monkeypatch.setattr(spectral, "settle", spy_settle)
        return sizes, orders

    @pytest.mark.parametrize("r, order, builds", [(0.5, 128, [512]), (0.95, 1024, [512, 4096])])
    def test_builds_per_three_doublings(self, monkeypatch, r, order, builds):
        z = self._z(r)
        with monkeypatch.context() as m:
            sizes, orders = self._spy(m)
            got = b_function(self.P, z, "resolvent")
        assert (orders, sizes) == ([order], builds)
        # the value of the order where the loop settled, bit for bit
        assert repr(got) == repr(m_function(self.P, z, order))

    @pytest.mark.parametrize(
        "abc", [(1.3, 0.4, 2.1), (-1.2 + 0.4j, 0.6, 1.1 + 0.3j), (2 + 1j, 0.5, 3), (-5.3, -2.6, 0.4)]
    )
    def test_larger_build_changes_nothing(self, monkeypatch, abc):
        p = validate_params(*abc)
        for r in (0.5, 0.8, 0.95):
            z = self._z(r)
            ref = b_function(p, z, "resolvent")
            with monkeypatch.context() as m:
                self._spy(m, spectral.RESOLVENT_NMAX)
                assert repr(b_function(p, z, "resolvent")) == repr(ref), (abc, r)


class TestOneBuild:
    """discrete_spectrum builds the coefficients once, to the trace-norm
    horizon; only a ladder rung beyond it builds its own order."""

    @staticmethod
    def _spy(monkeypatch, floor=0):
        # records the size of every coefficient build, and builds at least
        # ``floor``
        sizes = []
        build = spectral.jacobi_coeffs

        def spy(p, n):
            sizes.append(n)
            return build(p, max(n, floor))

        monkeypatch.setattr(spectral, "jacobi_coeffs", spy)
        return sizes

    def test_count_zero_builds_once(self, monkeypatch):
        # count 0 at N = 1024: one build, to the 2N + 1 entries of the
        # trace-norm horizon, and none to order 64N
        sizes = self._spy(monkeypatch)
        discrete_spectrum(validate_params(1.96 + 0.3j, 1.91, 2.41), 1024)
        assert sizes == [2 * 1024 + 1] == [2049]

    @pytest.mark.parametrize(
        "N, cases",
        [
            (256, [tuple(complex(*e[k]) for k in "abc")
                   for e in json.loads(POOL.read_text(encoding="utf-8"))]),
            (1024, [(-3.1 + 0.9j, 0.4, 1.6), (3.18 - 1.48j, 2.23, -4.28), (-5.3, -2.6, 0.4)]),
        ],
        ids=["pool-256", "1024"],
    )
    def test_larger_build_changes_nothing(self, monkeypatch, N, cases):
        # every build at least 64N + 1 entries, enough for every rung
        for abc in cases:
            p = validate_params(*abc)
            res = discrete_spectrum(p, N)
            with monkeypatch.context() as m:
                sizes = self._spy(m, 64 * N + 1)
                big = discrete_spectrum(p, N)
            # the spy saw, and enlarged, the one horizon build
            assert sizes[0] == max(2 * N, spectral.TAIL_HORIZON) + 1, abc
            for name in SpectralResult.__dataclass_fields__:
                assert repr(getattr(res, name)) == repr(getattr(big, name)), (abc, name)

    def test_rung_beyond_build_builds_its_own(self, monkeypatch):
        # with the horizon cut to 2N the Klein ladder of the near-band pair
        # climbs past the trace-norm build; only the bound may change
        p = validate_params(-5.1, -2.6, 0.5)
        res = discrete_spectrum(p)
        monkeypatch.setattr(spectral, "TAIL_HORIZON", 0)
        sizes = self._spy(monkeypatch)
        cut = discrete_spectrum(p)
        assert sizes[0] == 513 and sizes[1:] == [1024 << k for k in range(len(sizes) - 1)]
        assert res.N_check == cut.N_check == sizes[-1]
        for name in SpectralResult.__dataclass_fields__:
            if name != "trace_bound":
                assert repr(getattr(res, name)) == repr(getattr(cut, name)), name


class TestTraceNormBound:
    def test_terminating_exact(self):
        # diagonal |3| plus the broken-bond pair 2|b_0 - 1| = 2
        for k in (1, 5, 100):
            assert abs(trace_norm_bound(PTERM1, k) - 5.0) < 1e-14

    def test_dominates_actual_nuclear_norm_terminating(self):
        # decoupled completion: exact block, broken bond, then a free tail
        n = 12
        jc = jacobi_coeffs(PTERM2, n)
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
        mat = jacobi_coeffs(p, n).matrix()
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

    @pytest.mark.parametrize(
        "abc", [(1e7, 0.5, 1.5), (1e9 + 1j, 0.5, 1.5), (1e15, 0.5, 1.5), (3e153 + 1j, 0.5, 1.5)]
    )
    def test_horizon_beyond_cap_refused(self, abc):
        # the tail horizon grows like 4|a|, and is infinite once the tail
        # constants overflow; nothing is built before the refusal
        with pytest.raises(HorizonTooDeep):
            trace_norm_bound(validate_params(*abc), 64)

    def test_horizon_below_cap_accepted(self):
        assert np.isfinite(trace_norm_bound(validate_params(2e5, 0.5, 1.5), 64))

    @pytest.mark.parametrize(
        "abc", NEGATIVE_SQUARES + [(-2.5 + 0.7j, 0.3, 1.4), (-40, 0.5, 1.5)],
        ids=["negative-squares-1", "negative-squares-2", "negative-squares-3",
             "complex", "terminating"],
    )
    @pytest.mark.parametrize("K", [1, 512])
    def test_native_sum_matches_complex_formula(self, abc, K):
        # the bound from the arrays in the triple's own arithmetic equals,
        # bit for bit, the complex128 sum with the principal roots b_n
        p = validate_params(*abc)
        n, rest = spectral._trace_horizon(p, K)
        jc = jacobi_coeffs(p, n + 1)
        diag = jc.diag.astype(complex)
        ref = float(np.sum(np.abs(diag[:n])) + 2.0 * np.sum(np.abs(jc.offdiag[:n] - 1.0)) + rest)
        if abc in NEGATIVE_SQUARES:
            # these reach the complex root of the real sum
            assert (jc.offdiag_sq < 0).any()
        assert spectral._trace_sum(jc, n, rest).hex() == ref.hex()
        assert trace_norm_bound(p, K).hex() == ref.hex()
        assert discrete_spectrum(p, 64).trace_bound.hex() == trace_norm_bound(p, 128).hex()


def _old_tail(p):
    """The tail of the earlier trace-norm bound, kept here as an oracle:
    n_min and the rest beyond n (n >= n_min) of the dominating series
    C/s_n^2, s_n = 2n - |c| - 3, its constants read off partial-fraction
    forms of a_n and b_n^2 - 1 = u + v + uv."""
    a, b, c = p.a, p.b, p.c
    q = 2.0 * (a - b) - 1.0
    g1 = 2.0 * a * c + 2.0 * b * c - 4.0 * a * b - c * c
    g2 = (2.0 + 2.0 * b - c) * (2.0 + c - 2.0 * a) - 2.0
    g3 = (2.0 + 2.0 * a - c) * (2.0 + c - 2.0 * b) - 6.0
    r = abs(q)
    ca = 2.0 * r + abs(g1) + abs(g2)
    cb = 4.0 * r + abs(g2) + abs(g3) + (2.0 * r + abs(g2)) * (2.0 * r + abs(g3))
    beta = abs(c) + 3.0
    low = max((beta + 1.0) / 2.0, (3.0 * abs(c) + 6.0) / 2.0, (beta + math.sqrt(cb)) / 2.0)
    n_min = math.ceil(low) + 1 if math.isfinite(low) else math.inf
    return n_min, lambda n: (ca + 2.0 * cb) / (2.0 * (2.0 * (n - 1.0) - beta))


def _old_bound(p, K):
    """The earlier trace-norm bound: the sum out to max(K, 20000, n_min),
    then the dominating series."""
    n_min, rest = _old_tail(p)
    n = max(K, 20000, n_min)
    return spectral._trace_sum(jacobi_coeffs(p, n + 1), n, rest(n))


def _closed_forms(p):
    """P, Q and W2, W1, W0 of the closed forms of ``spectral._tail_constants``."""
    a, b, c = p.a, p.b, p.c
    q = 2 * (a - b) - 1
    A, G = (2 * a - c) * (c - 2 * b), (2 * b + 2 - c) * (c - 2 * a + 2) - 2
    R, S = A + G, A + 3 * G + 2 * q
    w = (R - q * q, 2 * R + S - 2 * q * q - q * A + q * G, 2 * S + G * (2 * q + A))
    return 2 * q + R, 2 * A, w


def _c_nonpositive_draw(seed, n):
    """a ~ U[-7, 4], b ~ U[-4, 4], c ~ U[-4.5, -1] rounded to 2 decimals,
    no nonpositive-integer parameter: real triples with c + 1 <= 0."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        abc = tuple(round(rng.uniform(lo, hi), 2) for lo, hi in ((-7, 4), (-4, 4), (-4.5, -1)))
        if not any(float(x).is_integer() and x <= 0 for x in abc):
            out.append(abc)
    return out


#: the 27 pool triples and the grids of the repr probe
BOUND_GRIDS = {
    "pool": [tuple(complex(*e[k]) for k in "abc")
             for e in json.loads(POOL.read_text(encoding="utf-8"))],
    "seed-21": seeded_grid(21, 60, False),
    "seed-32": seeded_grid(32, 60, True),
    "hidden-real": hidden_real_grid(),
}

#: real, complex and c + 1 <= 0 triples, and a few with |a| in the hundreds
CERTIFIED = (
    seeded_grid(21, 4, False) + seeded_grid(32, 4, True) + _c_nonpositive_draw(5, 4)
    + [(-250.5, 3.1, 20.2), (310.7, -2.2, 1.3), (-183.5, 2.4 - 0.9j, -3.6 - 1j), (120.3 + 40j, 0.5, -9.2)]
)


class TestSharpTail:
    """The closed-form tail of the trace-norm bound: exact coefficient
    forms, a rigorous rest, never above the earlier bound."""

    @pytest.mark.parametrize("abc", CERTIFIED[::3], ids=str)
    def test_closed_forms(self, abc):
        p = validate_params(*abc)
        P, Q, (w2, w1, w0) = _closed_forms(p)
        jc = jacobi_coeffs(p, 4096)
        t = 2.0 * np.arange(1, 4095) + p.c
        a_n = -(P * t + Q) / (t * (t + 1) * (t + 2))
        dev = (w2 * t * t + w1 * t + w0) / ((t + 1) * (t + 2) ** 2 * (t + 3))
        # a_n and b_n^2 carry the cancellation of 2 - 4d - 4d and 16 d d
        assert np.all(np.abs(jc.diag[1:-1] - a_n) <= 1e-7 * np.abs(a_n))
        assert np.all(np.abs(jc.offdiag_sq[1:] - (1.0 + dev)) <= 1e-12 * np.abs(jc.offdiag_sq[1:]))

    @pytest.mark.parametrize("abc", CERTIFIED, ids=str)
    def test_rigour_certificate(self, abc):
        # the rest from n0 is at least the exact sum to M = 2^20 plus a
        # rigorous bound on what lies beyond M: the smaller of the earlier
        # dominating series there and the plain closed-form bound (|b - 1|
        # <= |b^2 - 1|, sum of 1/s^2 <= 1/(2(s_M - 2))).  The earlier series
        # overstates what lies beyond M about fiftyfold on (-4.4, -3.97,
        # 1.23), more than the slack of the sharp rest at n0 = 512
        p = validate_params(*abc)
        big = 1 << 20
        jc = jacobi_coeffs(p, big + 1)
        terms = np.abs(jc.diag[:big]) + 2.0 * np.abs(jc.offdiag[:big] - 1.0)
        n_old, old_rest = _old_tail(p)
        P, Q, w = _closed_forms(p)
        s = 2.0 * big + p.c.real
        h = sum(abs(x) / s**k for k, x in enumerate(w))
        plain = (abs(P) + abs(Q) / s + 2.0 * h) / (2.0 * (s - 2.0))
        assert n_old <= big
        beyond = min(old_rest(big), plain)
        n_min, rest = spectral._tail_constants(p)
        assert n_min <= n_old
        for n0 in (16, 64, 512):
            assert 2 * n0 + p.c.real > 0
            exact = float(np.sum(terms[n0:]))
            assert rest(n0) >= exact + beyond, (n0, rest(n0), exact, beyond)

    @pytest.mark.parametrize("grid", BOUND_GRIDS)
    def test_never_looser(self, grid):
        # the bound at N = 8, 64, 256 and 1024 is at most the earlier one,
        # which sums to 20000 at each of them; the Lieb-Thirring verdict is
        # the same under both (checked here up to N = 256)
        for abc in BOUND_GRIDS[grid]:
            p = validate_params(*abc)
            if termination_index(p) is not None:
                continue
            old = _old_bound(p, 2)
            for N in (8, 64, 256, 1024):
                assert trace_norm_bound(p, 2 * N) <= old, (abc, N)
            for N in (8, 64, 256):
                res = discrete_spectrum(p, N)
                assert res.holds == (res.distance_sum <= old + 1e-9), (abc, N)

    def test_n_min_not_above_old(self):
        # nor does the horizon refuse an extreme triple that the earlier
        # one accepted
        seen = 0
        for abc in [abc for g in BOUND_GRIDS.values() for abc in g] + extreme_triples(1, 600):
            try:
                p = validate_params(*abc)
                if termination_index(p) is not None:
                    continue
            except HypJacobiError:
                continue
            assert spectral._tail_constants(p)[0] <= _old_tail(p)[0], abc
            seen += 1
        assert seen > 300

    def test_horizon_about_abs_a(self, monkeypatch):
        # n_min is about |a| (it was about 4|a|)
        sizes = []
        build = spectral.jacobi_coeffs
        monkeypatch.setattr(spectral, "jacobi_coeffs", lambda p, n: sizes.append(n) or build(p, n))
        assert np.isfinite(trace_norm_bound(validate_params(2e5, 0.5, 1.5), 64))
        assert sizes and max(sizes) <= 2.1e5 + 1

    def test_large_a_below_cap(self):
        # refused with HorizonTooDeep before (its horizon was 1.98e6)
        assert np.isfinite(trace_norm_bound(validate_params(5e5 + 1j, 0.5, 1.5), 16))


class TestLiebThirring:
    def test_examples(self):
        res = discrete_spectrum(PTERM1, 16)
        assert abs(res.distance_sum - 1.0) < 1e-12 and res.holds
        res = discrete_spectrum(P101, 64)
        assert res.distance_sum == 0.0 and res.holds
        res = discrete_spectrum(PTERM2, 16)
        assert abs(res.distance_sum - 4.0 / math.sqrt(3.0)) < 1e-10 and res.holds

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
            res = discrete_spectrum(validate_params(a, b, c), N=64, tol=1e-8)
            assert res.distance_sum <= res.trace_bound + 1e-9
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
