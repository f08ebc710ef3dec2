"""Continued-fraction engine: coefficients, evaluation, J-fraction data,
approximant identities and the moment oracle."""

import cmath
import math
import random
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypjacobi import cfrac, hyp
from hypjacobi import (
    CNonpositiveInteger,
    CoeffStream,
    DegenerateRatio,
    NoConvergence,
    NonFiniteParameter,
    OnCut,
    TerminationTooDeep,
    approximant,
    b_function,
    c_coeff,
    cf_ratio_eval,
    jacobi_coeffs,
    moment_oracle,
    ratio_series,
    termination_index,
    validate_params,
)
from hypjacobi.cfrac import (
    TERMINATION_CAP,
    c_array,
    cfrac_termination_index,
    near_band,
    settle,
    stabilization_index,
)
from hypjacobi.hyp import is_nonpositive_integer

P101 = validate_params(1, 0, 1)
PTERM1 = validate_params(-1, -1.5, 1)   # terminates at b_0^2 = 0
PTERM2 = validate_params(-2, 0, 1)      # terminates at b_1^2 = 0


class TestCCoeff:
    def test_hand_values(self):
        # direct substitution into the odd/even coefficient rules
        assert abs(c_coeff(P101, 1) + 0.5) < 1e-15
        assert abs(c_coeff(P101, 2) + 1.0 / 6.0) < 1e-15
        assert abs(c_coeff(P101, 3) + 1.0 / 3.0) < 1e-15
        assert abs(c_coeff(P101, 4) + 0.2) < 1e-15

    def test_exact_zero(self):
        # factor (a+1) = 0 at the second odd index
        assert c_coeff(PTERM1, 3) == 0

    @pytest.mark.parametrize("abc", [(1, 0, 1), (2 + 1j, 0.5, 3), (-1.5, 0.25, 2.5)])
    def test_limit_quarter(self, abc):
        p = validate_params(*abc)
        for j in (50, 200, 1000):
            assert abs(c_coeff(p, j) + 0.25) <= 20.0 / j

    def test_index_starts_at_one(self):
        with pytest.raises(ValueError):
            c_coeff(P101, 0)


class TestCoeffStream:
    def test_matches_direct(self):
        s = CoeffStream(P101)
        for j in (5, 1, 17, 3):
            assert s.c(j) == c_coeff(P101, j)
            assert s.d(j) == -c_coeff(P101, j)

    def test_array(self):
        s = CoeffStream(P101)
        arr = s.c_array(6)
        assert np.allclose(arr, [c_coeff(P101, j) for j in range(1, 7)])

    def test_concurrent_extension(self):
        s = CoeffStream(validate_params(0.5 + 0.1j, 1.2, 2.0))
        errs = []

        def worker(n):
            try:
                got = s.c_array(n)
                want = [c_coeff(s.params, j) for j in range(1, n + 1)]
                if not np.allclose(got, want):
                    errs.append("mismatch")
            except Exception as exc:  # pragma: no cover
                errs.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(n,)) for n in (100, 50, 200, 75)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errs


class TestCFRatioEval:
    def test_at_zero(self):
        out = cf_ratio_eval(P101, 0.0)
        assert out.value == 1.0 and out.depth_used == 1

    def test_log_closed_form_outside_disk(self):
        # ratio(1,0,1;-4) = 1/F(1,1,2;-4) = 4/log(5)
        out = cf_ratio_eval(P101, -4.0, tol=1e-14)
        assert abs(out.value - 4.0 / math.log(5.0)) < 1e-13

    def test_matches_series_in_disk(self):
        out = cf_ratio_eval(P101, 0.5, tol=1e-13)
        assert abs(out.value - ratio_series(P101, 0.5)) < 1e-12

    def test_converged_contract(self):
        out = cf_ratio_eval(validate_params(1.3, -0.2, 2.2), -2 + 1j, tol=1e-12)
        assert out.last_correction <= 1e-12 * max(1.0, abs(out.value))

    def test_on_cut(self):
        with pytest.raises(OnCut):
            cf_ratio_eval(P101, 1.5)
        with pytest.raises(OnCut):
            cf_ratio_eval(P101, 3 + 1e-10j)

    def test_near_band_either_chart(self):
        # -2 - 2e-9 is 2e-9 from the band in z but its w, 1 - 5e-10, is
        # 5e-10 from the cut; 2 + 5e-10 is refused in z alone
        assert near_band(-2.0 - 2e-9) and near_band(2.0 + 5e-10) and near_band(2.0)
        assert not near_band(-2.0 - 5e-9) and not near_band(3.0)
        with pytest.raises(OnCut):
            cf_ratio_eval(P101, 1.0 - 5e-10)
        with pytest.raises(OnCut):
            cf_ratio_eval(P101, -1e10)  # 2 - 4/w = 2 + 4e-10

    def test_cut_ok_when_terminating(self):
        # rational ratio: the cut is not special, poles aside
        out = cf_ratio_eval(PTERM2, 4.0)
        assert abs(out.value - 1.0 / (1 - 4 + 16 / 3)) < 1e-14

    def test_no_convergence_reports_state(self):
        with pytest.raises(NoConvergence) as err:
            cf_ratio_eval(validate_params(1.3, -0.2, 2.2), -2 + 1j, tol=1e-15, max_depth=8)
        assert err.value.last_value is not None
        # depth 8 is a single evaluation: no correction was ever measured
        assert err.value.last_correction == math.inf


    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_nan_or_inf_tol_refused(self, tol):
        # unchecked, tol = inf stops at depth 16 and tol = nan runs to the cap
        with pytest.raises(ValueError, match="tol"):
            cf_ratio_eval(validate_params(1.3, 0.4, 2.1), -1.5, tol=tol)

    @pytest.mark.parametrize("abc", [(1.3, 0.4, 2.1), (-2, 0.4, 2.1)], ids=["open", "terminating"])
    @pytest.mark.parametrize("z", [math.nan, math.inf, complex(1, math.inf), complex(math.nan, 1)])
    def test_non_finite_z_refused(self, abc, z):
        # unchecked, the open fraction doubled to depth 131072 at NaN and
        # raised NoConvergence, and refused inf as OnCut; the terminating one
        # returned nan+nanj; each with a RuntimeWarning
        p = validate_params(*abc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start = time.perf_counter()
            with pytest.raises(NonFiniteParameter, match="not finite"):
                cf_ratio_eval(p, z)
            assert time.perf_counter() - start < 0.01


class TestCFRatioBuilds:
    """cf_ratio_eval reads one c_array build per three doublings of the
    depth, of min(8 * depth, max_depth) entries."""

    P = validate_params(1.3, 0.4, 2.1)

    @staticmethod
    def _spy(monkeypatch):
        sizes = []
        build = cfrac.c_array

        def spy(p, n):
            sizes.append(n)
            return build(p, n)

        monkeypatch.setattr(cfrac, "c_array", spy)
        return sizes

    @pytest.mark.parametrize(
        "r, depth, builds", [(0.5, 128, [64, 1024]), (0.95, 2048, [64, 1024, 16384])]
    )
    def test_build_sizes(self, monkeypatch, r, depth, builds):
        lam = cmath.rect(r, 2.0)
        w = -4.0 / (lam + 1.0 / lam - 2.0)
        sizes = self._spy(monkeypatch)
        out = cf_ratio_eval(self.P, w, tol=1e-12)
        assert (out.depth_used, sizes) == (depth, builds)

    def test_build_capped_at_max_depth(self, monkeypatch):
        sizes = self._spy(monkeypatch)
        with pytest.raises(NoConvergence):
            cf_ratio_eval(self.P, -2 + 1j, tol=-1.0, max_depth=300)
        assert sizes == [64, 300]

    @pytest.mark.parametrize("abc", [(1.3, 0.4, 2.1), (1.3 + 0.5j, 0.4, 2.1), (-2, 0.5, 1.5)])
    def test_b_function_builds_no_scale(self, monkeypatch, abc):
        # B's scale reads the c_1 of validate_params (HypParams.c1), the
        # same bits as a build of its own: the fraction's builds are all
        p = validate_params(*abc)
        assert p.c1 == c_coeff(p, 1)
        sizes = self._spy(monkeypatch)
        b_function(p, cmath.rect(0.5, 2.0) + 1.0 / cmath.rect(0.5, 2.0), method="cf")
        assert sizes == ([64, 1024] if not p.zeros else [4])  # terminating: c_5 = 0


def _indexed_backward_eval(coeffs, z, depth):
    """The C-fraction recurrence indexed step by step, in numpy scalars:
    the reference that ``cfrac._backward_eval`` must match bit for bit."""
    z, t = np.complex128(z), 1.0 + 0.0j
    for j in range(depth - 1, -1, -1):
        t = 1.0 + coeffs[j] * z / t
        if t == 0:
            t = cfrac.TINY
    return t


class TestBackwardEval:
    @pytest.mark.parametrize("complex_triple", [False, True])
    def test_matches_indexed_reference(self, complex_triple):
        rng = random.Random(23)
        done = 0
        while done < 6:
            a, b, c = (round(rng.uniform(-5, 5), 2) for _ in range(3))
            if complex_triple:
                a, c = complex(a, rng.uniform(-2, 2)), complex(c, rng.uniform(-2, 2))
            try:
                p = validate_params(a, b, c)
            except CNonpositiveInteger:
                continue
            coeffs = c_array(p, 48).astype(complex)
            w = complex(rng.uniform(-6, 0.9), rng.uniform(-3, 3))
            for depth in range(1, 49):  # the whole build and every shorter prefix
                want = _indexed_backward_eval(coeffs, w, depth)
                assert repr(cfrac._backward_eval(coeffs, w, depth)) == repr(want), (p, w, depth)
            done += 1

    def test_vanishing_step_takes_tiny(self):
        # 1 + 0.25 * (-4) / 1 = 0 at the first step, replaced by TINY
        coeffs = np.array([0.3, 0.5, 0.25, 0.7], dtype=complex)
        for depth in (3, 4):
            want = _indexed_backward_eval(coeffs, -4.0, depth)
            assert repr(cfrac._backward_eval(coeffs, -4.0, depth)) == repr(want)
        assert abs(cfrac._backward_eval(coeffs, -4.0, 3) - 1.0) < 1e-270


class TestSettle:
    def test_doubles_until_first_agreeing_pair(self):
        values = {8: 1.0, 16: 0.5, 32: 0.5 + 1e-13, 64: 0.5, 128: 0.5}
        seen = []

        def evaluate(n):
            seen.append(n)
            return values[n]

        val, order, corr = settle(lambda n: None, lambda made, n: evaluate(n), 8, 128, 1e-12, "test")
        assert (val, order) == (0.5 + 1e-13, 32)
        assert corr == abs(values[32] - values[16])
        assert seen == [8, 16, 32]

    def test_cap_reports_state(self):
        seen = []

        def evaluate(n):
            seen.append(n)
            return float(n)

        with pytest.raises(NoConvergence) as err:
            settle(lambda n: None, lambda made, n: evaluate(n), 3, 40, 1e-12, "test value")
        assert seen == [3, 6, 12, 24]
        assert (err.value.last_value, err.value.last_correction) == (24.0, 12.0)
        assert "test value not settled by order 40" in str(err.value)
        assert "last relative correction 0.5" in str(err.value)

    def test_one_build_per_three_doublings(self):
        # orders 8..64 read a build of 64 entries, 128 one of 128 (the cap);
        # every order is handed the latest build
        builds, seen = [], []

        def build(size):
            builds.append([size])
            return builds[-1]

        def evaluate(made, n):
            seen.append((n, made))
            return float(n)

        with pytest.raises(NoConvergence):
            settle(build, evaluate, 8, 128, 1e-12, "test")
        assert [b[0] for b in builds] == [64, 128]
        assert [(n, made[0]) for n, made in seen] == [(8, 64), (16, 64), (32, 64), (64, 64), (128, 128)]
        assert seen[3][1] is builds[0] and seen[4][1] is builds[1]

    def test_start_beyond_cap_evaluates_nothing(self):
        with pytest.raises(NoConvergence) as err:
            settle(lambda n: None, lambda made, n: pytest.fail("evaluated"), 16, 8, 1e-12, "test")
        assert err.value.last_value is None
        assert err.value.last_correction == math.inf


    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_nan_or_inf_tol_refused(self, tol):
        with pytest.raises(ValueError, match="tol"):
            settle(lambda n: None, lambda made, n: pytest.fail("evaluated"), 8, 64, tol, "test")

    def test_minus_inf_tol_never_met(self):
        with pytest.raises(NoConvergence):
            settle(lambda n: None, lambda made, n: 1.0, 8, 64, -math.inf, "test")


class TestJacobiCoeffs:
    def test_values_101(self):
        jc = jacobi_coeffs(P101, 3)
        assert abs(jc.diag[0] - 4.0 / 3.0) < 1e-14
        assert abs(jc.diag[1] + 2.0 / 15.0) < 1e-14
        assert abs(jc.offdiag_sq[0] - 8.0 / 9.0) < 1e-14
        assert jc.terminated_at is None

    def test_late_overflow_refused(self):
        # non-terminating, leading entries finite (validate_params passes);
        # c + 10 = 1e-8 puts about |a| / 1e-8 into d_10 and d_11, so b_4^2
        # overflows
        p = validate_params(1e150 + 1j, 0.5, -9.99999999)
        assert termination_index(p) is None
        jacobi_coeffs(p, 4)
        with pytest.raises(NonFiniteParameter, match="not finite"):
            jacobi_coeffs(p, 16)

    def test_index_correction_regression_101(self):
        # moment oracle fixes a_0 and b_0^2; the misindexed alternatives
        # 2 - 4 d_1 and 16 d_3 d_4 are demonstrably wrong
        jc = jacobi_coeffs(P101, 2)
        s = moment_oracle(P101, 2)
        a0, b0sq = jc.diag[0], jc.offdiag_sq[0]
        assert abs(s[1] - a0) < 1e-12
        assert abs(s[2] - (a0 * a0 + b0sq)) < 1e-12
        d = lambda j: -c_coeff(P101, j)
        a0_misindexed = 2 - 4 * d(1)          # = 0
        b0sq_misindexed = 16 * d(3) * d(4)    # = 16/15
        assert abs(a0_misindexed - s[1]) > 1.0
        assert abs(b0sq_misindexed - (s[2] - a0 * a0)) > 0.1

    def test_terminating_simple_pole(self):
        jc = jacobi_coeffs(PTERM1, 10)
        assert jc.terminated_at == 0
        assert jc.diag.tolist() == [3 + 0j]
        assert jc.offdiag_sq.tolist() == []

    def test_terminating_quadratic(self):
        # closed form B = -(z - 2/3)/(z^2 + 4/3)
        jc = jacobi_coeffs(PTERM2, 10)
        assert jc.terminated_at == 1
        assert abs(jc.diag[0] + 2.0 / 3.0) < 1e-14
        assert abs(jc.diag[1] - 2.0 / 3.0) < 1e-14
        assert abs(jc.offdiag_sq[0] + 16.0 / 9.0) < 1e-14

    @pytest.mark.parametrize("abc", [(1, 0, 1), (-1.5, 0, 1), (2 + 1j, 0.5, 3), (-40, 0.5, 1.5)])
    def test_one_form_in_own_arithmetic(self, abc):
        # a_n and b_n^2 in the arithmetic of c_array, bit for bit the closed
        # forms a_0 = 2 - 4 d_2, a_n = 2 - 4 d_{2n+1} - 4 d_{2n+2} and
        # b_n^2 = 16 d_{2n+2} d_{2n+3}; the roots b_n are complex128
        p = validate_params(*abc)
        jc = jacobi_coeffs(p, 64)
        assert jc.diag.dtype == jc.offdiag_sq.dtype == (np.float64 if p.is_real else np.complex128)
        n = len(jc.diag)
        assert len(jc.offdiag_sq) == n - 1 and n == (64 if jc.terminated_at is None else 40)
        cs = c_array(p, 2 * n)

        def d(j):
            return -cs[j - 1]

        k = np.arange(1, n)
        diag = np.concatenate(([2.0 - 4.0 * d(2)], 2.0 - 4.0 * d(2 * k + 1) - 4.0 * d(2 * k + 2)))
        k = np.arange(n - 1)
        assert jc.diag.tobytes() == diag.tobytes()
        assert jc.offdiag_sq.tobytes() == (16.0 * d(2 * k + 2) * d(2 * k + 3)).tobytes()
        roots = jc.offdiag
        assert roots.dtype == np.complex128
        assert roots.tobytes() == np.sqrt(jc.offdiag_sq.astype(complex)).tobytes()
        neg = jc.offdiag_sq.real < 0
        assert neg.any() == (abc in ((-1.5, 0, 1), (-40, 0.5, 1.5)))
        assert (roots[neg].real == 0).all() and (roots[neg].imag > 0).all()
        # taken once, on first access
        assert jc.offdiag is roots

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateRatio):
            jacobi_coeffs(validate_params(0, 1, 2), 4)
        with pytest.raises(DegenerateRatio):
            jacobi_coeffs(validate_params(1, 2, 2), 4)

    @pytest.mark.parametrize("abc", [(1, 0, 1), (1, 1, 2), (-1.5, 0.25, 2.5)])
    def test_real_params_real_coeffs(self, abc):
        jc = jacobi_coeffs(validate_params(*abc), 50)
        assert all(v.imag == 0 for v in jc.diag)
        assert all(v.imag == 0 for v in jc.offdiag_sq)

    @pytest.mark.parametrize("abc", [(1, 0, 1), (2 + 1j, 0.5, 3), (-1.5, 0.25, 2.5)])
    def test_decay_exponent(self, abc):
        # |a_n| + |b_n^2 - 1| should decay like 1/n^2: fitted exponent >= 1.9
        jc = jacobi_coeffs(validate_params(*abc), 202)
        ns = np.arange(10, 201)
        mags = np.array(
            [abs(jc.diag[n]) + abs(jc.offdiag_sq[n] - 1.0) for n in ns]
        )
        slope = np.polyfit(np.log(ns), np.log(mags), 1)[0]
        assert slope <= -1.9

    @pytest.mark.parametrize("abc", [(1, 0, 1), (1.2 - 0.5j, 0.7, 1.8)])
    def test_summability_cauchy(self, abc):
        # partial sums of |a_k| + |b_k - 1| are Cauchy in the length
        jc = jacobi_coeffs(validate_params(*abc), 2001)
        tail = sum(abs(a) for a in jc.diag[500:]) + sum(
            abs(b - 1.0) for b in jc.offdiag[500:]
        )
        assert tail < 5e-3


class TestOffdiagRoots:
    def test_unit(self):
        jc = jacobi_coeffs(P101, 3)
        assert abs(jc.offdiag[0] - math.sqrt(8.0 / 9.0)) < 1e-15

    def test_principal_of_negative(self):
        jc = jacobi_coeffs(validate_params(-1.5, 0, 1), 4)
        b0 = jc.offdiag[0]
        assert abs(b0 - 1j * 0.8819171036881969) < 1e-15


class TestApproximant:
    def test_cfraction_order_zero(self):
        assert approximant(P101, "c-fraction", 0, 2.3 + 1j) == 1.0

    def test_jfraction_terminating(self):
        for z in (5.0, -1 + 2j, 0.3):
            val = approximant(PTERM1, "j-fraction", 1, z)
            assert abs(val + 1.0 / (z - 3.0)) < 1e-14
            # deeper approximants of a terminated fraction do not move
            assert approximant(PTERM1, "j-fraction", 7, z) == val

    def test_s_equals_c_after_variable_flip(self):
        p = validate_params(1.1, -0.3, 2.4)
        zeta = 1.7 - 0.9j
        for m in (1, 2, 5, 12):
            s = approximant(p, "s-fraction", m, zeta)
            c = approximant(p, "c-fraction", m, -1.0 / zeta)
            assert abs(s - c) < 1e-12 * max(1.0, abs(s))

    def test_even_part_identity_example(self):
        # J-fraction level n against S-fraction level 2n through the maps
        p, n, z = P101, 5, 5 + 2j
        jn = approximant(p, "j-fraction", n, z)
        s2n = approximant(p, "s-fraction", 2 * n, (z - 2.0) / 4.0)
        d1 = -c_coeff(p, 1)
        lifted = (-1.0 / (4.0 * d1)) * (s2n - 1.0)
        assert abs(jn - lifted) < 1e-12 * max(1.0, abs(jn))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            approximant(P101, "t-fraction", 3, 1j)

    def test_pole_of_approximant(self):
        from hypjacobi import PoleOfApproximant

        # the first J-fraction approximant -1/(z - a_0) has its pole at a_0
        a0 = jacobi_coeffs(P101, 2).diag[0]
        with pytest.raises(PoleOfApproximant):
            approximant(P101, "j-fraction", 1, a0)


class TestMomentOracle:
    def test_s0_always_one(self):
        for abc in [(1, 0, 1), (2 + 1j, 0.5, 3), (-1.5, 0.25, 2.5)]:
            s = moment_oracle(validate_params(*abc), 0)
            assert abs(s[0] - 1.0) < 1e-13

    def test_log_case(self):
        s = moment_oracle(P101, 3)
        assert abs(s[1] - 4.0 / 3.0) < 1e-12
        assert abs(s[2] - 8.0 / 3.0) < 1e-12
        assert abs(s[3] - 624.0 / 135.0) < 1e-12

    def test_rational_case(self):
        # B = -(z - 2/3)/(z^2 + 4/3) expands to the geometric-type moments
        s = moment_oracle(PTERM2, 5)
        expect = [1.0, -2.0 / 3.0, -4.0 / 3.0, 8.0 / 9.0, 16.0 / 9.0, -32.0 / 27.0]
        for got, want in zip(s, expect):
            assert abs(got - want) < 1e-12

    @pytest.mark.parametrize(
        "abc",
        [(1, 0, 1), (1, 1, 2), (0.5, -0.5, 0.2), (2 + 1j, 0.5, 3), (1.2 - 0.5j, 0.7, 1.8)],
    )
    def test_matches_jacobi_coeffs(self, abc):
        # s_1 = a_0, s_2 = a_0^2 + b_0^2, s_3 = a_0^3 + 2 a_0 b_0^2 + a_1 b_0^2
        p = validate_params(*abc)
        s = moment_oracle(p, 3)
        jc = jacobi_coeffs(p, 3)
        a0, a1 = jc.diag[0], jc.diag[1]
        b0 = jc.offdiag_sq[0]
        assert abs(s[1] - a0) < 1e-10
        assert abs(s[2] - (a0 * a0 + b0)) < 1e-10
        assert abs(s[3] - (a0**3 + 2 * a0 * b0 + a1 * b0)) < 1e-10


def _ref_factors(p, j):
    """Numerator factors and denominator of c_j, unreduced, in Python
    complex arithmetic (the scalar formula the kernel vectorizes)."""
    if j % 2 == 1:
        m = (j - 1) // 2
        return (p.a + m), (p.c - p.b + m), (p.c + 2 * m) * (p.c + 2 * m + 1)
    m = j // 2
    return (p.b + m), (p.c - p.a + m), (p.c + 2 * m - 1) * (p.c + 2 * m)


def _ref_c(p, j):
    f1, f2, den = _ref_factors(p, j)
    if f1 == 0 or f2 == 0:
        return 0.0 + 0.0j
    return -f1 * f2 / den


def _ref_is_zero(p, j):
    f1, f2, _ = _ref_factors(p, j)
    return f1 == 0 or f2 == 0


def _terminating_by_factors(a, b, c):
    """Reference: the fraction terminates iff a factor a + m or c - b + m
    (m >= 0), or b + m or c - a + m (m >= 1), vanishes; the test that
    ``validate_params`` ran on its own before it computed the zero indices."""
    a, b, c = complex(a), complex(b), complex(c)
    return any(is_nonpositive_integer(x) for x in (a, c - b, b + 1, c - a + 1))


def _scan_bound(p):
    return max(abs(p.a), abs(p.b), abs(p.c - p.a), abs(p.c - p.b))


def _scan_c_index(p):
    """Reference: linear scan for the first j >= 1 with c_j exactly zero."""
    bound = 2 * int(np.ceil(_scan_bound(p))) + 4
    for j in range(1, bound + 1):
        if _ref_is_zero(p, j):
            return j
    return None


def _scan_j_index(p):
    """Reference: linear scan for the first n with b_n^2 exactly zero."""
    bound = int(math.ceil(_scan_bound(p))) + 2
    for n in range(bound + 1):
        if _ref_is_zero(p, 2 * n + 2) or _ref_is_zero(p, 2 * n + 3):
            return n
    return None


_PARTS = (-3, -2.5, -1, 0, 0.5, 2, -2 + 0.5j)
_CS = (1, 2.5, -1.5, 3, 2 + 0.5j)
_TERMINATION_GRID = [
    (a, b, c) for a in _PARTS for b in _PARTS for c in _CS
] + [
    (1 + 1j, 3 + 1j, 1 + 1j),      # c - b = -2: complex triple, odd index 5
    (-1 + 1j, 0.5, -2 + 1j),       # c - a = -1: complex triple, even index 2
    (-7, -4, 0.5), (-4, -7, -0.5), (0, 1, 2), (1, 2, 2), (0, 0, 1),
]


class TestClosedFormTermination:
    def test_matches_linear_scans(self):
        terminating = 0
        for abc in _TERMINATION_GRID:
            p = validate_params(*abc)
            bound = 2 * int(np.ceil(_scan_bound(p))) + 4
            scanned = tuple(j for j in range(1, bound + 1) if _ref_is_zero(p, j))
            assert p.zeros == scanned, abc
            assert cfrac_termination_index(p) == _scan_c_index(p), abc
            assert termination_index(p) == _scan_j_index(p), abc
            assert bool(p.zeros) == _terminating_by_factors(*abc), abc
            terminating += termination_index(p) is not None
        # the grid exercises both outcomes
        assert 0 < terminating < len(_TERMINATION_GRID)

    def test_cap(self):
        # odd index 1 - 2a, even index -2b
        half = TERMINATION_CAP // 2
        assert cfrac_termination_index(validate_params(1 - half, 0.5, 1.5)) == TERMINATION_CAP - 1
        assert cfrac_termination_index(validate_params(1, -half, 1.5)) == TERMINATION_CAP
        for abc in [(-half, 0.5, 1.5), (1e7, 0, 1), (1e300, 0, 1), (-1e300, 0, 1)]:
            p = validate_params(*abc)
            with pytest.raises(TerminationTooDeep):
                cfrac_termination_index(p)
            with pytest.raises(TerminationTooDeep):
                termination_index(p)

    def test_rule_runs_once_per_triple(self, monkeypatch):
        calls = []
        rule = hyp._zero_indices
        monkeypatch.setattr(hyp, "_zero_indices", lambda *abc: calls.append(abc) or rule(*abc))
        triples = [validate_params(1.3, -0.2, 2.2), validate_params(-3, 0.5, 1.5)]
        assert len(calls) == 2
        for p in triples:
            for method in ("cf", "resolvent"):
                b_function(p, 4.0 + 1j, method=method)
        assert len(calls) == 2

    def test_zero_indices_need_no_cap(self):
        p = validate_params(1e300, 0, 1)  # c - a rounds to -1e300
        assert p.zeros == (2 * int(1e300),)
        assert c_array(p, 8).shape == (8,)


def _scan_stabilization_index(p):
    """Reference: scan b_n^2 for its last negative entry, out to an index
    beyond which every linear factor of b_n^2 is positive."""
    n = int(math.ceil(_scan_bound(p) + abs(p.c) / 2)) + 3
    bsq = np.asarray(jacobi_coeffs(p, n + 1).offdiag_sq).real
    negatives = np.flatnonzero(bsq < 0)
    return int(negatives[-1]) + 1 if negatives.size else 0


def _stabilization_grid():
    rng = np.random.default_rng(7)
    draws = {
        "integer": lambda: (*rng.integers(-30, 31, 2), rng.integers(1, 31)),
        "half-integer": lambda: tuple(rng.integers(-40, 41, 3) + 0.5),
        "generic": lambda: tuple(rng.uniform(-50, 50, 3)),
        "large |a|": lambda: (rng.choice([-1, 1]) * rng.uniform(50, 200), *rng.uniform(-20, 20, 2)),
    }
    grid = [draw() for draw in draws.values() for _ in range(400)]
    for _ in range(600):  # a, b, c - a or c - b a nonpositive integer
        c, x, k = rng.uniform(-20, 20), rng.uniform(-40, 40), -int(rng.integers(0, 60))
        grid.append([(k, x, c), (x, k, c), (c - k, x, c), (x, c - k, c)][rng.integers(0, 4)])
    return [tuple(float(v) for v in abc) for abc in grid]


class TestStabilizationIndex:
    def test_matches_scan(self):
        seen = {"terminating": 0, "N > 0": 0, "N = 0": 0}
        for abc in _stabilization_grid():
            p = validate_params(*abc)
            if p.a == 0 or p.c == p.b:
                continue
            n_stab = stabilization_index(p)
            assert n_stab == _scan_stabilization_index(p), abc
            seen["terminating"] += termination_index(p) is not None
            seen["N > 0" if n_stab else "N = 0"] += 1
        assert sum(seen.values()) - seen["terminating"] >= 2000
        assert min(seen.values()) >= 200, seen

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(-40, 40),
                st.integers(-80, 80).map(lambda k: k / 2),
                st.floats(-60, 60, allow_nan=False),
            ),
            min_size=3,
            max_size=3,
        )
    )
    def test_matches_scan_property(self, abc):
        try:
            p = validate_params(*abc)
        except CNonpositiveInteger:
            assume(False)
        assume(p.a != 0 and p.c != p.b)
        assert stabilization_index(p) == _scan_stabilization_index(p)


class TestCArray:
    @pytest.mark.parametrize(
        "abc", [(1, 0, 1), (-1.5, 0.25, 2.5), (-3, -2.5, 1.5), (0.7, 0.3, 2.1), (-250.5, 3.1, 20.2)]
    )
    def test_real_equals_scalar_reference(self, abc):
        p = validate_params(*abc)
        arr = c_array(p, 300)
        assert arr.dtype == np.float64
        for j in range(1, 301):
            ref = _ref_c(p, j)
            assert ref.imag == 0.0
            assert arr[j - 1] == ref.real, j

    @pytest.mark.parametrize(
        "abc",
        [(2 + 1j, 0.5, 3), (1 + 2j, 3, -0.5), (0.5 + 0.1j, 1.2, 2.0), (-1 + 0.5j, 0, 2),
         (1.2 - 0.5j, 0.7, 1.8), (1 + 1j, 3 + 1j, 1 + 1j)],
    )
    def test_complex_within_four_ulp(self, abc):
        p = validate_params(*abc)
        arr = c_array(p, 300)
        assert arr.dtype == np.complex128
        eps = np.finfo(float).eps
        for j in range(1, 301):
            ref = _ref_c(p, j)
            assert abs(arr[j - 1] - ref) <= 4 * eps * abs(ref), j

    def test_matches_closed_form_bit_for_bit(self):
        # the kernel forms c + 2m once for both halves; the closed form written
        # out term by term gives the same bytes, zero entries included
        rng = random.Random(19)
        triples = []
        while len(triples) < 80:
            a, b, c = (round(rng.uniform(-8, 8), 2) for _ in range(3))
            ai, bi = (round(rng.uniform(-3, 3), 2) for _ in range(2))
            kind = len(triples) % 5
            if kind == 0:
                a, ai = -float(rng.randint(1, 40)), 0.0  # a + m = 0
            elif kind == 1:
                b, bi = c + rng.randint(1, 40), 0.0  # c - b + m = 0
            if len(triples) % 2:
                a, b = complex(a, ai), complex(b, bi)
            try:
                triples.append(validate_params(a, b, c))
            except CNonpositiveInteger:
                continue
        for real in (True, False):
            assert sum(bool(p.zeros) for p in triples if p.is_real is real) >= 8
        for p in triples:
            a, b, c = (x.real if p.is_real else x for x in (p.a, p.b, p.c))
            for n in (1, 2, 157, 4000):
                ref = np.empty(n, dtype=float if p.is_real else complex)
                m = np.arange((n + 1) // 2, dtype=float)
                ref[0::2] = -(a + m) * (c - b + m) / ((c + 2 * m) * (c + 2 * m + 1))
                m = np.arange(1, n // 2 + 1, dtype=float)
                ref[1::2] = -(b + m) * (c - a + m) / ((c + 2 * m - 1) * (c + 2 * m))
                for k in p.zeros:
                    if k <= n:
                        ref[k - 1] = 0.0
                got = c_array(p, n)
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), (p, n)

    def test_entries_do_not_depend_on_build_size(self):
        # numpy may reorder an array product once it elides a temporary (at
        # 256 KB), and a complex product need not be bitwise commutative; so
        # the first n entries of J must not depend on how many are built
        rng = random.Random(22)
        triples = [(1.3, 0.4, 2.1), (-1.2 + 0.4j, 0.6, 1.1), (-1.2 + 0.4j, 0.6, 1.1 + 0.3j)]
        while len(triples) < 24:
            a, b, c = (round(rng.uniform(-5, 5), 2) for _ in range(3))
            kind = len(triples) % 3
            if kind:
                a = complex(a, round(rng.uniform(-2, 2), 2))
            if kind == 2:
                c = complex(c, round(rng.uniform(-2, 2), 2))
            triples.append((a, b, c))
        kinds = []
        for abc in triples:
            try:
                p = validate_params(*abc)
                full = jacobi_coeffs(p, 20001)
            except (CNonpositiveInteger, DegenerateRatio):
                continue
            if full.terminated_at is not None:
                continue
            kinds.append(p.c.imag != 0)
            for n in (1, 2, 3, 33, 64, 65, 513, 4097, 16385):
                jc = jacobi_coeffs(p, n)
                assert jc.diag.tobytes() == full.diag[:n].tobytes(), (abc, n)
                assert jc.offdiag_sq.tobytes() == full.offdiag_sq[: n - 1].tobytes(), (abc, n)
        assert kinds.count(True) >= 6 and kinds.count(False) >= 12

    def test_exact_zeros(self):
        p = validate_params(-2, -1.5, 1)  # a + 2 = 0 at j = 5, b + 1.5 never
        arr = c_array(p, 12)
        assert [j for j in range(1, 13) if arr[j - 1] == 0] == [5]
        assert math.copysign(1.0, arr[4]) == 1.0
        q = validate_params(1 + 1j, 3 + 1j, 1 + 1j)  # c - b + 2 = 0 at j = 5
        assert c_array(q, 12)[4] == 0
