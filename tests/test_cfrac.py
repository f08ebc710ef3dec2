"""Continued-fraction engine: coefficients, evaluation, J-fraction data,
approximant identities and the moment oracle."""

import math
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypjacobi import (
    CNonpositiveInteger,
    CoeffStream,
    DegenerateRatio,
    NoConvergence,
    NonFiniteParameter,
    OnCut,
    TerminationTooDeep,
    approximant,
    c_coeff,
    cf_ratio_eval,
    jacobi_coeffs,
    moment_oracle,
    offdiag_roots,
    ratio_series,
    termination_index,
    validate_params,
)
from hypjacobi.cfrac import (
    TERMINATION_CAP,
    c_array,
    cfrac_termination_index,
    near_band,
    stabilization_index,
    zero_indices,
)

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
        assert out.converged
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
        assert jc.diag == (3 + 0j,)
        assert jc.offdiag_sq == ()

    def test_terminating_quadratic(self):
        # closed form B = -(z - 2/3)/(z^2 + 4/3)
        jc = jacobi_coeffs(PTERM2, 10)
        assert jc.terminated_at == 1
        assert abs(jc.diag[0] + 2.0 / 3.0) < 1e-14
        assert abs(jc.diag[1] - 2.0 / 3.0) < 1e-14
        assert abs(jc.offdiag_sq[0] + 16.0 / 9.0) < 1e-14

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
        jc = offdiag_roots(jacobi_coeffs(validate_params(*abc), 2001))
        tail = sum(abs(a) for a in jc.diag[500:]) + sum(
            abs(b - 1.0) for b in jc.offdiag[500:]
        )
        assert tail < 5e-3


class TestOffdiagRoots:
    def test_unit(self):
        jc = jacobi_coeffs(P101, 3)
        jc = offdiag_roots(jc)
        assert abs(jc.offdiag[0] - math.sqrt(8.0 / 9.0)) < 1e-15

    def test_principal_of_negative(self):
        jc = offdiag_roots(jacobi_coeffs(validate_params(-1.5, 0, 1), 4))
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
            assert zero_indices(p) == scanned, abc
            assert cfrac_termination_index(p) == _scan_c_index(p), abc
            assert termination_index(p) == _scan_j_index(p), abc
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

    def test_zero_indices_need_no_cap(self):
        p = validate_params(1e300, 0, 1)  # c - a rounds to -1e300
        assert zero_indices(p) == (2 * int(1e300),)
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

    def test_exact_zeros(self):
        p = validate_params(-2, -1.5, 1)  # a + 2 = 0 at j = 5, b + 1.5 never
        arr = c_array(p, 12)
        assert [j for j in range(1, 13) if arr[j - 1] == 0] == [5]
        assert math.copysign(1.0, arr[4]) == 1.0
        q = validate_params(1 + 1j, 3 + 1j, 1 + 1j)  # c - b + 2 = 0 at j = 5
        assert c_array(q, 12)[4] == 0
