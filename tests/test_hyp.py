"""Series core: validation, summation, ratio oracle, contiguous relation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hypjacobi import (
    CNonpositiveInteger,
    DenominatorZero,
    NoConvergence,
    NonFiniteParameter,
    OutsideDisk,
    contiguous_residual,
    hyp,
    hyp2f1_series,
    ratio_series,
    validate_params,
)
from hypjacobi.cfrac import c_array


def brute_force_series(a, b, c, z, n_terms):
    """Independent Pochhammer-product oracle, no ratio updates."""
    total = 0j
    for n in range(n_terms):
        num = 1.0 + 0j
        for k in range(n):
            num *= (a + k) * (b + k)
        den = math.factorial(n) + 0j
        for k in range(n):
            den *= c + k
        total += num / den * z**n
    return total


class TestValidateParams:
    def test_real_triple(self):
        p = validate_params(1, 0, 1)
        assert p.is_real
        assert p.a == 1 and p.b == 0 and p.c == 1

    def test_c_zero_rejected(self):
        with pytest.raises(CNonpositiveInteger):
            validate_params(1, 1, 0)

    def test_c_negative_integer_rejected(self):
        with pytest.raises(CNonpositiveInteger):
            validate_params(1, 1, -3)

    def test_c_near_negative_integer_rejected(self):
        with pytest.raises(CNonpositiveInteger):
            validate_params(1, 1, -2 + 1e-10)

    def test_negative_half_is_fine(self):
        p = validate_params(1 + 2j, 3, -0.5)
        assert not p.is_real

    def test_positive_integer_c_fine(self):
        assert validate_params(0.5, 0.5, 3).is_real

    def test_custom_guard(self, monkeypatch):
        monkeypatch.setattr(hyp, "EPS_C", 1e-3)
        with pytest.raises(CNonpositiveInteger, match="within 0.001"):
            validate_params(1, 1, -1 + 1e-4)
        monkeypatch.setattr(hyp, "EPS_C", 1e-6)
        validate_params(1, 1, -1 + 1e-4)

    @pytest.mark.parametrize(
        "abc",
        [
            # c(c+1) overflows: c_1, c_2 and c_3 all come out as -0
            (4.9929651975296e13, 0.010789734977852653, 3.751716335085896e189 + 38.73j),
            # c_1 ~ -a/c = -1e-354 alone underflows; c_2, c_3 ~ 1e-154
            (1e-200, 0.5, 1e154),
            # terminating at c_7 = 0 (a + 3 = 0), but c_1..c_3 underflow
            (-3, 0.5, 1e200),
        ],
    )
    def test_underflowed_leading_coefficient_refused(self, abc):
        # no zero index among 1..3, so an exact 0 is an underflow: B's scale
        # would divide by it (cf) and b_0^2 = 0 would cut J off (resolvent)
        with pytest.raises(NonFiniteParameter, match="underflows to 0"):
            validate_params(*abc)

    @pytest.mark.parametrize("abc", [(1.3, 0.4, 2.1), (2 + 1j, 0.5, 3), (-2, 0.5, 1.5), (0, 1, 2)])
    def test_leading_coefficient_kept_out_of_repr_and_equality(self, abc):
        p = validate_params(*abc)
        assert repr(p.c1) == repr(complex(c_array(p, 1)[0]))
        assert "c1" not in repr(p)
        assert p == replace(p, c1=p.c1 + 1) and hash(p) == hash(replace(p, c1=p.c1 + 1))

    @pytest.mark.parametrize("abc", [(1.3, 0.4, 2.1), (2 + 1j, 0.5, 3), (-2, 0.5, 1.5)])
    def test_scale_of_b(self, abc):
        # B = scale * (ratio - 1), scale = -1/(4 d_1) with d_1 = -c_1
        p = validate_params(*abc)
        assert repr(p.scale) == repr(-1.0 / (4.0 * -p.c1))


class TestSeries:
    def test_geometric(self):
        p = validate_params(1, 1, 1)
        out = hyp2f1_series(p, 0.5)
        assert abs(out.value - 2.0) < 1e-13

    def test_at_zero(self):
        out = hyp2f1_series(validate_params(2.5, -0.3 + 1j, 4), 0.0)
        assert out.value == 1.0
        assert out.terms_used == 1
        assert out.truncation_estimate == 0.0

    def test_log_closed_form(self):
        # F(1,1,2;z) = -log(1-z)/z
        out = hyp2f1_series(validate_params(1, 1, 2), 0.5)
        assert abs(out.value - 2.0 * math.log(2.0)) < 1e-13

    def test_against_brute_force(self):
        p = validate_params(0.7 - 0.2j, 1.3, 2.1 + 0.5j)
        z = 0.4 + 0.3j
        ref = brute_force_series(p.a, p.b, p.c, z, 80)
        out = hyp2f1_series(p, z)
        assert abs(out.value - ref) < 1e-12 * abs(ref)

    def test_converged_contract(self):
        p = validate_params(2.2, -0.7, 1.9)
        out = hyp2f1_series(p, 0.6)
        assert out.truncation_estimate <= 1e-14 * max(1.0, abs(out.value))

    def test_terminating_polynomial(self):
        # a = -3: cubic polynomial, any z allowed
        p = validate_params(-3, 2.5, 1.3)
        out = hyp2f1_series(p, 5.0)
        ref = brute_force_series(-3, 2.5, 1.3, 5.0, 4)
        assert out.truncation_estimate == 0.0
        assert out.terms_used <= 4
        assert abs(out.value - ref) < 1e-12 * abs(ref)

    def test_outside_disk(self):
        with pytest.raises(OutsideDisk):
            hyp2f1_series(validate_params(1, 1, 2), 0.9995)

    def test_no_convergence_budget(self):
        # inside the disk margin, yet term 10000 is still above 1e-14
        with pytest.raises(NoConvergence, match="term 10000 "):
            hyp2f1_series(validate_params(0.5, 0.5, 0.5), 0.998)

    def test_non_finite_term_stops_at_once(self):
        # terms near |a z|^n / n! overflow extended precision long before
        # they shrink; the first non-finite one ends the sum, with no
        # RuntimeWarning (an error under this suite's filter)
        with pytest.raises(NoConvergence) as err:
            hyp2f1_series(validate_params(1e9, 0.5, 1.5), 0.3)
        assert err.value.last_value is not None
        assert not math.isfinite(err.value.last_correction)
        assert "term" in str(err.value)

    @pytest.mark.parametrize("z", [0.3 + 0.4j, -0.6 + 0.1j, 0.7j])
    def test_conjugate_symmetry(self, z):
        p = validate_params(1.7, -0.4, 2.3)
        v1 = hyp2f1_series(p, np.conj(z)).value
        v2 = np.conj(hyp2f1_series(p, z).value)
        assert abs(v1 - v2) <= 1e-15 * max(1.0, abs(v2))


class TestRatioSeries:
    def test_log_case(self):
        # numerator is 1 since b = 0, so ratio = 1/F(1,1,2;z)
        val = ratio_series(validate_params(1, 0, 1), 0.5)
        assert abs(val - 0.5 / math.log(2.0)) < 1e-13

    def test_at_zero(self):
        assert ratio_series(validate_params(2, 0.3, 1.4), 0.0) == 1.0

    def test_polynomial_case(self):
        # (1 + 1.5 z) / (1 + 0.25 z) at z = 0.5
        val = ratio_series(validate_params(-1, -1.5, 1), 0.5)
        assert abs(val - 1.75 / 1.125) < 1e-14

    def test_vanishing_denominator(self):
        # F(4, -1, 2; 0.5) = 1 - 4/2 * 0.5 = 0 exactly
        with pytest.raises(DenominatorZero):
            ratio_series(validate_params(4, -2, 1), 0.5)


class TestContiguousResidual:
    @pytest.mark.parametrize(
        "abc,z,bound",
        [
            ((1, 0, 1), 0.3, 1e-12),
            ((2 + 1j, 0.5, 3), 0.5j, 1e-12),
            ((-1, -1.5, 1), 0.7, 1e-14),
        ],
    )
    def test_examples(self, abc, z, bound):
        assert contiguous_residual(validate_params(*abc), z) <= bound

    def test_random_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = rng.uniform(-3, 3) + 1j * rng.uniform(-1, 1) * rng.integers(0, 2)
            b = rng.uniform(-3, 3)
            c = rng.uniform(0.5, 4)
            p = validate_params(a, b, c)
            z = rng.uniform(-0.8, 0.8) + 1j * rng.uniform(-0.4, 0.4)
            mags = [
                abs(hyp2f1_series(p, z).value),
                abs(hyp2f1_series(p.shifted(db=1, dc=1), z).value),
                abs(hyp2f1_series(p.shifted(da=1, db=1, dc=2), z).value),
            ]
            assert contiguous_residual(p, z) <= 10 * 1e-14 * max(1.0, *mags)
