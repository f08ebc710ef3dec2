"""Real-parameter machinery: signature, kernel counts, Schur chain,
quadrature and the G-symmetric model H."""

import math
import re
import warnings

import numpy as np
import pytest

from hypjacobi import (
    DegenerateSamples,
    NearPole,
    NoConvergence,
    NonFiniteParameter,
    NotRealParams,
    NotStieltjes,
    ScanExhausted,
    b_function,
    build_H,
    discrete_spectrum,
    h_m_function,
    jacobi_coeffs,
    kappa_certificate,
    negative_squares,
    quadrature,
    schur_reconstruct,
    schur_step,
    sign_signature,
    stieltjes_check,
    validate_params,
)
from hypjacobi import classify
from hypjacobi.classify import _real_bands
from hypjacobi.spectral import resolvent_first

P101 = validate_params(1, 0, 1)
PKAPPA = validate_params(-1.5, 0, 1)
PTERM1 = validate_params(-1, -1.5, 1)
PTERM2 = validate_params(-2, 0, 1)

STIELTJES_TRIPLES = [(1, 0, 1), (0.5, -0.5, 0.2), (1, 1, 2), (2.5, 1.2, 3.0)]


class TestStieltjesCheck:
    def test_examples(self):
        assert stieltjes_check(P101)
        assert not stieltjes_check(PKAPPA)
        assert stieltjes_check(validate_params(0.5, -0.5, 0.2))

    def test_rejects_complex(self):
        with pytest.raises(NotRealParams):
            stieltjes_check(validate_params(1 + 1j, 0, 1))

    def test_box_implies_negative_coefficients(self):
        from hypjacobi import c_coeff

        rng = np.random.default_rng(3)
        for _ in range(20):
            c = rng.uniform(0.1, 4.0)
            a = rng.uniform(1e-3, c + 1 - 1e-3)
            b = rng.uniform(-1 + 1e-3, c - 1e-3)
            p = validate_params(a, b, c)
            assert stieltjes_check(p)
            assert all(c_coeff(p, j).real < 0 for j in range(1, 200))


class TestSignSignature:
    def test_stieltjes_trivial(self):
        sig = sign_signature(P101)
        assert sig.N == 0 and sig.kappa == 0
        assert all(e == 1 for e in sig.epsilons)

    def test_single_flip(self):
        # b_0^2 = 16 (7/12)(-1/12) = -7/9 < 0, b_1^2 = 9/25 > 0, rest positive
        sig = sign_signature(PKAPPA)
        assert sig.N == 1 and sig.kappa == 1
        assert sig.eps(0) == -1 and sig.eps(1) == 1 and sig.eps(57) == 1
        assert abs(sig.btilde[0] - math.sqrt(7.0) / 3.0) < 1e-14
        assert abs(sig.btilde[1] - 3.0 / 5.0) < 1e-14

    def test_defining_properties(self):
        for abc in [(-1.5, 0, 1), (-2.7, 0.3, 1.4), (1, 0, 1), (-4.2, -1.3, 2.5)]:
            p = validate_params(*abc)
            sig = sign_signature(p)
            jc = jacobi_coeffs(p, sig.N + 10)
            for j, bsq in enumerate(jc.offdiag_sq):
                if bsq != 0:
                    assert sig.eps(j) * sig.eps(j + 1) * bsq.real > 0
            assert all(sig.eps(j) == 1 for j in range(sig.N, sig.N + 20))
            assert sig.kappa == sum(1 for j in range(sig.N) if sig.eps(j) == -1)

    def test_terminating_flagged(self):
        sig = sign_signature(PTERM2)
        assert sig.terminated_at == 1
        assert sig.N == 1 and sig.kappa == 1 and sig.eps(0) == -1

    def test_scan_exhausted(self):
        # negatives persist up to index ~49 for a = -50.5, inside the limit
        sig = sign_signature(validate_params(-50.5, 0, 1))
        assert sig.N > 10

    def test_rejects_complex(self):
        with pytest.raises(NotRealParams):
            sign_signature(validate_params(1j, 0, 1))

    @pytest.mark.parametrize("a", [1e6 + 0.5, 1e8 + 0.5])
    def test_scan_exhausted_before_building(self, a, monkeypatch):
        # N is about a here; the signature must refuse it without asking
        # for coefficients out to N
        import hypjacobi.classify as classify

        build = classify.jacobi_coeffs

        def bounded(p, n):
            if n > 10**4:
                raise AssertionError(f"asked for {n} coefficients")
            return build(p, n)

        monkeypatch.setattr(classify, "jacobi_coeffs", bounded)
        with pytest.raises(ScanExhausted):
            sign_signature(validate_params(a, 0, 1))


class TestNegativeSquares:
    def test_nevanlinna_function(self):
        # -1/z maps the upper half-plane to itself: kernel PSD
        pts = [1j, 2j, 1 + 1j]
        vals = [(z, -1.0 / z) for z in pts]
        assert negative_squares(vals) == 0

    def test_anti_nevanlinna(self):
        vals = [(z, 1.0 / z) for z in (1j, 2j)]
        assert negative_squares(vals) == 1

    def test_anti_nevanlinna_many_points(self):
        # kernel of 1/z is minus a rank-one Gram matrix: one negative square
        rng = np.random.default_rng(13)
        pts = rng.uniform(-3, 3, 8) + 1j * rng.uniform(0.5, 2.5, 8)
        vals = [(z, 1.0 / z) for z in pts]
        assert negative_squares(vals) == 1

    def test_single_sample_at_most_one(self):
        assert negative_squares([(1j, -1.0 / 1j)]) in (0, 1)
        assert negative_squares([(1j, 1.0 / 1j)]) in (0, 1)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateSamples):
            negative_squares([(1j, 1.0), (1j, 1.0)])
        with pytest.raises(DegenerateSamples):
            negative_squares([(1.0 + 0j, 1.0)])
        with pytest.raises(DegenerateSamples):
            negative_squares([])

    @pytest.mark.parametrize("pairs", [[(17, 200)], [(10, 11), (3, 250)]])
    def test_coincident_pair_among_many(self, pairs):
        # the error names z[i] of the first pair i < j in row-major order
        rng = np.random.default_rng(5)
        z = rng.uniform(-4, 4, 256) + 1j * rng.uniform(0.3, 3, 256)
        for i, j in pairs:
            z[j] = z[i] + 1e-13
        first = z[min(pairs)[0]]
        with pytest.raises(DegenerateSamples, match=re.escape(f"coincident sample points at {first}")):
            negative_squares([(x, -1.0 / x) for x in z])


class TestKappaCertificate:
    def test_stieltjes_all_zero(self):
        cert = kappa_certificate(P101, trials=30, sample_size=5, seed=1)
        assert cert.kappa == 0
        assert cert.kappa_bound_ok
        assert cert.max_negatives_seen == 0

    def test_kappa_one_bound_and_attained(self):
        cert = kappa_certificate(PKAPPA, trials=60, sample_size=6, seed=1)
        assert cert.kappa == 1
        assert cert.kappa_bound_ok
        assert cert.max_negatives_seen == 1

    def test_terminating_rational(self):
        cert = kappa_certificate(PTERM2, trials=40, sample_size=5, seed=2)
        assert cert.kappa == 1
        assert cert.kappa_bound_ok

    def test_deterministic_in_seed(self):
        c1 = kappa_certificate(PKAPPA, trials=10, sample_size=5, seed=9)
        c2 = kappa_certificate(PKAPPA, trials=10, sample_size=5, seed=9)
        assert c1.counts == c2.counts

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_refused(self, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            kappa_certificate(PKAPPA, trials=trials)


class TestSchur:
    def test_step_algebra(self):
        phi = schur_step(lambda z: -1.0 / z, epsilon=1, gamma=0.0, delta=1.0)
        for z in (2j, 1 + 1j, -3 + 0.5j):
            assert abs(phi(z) + z / (z * z - 1.0)) < 1e-14

    def test_step_value(self):
        phi = schur_step(lambda z: -1.0 / z, 1, 0.0, 1.0)
        assert abs(phi(2j) - 0.4j) < 1e-15

    def test_step_pole(self):
        phi = schur_step(lambda z: -1.0 / z, 1, 0.0, 1.0)
        with pytest.raises(NearPole):
            phi(1.0)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            schur_step(lambda z: z, 1, 0.0, -1.0)
        with pytest.raises(ValueError):
            schur_step(lambda z: z, 2, 0.0, 1.0)

    def test_reconstruct_kappa_case(self):
        rng = np.random.default_rng(17)
        sig_eps0 = sign_signature(PKAPPA).eps(0)
        done = 0
        while done < 20:
            z = complex(rng.uniform(-4, 4), rng.uniform(0.5, 3))
            ref = sig_eps0 * b_function(PKAPPA, z, method="cf", tol=1e-13)
            got = schur_reconstruct(PKAPPA, z)
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))
            done += 1

    def test_reconstruct_trivial_chain(self):
        # N = 0: the chain is just the tail, i.e. B itself
        z = 3 + 2j
        got = schur_reconstruct(P101, z)
        ref = b_function(P101, z, method="cf", tol=1e-13)
        assert abs(got - ref) < 1e-10

    def test_reconstruct_terminating(self):
        z = 1.5 + 0.7j
        got = schur_reconstruct(PTERM2, z)
        ref = -b_function(PTERM2, z, method="cf")
        assert abs(got - ref) < 1e-12

    def test_reconstruct_no_convergence_reports_state(self):
        # next to the band the tail settles to 1e-12 far beyond order 8192
        with pytest.raises(NoConvergence, match="by order 8192") as err:
            schur_reconstruct(PKAPPA, 0.5 + 1e-4j)
        last = err.value.last_value
        assert last is not None
        assert 1e-12 * max(1.0, abs(last)) < err.value.last_correction < math.inf

    @staticmethod
    def _spy(monkeypatch, floor=0):
        # records the size of every band build, building at least ``floor``
        sizes = []
        build = classify._real_bands

        def spy(p, n):
            sizes.append(n)
            return build(p, max(n, floor))

        monkeypatch.setattr(classify, "_real_bands", spy)
        return sizes

    @pytest.mark.parametrize("z, tail", [(2.5 + 1.5j, [129]), (1.5 + 0.05j, [1025])])
    def test_tail_builds_per_three_doublings(self, monkeypatch, z, tail):
        # the first build reaches the tail order where the loop stops, twice
        # the predicted order (16.7 and 457.4) rounded up to 128 and 1024
        # (a tail order m reads N + m + 1 entries); the chain below the
        # stabilization index N reads N + 1 entries; each build mode on a
        # triple of its own, whose coefficient store starts empty
        n_stab = sign_signature(PKAPPA).N
        assert n_stab == 1
        ref = schur_reconstruct(validate_params(-1.5, 0, 1), z)
        with monkeypatch.context() as m:
            sizes = self._spy(m)
            assert repr(schur_reconstruct(validate_params(-1.5, 0, 1), z)) == repr(ref)
        assert sizes == [n_stab + k for k in tail] + [n_stab + 1]
        with monkeypatch.context() as m:
            self._spy(m, 8192 + n_stab + 1)
            assert repr(schur_reconstruct(validate_params(-1.5, 0, 1), z)) == repr(ref)

    def test_tail_orders_match_sliced_build(self, monkeypatch):
        # every tail order reads the first rows of its build once; its value
        # is resolvent_first on one large band build sliced there, bit for bit
        z = 1.5 + 0.05j  # slow: tail orders beyond 512
        n_stab = sign_signature(PKAPPA).N
        seen = []
        settle = classify.settle

        def spy(build, evaluate, *args):
            return settle(
                build, lambda made, m: seen.append((m, evaluate(made, m))) or seen[-1][1], *args
            )

        monkeypatch.setattr(classify, "settle", spy)
        # the loop and the large build each on a triple of its own, whose
        # coefficient store starts empty
        schur_reconstruct(validate_params(-1.5, 0, 1), z)
        assert [m for m, _ in seen] == [64, 128, 256, 512, 1024, 2048, 4096, 8192][: len(seen)]
        assert len(seen) >= 5
        diag, btilde = _real_bands(validate_params(-1.5, 0, 1), n_stab + 8193)
        for m, got in seen:
            off = btilde[n_stab : n_stab + m]
            assert repr(got) == repr(resolvent_first(diag[n_stab : n_stab + m + 1], off, off, z)), m

    @pytest.mark.parametrize("z", [math.nan, complex(2, math.nan)])
    def test_nan_z_refused(self, z):
        # was NearSingular ("resolvent solve blew up"), from the tail's or
        # H's resolvent solve
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteParameter, match="not finite"):
                schur_reconstruct(PKAPPA, z)
            with pytest.raises(NonFiniteParameter, match="not finite"):
                h_m_function(PKAPPA, z, 64)

    @pytest.mark.parametrize(
        "z", [math.inf, -math.inf, complex(math.inf, 1), complex(0, -math.inf)]
    )
    @pytest.mark.parametrize("p", [PKAPPA, P101], ids=["schur-chain", "tail-only"])
    def test_infinite_z_refused(self, p, z):
        # the same refusal as b_function's; was np.complex128(0j) on PKAPPA
        with pytest.raises(NonFiniteParameter, match="not finite"):
            b_function(p, z)
        with pytest.raises(NonFiniteParameter, match="not finite"):
            schur_reconstruct(p, z)

    @pytest.mark.parametrize("p", [PKAPPA, P101, PTERM2], ids=["schur-chain", "tail-only", "terminating"])
    def test_returns_python_complex(self, p):
        # as b_function on both routes; the Schur chain used to return a
        # numpy.complex128 (the chain mixes in the float64 a_j)
        for z in (2.5 + 1.5j, 1.5 + 0.7j):
            got = schur_reconstruct(p, z)
            assert type(got) is complex and type(b_function(p, z)) is complex

    def test_chain_of_callables(self):
        # composing schur_step handles matches the direct reconstruction
        sig = sign_signature(PKAPPA)
        jc = jacobi_coeffs(PKAPPA, sig.N + 2)
        z = 2.5 + 1.5j

        def tail(w):
            return b_function(
                validate_params(PKAPPA.a, PKAPPA.b, PKAPPA.c), w, "cf", 1e-13
            )

        # build the tail by stripping the first level from B via the
        # J-fraction relation instead: phi_1 = (-1/B - (z - a_0)) / b_0^2
        a0 = jc.diag[0].real
        b0sq = jc.offdiag_sq[0].real
        bval = b_function(PKAPPA, z, "cf", 1e-13)
        phi1 = (-1.0 / bval - (z - a0)) / b0sq
        step = schur_step(lambda w: phi1, sig.eps(0), a0, math.sqrt(abs(b0sq)))
        assert abs(step(z) - sig.eps(0) * bval) < 1e-11


class TestQuadrature:
    def test_weights_sum_to_one(self):
        for abc in STIELTJES_TRIPLES:
            quad = quadrature(validate_params(*abc), 32)
            assert abs(float(np.sum(quad.weights)) - 1.0) < 1e-12
            assert np.all(quad.weights > 0)

    def test_first_moment(self):
        quad = quadrature(P101, 32)
        assert abs(float(np.sum(quad.nodes * quad.weights)) - 4.0 / 3.0) < 1e-12

    def test_nodes_in_band(self):
        quad = quadrature(P101, 64)
        assert np.all(quad.nodes >= -2 - 1e-8)
        assert np.all(quad.nodes <= 2 + 1e-8)

    def test_moments_match_operator_powers(self):
        # integral of t^k against the rule equals <J^k e, e> for k <= 2N-1,
        # with the reference built on a strictly larger truncation
        n = 24
        for abc in STIELTJES_TRIPLES[:2]:
            p = validate_params(*abc)
            quad = quadrature(p, n)
            jc = jacobi_coeffs(p, n + 8)
            diag = np.asarray([x.real for x in jc.diag])
            off = np.sqrt(np.asarray([x.real for x in jc.offdiag_sq]))
            mat = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            cur = np.zeros(n + 8)
            cur[0] = 1.0
            for k in range(2 * n):
                lhs = float(np.sum(quad.weights * quad.nodes**k))
                rhs = float(cur[0])
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
                cur = mat @ cur

    def test_not_stieltjes(self):
        with pytest.raises(NotStieltjes):
            quadrature(PKAPPA, 16)

    def test_agrees_with_scipy_tridiagonal_solver(self):
        # the dense eigh of quadrature against SciPy's tridiagonal stevd;
        # bit for bit on the builds tried, but that depends on the LAPACK
        eigh_tridiagonal = pytest.importorskip("scipy.linalg").eigh_tridiagonal
        rng = np.random.default_rng(29)
        for _ in range(20):
            c = rng.uniform(0.1, 4.0)
            a = rng.uniform(1e-3, c + 1 - 1e-3)
            b = rng.uniform(-1 + 1e-3, c - 1e-3)
            p = validate_params(a, b, c)
            for n in (1, 2, 16, 64, 256):
                quad = quadrature(p, n)
                nodes, vecs = eigh_tridiagonal(*_real_bands(p, n))
                np.testing.assert_allclose(quad.nodes, nodes, rtol=0, atol=1e-14)
                np.testing.assert_allclose(quad.weights, vecs[0] ** 2, rtol=1e-12, atol=0)


class TestBuildH:
    def test_identity_signature(self):
        h, g = build_H(P101, 16)
        assert np.allclose(h, h.T)
        assert np.allclose(g, np.eye(16))

    def test_single_flip_structure(self):
        h, g = build_H(PKAPPA, 4)
        sig = sign_signature(PKAPPA)
        assert h[0, 1] > 0
        assert h[1, 0] == -h[0, 1]          # eps_0 eps_1 = -1
        assert h[1, 2] == h[2, 1]           # symmetric past the flip
        assert g[0, 0] == -1 and g[1, 1] == 1
        assert abs(h[0, 1] - sig.btilde[0]) < 1e-15

    def test_g_symmetry_residual(self):
        for abc in [(1, 0, 1), (-1.5, 0, 1), (-2.7, 0.3, 1.4)]:
            p = validate_params(*abc)
            h, g = build_H(p, 12)
            gh = g @ h
            resid = np.max(np.abs(gh - gh.T))
            assert resid <= 1e-15 * np.linalg.norm(h)

    def test_below_stabilization_rejected(self):
        with pytest.raises(ValueError):
            build_H(validate_params(-4.2, -1.3, 2.5), 1)


class TestHMFunction:
    def test_reduces_to_m_function(self):
        val = h_m_function(P101, 4.0, 256)
        assert abs(val - (-0.4102392266268373)) < 1e-10

    def test_matches_eps0_b(self):
        z = 3 + 2j
        v1 = h_m_function(PKAPPA, z, 512)
        v2 = h_m_function(PKAPPA, z, 1024)
        ref = sign_signature(PKAPPA).eps(0) * b_function(PKAPPA, z, "cf", 1e-13)
        assert abs(v1 - v2) < 1e-9
        assert abs(v2 - ref) < 1e-9

    def test_terminating_exact(self):
        assert abs(h_m_function(PTERM1, 5.0, 8) - (-0.5)) < 1e-14


class TestNonRealPoleBudget:
    @pytest.mark.parametrize("abc", [(-1.5, 0, 1), (-2.7, 0.3, 1.4), (1, 0, 1)])
    def test_at_most_two_kappa(self, abc):
        p = validate_params(*abc)
        kappa = sign_signature(p).kappa
        res = discrete_spectrum(p, 128)
        nonreal = [v for v in res.eigenvalues if v.imag != 0]
        assert len(nonreal) <= 2 * kappa


class TestNevanlinnaPositivity:
    def test_stieltjes_upper_half_plane(self):
        rng = np.random.default_rng(23)
        for abc in STIELTJES_TRIPLES:
            p = validate_params(*abc)
            for _ in range(12):
                z = complex(rng.uniform(-4, 4), rng.uniform(0.25, 3))
                assert b_function(p, z, "cf", 1e-13).imag >= -1e-12
