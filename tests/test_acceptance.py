"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line.  Run with

    pytest tests/test_acceptance.py -v -s

Tolerances are pinned here and nowhere else; nothing is deferred to later
calibration.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from hypjacobi import (
    approximant,
    b_function,
    band_distance,
    band_to_cut,
    c_coeff,
    cf_ratio_eval,
    discrete_spectrum,
    build_H,
    h_m_function,
    hyp_zeros,
    jacobi_coeffs,
    kappa_certificate,
    lieb_thirring_check,
    moment_oracle,
    quadrature,
    ratio_series,
    schur_reconstruct,
    sign_signature,
    validate_params,
)

SEED = 20260808

P101 = validate_params(1, 0, 1)
PTERM1 = validate_params(-1, -1.5, 1)
PTERM2 = validate_params(-2, 0, 1)
PKAPPA = validate_params(-1.5, 0, 1)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[acceptance] criterion {num:2d} ({name}): {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _valid_c(c):
    k = min(round(c.real), 0)
    return abs(c - k) >= 1e-3


def _draw_triple(rng, want_complex):
    while True:
        if want_complex:
            a = complex(rng.uniform(-3.5, 3.5), rng.uniform(-3.5, 3.5))
            b = complex(rng.uniform(-3.5, 3.5), rng.uniform(-3.5, 3.5))
            c = complex(rng.uniform(-3.5, 3.5), rng.uniform(-3.5, 3.5))
        else:
            a = complex(rng.uniform(-5, 5))
            b = complex(rng.uniform(-5, 5))
            c = complex(rng.uniform(-5, 5))
        if not _valid_c(c):
            continue
        if abs(a) < 0.05 or abs(c - b) < 0.05:
            continue
        return validate_params(a, b, c)


def test_criterion_1_in_disk_oracle_agreement():
    rng = np.random.default_rng(SEED)
    t0 = time.monotonic()
    worst = 0.0
    for i in range(20):
        p = _draw_triple(rng, want_complex=(i >= 10))
        for _ in range(25):
            r = 0.8 * math.sqrt(rng.uniform(0, 1))
            th = rng.uniform(0, 2 * math.pi)
            z = r * complex(math.cos(th), math.sin(th))
            ref = ratio_series(p, z, tol=1e-14)
            got = cf_ratio_eval(p, z, tol=1e-13).value
            worst = max(worst, abs(got - ref) / abs(ref))
    elapsed = time.monotonic() - t0
    report(
        1,
        "in-disk oracle agreement",
        worst <= 1e-10 and elapsed < 5.0,
        f"max rel {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_closed_form_values():
    b_ref = -(0.5) * (2.0 / math.log(3.0) - 1.0)  # = -0.4102392266268373
    e1 = abs(b_function(P101, 4.0, method="cf", tol=1e-13) - b_ref)
    e2 = abs(b_function(P101, 4.0, method="resolvent", tol=1e-13) - b_ref)
    r_ref = 4.0 / math.log(5.0)  # = 2.4853397382384474
    e3 = abs(cf_ratio_eval(P101, -4.0, tol=1e-14).value - r_ref)
    report(
        2,
        "closed-form values",
        e1 <= 1e-12 and e2 <= 1e-12 and e3 <= 1e-12,
        f"cf {e1:.2e}, resolvent {e2:.2e}, ratio {e3:.2e}",
    )


def test_criterion_3_index_correction_regression():
    s = moment_oracle(P101, 2)
    jc = jacobi_coeffs(P101, 2)
    a0, b0sq = jc.diag[0], jc.offdiag_sq[0]
    ok = abs(s[1] - 4.0 / 3.0) <= 1e-12 and abs(s[2] - 8.0 / 3.0) <= 1e-12
    ok = ok and abs(a0 - s[1]) <= 1e-12
    ok = ok and abs(b0sq - (s[2] - a0 * a0)) <= 1e-12
    # the misindexed alternatives must NOT match the oracle
    d = lambda j: -c_coeff(P101, j)
    ok = ok and abs((2 - 4 * d(1)) - s[1]) > 1.0          # printed a_0 rule gives 0
    ok = ok and abs(16 * d(3) * d(4) - b0sq) > 0.1        # printed b_0^2 rule gives 16/15
    # exact rational values in the 2x2 terminating case
    jc2 = jacobi_coeffs(PTERM2, 4)
    ok = ok and abs(jc2.diag[0] + 2.0 / 3.0) <= 1e-14
    ok = ok and abs(jc2.diag[1] - 2.0 / 3.0) <= 1e-14
    ok = ok and abs(jc2.offdiag_sq[0] + 16.0 / 9.0) <= 1e-14
    report(3, "index-correction regression", ok)


def test_criterion_4_even_part_identity():
    z_grid = [
        5 + 2j, -3 + 1.5j, 4j, -4 - 1j, 2.5 + 3j,
        -2.5 - 2.5j, 1 + 4j, 6 - 0.5j, -5 + 0.5j, 0.5 - 3j,
    ]
    worst = 0.0
    for abc in [(1, 0, 1), (2 + 1j, 0.5, 3), (-1.5, 0.25, 2.5)]:
        p = validate_params(*abc)
        d1 = -c_coeff(p, 1)
        for n in range(1, 31):
            for z in z_grid:
                jn = approximant(p, "j-fraction", n, z)
                s2n = approximant(p, "s-fraction", 2 * n, (z - 2.0) / 4.0)
                lifted = (-1.0 / (4.0 * d1)) * (s2n - 1.0)
                worst = max(worst, abs(jn - lifted) / max(1.0, abs(jn)))
    report(4, "even-part identity", worst <= 1e-12, f"max rel {worst:.2e}")


def test_criterion_5_terminating_spectra():
    res1 = discrete_spectrum(PTERM1, 16)
    ok = len(res1.eigenvalues) == 1 and abs(res1.eigenvalues[0] - 3.0) <= 1e-10
    z1 = hyp_zeros(PTERM1, 16)
    ok = ok and len(z1) == 1 and abs(z1[0] + 4.0) <= 1e-10

    res2 = discrete_spectrum(PTERM2, 16)
    lam = 2.0 / math.sqrt(3.0)
    got = sorted(res2.eigenvalues, key=lambda v: v.imag)
    ok = ok and len(got) == 2
    ok = ok and abs(got[0] + 1j * lam) <= 1e-10 and abs(got[1] - 1j * lam) <= 1e-10
    z2 = sorted(hyp_zeros(PTERM2, 16), key=lambda v: v.imag)
    root = 1.5 + 1j * math.sqrt(3.0) / 2.0
    ok = ok and abs(z2[0] - root.conjugate()) <= 1e-10 and abs(z2[1] - root) <= 1e-10
    report(5, "terminating-case spectra", ok)


def test_criterion_6_lieb_thirring_inequality():
    rng = np.random.default_rng(SEED + 6)
    violations = 0
    worst_margin = np.inf
    for i in range(100):
        p = _draw_triple(rng, want_complex=(i % 2 == 1))
        lt = lieb_thirring_check(p, N=96, tol=1e-8)
        margin = lt.rhs - lt.lhs
        worst_margin = min(worst_margin, margin)
        if lt.lhs > lt.rhs + 1e-9:
            violations += 1
    report(
        6,
        "Lieb-Thirring-type inequality",
        violations == 0,
        f"100 triples, min margin {worst_margin:.3e}",
    )


def _stieltjes_triples(count, rng):
    out = []
    while len(out) < count:
        c = rng.uniform(0.1, 4.0)
        a = rng.uniform(0.05, c + 0.95)
        b = rng.uniform(-0.95, c - 0.05)
        p = validate_params(a, b, c)
        if abs(p.a) < 0.05 or abs(p.c - p.b) < 0.05:
            continue
        out.append(p)
    return out


def test_criterion_7_stieltjes_suite():
    rng = np.random.default_rng(SEED + 7)
    triples = _stieltjes_triples(10, rng)
    n_quad = 32
    ok = True
    detail = []
    for p in triples:
        for _ in range(50):
            z = complex(rng.uniform(-4, 4), rng.uniform(0.2, 3.0))
            if b_function(p, z, "cf", 1e-13).imag < -1e-12:
                ok = False
                detail.append(f"ImB<0 at {z} for {p}")
        quad = quadrature(p, n_quad)
        if not (np.all(quad.nodes >= -2 - 1e-8) and np.all(quad.nodes <= 2 + 1e-8)):
            ok = False
            detail.append("nodes outside band")
        if not (np.all(quad.weights > 0) and abs(float(np.sum(quad.weights)) - 1) <= 1e-12):
            ok = False
            detail.append("weights bad")
        jc = jacobi_coeffs(p, n_quad + 8)
        diag = np.asarray([x.real for x in jc.diag])
        off = np.sqrt(np.asarray([x.real for x in jc.offdiag_sq]))
        mat = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        cur = np.zeros(n_quad + 8)
        cur[0] = 1.0
        for k in range(2 * n_quad):
            lhs = float(np.sum(quad.weights * quad.nodes**k))
            if abs(lhs - cur[0]) > 1e-10 * max(1.0, abs(cur[0])):
                ok = False
                detail.append(f"moment {k} off")
            cur = mat @ cur
        if discrete_spectrum(p, 64).eigenvalues != ():
            ok = False
            detail.append("nonempty spectrum")
    report(7, "Stieltjes suite", ok, "; ".join(detail[:3]))


def test_criterion_8_kappa_classification():
    sig = sign_signature(PKAPPA)
    ok = sig.N == 1 and sig.kappa == 1
    cert = kappa_certificate(PKAPPA, trials=200, sample_size=6, seed=42)
    ok = ok and cert.kappa_bound_ok and cert.max_negatives_seen == 1
    res = discrete_spectrum(PKAPPA, 128)
    nonreal = [v for v in res.eigenvalues if v.imag != 0]
    ok = ok and len(nonreal) <= 2

    rng = np.random.default_rng(SEED + 8)
    for p in _stieltjes_triples(10, rng):
        s = sign_signature(p)
        c = kappa_certificate(p, trials=20, sample_size=5, seed=42)
        ok = ok and s.kappa == 0 and c.max_negatives_seen == 0
    report(
        8,
        "kappa classification",
        ok,
        f"N={sig.N} kappa={sig.kappa} max_seen={cert.max_negatives_seen} "
        f"nonreal={len(nonreal)}",
    )


def test_criterion_9_schur_chain_and_h_form():
    rng = np.random.default_rng(SEED + 9)
    eps0 = sign_signature(PKAPPA).eps(0)
    worst = 0.0
    done = 0
    while done < 20:
        z = complex(rng.uniform(-4, 4), rng.uniform(0.5, 3))
        ref = eps0 * b_function(PKAPPA, z, "cf", 1e-13)
        worst = max(worst, abs(schur_reconstruct(PKAPPA, z) - ref) / max(1.0, abs(ref)))
        done += 1
    ok = worst <= 1e-10

    g_ok = True
    for abc in [(1, 0, 1), (-1.5, 0, 1), (-2.7, 0.3, 1.4)]:
        h, g = build_H(validate_params(*abc), 16)
        gh = g @ h
        if np.max(np.abs(gh - gh.T)) > 1e-15 * np.linalg.norm(h):
            g_ok = False
    ok = ok and g_ok

    z0 = 3 + 2j
    v1 = h_m_function(PKAPPA, z0, 512)
    v2 = h_m_function(PKAPPA, z0, 1024)
    ref = eps0 * b_function(PKAPPA, z0, "cf", 1e-13)
    h_ok = abs(v1 - v2) <= 1e-9 and abs(v2 - ref) <= 1e-9
    ok = ok and h_ok
    report(
        9,
        "Schur chain and H-form",
        ok,
        f"chain {worst:.2e}, G-sym {g_ok}, h-m {abs(v2 - ref):.2e}",
    )


def test_criterion_10_cli_determinism(cli_env):
    runs = [
        ["classify", "-a", "-1.5", "-b", "0", "-c", "1", "--trials", "25", "--seed", "42"],
        ["spectrum", "-a", "-2", "-b", "0", "-c", "1"],
        ["eval", "-a", "1", "-b", "0", "-c", "1", "--z", "4,0"],
    ]
    ok = True
    for args in runs:
        cmd = [sys.executable, "-m", "hypjacobi.cli", *args]
        r1 = subprocess.run(cmd, capture_output=True, env=cli_env)
        r2 = subprocess.run(cmd, capture_output=True, env=cli_env)
        if r1.returncode != 0 or r1.stdout != r2.stdout or not r1.stdout:
            ok = False
        json.loads(r1.stdout)  # payload must stay well-formed JSON
    report(10, "CLI determinism", ok)
