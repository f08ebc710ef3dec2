"""The coefficient store of a ``HypParams``: every route reads c_j and J
from the longest build made so far for the triple, and a warm store gives
the same bits, and the same typed errors, as a cold one."""

import sys
import threading

import numpy as np
import pytest

from hypjacobi import (
    HypJacobiError,
    b_function,
    cf_ratio_eval,
    cfrac,
    discrete_spectrum,
    jacobi_coeffs,
    m_function,
    spectral,
    trace_norm_bound,
    validate_params,
)
from hypjacobi.cfrac import finite_c_array
from hypjacobi.classify import _real_bands, quadrature, schur_reconstruct, sign_signature
from test_extreme_inputs import ROUTES, _outcome, large_a_triples
from test_invariants import POOL

#: real, Stieltjes, near-band real (its ladder climbs past the first build),
#: complex, and terminating triples
TRIPLES = [
    (1.3, 0.4, 2.1),
    (-1.5, 0, 1),
    (-5.1, -2.6, 0.5),
    (2 + 1j, 0.5, 3),
    (-1.2 + 0.4j, 0.6, 1.1 + 0.3j),
    (-2, 0.5, 1.5),
]
Z = 2.5 + 1.5j

#: each reader of the store, and whether it takes a real triple only
READERS = {
    "b_cf": (lambda p: b_function(p, Z, method="cf"), False),
    "b_resolvent": (lambda p: b_function(p, Z, method="resolvent"), False),
    "b_near_band": (lambda p: b_function(p, 1.5 + 0.05j, method="resolvent"), False),
    "cf_ratio_eval": (lambda p: cf_ratio_eval(p, -4.0 / (Z - 2.0)), False),
    "m_function": (lambda p: m_function(p, Z, 100), False),
    "discrete_spectrum": (lambda p: discrete_spectrum(p, N=64), False),
    "trace_norm_bound": (lambda p: trace_norm_bound(p, 64), False),
    "schur_reconstruct": (lambda p: schur_reconstruct(p, Z), True),
    "sign_signature": (sign_signature, True),
    "quadrature": (lambda p: quadrature(p, 32), True),
}


#: every reader on every triple it takes
CASES = [
    (reader, abc)
    for reader, (_, real_only) in READERS.items()
    for abc in TRIPLES
    if not (real_only and any(isinstance(x, complex) for x in abc))
]


def _bits(call) -> str:
    """The repr of a result (the bytes of its arrays for a quadrature
    rule), or the type and message of a typed error."""
    try:
        out = call()
    except HypJacobiError as exc:
        return f"{type(exc).__name__}: {exc}"
    if hasattr(out, "nodes"):
        return repr((out.nodes.tobytes(), out.weights.tobytes(), out.order))
    return repr(out)


def _warm(p, size: int) -> None:
    """Fill the store of ``p`` with a build of ``size`` coefficients c_j,
    whatever they hold."""
    cfrac._stored(p, size)


@pytest.mark.parametrize("reader, abc", CASES)
def test_warm_store_same_bits(reader, abc):
    call = READERS[reader][0]
    cold = _bits(lambda: call(validate_params(*abc)))
    # the long build first: the reader slices it
    p = validate_params(*abc)
    _warm(p, 1 << 15)
    assert _bits(lambda: call(p)) == cold, "long build first"
    # the short build first: the reader replaces it, then reads its own
    p = validate_params(*abc)
    _warm(p, 4)
    assert _bits(lambda: call(p)) == cold, "short build first"
    assert _bits(lambda: call(p)) == cold, "the reader's own build"
    # every other reader first, on the same triple
    p = validate_params(*abc)
    for other, (fn, real) in READERS.items():
        if other != reader and not (real and not p.is_real):
            _bits(lambda: fn(p))
    assert _bits(lambda: call(p)) == cold, "every other reader first"


def test_request_inside_store_builds_nothing(monkeypatch):
    p = validate_params(2 + 1j, 0.5, 3)
    cold = [b_function(p, Z, method=m) for m in ("cf", "resolvent")]
    made = p._store.build
    sizes = []
    build = cfrac.c_array

    def spy(p, n):
        sizes.append(n)
        return build(p, n)

    monkeypatch.setattr(cfrac, "c_array", spy)
    assert [b_function(p, Z, method=m) for m in ("cf", "resolvent")] == cold
    order = len(made.c) // 2
    jacobi_coeffs(p, order)
    finite_c_array(p, len(made.c))
    m_function(p, Z, 10)
    assert sizes == [] and p._store.build is made
    jacobi_coeffs(p, order + 1)
    assert sizes == [2 * order + 2] and p._store.build is not made
    # the spectrum and its bound: a second call asks for blocks that the
    # first one built
    res = discrete_spectrum(p, 64)
    sizes.clear()
    assert repr(discrete_spectrum(p, 64)) == repr(res)
    assert trace_norm_bound(p, 128).hex() == res.trace_bound.hex()
    assert sizes == []


def test_spectrum_bound_is_trace_norm_bound():
    # the bound of a spectrum is the trace-norm bound at 2N, bit for bit,
    # whichever is computed first
    for e in POOL:
        abc = tuple(complex(*e[k]) for k in "abc")
        p, q = validate_params(*abc), validate_params(*abc)
        bound = discrete_spectrum(p, 256).trace_bound
        assert bound.hex() == trace_norm_bound(p, 512).hex() == trace_norm_bound(q, 512).hex(), abc


def test_stored_arrays_are_read_only():
    z = 3.1 + 0.7j
    p = validate_params(1.3, 0.4, 2.1)
    ref = [b_function(p, z, method=m) for m in ("cf", "resolvent")]
    jc = jacobi_coeffs(p, 16)
    diag, _ = _real_bands(p, 16)
    for arr in (jc.diag, jc.offdiag_sq, jc.offdiag, finite_c_array(p, 16), diag):
        with pytest.raises(ValueError):
            arr[0] = 1
    with pytest.raises(ValueError):
        jc.diag[0] = 1
    # nothing written: the triple evaluates as before
    assert [b_function(p, z, method=m) for m in ("cf", "resolvent")] == ref


def test_store_outside_equality_hash_and_repr():
    p, q = validate_params(1.3, 0.4, 2.1), validate_params(1.3, 0.4, 2.1)
    b_function(p, Z, method="resolvent")
    assert p._store.build is not None and q._store.build is None
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
    assert "_store" not in repr(p)


def test_tail_constants_formed_once(monkeypatch):
    calls = []
    tail = spectral._tail_constants

    def spy(p):
        calls.append(p)
        return tail(p)

    monkeypatch.setattr(spectral, "_tail_constants", spy)
    p = validate_params(-5.1, -2.6, 0.5)
    bounds = {
        trace_norm_bound(p, 64), trace_norm_bound(p, 64), discrete_spectrum(p, N=64).trace_bound
    }
    assert len(calls) == 1 and len(bounds) == 1


def test_large_a_warm_store_same_outcomes():
    # both routes, after the other route, after themselves, and after a
    # long build: the cold value or the cold typed error
    routes = {name: ROUTES[name][0] for name in ("cf", "resolvent")}
    accepted = 0
    for abc in large_a_triples(31, 120):
        try:
            validate_params(*abc)
        except HypJacobiError:
            continue
        accepted += 1
        cold = {name: _outcome(lambda: fn(validate_params(*abc))) for name, fn in routes.items()}
        for order in (("cf", "resolvent"), ("resolvent", "cf")):
            p = validate_params(*abc)
            for name in order + order:
                assert _outcome(lambda: routes[name](p)) == cold[name], (abc, order, name)
        p = validate_params(*abc)
        _warm(p, 1 << 13)
        for name, call in routes.items():
            assert _outcome(lambda: call(p)) == cold[name], (abc, "long build first", name)
    assert accepted > 60, accepted


def test_threads_share_one_store():
    # more threads than cores on one HypParams, each at its own points (near
    # the band and far from it, so that their builds differ in length),
    # against serial results from cold stores
    abc = (-1.2 + 0.4j, 0.6, 1.1 + 0.3j)
    points = (
        [1.5 + 0.05j, 3.0 + 2.0j], [0.5 + 0.02j, 5.0 - 1.0j],
        [-1.9 + 0.1j, 2.2 + 0.3j], [1.0 - 0.01j, -3.0 + 0.5j],
    )

    def evaluate(p, zs):
        return [_bits(lambda: b_function(p, z, method=m)) for z in zs for m in ("cf", "resolvent")]

    serial = [evaluate(validate_params(*abc), zs) for zs in points]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            p = validate_params(*abc)
            got: list = [None] * len(points)

            def work(k):
                got[k] = evaluate(p, points[k])

            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(points))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
            assert got == serial
    finally:
        sys.setswitchinterval(interval)


def test_store_arrays_match_fresh_builds():
    # a prefix of the stored build against a shorter build of its own,
    # bit for bit: c_j, a_n, b_n^2 and b_n
    for abc in TRIPLES:
        p = validate_params(*abc)
        _warm(p, 4096)
        for n in (1, 2, 3, 17, 128, 1000):
            q = validate_params(*abc)
            got, want = jacobi_coeffs(p, n), jacobi_coeffs(q, n)
            short = q._store.build.c
            assert p._store.build.c[: len(short)].tobytes() == short.tobytes()
            for name in ("diag", "offdiag_sq", "offdiag"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (abc, n, name)
            assert finite_c_array(p, n).tobytes() == finite_c_array(validate_params(*abc), n).tobytes()
