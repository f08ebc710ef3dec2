"""Every input ends in a value or a typed error: seeded extreme triples.

The generator draws each parameter independently from ``random.Random``:
35% of the time +-10^U(-3, 308), 35% U(-8, 8), 15% -randint(0, 40) plus one
of 0, 1e-12, -1e-9, 1e-6 and 0.5 (at or next to a nonpositive integer), and
15% one of 0, +-1, 1e-300, 5e-324 and 1.7e308; with probability 0.3 the
parameter is complex, its imaginary part drawn the same way.  Each triple
goes through B by the C-fraction at 3.1+0.7i, B by the resolvent at
-2.6+1.2i and ``discrete_spectrum`` at N = 32, with warnings as errors and
a time bound per call; each call must return a finite value or raise a
``HypJacobiError``.  A few triples also go through the CLI as processes.
"""

import cmath
import contextlib
import math
import random
import signal
import subprocess
import sys
import warnings

import pytest

from hypjacobi import HypJacobiError, b_function, discrete_spectrum, validate_params

#: seconds that one library call may take
CALL_SECONDS = 5


def extreme_value(rng: random.Random) -> float:
    u = rng.random()
    if u < 0.35:
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3, 308)
    if u < 0.70:
        return rng.uniform(-8, 8)
    if u < 0.85:
        return -rng.randint(0, 40) + rng.choice((0.0, 1e-12, -1e-9, 1e-6, 0.5))
    return rng.choice((0.0, 1.0, -1.0, 1e-300, 5e-324, 1.7e308))


def extreme_param(rng: random.Random) -> complex:
    x = extreme_value(rng)
    return complex(x, extreme_value(rng)) if rng.random() < 0.3 else complex(x)


def extreme_triples(seed: int, n: int) -> list[tuple[complex, complex, complex]]:
    rng = random.Random(seed)
    return [tuple(extreme_param(rng) for _ in range(3)) for _ in range(n)]


@contextlib.contextmanager
def time_bound(seconds: int):
    """TimeoutError after ``seconds``; no bound where there is no SIGALRM."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"call took more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _finite_spectrum(res) -> bool:
    return (
        all(cmath.isfinite(v) for v in res.eigenvalues)
        and math.isfinite(res.distance_sum)
        and math.isfinite(res.trace_bound)
    )


ROUTES = {
    "cf": (lambda p: b_function(p, 3.1 + 0.7j, method="cf"), cmath.isfinite),
    "resolvent": (lambda p: b_function(p, -2.6 + 1.2j, method="resolvent"), cmath.isfinite),
    "spectrum": (lambda p: discrete_spectrum(p, N=32), _finite_spectrum),
}


@pytest.mark.parametrize("seed,n", [(1, 600), (2, 300), (3, 300)])
def test_value_or_typed_error(seed, n):
    faults, values = [], dict.fromkeys(ROUTES, 0)
    for abc in extreme_triples(seed, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                p = validate_params(*abc)
            except HypJacobiError:
                continue
            for name, (call, finite) in ROUTES.items():
                try:
                    with time_bound(CALL_SECONDS):
                        out = call(p)
                except HypJacobiError:
                    continue
                except Exception as exc:  # a raw error, a warning or the time bound
                    faults.append((abc, name, f"{type(exc).__name__}: {exc}"))
                    continue
                if finite(out):
                    values[name] += 1
                else:
                    faults.append((abc, name, repr(out)))
    assert not faults, faults
    # every route returned values, so the triples reach past validation
    assert all(values.values()), values


def _accepted(abc) -> bool:
    try:
        validate_params(*abc)
    except HypJacobiError:
        return False
    return True


def _cli_arg(x: complex) -> str:
    return f"{x.real!r},{x.imag!r}"


#: the first six triples of seed 1 that pass validation, so that the
#: processes reach the numerical routes
CLI_TRIPLES = [abc for abc in extreme_triples(1, 600) if _accepted(abc)][:6]


@pytest.mark.parametrize("abc", CLI_TRIPLES, ids=[f"seed1-{i}" for i in range(6)])
@pytest.mark.parametrize("args", [["eval", "--z", "3.1,0.7"], ["spectrum", "--N", "32"],
                                  ["coeffs", "--N", "32"]],
                         ids=["eval", "spectrum", "coeffs"])
def test_cli_ends_in_exit_code(abc, args, cli_env):
    flags = [f"-{k}={_cli_arg(x)}" for k, x in zip("abc", abc)]
    cmd = [sys.executable, "-m", "hypjacobi.cli", *args, *flags]
    r = subprocess.run(cmd, capture_output=True, text=True, env=cli_env, timeout=60)
    assert r.returncode in (0, 2, 3), r.stderr
    if r.returncode:
        # one line, and not the prefix of a fault of the program
        assert r.stderr.count("\n") == 1 and not r.stderr.startswith("failure:"), r.stderr
