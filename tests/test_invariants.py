"""The invariant suite of ``hypjacobi.invariants`` and its CLI formatter."""

import json
import random
from pathlib import Path

import pytest

from hypjacobi import classify, cli, invariants, validate_params
from hypjacobi.cli import main

POOL = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "spectrum_pool.json").read_text()
)

NAMES = ["series_vs_cf", "moment_match", "even_part", "method_agreement", "lt_inequality"]
REAL_NAMES = NAMES + ["signature_consistent", "h_matches_eps0_B"]


def seeded_grid(seed, n, complex_a):
    """a ~ U[-7, 4], b ~ U[-4, 4], c ~ U[-1, 5] rounded to 2 decimals, no
    nonpositive-integer parameter; Im a ~ U[-2, 2] when ``complex_a``."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        a, b, c = (round(rng.uniform(lo, hi), 2) for lo, hi in ((-7, 4), (-4, 4), (-1, 5)))
        if any(float(x).is_integer() and x <= 0 for x in (a, b, c)):
            continue
        if complex_a:
            a = complex(a, round(rng.uniform(-2, 2), 2))
        out.append((a, b, c))
    return out


def assert_all_pass(abc, N=64):
    p = validate_params(*abc)
    checks = invariants.run(p, N)
    names = REAL_NAMES + ["stieltjes_quadrature"] * classify.stieltjes_check(p) if p.is_real else NAMES
    assert [c.name for c in checks] == names
    assert all(type(c.passed) is bool for c in checks)
    assert all(c.passed for c in checks), (abc, checks)


@pytest.mark.parametrize("entry", POOL, ids=[e["kind"] for e in POOL])
def test_pool_passes(entry):
    assert_all_pass(tuple(complex(*entry[k]) for k in "abc"))


@pytest.mark.parametrize(
    "abc", seeded_grid(21, 40, False) + seeded_grid(32, 40, True), ids=str
)
def test_seeded_grid_passes(abc):
    assert_all_pass(abc)


@pytest.mark.parametrize(
    "abc",
    [(-5.49 - 1.89j, -2.02, -0.99), (3.62 + 1.53j, -2.54, -0.98), (-1.36 + 1.61j, 1.92, -0.92)],
    ids=str,
)
def test_moment_match_relative_near_c_minus_one(abc):
    # |s_3| ~ 1e10 for c near -1: an absolute error of 4e-6 is rounding
    moment = invariants.run(validate_params(*abc), 64)[1]
    assert moment.name == "moment_match"
    assert moment.passed, moment.detail


def test_moment_match_detail_bytes():
    # the moments are compared in complex arithmetic also for a real
    # triple's float64 entries: a float64 a0**3 moves the last error
    moment = invariants.run(validate_params(-3.0, -3.8, 3.81), 16)[1]
    assert moment.name == "moment_match"
    assert moment.detail == (
        "|s1-a0|=1.776e-15, |s2-(a0^2+b0^2)|=2.132e-14, |s3-...|=1.705e-13"
    )


@pytest.mark.parametrize(
    "abc", [("-1.5", "0.3", "1.2"), ("2,1", "0.5", "3"), ("1", "0", "1")],
    ids=["real", "complex", "stieltjes"],
)
def test_cli_only_formats(abc, tmp_path):
    out = tmp_path / "check.json"
    a, b, c = abc
    code = main(["check", f"-a={a}", "-b", b, "-c", c, "--N", "64", "--tol", "1e-9",
                 "--out", str(out)])
    doc = json.loads(out.read_text())
    p = validate_params(*(cli._parse_complex(v) for v in abc))
    assert doc["checks"] == [chk._asdict() for chk in invariants.run(p, 64, 1e-9)]
    assert doc["all_passed"] is True and code == 0


def test_failing_check_exits_3_with_payload(monkeypatch, capsys):
    def run(p, N, tol):
        return [invariants.Check("series_vs_cf", True, "ok"),
                invariants.Check("moment_match", False, "injected")]

    monkeypatch.setattr(invariants, "run", run)
    code = main(["check", "-a", "1", "-b", "0", "-c", "1", "--format", "csv"])
    assert code == 3
    assert capsys.readouterr().out == (
        "name,passed,detail\nseries_vs_cf,true,ok\nmoment_match,false,injected\n"
    )
