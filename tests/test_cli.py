"""Command line interface: payload shapes, exit codes, determinism."""

import argparse
import json
import subprocess
import sys
import time

import pytest

from hypjacobi import cli
from hypjacobi.cli import main


def run_cli(args, tmp_path=None):
    """Invoke main() with --out into a temp file, return (code, text)."""
    out = tmp_path / "payload.txt" if tmp_path is not None else None
    argv = list(args)
    if out is not None:
        argv += ["--out", str(out)]
    code = main(argv)
    text = out.read_text() if out is not None and out.exists() else ""
    return code, text


class TestEval:
    def test_closed_form(self, tmp_path):
        code, text = run_cli(
            ["eval", "-a", "1", "-b", "0", "-c", "1", "--z", "4,0"], tmp_path
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["schema_version"] == 1
        assert abs(doc["cf"]["re"] + 0.4102392266268373) < 1e-10
        assert doc["agree"] is True

    def test_negative_complex_flag_forms(self, tmp_path):
        for flag in (["-a", "-1,0.5"], ["-a=-1,0.5"]):
            code, text = run_cli(
                [*["eval"], *flag, "-b", "0", "-c", "2", "--z", "5,1"], tmp_path
            )
            assert code == 0
            doc = json.loads(text)
            assert doc["params"]["a"] == {"re": -1.0, "im": 0.5}

    def test_csv(self, tmp_path):
        code, text = run_cli(
            ["eval", "-a", "1", "-b", "0", "-c", "1", "--z", "4,0", "--format", "csv"],
            tmp_path,
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0].startswith("a_re,a_im,")
        assert len(lines) == 2


class TestSpectrum:
    def test_terminating(self, tmp_path):
        code, text = run_cli(
            ["spectrum", "-a", "-1", "-b", "-1.5", "-c", "1"], tmp_path
        )
        assert code == 0
        doc = json.loads(text)
        assert len(doc["eigenvalues"]) == 1
        assert abs(doc["eigenvalues"][0]["re"] - 3.0) < 1e-10
        assert abs(doc["eigenvalues"][0]["im"]) < 1e-12
        assert abs(doc["distance_sum"] - 1.0) < 1e-10
        assert doc["holds"] is True

    def test_empty_csv_row(self, tmp_path):
        code, text = run_cli(
            ["spectrum", "-a", "1", "-b", "0", "-c", "1", "--N", "64", "--format", "csv"],
            tmp_path,
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert len(lines) == 2 and lines[1].startswith(",,,")


class TestZeros:
    def test_quadratic(self, tmp_path):
        code, text = run_cli(["zeros", "-a", "-2", "-b", "0", "-c", "1"], tmp_path)
        assert code == 0
        doc = json.loads(text)
        zs = sorted(doc["zeros"], key=lambda v: v["im"])
        assert abs(zs[0]["re"] - 1.5) < 1e-9
        assert abs(zs[1]["im"] - 0.8660254037844386) < 1e-9


class TestClassify:
    def test_kappa_one(self, tmp_path):
        code, text = run_cli(
            ["classify", "-a", "-1.5", "-b", "0", "-c", "1", "--trials", "40"],
            tmp_path,
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["N"] == 1 and doc["kappa"] == 1
        assert doc["epsilons"][:2] == [-1, 1]
        assert doc["kappa_bound_ok"] is True
        assert doc["max_negatives_seen"] == 1


class TestMeasure:
    def test_weights(self, tmp_path):
        code, text = run_cli(
            ["measure", "-a", "1", "-b", "0", "-c", "1", "--N", "32"], tmp_path
        )
        assert code == 0
        doc = json.loads(text)
        assert abs(doc["weights_sum"] - 1.0) < 1e-12
        assert len(doc["nodes"]) == 32
        assert all(-2 - 1e-8 <= t <= 2 + 1e-8 for t in doc["nodes"])

    def test_not_stieltjes_exit_2(self, tmp_path):
        code, _ = run_cli(["measure", "-a", "-1.5", "-b", "0", "-c", "1"], tmp_path)
        assert code == 2


class TestCoeffs:
    def test_tables(self, tmp_path):
        code, text = run_cli(
            ["coeffs", "-a", "1", "-b", "0", "-c", "1", "--N", "8"], tmp_path
        )
        assert code == 0
        doc = json.loads(text)
        assert abs(doc["c"][0]["re"] + 0.5) < 1e-15
        assert abs(doc["d"][0]["re"] - 0.5) < 1e-15
        assert abs(doc["diag"][0]["re"] - 4.0 / 3.0) < 1e-14
        assert doc["terminated_at"] is None


class TestCheck:
    def test_all_pass_stieltjes(self, tmp_path):
        code, text = run_cli(
            ["check", "-a", "1", "-b", "0", "-c", "1", "--N", "64"], tmp_path
        )
        doc = json.loads(text)
        assert doc["all_passed"] is True, doc["checks"]
        assert code == 0

    def test_all_pass_complex(self, tmp_path):
        code, text = run_cli(
            ["check", "-a", "2,1", "-b", "0.5", "-c", "3", "--N", "64"], tmp_path
        )
        doc = json.loads(text)
        assert doc["all_passed"] is True, doc["checks"]
        assert code == 0


class TestSweep:
    def test_manifest(self, tmp_path):
        manifest = tmp_path / "triples.txt"
        manifest.write_text(
            "# demo manifest\n"
            "1 0 1\n"
            "-1 -1.5 1\n"
            "2,1 0.5 3\n"
        )
        code, text = run_cli(
            ["sweep", "--manifest", str(manifest), "--N", "64"], tmp_path
        )
        assert code == 0
        doc = json.loads(text)
        assert len(doc["results"]) == 3
        assert doc["results"][0]["kappa"] == 0
        assert abs(doc["results"][1]["distance_sum"] - 1.0) < 1e-10
        assert doc["results"][2]["kappa"] is None

    def test_bad_manifest_line(self, tmp_path):
        manifest = tmp_path / "bad.txt"
        manifest.write_text("1 0\n")
        code, _ = run_cli(["sweep", "--manifest", str(manifest)], tmp_path)
        assert code == 2

    def test_invalid_triple_recorded_not_fatal(self, tmp_path):
        manifest = tmp_path / "mixed.txt"
        manifest.write_text("1 0 1\n1 1 0\n")
        code, text = run_cli(["sweep", "--manifest", str(manifest), "--N", "64"], tmp_path)
        assert code == 0
        doc = json.loads(text)
        assert doc["results"][0]["status"] == "ok"
        assert doc["results"][1]["status"] == "error"
        assert "CNonpositiveInteger" in doc["results"][1]["error"]


class TestExitCodes:
    def test_validation_error(self, tmp_path):
        code, _ = run_cli(["eval", "-a", "1", "-b", "1", "-c", "0", "--z", "4,0"], tmp_path)
        assert code == 2

    def test_tol_range(self, tmp_path):
        code, _ = run_cli(
            ["spectrum", "-a", "1", "-b", "0", "-c", "1", "--tol", "1"], tmp_path
        )
        assert code == 2

    def test_n_range(self, tmp_path):
        code, _ = run_cli(
            ["spectrum", "-a", "1", "-b", "0", "-c", "1", "--N", "4"], tmp_path
        )
        assert code == 2

    def test_on_band_is_validation(self, tmp_path):
        code, _ = run_cli(["eval", "-a", "1", "-b", "0", "-c", "1", "--z", "0,0"], tmp_path)
        assert code == 2

    def test_numerical_failure(self, tmp_path):
        # resolvent solve at machine distance from the pole of a rational B
        code, _ = run_cli(
            ["eval", "-a", "-1", "-b", "-1.5", "-c", "1", "--z", "3.0000000000000004,0"],
            tmp_path,
        )
        assert code == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "1,nan"])
    @pytest.mark.parametrize(
        "args",
        [
            ["spectrum", "-b", "0", "-c", "1", "-a"],
            ["eval", "-b", "0", "-c", "1", "--z", "4,0", "-a"],
            ["coeffs", "-b", "0", "-c", "1", "-a"],
            ["eval", "-a", "1", "-b", "0", "-c", "1", "--z"],
        ],
    )
    def test_non_finite_parameter_is_validation(self, args, value, cli_env):
        cmd = [sys.executable, "-m", "hypjacobi.cli", *args, value]
        r = subprocess.run(cmd, capture_output=True, text=True, env=cli_env)
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert "not finite" in r.stderr


    def test_underflowed_leading_coefficient_is_validation(self, cli_env):
        # c(c+1) overflows and c_1 = c_2 = c_3 = -0: one line, no numpy warning
        cmd = [sys.executable, "-m", "hypjacobi.cli", "eval", "-a", "4.9929651975296e13",
               "-b", "0.010789734977852653", "-c", "3.751716335085896e189,38.73",
               "--z", "1.5118,-0.3111"]
        r = subprocess.run(cmd, capture_output=True, text=True, env=cli_env)
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.count("\n") == 1 and "underflows to 0" in r.stderr
        assert "Warning" not in r.stderr

    @pytest.mark.parametrize(
        "abc",
        [["-a", "5e-324", "-b=-1.92", "-c", "1"],
         ["-a=-1", "-b=-1.6770215441802886e263", "-c", "5.4577398424171344e107"]],
        ids=["scale", "terminating"],
    )
    def test_overflowing_fraction_is_validation(self, abc, cli_env):
        # B's scale -1/(4 d_1) overflows, or a terminating C-fraction's
        # coefficients do: one line, no numpy warning
        cmd = [sys.executable, "-m", "hypjacobi.cli", "eval", *abc, "--z", "3.1,0.7"]
        r = subprocess.run(cmd, capture_output=True, text=True, env=cli_env)
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.count("\n") == 1 and r.stderr.startswith("error:")
        assert "Warning" not in r.stderr

    @pytest.mark.parametrize(
        "args",
        [["classify", "-a=-1.5", "-b", "0", "-c", "1", "--seed", "-1"],
         ["eval", "-a", "1", "-b", "0", "-c", "1", "--z", "3", "--out", "{missing}"]],
        ids=["seed", "out"],
    )
    def test_bad_argument_is_validation(self, args, tmp_path, cli_env):
        # a negative --seed, or an --out whose directory does not exist
        missing = str(tmp_path / "missing" / "x.json")
        cmd = [sys.executable, "-m", "hypjacobi.cli", *(a.format(missing=missing) for a in args)]
        r = subprocess.run(cmd, capture_output=True, text=True, env=cli_env)
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.count("\n") == 1 and r.stderr.startswith("error:")

    @pytest.mark.parametrize("subcommand", ["eval", "spectrum", "classify", "coeffs", "check"])
    @pytest.mark.parametrize(
        "params", [["-a=-1.7e308", "-b", "0"], ["-a", "1", "-b=-1.7e308"]], ids=["c-a", "c-b"]
    )
    def test_overflowing_difference_is_validation(self, subcommand, params, tmp_path, capsys):
        extra = ["--z", "4"] if subcommand == "eval" else []
        code, _ = run_cli([subcommand, *params, "-c", "1.7e308", *extra], tmp_path)
        assert code == 2
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["spectrum", "--N", "16"],
            ["eval", "--z", "4"],
            ["coeffs", "--N", "16"],
            ["check", "--N", "16"],
        ],
    )
    @pytest.mark.parametrize("abc", [["-a", "1e200,1", "-b", "0", "-c", "1"],
                                     ["-a", "1e200", "-b", "0.5", "-c", "2e200"],
                                     ["-a", "1e200,1", "-b", "-2", "-c", "1"],
                                     ["-a", "1e200", "-b", "-2", "-c", "1"]],
                             ids=["complex", "real", "complex-terminating", "real-terminating"])
    def test_overflowing_entries_is_validation(self, args, abc, tmp_path, capsys):
        # b_n^2 ~ |a|^2 overflows while a, b, c and their differences are
        # finite; b = -2 terminates the fraction after its 2x2 block
        t0 = time.perf_counter()
        code, _ = run_cli([*args, *abc], tmp_path)
        assert code == 2
        assert time.perf_counter() - t0 < 1.0
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--trials", "0"], ["--trials", "-3"], ["--trials", "10001"],
         ["--samples", "0"], ["--samples", "257"]],
    )
    def test_classify_trials_samples_range(self, flags, tmp_path, capsys):
        code, _ = run_cli(["classify", "-a", "-1.5", "-b", "0", "-c", "1", *flags], tmp_path)
        assert code == 2
        assert "must lie in" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "abc",
        [["-a=-1", "-b=-1e301", "-c", "1e-8", "--N", "8"], ["-a", "1e200", "-b=-1e200", "-c", "1"]],
        ids=["c1-overflows", "terminates-too-deep"],
    )
    def test_coeffs_refusal_is_one_line(self, abc, cli_env):
        # c_1 = 1e309 lies outside the terminated J block, and the other
        # triple's coefficients overflow before its termination is refused
        cmd = [sys.executable, "-m", "hypjacobi.cli", "coeffs", *abc]
        r = subprocess.run(cmd, capture_output=True, text=True, env=cli_env)
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.count("\n") == 1 and r.stderr.startswith("error:"), r.stderr

    def test_classify_range_ends_accepted(self, tmp_path):
        code, text = run_cli(
            ["classify", "-a", "-1.5", "-b", "0", "-c", "1", "--trials", "1", "--samples", "256"],
            tmp_path,
        )
        assert code == 0
        assert json.loads(text)["kappa"] == 1


#: the option strings of each subcommand: exactly the flags its _run_* reads
SUBCOMMAND_FLAGS = {
    "eval": {"-a", "-b", "-c", "--z", "--tol"},
    "coeffs": {"-a", "-b", "-c", "--N"},
    "spectrum": {"-a", "-b", "-c", "--tol", "--N"},
    "zeros": {"-a", "-b", "-c", "--tol", "--N", "--which"},
    "classify": {"-a", "-b", "-c", "--trials", "--samples", "--seed"},
    "measure": {"-a", "-b", "-c", "--N"},
    "check": {"-a", "-b", "-c", "--tol", "--N"},
    "sweep": {"--manifest", "--tol", "--N"},
}

#: a valid invocation of each subcommand, with every value in range
VALID = {
    "eval": ["-a", "1", "-b", "0", "-c", "1", "--z", "4"],
    "coeffs": ["-a", "1", "-b", "0", "-c", "1"],
    "spectrum": ["-a", "1", "-b", "0", "-c", "1"],
    "zeros": ["-a", "1", "-b", "0", "-c", "1"],
    "classify": ["-a=-1.5", "-b", "0", "-c", "1", "--trials", "5"],
    "measure": ["-a", "1", "-b", "0", "-c", "1"],
    "check": ["-a", "1", "-b", "0", "-c", "1"],
    "sweep": ["--manifest", "{manifest}"],
}


def _valid(subcommand, tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("1 0 1\n")
    return [subcommand, *(a.format(manifest=manifest) for a in VALID[subcommand])]


class TestFlags:
    def test_option_strings_per_subcommand(self):
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(SUBCOMMAND_FLAGS)
        for name, sp in sub.choices.items():
            options = {s for a in sp._actions for s in a.option_strings}
            assert options == SUBCOMMAND_FLAGS[name] | {"-h", "--help", "--format", "--out"}, name
        # settable values over all subcommands, -h not counted
        assert sum(not isinstance(a, argparse._HelpAction)
                   for sp in sub.choices.values() for a in sp._actions) == 54

    @pytest.mark.parametrize(
        "subcommand, flag",
        [("eval", "--N"), ("eval", "--seed"), ("coeffs", "--tol"), ("coeffs", "--seed"),
         ("classify", "--tol"), ("classify", "--N"), ("measure", "--tol"),
         ("measure", "--seed"), ("spectrum", "--seed"), ("zeros", "--seed"),
         ("check", "--seed"), ("sweep", "--seed")],
    )
    def test_unread_flag_is_refused(self, subcommand, flag, tmp_path, capsys):
        # a value the old blanket flags accepted and then ignored
        value = {"--tol": "1e-6", "--N": "16", "--seed": "7"}[flag]
        out = tmp_path / "payload.txt"
        with pytest.raises(SystemExit) as exc:
            main([*_valid(subcommand, tmp_path), flag, value, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists() and capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "subcommand, flag, value, rule",
        [("spectrum", "--tol", "9.9e-15", "tol must lie in [1e-14, 0.01]"),
         ("eval", "--tol", "0.0101", "tol must lie in [1e-14, 0.01]"),
         ("check", "--tol", "nan", "tol must lie in [1e-14, 0.01]"),
         ("coeffs", "--N", "7", "N must lie in [8, 8192]"),
         ("sweep", "--N", "8193", "N must lie in [8, 8192]"),
         ("classify", "--trials", "0", "trials must lie in [1, 10000]"),
         ("classify", "--trials", "10001", "trials must lie in [1, 10000]"),
         ("classify", "--samples", "0", "samples must lie in [1, 256]"),
         ("classify", "--samples", "257", "samples must lie in [1, 256]"),
         ("classify", "--seed", "-1", "seed must be a non-negative integer")],
    )
    def test_range_rule_while_parsing(self, subcommand, flag, value, rule, tmp_path, capsys):
        code, text = run_cli([*_valid(subcommand, tmp_path), flag, value], tmp_path)
        assert code == 2 and text == ""
        assert capsys.readouterr().err == f"error: {rule}\n"

    @pytest.mark.parametrize("flag, kind", [("--N", "int"), ("--tol", "float")])
    def test_not_a_number_keeps_argparse_wording(self, flag, kind, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*_valid("spectrum", tmp_path), flag, "x"])
        assert exc.value.code == 2
        assert f"invalid {kind} value: 'x'" in capsys.readouterr().err


# ``eval -a -100000 -b 0 -c 1 --z 4`` as printed before termination was
# decided in closed form: the fraction terminates at coefficient 200001,
# well inside the cap, and its payload must not move
DEEP_TERMINATING_EVAL = (
    '{"schema_version":1,"subcommand":"eval","params":{"a":{"re":-100000,"im":0},'
    '"b":{"re":0,"im":0},"c":{"re":1,"im":0}},"z":{"re":4,"im":0},"tol":1e-10,'
    '"cf":{"re":-4.99999999999807e-06,"im":0},"resolvent":{"re":-4.9999999999993177e-06,'
    '"im":-0},"abs_difference":1.2476795313055844e-18,"agree":true}\n'
)


class TestBoundedDepth:
    @pytest.mark.parametrize("a", ["1e7", "1e300"])
    def test_termination_beyond_cap_is_validation(self, a, tmp_path):
        t0 = time.perf_counter()
        code, _ = run_cli(["eval", "-a", a, "-b", "0", "-c", "1", "--z", "4"], tmp_path)
        assert code == 2
        assert time.perf_counter() - t0 < 2.0

    def test_deep_terminating_eval_unchanged(self, tmp_path):
        code, text = run_cli(["eval", "-a", "-100000", "-b", "0", "-c", "1", "--z", "4"], tmp_path)
        assert code == 0
        assert text == DEEP_TERMINATING_EVAL
        # b = 0: F(a,1,2;w) = (1 - (1-w)^(1-a)) / ((1-a) w), so at w = -2 the
        # ratio is below 1e-40000 and B = -1/(4 d_1) = -5e-06 to double precision
        resolvent = json.loads(text)["resolvent"]["re"]
        assert abs(resolvent + 5e-06) <= 2.2e-13 * 5e-06


class TestPromptTypedEnd:
    @pytest.mark.parametrize(
        "subcommand, a, c, expected",
        [
            ("spectrum", "1e9,1", "1.5", 2),
            ("spectrum", "1e15", "1.5", 2),
            ("spectrum", "1e154,1", "1.5", 2),
            ("spectrum", "3e153,1", "1.5", 2),
            ("spectrum", "1e100,1", "1.5", 2),
            ("check", "1e150,1", "-9.99999999", 2),
            ("check", "1e9", "1.5", 2),
            ("check", "1e154", "-30000.5", 2),
        ],
    )
    def test_huge_parameters(self, subcommand, a, c, expected, capsys):
        # the trace-norm horizon grows like 4|a| (exit 2 beyond the cap), and
        # entries can overflow inside a long terminating block (c - b =
        # -30001; exit 2): check screens both, as its spectrum step does,
        # before its series comparison meets the overflowing terms
        t0 = time.perf_counter()
        code = main([subcommand, "-a", a, "-b", "0.5", "-c", c, "--N", "16"])
        assert time.perf_counter() - t0 < 2.0
        assert code == expected
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("exc", [ValueError, OverflowError, MemoryError, ZeroDivisionError])
    def test_unexpected_exception_is_failure(self, exc, monkeypatch, capsys):
        def raise_exc(args):
            raise exc("injected")

        monkeypatch.setattr(cli, "_run_eval", raise_exc)
        code = main(["eval", "-a", "1", "-b", "0", "-c", "1", "--z", "4"])
        assert code == 3
        assert capsys.readouterr().err == f"failure: {exc.__name__}: injected\n"


class TestEscaping:
    def test_json_escape(self):
        assert cli._json_escape('say "hi"') == 'say \\"hi\\"'
        assert cli._json_escape("C:\\dir") == "C:\\\\dir"
        assert cli._json_escape("a\nb\tc\x01é") == "a\\u000ab\\u0009c\\u0001é"
        # keys and string values alike
        assert cli._jdump({'k"': "a\\b"}) == '{"k\\"":"a\\\\b"}'

    def test_csv_cell_quoting(self):
        assert cli._csv_cell("plain") == "plain"
        assert cli._csv_cell("a,b") == '"a,b"'
        assert cli._csv_cell('say "hi"') == '"say ""hi"""'
        assert cli._csv_cell("two\nlines") == '"two\nlines"'


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["classify", "-a", "-1.5", "-b", "0", "-c", "1", "--trials", "20", "--seed", "7"],
            ["spectrum", "-a", "-2", "-b", "0", "-c", "1"],
            ["eval", "-a", "2,1", "-b", "0.5", "-c", "3", "--z", "5,2"],
        ],
    )
    def test_byte_identical(self, args, cli_env):
        cmd = [sys.executable, "-m", "hypjacobi.cli", *args]
        r1 = subprocess.run(cmd, capture_output=True, env=cli_env)
        r2 = subprocess.run(cmd, capture_output=True, env=cli_env)
        assert r1.returncode == 0
        assert r1.stdout == r2.stdout
        assert len(r1.stdout) > 0


_SCIPY_PROBE = """
import json, sys
sys.modules["scipy"] = None  # any SciPy import now raises ImportError
from hypjacobi.cli import main

def scipy_loaded():
    return sorted(m for m, mod in sys.modules.items() if m.startswith("scipy") and mod is not None)

out = sys.argv[1]
report = {"import": scipy_loaded()}
for argv in json.loads(sys.argv[2]):
    code = main([*argv, "--out", out])
    report[argv[0]] = [code, scipy_loaded()]
print(json.dumps(report))
"""


class TestSciPyOffPath:
    def test_no_subcommand_loads_scipy(self, cli_env, tmp_path):
        # the library needs numpy alone, even where SciPy is installed
        abc = ["-a", "1", "-b", "0", "-c", "1"]
        runs = [
            ["eval", *abc, "--z", "5,2"],
            ["spectrum", *abc, "--N", "16"],
            ["classify", *abc, "--trials", "5"],
            ["coeffs", *abc, "--N", "16"],
            ["measure", *abc, "--N", "16"],
            ["check", *abc, "--N", "16"],
        ]
        cmd = [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path / "out"), json.dumps(runs)]
        r = subprocess.run(cmd, capture_output=True, text=True, env=cli_env)
        assert r.returncode == 0, r.stderr
        report = json.loads(r.stdout)
        assert report["import"] == []
        for argv in runs:
            assert report[argv[0]] == [0, []], argv[0]
