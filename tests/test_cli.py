"""Command line interface: payload shapes, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "args",
        [
            ["spectrum", "-b", "0", "-c", "1"],
            ["eval", "-b", "0", "-c", "1", "--z", "4,0"],
            ["coeffs", "-b", "0", "-c", "1"],
        ],
    )
    def test_non_finite_parameter_is_validation(self, args, value, cli_env):
        cmd = [sys.executable, "-m", "hypjacobi.cli", *args, "-a", value]
        r = subprocess.run(cmd, capture_output=True, text=True, env=cli_env)
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert "not finite" in r.stderr


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
