"""Batch-friendly command line interface.

Machine-readable payloads go to the output stream (or --out), diagnostics
to stderr.  JSON documents carry "schema_version": 1, every float is
serialized with 17 significant digits and complex numbers appear as
{"re": ..., "im": ...}, so identical configurations (seed included)
produce byte-identical output.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

import numpy as np

from . import cfrac, classify, spectral
from .errors import HypJacobiError, NumericsError, ParameterError
from .hyp import HypParams, ratio_series, validate_params

SCHEMA_VERSION = 1

TOL_RANGE = (1e-14, 1e-2)
N_RANGE = (8, 8192)
TRIALS_RANGE = (1, 10000)
SAMPLES_RANGE = (1, 256)

_VALUE_FLAGS = ("-a", "-b", "-c", "--z")


def _f17(x: float) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise NumericsError(f"non-finite value {x} in output payload")
    return format(x, ".17g")


def _json_escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def _jdump(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _f17(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return f'{{"re":{_f17(obj.real)},"im":{_f17(obj.imag)}}}'
    if isinstance(obj, str):
        return f'"{_json_escape(obj)}"'
    if isinstance(obj, dict):
        items = ",".join(f'"{_json_escape(k)}":{_jdump(v)}' for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_jdump(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}")


def _merge_value_flags(argv: list[str]) -> list[str]:
    # "-a -1,0.5" confuses argparse (comma values look like options); fold
    # the value into "-a=-1,0.5" before parsing.
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _add_common(sp: argparse.ArgumentParser, with_params: bool = True) -> None:
    if with_params:
        sp.add_argument("-a", type=_parse_complex, required=True, metavar="RE[,IM]")
        sp.add_argument("-b", type=_parse_complex, required=True, metavar="RE[,IM]")
        sp.add_argument("-c", type=_parse_complex, required=True, metavar="RE[,IM]")
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--N", type=int, default=256, dest="N")
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out", default=None, metavar="PATH")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hypjacobi",
        description=(
            "Continued fractions, complex Jacobi matrices and zero location "
            "for ratios of Gauss hypergeometric functions."
        ),
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("eval", help="B(a,b,c;z) by continued fraction and by resolvent")
    _add_common(sp)
    sp.add_argument("--z", type=_parse_complex, required=True, metavar="RE[,IM]")

    sp = sub.add_parser(
        "coeffs",
        help="tables of c_j, d_j and the J-fraction entries a_n, b_n^2 "
        "(CSV columns: kind,index,re,im)",
    )
    _add_common(sp)

    sp = sub.add_parser(
        "spectrum",
        help="stable eigenvalues outside [-2,2] "
        "(CSV columns: index,eig_re,eig_im,band_distance,distance_sum,trace_bound,holds)",
    )
    _add_common(sp)

    sp = sub.add_parser(
        "zeros",
        help="hypergeometric zeros in the cut plane (CSV columns: index,re,im)",
    )
    _add_common(sp)
    sp.add_argument("--which", choices=("denominator", "numerator"), default="denominator")

    sp = sub.add_parser(
        "classify",
        help="sign signature, kappa and the sampled kernel certificate "
        "(CSV columns: N,kappa,kappa_bound_ok,max_negatives_seen)",
    )
    _add_common(sp)
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--samples", type=int, default=6)

    sp = sub.add_parser(
        "measure",
        help="Gauss quadrature of the Stieltjes measure (CSV columns: index,node,weight)",
    )
    _add_common(sp)

    sp = sub.add_parser(
        "check",
        help="run the invariant suite on one triple (CSV columns: name,passed,detail)",
    )
    _add_common(sp)

    sp = sub.add_parser(
        "sweep",
        help="run a manifest of triples, one summary record each; manifest lines "
        "are 'a b c' with '#' comments (CSV columns: a_re,a_im,b_re,b_im,c_re,c_im,"
        "status,n_eigenvalues,distance_sum,trace_bound,holds,kappa)",
    )
    _add_common(sp, with_params=False)
    sp.add_argument("--manifest", required=True, metavar="PATH")

    return ap


def _validate_config(args) -> None:
    ranges = [("tol", TOL_RANGE), ("N", N_RANGE)]
    if args.subcommand == "classify":
        ranges += [("trials", TRIALS_RANGE), ("samples", SAMPLES_RANGE)]
    for name, (lo, hi) in ranges:
        if not (lo <= getattr(args, name) <= hi):
            raise ParameterError(f"{name} must lie in [{lo}, {hi}]")


def _params(args) -> HypParams:
    return validate_params(args.a, args.b, args.c)


def _cplx(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _head(args, p: Optional[HypParams]) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "subcommand": args.subcommand}
    if p is not None:
        doc["params"] = {"a": _cplx(p.a), "b": _cplx(p.b), "c": _cplx(p.c)}
    return doc


def _run_eval(args):
    p = _params(args)
    z = args.z
    v_cf = spectral.b_function(p, z, method="cf", tol=args.tol)
    v_res = spectral.b_function(p, z, method="resolvent", tol=args.tol)
    diff = abs(v_cf - v_res)
    agree = diff <= 10.0 * args.tol * max(1.0, abs(v_cf))
    doc = _head(args, p)
    doc.update(
        {
            "z": _cplx(z),
            "tol": args.tol,
            "cf": _cplx(v_cf),
            "resolvent": _cplx(v_res),
            "abs_difference": diff,
            "agree": agree,
        }
    )
    rows = [
        ("a_re", "a_im", "b_re", "b_im", "c_re", "c_im", "z_re", "z_im",
         "cf_re", "cf_im", "resolvent_re", "resolvent_im", "abs_difference", "agree"),
        (p.a.real, p.a.imag, p.b.real, p.b.imag, p.c.real, p.c.imag,
         z.real, z.imag, v_cf.real, v_cf.imag, v_res.real, v_res.imag, diff, agree),
    ]
    return doc, rows


def _run_coeffs(args):
    p = _params(args)
    n = args.N
    cs = cfrac.c_array(p, 2 * n)
    coeffs = cfrac.jacobi_coeffs(p, n)
    doc = _head(args, p)
    doc.update(
        {
            "N": n,
            "c": [_cplx(v) for v in cs],
            "d": [_cplx(-v) for v in cs],
            "diag": [_cplx(v) for v in coeffs.diag],
            "offdiag_sq": [_cplx(v) for v in coeffs.offdiag_sq],
            "terminated_at": coeffs.terminated_at,
        }
    )
    rows = [("kind", "index", "re", "im")]
    for j, v in enumerate(cs, start=1):
        rows.append(("c", j, v.real, v.imag))
    for j, v in enumerate(cs, start=1):
        rows.append(("d", j, -v.real, -v.imag))
    for j, v in enumerate(coeffs.diag):
        rows.append(("diag", j, v.real, v.imag))
    for j, v in enumerate(coeffs.offdiag_sq):
        rows.append(("offdiag_sq", j, v.real, v.imag))
    return doc, rows


def _run_spectrum(args):
    p = _params(args)
    res = spectral.discrete_spectrum(p, N=args.N, tol=args.tol)
    doc = _head(args, p)
    doc.update(
        {
            "eigenvalues": [_cplx(v) for v in res.eigenvalues],
            "distance_sum": res.distance_sum,
            "trace_bound": res.trace_bound,
            "holds": res.holds,
            "N_used": res.N_used,
            "N_check": res.N_check,
            "discarded": [_cplx(v) for v in res.discarded],
            "merged": [_cplx(v) for v in res.merged],
        }
    )
    rows = [("index", "eig_re", "eig_im", "band_distance",
             "distance_sum", "trace_bound", "holds")]
    if res.eigenvalues:
        for i, v in enumerate(res.eigenvalues):
            rows.append((i, v.real, v.imag, spectral.band_distance(v),
                         res.distance_sum, res.trace_bound, res.holds))
    else:
        rows.append(("", "", "", "", res.distance_sum, res.trace_bound, res.holds))
    return doc, rows


def _run_zeros(args):
    p = _params(args)
    zeros = spectral.hyp_zeros(p, N=args.N, tol=args.tol, which=args.which)
    doc = _head(args, p)
    doc.update({"which": args.which, "zeros": [_cplx(v) for v in zeros]})
    rows = [("index", "re", "im")]
    for i, v in enumerate(zeros):
        rows.append((i, v.real, v.imag))
    return doc, rows


def _run_classify(args):
    p = _params(args)
    sig = classify.sign_signature(p)
    cert = classify.kappa_certificate(
        p, trials=args.trials, sample_size=args.samples, seed=args.seed
    )
    doc = _head(args, p)
    doc.update(
        {
            "N": sig.N,
            "kappa": sig.kappa,
            "epsilons": list(sig.epsilons),
            "btilde": [float(v) for v in sig.btilde],
            "terminated_at": sig.terminated_at,
            "kappa_bound_ok": cert.kappa_bound_ok,
            "max_negatives_seen": cert.max_negatives_seen,
            "trials": args.trials,
            "samples": args.samples,
            "seed": args.seed,
        }
    )
    rows = [
        ("N", "kappa", "kappa_bound_ok", "max_negatives_seen"),
        (sig.N, sig.kappa, cert.kappa_bound_ok, cert.max_negatives_seen),
    ]
    return doc, rows


def _run_measure(args):
    p = _params(args)
    quad = classify.quadrature(p, args.N)
    doc = _head(args, p)
    doc.update(
        {
            "order": quad.order,
            "nodes": [float(v) for v in quad.nodes],
            "weights": [float(v) for v in quad.weights],
            "weights_sum": float(np.sum(quad.weights)),
        }
    )
    rows = [("index", "node", "weight")]
    for i in range(len(quad.nodes)):
        rows.append((i, float(quad.nodes[i]), float(quad.weights[i])))
    return doc, rows


def _run_check(args):
    p = _params(args)
    checks = []

    def record(name: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    # first, so that a triple whose entries overflow is refused before the
    # series comparison meets them
    coeffs = cfrac.jacobi_coeffs(p, 3)
    disk_pts = [0.3 + 0.0j, -0.5 + 0.1j, 0.2 - 0.4j, 0.55 + 0.2j]
    worst = 0.0
    for z in disk_pts:
        series = ratio_series(p, z)
        cf = cfrac.cf_ratio_eval(p, z, tol=1e-13).value
        worst = max(worst, abs(cf - series) / max(1.0, abs(series)))
    record("series_vs_cf", worst <= 1e-9, f"max rel diff {worst:.3e}")

    moments = cfrac.moment_oracle(p, 3)
    a0 = coeffs.diag[0]
    err = abs(moments[1] - a0)
    detail = [f"|s1-a0|={err:.3e}"]
    ok = err <= 1e-9
    if len(coeffs.offdiag_sq) >= 1:
        b0 = coeffs.offdiag_sq[0]
        e2 = abs(moments[2] - (a0 * a0 + b0))
        ok = ok and e2 <= 1e-8
        detail.append(f"|s2-(a0^2+b0^2)|={e2:.3e}")
    if len(coeffs.diag) >= 2 and len(coeffs.offdiag_sq) >= 1:
        a1 = coeffs.diag[1]
        e3 = abs(moments[3] - (a0**3 + 2 * a0 * b0 + a1 * b0))
        ok = ok and e3 <= 1e-7
        detail.append(f"|s3-...|={e3:.3e}")
    record("moment_match", ok, ", ".join(detail))

    worst = 0.0
    for n in (3, 8):
        for z in (5 + 2j, -3 + 1.5j):
            jn = cfrac.approximant(p, "j-fraction", n, z)
            s2n = cfrac.approximant(p, "s-fraction", 2 * n, (z - 2.0) / 4.0)
            d1 = -cfrac.c_coeff(p, 1)
            lifted = (-1.0 / (4.0 * d1)) * (s2n - 1.0)
            worst = max(worst, abs(jn - lifted) / max(1.0, abs(jn)))
    record("even_part", worst <= 1e-10, f"max rel diff {worst:.3e}")

    worst = 0.0
    for z in (4 + 0j, 3j, -2.5 + 1j):
        v1 = spectral.b_function(p, z, method="cf", tol=1e-12)
        v2 = spectral.b_function(p, z, method="resolvent", tol=1e-12)
        worst = max(worst, abs(v1 - v2) / max(1.0, abs(v1)))
    record("method_agreement", worst <= 1e-9, f"max rel diff {worst:.3e}")

    lt = spectral.lieb_thirring_check(p, N=args.N, tol=args.tol)
    record("lt_inequality", lt.holds, f"lhs={lt.lhs:.6g} rhs={lt.rhs:.6g}")

    if p.is_real:
        sig = classify.sign_signature(p)
        coeffs_n = cfrac.jacobi_coeffs(p, max(sig.N + 4, 8))
        ok = all(
            sig.eps(j) * sig.eps(j + 1) * coeffs_n.offdiag_sq[j].real > 0
            for j in range(len(coeffs_n.offdiag_sq))
            if coeffs_n.offdiag_sq[j] != 0
        )
        record("signature_consistent", ok, f"N={sig.N} kappa={sig.kappa}")
        z0 = 3.5 + 1.5j
        hm = classify.h_m_function(p, z0, max(2 * sig.N + 8, 64))
        ref = sig.eps(0) * spectral.b_function(p, z0, method="cf", tol=1e-12)
        err = abs(hm - ref)
        record("h_matches_eps0_B", err <= 1e-6, f"|diff|={err:.3e} at N={max(2 * sig.N + 8, 64)}")
        if classify.stieltjes_check(p):
            quad = classify.quadrature(p, 32)
            in_band = bool(
                np.all(quad.nodes >= -2 - 1e-8) and np.all(quad.nodes <= 2 + 1e-8)
            )
            wsum = float(np.sum(quad.weights))
            record(
                "stieltjes_quadrature",
                in_band and abs(wsum - 1.0) <= 1e-12 and np.all(quad.weights > 0),
                f"weights_sum={wsum:.17g}",
            )

    all_passed = all(c["passed"] for c in checks)
    doc = _head(args, p)
    doc.update({"checks": checks, "all_passed": all_passed})
    rows = [("name", "passed", "detail")]
    for c in checks:
        rows.append((c["name"], c["passed"], c["detail"]))
    return doc, rows, all_passed


def _read_manifest(path: str) -> list[tuple[complex, complex, complex]]:
    triples = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                toks = body.split()
                if len(toks) != 3:
                    raise ParameterError(
                        f"{path}:{lineno}: expected 'a b c', got {body!r}"
                    )
                triples.append(tuple(_parse_complex(t) for t in toks))
    except OSError as exc:
        raise ParameterError(f"cannot read manifest {path}: {exc}") from exc
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ParameterError(f"bad manifest value in {path}: {exc}") from exc
    return triples


def _run_sweep(args):
    records = []
    rows = [("a_re", "a_im", "b_re", "b_im", "c_re", "c_im", "status",
             "n_eigenvalues", "distance_sum", "trace_bound", "holds", "kappa")]
    for a, b, c in _read_manifest(args.manifest):
        rec = {"a": _cplx(a), "b": _cplx(b), "c": _cplx(c)}
        try:
            p = validate_params(a, b, c)
            res = spectral.discrete_spectrum(p, N=args.N, tol=args.tol)
            kappa = classify.sign_signature(p).kappa if p.is_real else None
            rec.update(
                {
                    "status": "ok",
                    "eigenvalues": [_cplx(v) for v in res.eigenvalues],
                    "distance_sum": res.distance_sum,
                    "trace_bound": res.trace_bound,
                    "holds": res.holds,
                    "kappa": kappa,
                }
            )
            rows.append(
                (a.real, a.imag, b.real, b.imag, c.real, c.imag, "ok",
                 len(res.eigenvalues), res.distance_sum, res.trace_bound,
                 res.holds, "" if kappa is None else kappa)
            )
        except HypJacobiError as exc:
            rec.update({"status": "error", "error": f"{type(exc).__name__}: {exc}"})
            rows.append(
                (a.real, a.imag, b.real, b.imag, c.real, c.imag,
                 f"error:{type(exc).__name__}", "", "", "", "", "")
            )
        records.append(rec)
    doc = {"schema_version": SCHEMA_VERSION, "subcommand": "sweep", "results": records}
    return doc, rows


def _csv_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return _f17(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    s = str(v)
    if any(ch in s for ch in ",\"\n"):
        s = '"' + s.replace('"', '""') + '"'
    return s


def _emit(args, doc, rows) -> None:
    if args.format == "json":
        payload = _jdump(doc) + "\n"
    else:
        payload = "\n".join(",".join(_csv_cell(c) for c in row) for row in rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(_merge_value_flags(list(argv)))

    try:
        _validate_config(args)
        status = 0
        if args.subcommand == "eval":
            doc, rows = _run_eval(args)
        elif args.subcommand == "coeffs":
            doc, rows = _run_coeffs(args)
        elif args.subcommand == "spectrum":
            doc, rows = _run_spectrum(args)
        elif args.subcommand == "zeros":
            doc, rows = _run_zeros(args)
        elif args.subcommand == "classify":
            doc, rows = _run_classify(args)
        elif args.subcommand == "measure":
            doc, rows = _run_measure(args)
        elif args.subcommand == "check":
            doc, rows, all_passed = _run_check(args)
            if not all_passed:
                status = 3
        elif args.subcommand == "sweep":
            doc, rows = _run_sweep(args)
        else:  # pragma: no cover - argparse enforces the choices
            raise ParameterError(f"unknown subcommand {args.subcommand!r}")
        _emit(args, doc, rows)
        return status
    except (ParameterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except HypJacobiError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
