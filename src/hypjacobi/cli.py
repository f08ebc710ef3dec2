"""Batch-friendly command line interface.

Machine-readable payloads go to the output stream (or --out), diagnostics
to stderr.  JSON documents carry "schema_version": 1, every float is
serialized with 17 significant digits and complex numbers appear as
{"re": ..., "im": ...}, so identical configurations (seed included)
produce byte-identical output.

Each subcommand takes exactly the flags its ``_run_*`` reads, so a flag
it would ignore is refused as a bad flag.  The range of ``--tol``,
``--N``, ``--trials``, ``--samples`` and ``--seed`` is checked as the
flag is parsed.

Exit codes: 0 success, 2 validation error (a ``ParameterError``, or a
bad flag or value that argparse refuses with its usage), 3 numerical
failure or any other exception.  Everything but argparse's refusal is
reported on one stderr line.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

import numpy as np

from . import cfrac, classify, invariants, spectral
from .errors import HypJacobiError, NumericsError, ParameterError
from .hyp import HypParams, validate_params

SCHEMA_VERSION = 1

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


def _ranged(kind, lo, hi, rule: str):
    """Converter for a flag of type ``kind`` that raises ParameterError(rule)
    outside [lo, hi], so that the rule runs as the flag is parsed.  It
    carries the name of ``kind``, so a value that is not one keeps
    argparse's wording ("invalid int value: 'x'")."""

    def convert(text: str):
        value = kind(text)
        if not lo <= value <= hi:
            raise ParameterError(rule)
        return value

    convert.__name__ = kind.__name__
    return convert


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hypjacobi",
        description=(
            "Continued fractions, complex Jacobi matrices and zero location "
            "for ratios of Gauss hypergeometric functions."
        ),
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)
    value = dict(type=_parse_complex, required=True, metavar="RE[,IM]")
    flags = {
        "-a": value,
        "-b": value,
        "-c": value,
        "--z": value,
        "--tol": dict(type=_ranged(float, 1e-14, 1e-2, "tol must lie in [1e-14, 0.01]"),
                      default=1e-10),
        "--N": dict(type=_ranged(int, 8, 8192, "N must lie in [8, 8192]"), default=256),
        "--which": dict(choices=("denominator", "numerator"), default="denominator"),
        "--trials": dict(type=_ranged(int, 1, 10000, "trials must lie in [1, 10000]"),
                         default=200),
        "--samples": dict(type=_ranged(int, 1, 256, "samples must lie in [1, 256]"), default=6),
        "--seed": dict(type=_ranged(int, 0, math.inf, "seed must be a non-negative integer"),
                       default=42),
        "--manifest": dict(required=True, metavar="PATH"),
        "--format": dict(choices=("json", "csv"), default="json"),
        "--out": dict(default=None, metavar="PATH"),
    }
    abc = ("-a", "-b", "-c")
    # each subcommand takes exactly the flags its _run_* reads
    for name, help_text, own in (
        ("eval", "B(a,b,c;z) by continued fraction and by resolvent",
         (*abc, "--z", "--tol")),
        ("coeffs", "tables of c_j, d_j and the J-fraction entries a_n, b_n^2 "
         "(CSV columns: kind,index,re,im)", (*abc, "--N")),
        ("spectrum", "stable eigenvalues outside [-2,2] (CSV columns: index,eig_re,"
         "eig_im,band_distance,distance_sum,trace_bound,holds)", (*abc, "--tol", "--N")),
        ("zeros", "hypergeometric zeros in the cut plane (CSV columns: index,re,im)",
         (*abc, "--tol", "--N", "--which")),
        ("classify", "sign signature, kappa and the sampled kernel certificate "
         "(CSV columns: N,kappa,kappa_bound_ok,max_negatives_seen)",
         (*abc, "--trials", "--samples", "--seed")),
        ("measure", "Gauss quadrature of the Stieltjes measure (CSV columns: "
         "index,node,weight)", (*abc, "--N")),
        ("check", "run the invariant suite on one triple (CSV columns: name,passed,detail)",
         (*abc, "--tol", "--N")),
        ("sweep", "run a manifest of triples, one summary record each; manifest lines "
         "are 'a b c' with '#' comments (CSV columns: a_re,a_im,b_re,b_im,c_re,c_im,"
         "status,n_eigenvalues,distance_sum,trace_bound,holds,kappa)",
         ("--manifest", "--tol", "--N")),
    ):
        sp = sub.add_parser(name, help=help_text)
        for flag in (*own, "--format", "--out"):
            sp.add_argument(flag, **flags[flag])
    return ap


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
    coeffs = cfrac.jacobi_coeffs(p, n)
    cs = cfrac.finite_c_array(p, 2 * n)
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
    checks = [c._asdict() for c in invariants.run(p, args.N, args.tol)]
    doc = _head(args, p)
    doc.update({"checks": checks, "all_passed": all(c["passed"] for c in checks)})
    rows = [("name", "passed", "detail")] + [tuple(c.values()) for c in checks]
    return doc, rows


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
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ParameterError(f"cannot write output {args.out}: {exc}") from exc
    else:
        sys.stdout.write(payload)


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(_merge_value_flags(list(argv)))
        # looked up at call time, so that a patched _run_* is the one run
        doc, rows = globals()["_run_" + args.subcommand](args)
        _emit(args, doc, rows)
        return 0 if doc.get("all_passed", True) else 3
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # anything else is a fault of the program, not of the input
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
