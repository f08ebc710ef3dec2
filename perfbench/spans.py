"""Spans around calls into hypjacobi's layers, recorded from outside.

``Tracer.install()`` replaces the public functions of each layer by timing
wrappers, in every hypjacobi module that holds a reference to them, and
returns an undo function.  The program itself is not changed; the patch
lives only in the benchmark's process.  Spans stay in memory as
[name, start, end, parent, op, count] and are written out by ``dump``.
"""

from __future__ import annotations

import json
import time

#: layer span name -> (module, attribute, count taken from (args, result))
LAYER_FUNCTIONS = {
    "cfrac.coeffs": [
        ("cfrac", "jacobi_coeffs", lambda args, r: len(r.diag) + len(r.offdiag_sq)),
    ],
    "cfrac.cf_ratio_eval": [("cfrac", "cf_ratio_eval", lambda args, r: r.depth_used)],
    "cfrac.termination": [
        ("cfrac", "cfrac_termination_index", None),
        ("spectral", "termination_index", None),
    ],
    "spectral.build_truncated": [("spectral", "build_truncated", None)],
    "spectral.discrete_spectrum": [
        ("spectral", "discrete_spectrum", lambda args, r: (len(r.eigenvalues), len(r.discarded))),
    ],
    "spectral.trace_norm_bound": [("spectral", "trace_norm_bound", None)],
    "spectral.m_function": [("spectral", "m_function", lambda args, r: args[2])],
    "spectral.b_function": [("spectral", "b_function", None)],
    "classify.kappa_certificate": [("classify", "kappa_certificate", None)],
    "classify.negative_squares": [("classify", "negative_squares", None)],
    "classify.sign_signature": [("classify", "sign_signature", None)],
    "classify.quadrature": [("classify", "quadrature", None)],
    "cli.main": [("cli", "main", None)],
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def span(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[5] = count(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        import numpy as np

        import hypjacobi
        from hypjacobi import cfrac, classify, cli, spectral

        modules = {"cfrac": cfrac, "spectral": spectral, "classify": classify, "cli": cli,
                   "hypjacobi": hypjacobi}
        undo = []

        def patch(obj, attr, value):
            undo.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, value)

        for name, targets in LAYER_FUNCTIONS.items():
            for mod_name, attr, count in targets:
                original = getattr(modules[mod_name], attr)
                wrapped = self.span(name, original, count)
                for mod in modules.values():
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            patch(mod, key, wrapped)
        patch(cfrac.CoeffStream, "c_array",
              self.span("cfrac.coeffs", cfrac.CoeffStream.c_array, lambda args, r: len(r)))
        # the eigensolve span: numpy.linalg.eig as seen from spectral only
        eig = self.span("spectral.eig", np.linalg.eig, lambda args, r: args[0].shape[0])
        patch(spectral, "np", _Facade(np, linalg=_Facade(np.linalg, eig=eig)))

        def restore():
            for obj, attr, val in reversed(undo):
                setattr(obj, attr, val)

        return restore

    def root(self, name: str = "op"):
        """A span for one whole operation; children attach to it."""
        return self.span(name, lambda fn, *a: fn(*a))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "op", "count"), rec))) + "\n")

    def stats(self) -> dict:
        """name -> {"self": summed self time, "calls": n, "count": summed counts}.

        Self time is a span's duration minus the durations of its children,
        which never overlap: there is one caller and no threads.
        """
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict = {}
        for k, (name, t0, t1, _, _, cnt) in enumerate(self.spans):
            st = out.setdefault(name, {"self": 0.0, "calls": 0, "count": 0})
            st["self"] += t1 - t0 - child[k]
            st["calls"] += 1
            if isinstance(cnt, tuple):
                st["count"] = tuple(x + y for x, y in zip(st["count"] or (0,) * len(cnt), cnt))
            elif cnt is not None:
                st["count"] += cnt
        return out


class _Facade:
    """A module stand-in that overrides some attributes and forwards the rest."""

    def __init__(self, base, **overrides):
        self._base = base
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._base, name)
