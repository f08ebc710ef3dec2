"""The call surface of the public functions."""

import inspect

import hypjacobi

#: every optional parameter of a function in ``hypjacobi.__all__``, 11 in
#: all; each is set to different values by the CLI, ``invariants.run`` or
#: the benchmark.  A value that no caller varies is a constant of the module
#: that reads it, or a literal
OPTIONAL = {
    "b_function": ("method", "tol"),
    "cf_ratio_eval": ("tol",),
    "discrete_spectrum": ("N", "tol"),
    "hyp_zeros": ("N", "tol", "which"),
    "kappa_certificate": ("trials", "sample_size", "seed"),
}


def test_optional_parameters_pinned():
    found = {}
    for name in hypjacobi.__all__:
        obj = getattr(hypjacobi, name)
        if inspect.isfunction(obj):
            params = inspect.signature(obj).parameters.values()
            optional = tuple(q.name for q in params if q.default is not q.empty)
            if optional:
                found[name] = optional
    assert found == OPTIONAL
