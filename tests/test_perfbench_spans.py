"""The benchmark's traced mode patches named functions of the package
(``perfbench/spans.py``); a rename that breaks it must fail here."""

import importlib.util
from pathlib import Path

import numpy as np

import hypjacobi
from hypjacobi import cfrac, classify, cli, spectral

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _snapshot():
    mods = (cfrac, spectral, classify, cli, hypjacobi)
    state = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    state[("CoeffStream", "c_array")] = cfrac.CoeffStream.c_array
    return state


def test_tracer_install_and_restore():
    spans = _load_spans()
    modules = {"cfrac": cfrac, "spectral": spectral, "classify": classify, "cli": cli}
    before = _snapshot()
    restore = spans.Tracer().install()
    try:
        for targets in spans.LAYER_FUNCTIONS.values():
            for mod_name, attr, _ in targets:
                mod = modules[mod_name]
                assert getattr(mod, attr) is not before[(mod.__name__, attr)], (mod_name, attr)
        assert cfrac.CoeffStream.c_array is not before[("CoeffStream", "c_array")]
        assert spectral.np is not np
    finally:
        restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key, val in before.items() if after[key] is not val]
    assert not changed
