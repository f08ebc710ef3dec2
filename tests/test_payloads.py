"""Golden CLI payloads: exit code and exact stdout bytes.

``payloads.json`` holds probe commands whose payloads do not depend on
LAPACK rounding (``eval``, ``coeffs``, and ``classify``, where kernel
eigenvalues only enter as counts), recorded from the code before the
termination rules and refinement loops were merged.  A refactor that keeps
behaviour keeps every byte.  ``spectrum``, ``zeros``, ``measure``,
``check`` and ``sweep`` carry eigenvalues from LAPACK and are compared by
hand across changes instead.
"""

import json
from pathlib import Path

import pytest

from hypjacobi.cli import main

GOLDEN = json.loads((Path(__file__).with_name("payloads.json")).read_text())


@pytest.mark.parametrize("entry", GOLDEN, ids=[e["args"] for e in GOLDEN])
def test_payload_bytes(entry, capsys):
    code = main(entry["args"].split())
    assert code == entry["exit"]
    assert capsys.readouterr().out == entry["stdout"]
