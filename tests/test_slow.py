"""The q = 32 data of README "What the verification finds", outside tier-1.

Deselected by default; run with `pytest -m slow` (45 s and a 1 GiB peak
RSS on a 2-core Xeon host).  hasse and reducibility at q = 32 are not
pinned here: each takes minutes and 2.5-3.4 GiB.
"""

import json

import pytest

from deltacodes.cli import EXIT_MISMATCH, main
from deltacodes.codes import ConicSystem, evaluate_system, weight_distribution_classes
from deltacodes.constructions import POLY_1, POLY_X, POLY_X2, POLY_XY, POLY_Y, POLY_Y2
from deltacodes.geometry import build_delta

pytestmark = pytest.mark.slow


def test_full_conic_code_q32(F32, capsys):
    # runs without a flag: 32^6 messages are 34.6 M projective classes
    code = main(["params", "--system", "conics", "--q", "32"])
    rep = json.loads(capsys.readouterr().out)["report"]
    assert code == EXIT_MISMATCH
    assert (rep["n"], rep["k"], rep["d"]) == (496, 6, 435) == (496, 6, 30 * 29 // 2)
    full = [POLY_X2, POLY_XY, POLY_Y2, POLY_X, POLY_Y, POLY_1]
    g = evaluate_system(ConicSystem(F32, full), build_delta(F32))
    assert {w: c for w, c in rep["weights"]} == weight_distribution_classes(g)


def test_all_conics_window_census_q32(capsys):
    code = main(["spectrum", "--family", "all-conics", "--q", "32"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_MISMATCH
    assert payload["window_violations"] == 509392
    assert payload["violation_counts"] == {
        "0": 15376, "8": 42160, "9": 327360, "22": 109120, "29": 7440, "31": 7936}
