"""The q = 32 data of README "What the verification finds", outside tier-1.

Deselected by default; run with `pytest -m slow` (117 s and a 3.2 GiB
peak RSS on a 2-core Xeon host: the hasse suite takes 65 s and sets the
peak, the other two tests 50 s and 1 GiB).  reducibility at q = 32
(2 minutes, 2.5 GiB) is not pinned here.
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


def test_hasse_q32(capsys):
    """The same three stated claims fail as at q = 16; the corrected
    transfer holds on every rational-vbar class, and every rational-vbar
    window violator has a line in H."""
    code = main(["verify", "--suite", "hasse", "--q", "32"])
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["suites"][0]["checks"]}
    assert code == EXIT_MISMATCH
    assert {name for name, c in checks.items() if not c["ok"]} == {
        "stated transfer N(G) = N(H) holds on every applicable class",
        "N(H) lies in the union of the affine windows on every applicable class",
        "N(H) lies in the union window on every rational-vbar class",
    }

    def counts(name):
        return checks[name]["expected"], checks[name]["actual"]

    assert counts("corrected transfer (axis-point bookkeeping) holds for rational vbar"
                  ) == (17775648, 17775648)
    assert counts("stated transfer N(G) = N(H) holds on every applicable class"
                  ) == (33520672, 1023248)
    # 17775648 - 17760272 = 15376 rational-vbar violators, each with a line in H
    assert counts("N(H) lies in the union window on every rational-vbar class"
                  ) == (17775648, 17760272)
    assert counts("every rational-vbar window violation comes from a reducible cubic"
                  ) == (15376, 15376)
