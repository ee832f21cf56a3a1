"""The q = 32 data of README "What the verification finds", and the full
scan of PG(2, GF(8^3)) behind `net --scan-count`, outside tier-1.

Deselected by default; run with `pytest -m slow` (about 15 s and a
190 MiB peak RSS on a 2-core Xeon host whose speed varies between runs;
the row tables of the root-mask walks, cached from one q = 32 test to the
next, set the peak).
"""

import hashlib
import json

import pytest

from deltacodes.cli import EXIT_MISMATCH, EXIT_OK, main
from deltacodes.codes import ConicSystem, evaluate_system, weight_distribution_enumerate
from deltacodes.constructions import (
    POLY_1,
    POLY_X,
    POLY_X2,
    POLY_XY,
    POLY_Y,
    POLY_Y2,
    lambda_orbit_count,
    lambda_orbit_size,
)
from deltacodes.field import ExtField, Field
from deltacodes.geometry import build_delta

pytestmark = pytest.mark.slow


def test_full_conic_code_q32(F32, capsys):
    # runs without a flag: 32^6 messages are 34.6 M projective classes; the
    # report reads the all-class census, and message enumeration checks it
    code = main(["params", "--system", "conics", "--q", "32"])
    out = capsys.readouterr().out
    rep = json.loads(out)["report"]
    assert code == EXIT_MISMATCH
    assert (rep["n"], rep["k"], rep["d"]) == (496, 6, 435) == (496, 6, 30 * 29 // 2)
    full = [POLY_X2, POLY_XY, POLY_Y2, POLY_X, POLY_Y, POLY_1]
    g = evaluate_system(ConicSystem(F32, full), build_delta(F32))
    assert {w: c for w, c in rep["weights"]} == weight_distribution_enumerate(g)
    # SHA-256 of stdout, recorded while the report still enumerated its messages
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "7d5046fedf96cea2bfbfaf9b85d3f3ef9dde9bf92cd7c9bf84b4ce01fd338324"


def test_all_conics_window_census_q32(capsys):
    code = main(["spectrum", "--family", "all-conics", "--q", "32"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert code == EXIT_MISMATCH
    assert payload["window_violations"] == 509392
    assert payload["violation_counts"] == {
        "0": 15376, "8": 42160, "9": 327360, "22": 109120, "29": 7440, "31": 7936}
    # SHA-256 of stdout, its examples and notes included: at q = 32 an a12
    # slice of the a11 = 1 block spans 16 chunks
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "f63cf7e3501a7a2475db630431e8f5bf2b5a1183a379d44397b9d8398bbaaa56"


def test_verify_all_q32_is_pinned(capsys):
    """Every suite at q = 32, notes, examples and draws included, as SHA-256
    of stdout."""
    code = main(["verify", "--suite", "all", "--q", "32"])
    out = capsys.readouterr().out
    assert code == EXIT_MISMATCH
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "529359310867463371a24b8f393652c682302f69b9173711045d724bb83fa64b"


def _verify_q32(suite, capsys):
    """The exit code and the checks, by name, of one suite's report at q = 32."""
    code = main(["verify", "--suite", suite, "--q", "32"])
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["suites"][0]["checks"]}
    return code, checks


def _failing(checks):
    return {name for name, c in checks.items() if not c["ok"]}


def _values(checks):
    return {name: (c["expected"], c["actual"]) for name, c in checks.items()}


SAMPLED = "vectorized sweep agrees with the per-conic implementation (sampled)"


def test_lemma_q32(capsys):
    code, checks = _verify_q32("lemma", capsys)
    assert code == EXIT_OK and not _failing(checks)
    name = "intersection count equals its curve-count expression on every class"
    assert _values(checks) == {
        name: (0, 0),
        "curve point counts are even where halved": (None, None),
        SAMPLED: (None, None),
    }
    assert checks[name]["note"] == "checked 34631619 classes"


def test_relations_q32(capsys):
    code, checks = _verify_q32("relations", capsys)
    assert code == EXIT_OK and not _failing(checks)
    name = "tabulated count differences hold on every class"
    assert _values(checks) == {
        name: (0, 0),
        "count differences are explained by points on the axis X = 0": (None, None),
        SAMPLED: (None, None),
    }
    assert checks[name]["note"] == "checked 34631619 classes"


def test_reducibility_q32(capsys):
    """The same two claims fail as at q = 16: the stated criteria miss the
    lines of H through (a22 : a12 : 0) on 30752 classes."""
    code, checks = _verify_q32("reducibility", capsys)
    assert code == EXIT_MISMATCH
    assert _failing(checks) == {
        "H has a linear component iff the conic is degenerate",
        "stated criteria capture every linear component",
    }
    name = "stated component criteria hold iff the conic is degenerate"
    assert _values(checks) == {
        name: (0, 0),
        "resultant identity Q12 = a22 * R12": (None, None),
        "resultant identity Q13 = a22^2 * R13 + a12^2 * R12": (None, None),
        "H has a linear component iff the conic is degenerate": (0, 30752),
        "stated criteria capture every linear component": (0, 30752),
        SAMPLED: (None, None),
    }
    assert checks[name]["note"] == "checked 34598914 classes"


def test_hasse_q32(capsys):
    """The same three stated claims fail as at q = 16; the corrected
    transfer holds on every rational-vbar class, and every rational-vbar
    window violator has a line in H."""
    code, checks = _verify_q32("hasse", capsys)
    assert code == EXIT_MISMATCH
    assert _failing(checks) == {
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


def test_lambda_orbit_scan_q8():
    """Every one of the 262657 points of PG(2, GF(8^3)) through the
    determinant test of `in_lambda_orbit`."""
    assert lambda_orbit_count(ExtField(Field(3), 3)) == lambda_orbit_size(8) == 225792
