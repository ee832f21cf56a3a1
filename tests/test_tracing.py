"""bench/tracing.py wraps deltacodes functions by name; a renamed function
or a changed signature must fail here, not only in the benchmark's own
slower checks."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

# (span names, tally names) that the benchmark's per-layer metrics read
# from a traced call, so that renaming a wrapped function fails here
REQUIRED_LAYERS = {
    ("verify", "--suite", "geometry", "--q", "4"): (
        set(), {"geometry.parabola_count_closed_form"}),
    ("verify", "--suite", "lemma", "--q", "4"): ({"geometry.count_on_delta"}, set()),
    # build_net takes its lambda columns from projective_class_columns
    ("net", "--q", "4", "--seed", "1"): ({"constructions.net", "verify.class_columns"}, set()),
    # the conic code reads the census; the net code enumerates its messages
    ("params", "--system", "conics", "--q", "4"): (
        {"constructions.report", "codes.evaluate_system", "verify.spectrum"}, {"codes.gf_rank"}),
    ("params", "--system", "net", "--q", "4", "--samples", "1", "--seed", "1"): (
        {"constructions.report", "codes.enumerate", "codes.evaluate_system"}, {"codes.gf_rank"}),
}


def cli(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "hasse", "--q", "4"),
    ("spectrum", "--family", "all-conics", "--q", "4"),
    ("verify", "--suite", "geometry", "--q", "4"),
    ("params", "--system", "conics", "--q", "4"),
    ("params", "--system", "net", "--q", "4", "--samples", "1", "--seed", "1"),
    ("net", "--q", "4", "--seed", "1"),
    ("verify", "--suite", "lemma", "--q", "4"),
])
def test_traced_run_matches_untraced(tmp_path, argv):
    trace_file = tmp_path / "trace.json"
    plain = cli("-m", "deltacodes.cli", *argv)
    traced = cli(os.path.join("bench", "tracing.py"), str(trace_file), "0", "--", *argv)
    assert traced.returncode == plain.returncode, traced.stderr
    assert traced.stdout == plain.stdout
    trace = json.loads(trace_file.read_text())
    assert trace["errors"] == {}
    assert trace["spans"]
    spans, tallies = REQUIRED_LAYERS.get(argv, (set(), set()))
    assert spans <= {span[1] for span in trace["spans"]}
    assert tallies <= {tally[1] for tally in trace["tallies"]}
