"""Self-checks of the benchmark.  Run from the repository root:

    python3 -m pytest bench/test_bench.py -q

The last two tests run the real workloads (about three minutes on two
cores); `-k "not traced"` skips the traced runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
import tracing

COUNT_SUFFIXES = (".calls", ".class_points", ".messages", ".points", ".bytes", ".classes",
                  ".elements")
ALL_WORKLOADS = ("field.init_s", "cli.main.self_s", "cli.emit.self_s", "cli.emit.bytes")
# the layer metrics each workload exercises (README.md, "Layers")
EXERCISED = {
    "grid-sweep": (
        "field.mul_col.calls", "field.mul_col.self_s", "field.mul_col.bytes",
        "field.vmul.calls", "field.vmul.self_s", "field.vmul.elements",
        "curves.per_conic.calls", "curves.per_conic.self_s",
        "verify.class_columns.classes", "verify.class_columns.bytes",
        "verify.class_columns.self_s", "verify.zero_counts.calls",
        "verify.zero_counts.class_points", "verify.zero_counts.self_s",
        "verify.zero_counts.class_points_per_s", "verify.suite.self_s",
    ),
    "delta-referee": (
        "field.mul_col.calls", "field.mul_col.self_s", "field.mul_col.bytes",
        "verify.class_columns.classes", "verify.class_columns.bytes",
        "verify.class_columns.self_s", "verify.zero_counts.calls",
        "verify.zero_counts.class_points", "verify.zero_counts.self_s",
        "verify.zero_counts.class_points_per_s", "verify.spectrum.self_s",
        "codes.enumerate.messages", "codes.enumerate.self_s",
        "codes.enumerate.messages_per_s", "codes.enumerate.waste_ratio",
        "codes.evaluate_system.self_s", "codes.gf_rank.calls",
        "field.ext_mul.calls", "field.ext_mul.self_s",
        "geometry.count_on_delta.calls", "geometry.count_on_delta.points",
        "geometry.count_on_delta.self_s", "geometry.parabola_count_closed_form.calls",
        "geometry.parabola_count_closed_form.self_s", "geometry.build_delta.self_s",
        "verify.suite.self_s", "codes.dual_distance.self_s",
        "constructions.report.self_s", "constructions.net.self_s",
    ),
}


def bench(*args: str, cwd: Path = run.ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def result(*args: str) -> dict:
    code, stdout = bench(*args)
    assert code == 0, stdout
    return json.loads(stdout.strip().splitlines()[-1])


def test_result_fields_drop_prose_and_keep_paths():
    payload = {"kind": "verify", "elapsed": 1.0,
               "suites": [{"checks": [{"name": "a", "ok": False, "note": "first: (1, 2)"}]}]}
    assert run.result_fields(payload, None) == {
        "kind": "verify", "suites": [{"checks": [{"name": "a", "ok": False}]}]}
    assert run.result_fields({"report": {"n": 3, "d": 7}}, ("report.n", "report.k")) == {
        "report.n": 3, "report.k": "<missing>"}


def test_first_difference_names_the_field():
    ref = {"suites": [{"checks": [{"name": "a", "actual": 1}, {"name": "b", "actual": 2}]}]}
    got = {"suites": [{"checks": [{"name": "a", "actual": 1}, {"name": "b", "actual": 3}]}]}
    assert run.first_difference(ref, ref) is None
    assert run.first_difference(ref, got) == "suites[0].checks[1].actual"
    assert run.first_difference({"h": [1, 2]}, {"h": [1]}) == "h (length 2 != 1)"


def test_timeout_and_crash_count_as_failed():
    quick = run.job("verify --suite field --q 16")
    crashing = run.job("params --system net --q 16 --samples 0")
    reference = json.loads(run.REFERENCE.read_text())
    reference[crashing.key] = {"exit": 1, "ref_s": 1.0, "fields": {}}
    with tempfile.TemporaryDirectory(prefix=".bench_work_", dir=run.ROOT) as tmp:
        slow = run.run_job(quick, 1, 0.05, Path(tmp), reference)
        assert slow.failed and slow.error.startswith("timeout") and slow.wall_s < 5
        crash = run.run_job(crashing, 1, 60, Path(tmp), reference)
        assert crash.failed and crash.error.startswith("crash")
        ok = run.run_job(quick, 1, 60, Path(tmp), reference)
        assert not ok.failed and ok.rss_mb > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.LAYER_METRICS
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "slowest_job_s", "peak_rss_mb", "setup_s"]


def test_refuses_without_sources():
    with tempfile.TemporaryDirectory(prefix=".bench_work_", dir=run.ROOT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, stdout = bench("--workload", "grid-sweep", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=Path(tmp))
    assert code != 0 and '"correct"' not in stdout


def test_net_jobs_pass_at_two_seeds():
    for seed in ("1", "7"):
        res = result("--workload", "delta-referee", "--seed", seed, "--seconds", "1",
                     "--trace", "0")
        assert res["failed"] == 0 and res["attempted"] == 9 and res["correct"]
        assert set(res["metrics"]) == {"wall_s", "slowest_job_s", "peak_rss_mb", "setup_s"}
        assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_counts_repeat_and_exercised_layers_are_nonzero(workload):
    args = ("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    first, second = result(*args), result(*args)
    for res in (first, second):
        assert res["failed"] == 0
        assert [*res["metrics"]] == [name for name, _, _ in tracing.LAYER_METRICS]
        assert all(res["metrics"][f"{m}.errors"]["value"] == 0 for m in tracing.MODULES)
        for name in EXERCISED[workload] + ALL_WORKLOADS:
            assert res["metrics"][name]["value"] > 0, name
    counts = [name for name in first["metrics"] if name.endswith(COUNT_SUFFIXES)]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
