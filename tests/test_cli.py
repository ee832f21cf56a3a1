import json
import os

import pytest

from deltacodes import cli
from deltacodes.cli import EXIT_INTERNAL, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_params_lines_ok(capsys):
    code, out = run(capsys, "params", "--q", "8", "--system", "lines")
    assert code == EXIT_OK
    rep = json.loads(out)["report"]
    assert (rep["n"], rep["k"], rep["d"]) == (28, 3, 21)
    assert "elapsed" not in rep


def test_params_conics_reports_mismatch(capsys):
    code, out = run(capsys, "params", "--q", "8", "--system", "conics")
    assert code == EXIT_MISMATCH
    rep = json.loads(out)["report"]
    assert rep["d"] == 15 and rep["expected"]["d"] == 20
    assert rep["matches_expected"] is False


def test_params_net_deterministic(capsys):
    args = ("params", "--q", "8", "--system", "net", "--seed", "3", "--samples", "2")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_net_fixture_regression(capsys):
    code, out = run(capsys, "params", "--q", "8", "--system", "net",
                    "--seed", "1", "--samples", "5")
    assert code == EXIT_OK
    with open(os.path.join(FIXTURES, "net_q8_seed1.json")) as fh:
        assert json.loads(out) == json.load(fh)


def test_usage_errors(capsys):
    code, _ = run(capsys, "params", "--q", "7", "--system", "lines")
    assert code == EXIT_USAGE
    code, _ = run(capsys, "params", "--q", "128", "--system", "lines")
    assert code == EXIT_USAGE
    code, _ = run(capsys, "spectrum", "--q", "64", "--family", "all-conics")
    assert code == EXIT_USAGE  # 2^26 class budget
    code, _ = run(capsys, "params", "--q", "64", "--system", "conics")
    assert code == EXIT_USAGE  # 2^26 class budget


def test_custom_modulus(capsys):
    code, out = run(capsys, "params", "--q", "8", "--system", "lines",
                    "--modulus", "0xD")
    assert code == EXIT_OK
    assert json.loads(out)["report"]["modulus"] == "0xD"
    for bad in ("0x9", "0xZZ"):  # reducible, not hex
        code, out = run(capsys, "params", "--q", "8", "--system", "lines", "--modulus", bad)
        assert code == EXIT_USAGE and out == ""


def test_spectrum_csv(capsys):
    code, out = run(capsys, "spectrum", "--q", "8", "--family", "parabolas",
                    "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "q,family,intersection_size,classes"
    assert all(row.startswith("8,parabolas,") for row in lines[1:])


def test_spectrum_lines_flags_mismatches(capsys):
    code, out = run(capsys, "spectrum", "--q", "8", "--family", "lines")
    assert code == EXIT_MISMATCH
    payload = json.loads(out)
    # the q - 1 squared-intercept lines match neither point count
    assert payload["stated_mismatch_count"] == 7


def test_verify_exit_codes(capsys):
    code, out = run(capsys, "verify", "--q", "4", "--suite", "field")
    assert code == EXIT_OK
    assert json.loads(out)["passed"] is True
    code, out = run(capsys, "verify", "--q", "4", "--suite", "geometry")
    assert code == EXIT_MISMATCH
    payload = json.loads(out)
    bad = [c for s in payload["suites"] for c in s["checks"] if not c["ok"]]
    assert [c["name"] for c in bad] == ["stated case list covers the squared-intercept family"]


def test_verify_deterministic(capsys):
    args = ("verify", "--q", "4", "--suite", "lemma")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"q": 8, "modulus": "0xD"}')
    code, out = run(capsys, "params", "--config", str(cfg), "--system", "lines")
    assert code == EXIT_OK
    rep = json.loads(out)["report"]
    assert rep["modulus"] == "0xD" and rep["q"] == 8
    # explicit flags beat config values
    code, out = run(capsys, "params", "--config", str(cfg), "--system", "lines",
                    "--modulus", "0xB")
    assert json.loads(out)["report"]["modulus"] == "0xB"
    code, _ = run(capsys, "params", "--system", "lines")
    assert code == EXIT_USAGE  # no q anywhere


def test_net_scan_count(capsys):
    code, out = run(capsys, "net", "--q", "4", "--scan-count")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["orbit_size"] == 2880 and payload["orbit_size_ok"]


def test_net_members(capsys):
    code, out = run(capsys, "net", "--q", "4", "--seed", "2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["member_count"] == 21
    assert payload["axis_tangent_members"] == 1
    assert all(len(m) == 6 and all(v.startswith("0x") for v in m)
               for m in payload["members"])


def test_samples_below_one_is_usage_error(capsys):
    for samples in ("0", "-3"):
        code, out = run(capsys, "params", "--q", "8", "--system", "net", "--samples", samples)
        assert code == EXIT_USAGE and out == ""


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"q": 8, "modulos": "0x13"}')
    code = main(["params", "--config", str(cfg), "--system", "lines"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert "modulos" in captured.err


@pytest.mark.parametrize("text", [
    '{"q": [16]}',
    '{"q": 8, "format": "xml"}',
    '{"q": 8, "timing": 1}',
    '{"q": 8, "big": true}',
    '{"q": 8',
    None,  # no such file
])
def test_config_rejects_bad_values(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    code = main(["params", "--config", str(cfg), "--system", "lines"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_big_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["params", "--q", "8", "--system", "lines", "--big"])
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_internal_fault_exits_3_with_traceback(monkeypatch, capsys):
    def broken(F):
        raise AssertionError("invariant broken")
    monkeypatch.setattr(cli, "line_code", broken)
    code = main(["params", "--q", "8", "--system", "lines"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL and captured.out == ""
    assert "Traceback" in captured.err and "AssertionError: invariant broken" in captured.err


def test_out_into_missing_directory_is_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    code = main(["spectrum", "--family", "all-conics", "--q", "16", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert "sweeping" not in captured.err
    assert not out.parent.exists()


def test_out_naming_a_directory_is_usage_error(tmp_path, capsys):
    code = main(["spectrum", "--family", "all-conics", "--q", "4", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert "is a directory" in captured.err
    assert "sweeping" not in captured.err


def test_grid_suite_beyond_class_budget_is_usage_error(capsys):
    code = main(["verify", "--suite", "hasse", "--q", "64"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert "sweep budget" in captured.err and "Traceback" not in captured.err


def _run_traced(argv):
    import tracemalloc
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak


def test_verify_all_checks_class_budget_before_any_suite(capsys):
    code, peak = _run_traced(["verify", "--suite", "all", "--q", "64"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert "sweep budget" in captured.err and "running suite" not in captured.err
    assert peak < 1 << 20


def test_all_conics_checks_class_budget_before_sweeping(capsys):
    code, peak = _run_traced(["spectrum", "--family", "all-conics", "--q", "64"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert "sweep budget" in captured.err and "sweeping" not in captured.err
    assert peak < 1 << 20


def test_conic_code_beyond_class_budget_is_usage_error(capsys):
    code, peak = _run_traced(["params", "--system", "conics", "--q", "64"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert "sweep budget" in captured.err and "big" not in captured.err
    assert peak < 1 << 20
