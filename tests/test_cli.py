import hashlib
import json
import os
import subprocess
import sys

import pytest

from deltacodes import cli
from deltacodes.cli import EXIT_INTERNAL, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from deltacodes.verify import SUITES

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


# SHA-256 of stdout for the reports that run on GF(q^2) and GF(q^3)
# arithmetic, recorded with the schoolbook extension product and Frobenius
# as h squarings, before the log/antilog tables and the linear Frobenius
@pytest.mark.parametrize("argv, digest", [
    ("verify --suite field --q 16",
     "1d35846010f6de322d8f22b9a8df9a20b821b6362f3fb0e725ac371eacbb6f73"),
    ("net --q 4 --scan-count",
     "534b144c40e20080ab0e92085d8033976f5535fc27c01966b09501566216383a"),
    ("params --system net --q 16 --samples 32 --seed 1",
     "3becc47ec0c7c186d7612eebddb4c06e245baa3f9202ca42be4ae925d05d4b7a"),
    ("net --q 64 --seed 1",
     "3d004abcbb85d843a43797e3fcdab6e1b5a6709ab315b2b1f2ac06982bdb1742"),
])
def test_extension_field_reports_are_pinned(capsys, argv, digest):
    code, out = run(capsys, *argv.split())
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of stdout and the exit code of the named code reports and of the
# suites at q = 4, recorded before the stated-parameter check was written
# once and the unread record fields were deleted
@pytest.mark.parametrize("argv, exit_code, digest", [
    ("params --system lines --q 8", EXIT_OK,
     "9a92f513674797fa5536271c8a08544d6043aa34288475922c7dee401f3a5ff6"),
    ("params --system parabolas --q 8", EXIT_OK,
     "7c42c5f02db27a09884f7d39445f228aabff38afb2c999b0495462d2886f682f"),
    ("params --system conics --q 8", EXIT_MISMATCH,
     "20ee763b2ab89a4fbc993b6386e162c85fc6bc1d1c7493e51382489759e99670"),
    ("verify --suite all --q 4", EXIT_MISMATCH,
     "36531cf08c8515b289e1c7349a5dbf5118c20481a6f65699935e70beec4e396d"),
])
def test_code_and_suite_reports_are_pinned(capsys, argv, exit_code, digest):
    code, out = run(capsys, *argv.split())
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The same for the three spectra and the lemma, relations and reducibility
# suites at q = 8, recorded before the field tables became cached properties
@pytest.mark.parametrize("argv, exit_code, digest", [
    ("spectrum --family lines --q 8", EXIT_MISMATCH,
     "c5b79e806f053077cf83ab7ba4f71f55b54296e84c7cf04723aec7afc5c7aa22"),
    ("spectrum --family parabolas --q 8", EXIT_OK,
     "9489c2466ef3c19795debe4aec29832114d6df3c417f4253b1ca863dfe316cf5"),
    ("spectrum --family all-conics --q 8", EXIT_MISMATCH,
     "c8168afe1da6d2cba1b4211ebd1a7adfb8dcc4fe18de02a2d01482e6e7ba2771"),
    ("verify --suite lemma --q 8", EXIT_OK,
     "cfb6b425a665b859434c2d46d191121d3456089811581bd06cb5f1c9f2c99171"),
    ("verify --suite relations --q 8", EXIT_OK,
     "82a5e061cbcf736ccf869e7771f8f53d34593e3600e55190ac1bf31c7fbe171a"),
    ("verify --suite reducibility --q 8", EXIT_MISMATCH,
     "2a2cc022901119521a0109eac84987c17b857c944b780d06cbff9e3cdfcd415f"),
])
def test_spectrum_and_suite_reports_at_q8_are_pinned(capsys, argv, exit_code, digest):
    code, out = run(capsys, *argv.split())
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The same for the reports whose curve restrictions and field checks were
# rewritten, recorded before the restrictions were read from the term tables,
# and for the reports that name their classes by coefficients, recorded
# before one chunk reducer replaced the per-sweep bookkeeping; the field
# reports at q = 32 and 64 were recorded again when every check run on
# sampled elements came to say "(sampled)"
@pytest.mark.parametrize("argv, exit_code, digest", [
    ("verify --suite reducibility --q 16", EXIT_MISMATCH,
     "8fbc9648e771c0b0d18274d83f1a3e0e8778734895644cb190e34a1ba12dae03"),
    ("spectrum --family all-conics --q 16", EXIT_MISMATCH,
     "4b966018235aa22ec4b55a4c16835ee0258c142c47148ca3e3288656655e6f40"),
    ("verify --suite geometry --q 8", EXIT_MISMATCH,
     "9ecc2927312cd402cf8a6a8653f160ef9a4de08f81b365b36c61fa2522a1e7fd"),
    ("verify --suite geometry --q 16", EXIT_MISMATCH,
     "d599360a7fd9afcf226dd6167ce1c41cd18553c4ef587feedc1dd0171eff8980"),
    ("spectrum --family lines --q 16", EXIT_MISMATCH,
     "9fb9ecfa4a65d5032a8b9d0fd6a9660db5ff3f38b5b881a522f9306e0fc2cc6d"),
    ("verify --suite hasse --q 4", EXIT_MISMATCH,
     "edad2d1c3e8543baaa7d6494f12aaad753048a03853ecdac8a756a2edc96de35"),
    ("verify --suite hasse --q 8", EXIT_MISMATCH,
     "75f2da5c1d995f31f247fe0f4f4e8f1f8a67a7cf82657857a07fa06984458f32"),
    ("verify --suite hasse --q 16", EXIT_MISMATCH,
     "59a8b68f1a2828269ef4fbe301b0e7a53f692c4568194869452f6de24c5b703b"),
    ("verify --suite relations --q 16", EXIT_OK,
     "044396d5a9aa9628a91714cefb29dd65afac3d545dd2adfc07ad43db19cc8765"),
    ("verify --suite lemma --q 16", EXIT_OK,
     "a9e017e3729e2a565c6689fab3d440ef64cc81b745fd7ca2f69cb9834c31c5c4"),
    ("verify --suite field --q 32", EXIT_OK,
     "651ae134a3d42b9d3f6c8198b2f8531cdb63a6cd90d40a6928b82b8f0a475c26"),
    ("verify --suite field --q 64", EXIT_OK,
     "d5fae5e9ab9c79906213b42de23b678dc5113c8afa75794ec6d3a488f681a582"),
])
def test_restriction_and_field_reports_are_pinned(capsys, argv, exit_code, digest):
    code, out = run(capsys, *argv.split())
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The same for the line, parabola and conic code reports, recorded while
# they still enumerated their messages, before they read the spectra
@pytest.mark.parametrize("argv, exit_code, digest", [
    ("params --system conics --q 16", EXIT_MISMATCH,
     "efcc9280b98b8f7e86c2e61581d79b0455f1e0a05cf404c7cba0d093cd4486d4"),
    ("params --system lines --q 32", EXIT_OK,
     "68aadb3304db50fc9938c012349aa5b0218f65f6899c90ac57cc3639e4974d46"),
    ("params --system lines --q 64", EXIT_OK,
     "74b1b6f6b97bf90cf62bf1a9bf9852dd65143a7fd33827e4b6b16598bc783a75"),
    ("params --system parabolas --q 32", EXIT_OK,
     "70cf2d6bd6e997f805b7d28ce6b9e709b272fd0e022f4c3b75984ed5156ef84e"),
    ("params --system parabolas --q 64", EXIT_OK,
     "de5d7598629807f09f2bc92333f1e3bbb63bb39697be2ef4225c4d404d9143e4"),
])
def test_code_reports_from_the_spectra_are_pinned(capsys, argv, exit_code, digest):
    code, out = run(capsys, *argv.split())
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


# the fields that name field elements by their encoding, which the modulus fixes
ENCODED_FIELDS = {"modulus", "note", "violation_examples", "stated_mismatches",
                  "closed_form_mismatches"}


def _without_encoded_fields(report):
    if isinstance(report, dict):
        return {k: _without_encoded_fields(v) for k, v in report.items()
                if k not in ENCODED_FIELDS}
    if isinstance(report, list):
        return [_without_encoded_fields(v) for v in report]
    return report


@pytest.mark.parametrize("argv", [
    "verify --suite all", "spectrum --family lines", "spectrum --family parabolas",
    "spectrum --family all-conics", "params --system lines", "params --system parabolas",
    "params --system conics"])
def test_reports_do_not_depend_on_the_modulus(capsys, argv):
    """GF(8) and GF(16) are each the same field under every irreducible
    modulus, so every count, check and exit code agrees; only the encoded
    examples differ."""
    for q, moduli in (("8", ("0xB", "0xD")), ("16", ("0x13", "0x19", "0x1F"))):
        reports = []
        for modulus in moduli:
            code, out = run(capsys, *argv.split(), "--q", q, "--modulus", modulus)
            reports.append((code, _without_encoded_fields(json.loads(out))))
        assert all(r == reports[0] for r in reports[1:]), (q, moduli)


def test_net_report_does_not_depend_on_the_modulus(capsys):
    """A seeded net does depend on the modulus: the seed draws its point
    from the field's elements, and the same elements are other field
    values under another modulus.  At q = 8 with seed 1 the sampled net's
    d is 22 under 0xB and 21 under 0xD, with other weights and another
    reading of the distance bound.  So only what every sampled net of the
    system shares is compared: its length, dimension and sample count,
    whether every sampled net has rank 3, and whether each matches the
    expected parameters."""
    shared = ("n", "k", "samples", "all_rank_3", "matches_expected")
    reports = []
    for modulus in ("0xB", "0xD"):
        _, out = run(capsys, "params", "--system", "net", "--q", "8", "--samples", "4",
                     "--seed", "1", "--modulus", modulus)
        rep = json.loads(out)["report"]
        reports.append({key: rep[key] for key in shared})
    assert reports[0] == reports[1] == {"n": 28, "k": 3, "samples": 4, "all_rank_3": True,
                                        "matches_expected": True}


def test_spectrum_csv(capsys):
    code, out = run(capsys, "spectrum", "--q", "8", "--family", "parabolas",
                    "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "q,family,intersection_size,classes"
    assert all(row.startswith("8,parabolas,") for row in lines[1:])


@pytest.mark.parametrize("q", [8, 64])
def test_spectrum_lines_flags_mismatches(capsys, q):
    code, out = run(capsys, "spectrum", "--q", str(q), "--family", "lines")
    assert code == EXIT_MISMATCH
    payload = json.loads(out)
    # the q - 1 squared-intercept lines match neither point count
    assert payload["stated_mismatch_count"] == q - 1


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


def test_config_in_every_spelling_argparse_accepts(tmp_path, capsys):
    """--config=PATH and the abbreviation --conf read the file as --config
    PATH does; a missing file is a usage error in each spelling."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"format": "csv", "q": 4, "system": "lines"}')
    expected = run(capsys, "params", "--config", str(cfg))
    assert expected[0] == EXIT_OK and expected[1].startswith("q,system,n,k,d,weight,count")
    assert run(capsys, "params", f"--config={cfg}") == expected
    assert run(capsys, "params", "--conf", str(cfg)) == expected
    for argv in (["--config=/missing.json"], ["--conf", "/missing.json"]):
        code = main(["params", "--system", "lines", "--q", "4", *argv])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err.startswith("error: --config /missing.json: ")


def test_net_scan_count(capsys):
    code, out = run(capsys, "net", "--q", "4", "--scan-count")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["orbit_size"] == 2880 and payload["orbit_size_ok"]


def test_net_scan_count_csv_carries_the_count(capsys):
    code, out = run(capsys, "net", "--q", "4", "--scan-count", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines() == ["q,orbit_size,orbit_size_expected,orbit_size_ok",
                                "4,2880,2880,True"]


@pytest.mark.parametrize("argv", ["--scan --scan-count", "--seed 1 --scan", "--seed 0 --scan"])
def test_net_base_point_flags_are_exclusive(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["net", "--q", "4", *argv.split()])
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE and captured.out == ""
    assert "not allowed with argument" in captured.err


@pytest.mark.parametrize("config, flags", [
    ('{"scan": true}', "--seed 3"), ('{"seed": 3}', "--scan"), ('{"scan": true}', "--seed 0")])
def test_net_base_point_flags_beat_config(tmp_path, capsys, config, flags):
    """A base-point flag drops the config's other base-point keys, as
    explicit flags beat config values."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    expected = run(capsys, "net", "--q", "4", *flags.split())
    assert run(capsys, "net", "--q", "4", "--config", str(cfg), *flags.split()) == expected


@pytest.mark.parametrize("config", ['{"scan": true, "scan_count": true}',
                                    '{"seed": 1, "scan": true}'])
def test_net_config_sets_at_most_one_base_point_key(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    code = main(["net", "--q", "4", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert all(repr(key) in captured.err for key in json.loads(config))


def test_net_dual_distance_search_has_its_own_budget(capsys):
    """The net code at q = 32 has 496 columns, and C(496, 3) three-column
    subsets exceed dual_distance_upto's budget of 2 * 10^6, so the report
    exits 2 before anything is written."""
    code = main(["params", "--system", "net", "--q", "32", "--samples", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err == "error: C(496, 3) column subsets exceed the search budget\n"


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


def test_samples_beyond_the_orbit_is_usage_error(capsys, monkeypatch):
    """q = 4 has 2880 distinct net base points; asking for 2881 is rejected
    before any field is built, instead of sampling forever."""
    def no_field(args):
        raise AssertionError("a field was built")
    monkeypatch.setattr(cli, "make_field", no_field)
    code, out = run(capsys, "params", "--q", "4", "--system", "net", "--samples", "2881")
    assert code == EXIT_USAGE and out == ""


def test_scan_count_over_the_class_budget_is_usage_error(capsys, monkeypatch):
    """PG(2, GF(32^3)) has 2^30 + 2^15 + 1 points, over the class budget:
    --scan-count exits 2 before the scan visits a point."""
    from deltacodes import constructions
    def no_scan(E):
        raise AssertionError("the scan started")
    monkeypatch.setattr(constructions, "projective_points", no_scan)
    code = main(["net", "--q", "32", "--scan-count"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert "exceed the sweep budget" in captured.err


def test_unknown_suite_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus", "--q", "4"])
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE and captured.out == ""
    assert "--suite" in captured.err and "bogus" in captured.err
    choices = captured.err[captured.err.index("choose from"):]
    assert all(name in choices for name in (*SUITES, "all"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"suite": "bogus"}')
    code = main(["verify", "--config", str(cfg), "--q", "4"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err.startswith("error: ") and "bogus" in captured.err


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


def _cli_process(argv, python_flags=(), **kwargs):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.Popen([sys.executable, *python_flags, "-m", "deltacodes.cli", *argv],
                            env=env, stderr=subprocess.PIPE, **kwargs)


def test_reports_survive_optimize():
    """Under python -O, which strips assert statements, every suite at
    q = 4 still gives the pinned report and exit code."""
    proc = _cli_process(["verify", "--suite", "all", "--q", "4"], python_flags=("-O",),
                        stdout=subprocess.PIPE)
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == EXIT_MISMATCH and "Traceback" not in err.decode()
    assert hashlib.sha256(out).hexdigest() == \
        "36531cf08c8515b289e1c7349a5dbf5118c20481a6f65699935e70beec4e396d"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_failed_write_is_usage_error(capsys):
    """A full disk is reported as an unwritable destination, not as an
    internal fault, both on stdout and through --out."""
    with open("/dev/full", "w") as full:
        proc = _cli_process(["net", "--q", "64", "--seed", "1"], stdout=full)
        err = proc.communicate(timeout=120)[1].decode()
    assert proc.returncode == EXIT_USAGE
    assert err.startswith("error: cannot write the report: ") and "Traceback" not in err
    code = main(["params", "--q", "4", "--system", "lines", "--out", "/dev/full"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err.startswith("error: cannot write the report: ")


def test_reader_closing_early_keeps_the_exit_status():
    proc = _cli_process(["net", "--q", "64", "--seed", "1"], stdout=subprocess.PIPE)
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.communicate(timeout=120)[1].decode()
    assert head == b'{\n  "all_n'
    assert proc.returncode == EXIT_OK and "Traceback" not in err


def _elapsed_paths(obj, path=""):
    if isinstance(obj, dict):
        return [p for k, v in obj.items()
                for p in ([path] if k == "elapsed" else _elapsed_paths(v, f"{path}/{k}"))]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _elapsed_paths(v, f"{path}/{i}")]
    return []


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv, timed_at", [
    ("params --system lines", ["/report"]),
    ("spectrum --family lines", []),
    ("verify --suite all", [f"/suites/{i}" for i in range(6)]),
    ("net --seed 2", []),
    ("net --scan-count", []),
])
def test_out_holds_the_stdout_bytes_and_elapsed_needs_timing(tmp_path, capsys, argv, timed_at,
                                                              fmt):
    argv = argv.split() + ["--q", "4", "--format", fmt]
    code, out = run(capsys, *argv)
    path = tmp_path / "report"
    assert main(argv + ["--out", str(path)]) == code
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode()
    timed_code, timed_out = run(capsys, *argv, "--timing")
    assert timed_code == code
    if fmt == "csv":
        assert timed_out == out
    else:
        assert _elapsed_paths(json.loads(out)) == []
        assert _elapsed_paths(json.loads(timed_out)) == timed_at


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_net_dump_memory_peak(tmp_path, capsys, fmt):
    """The q = 64 net dump (4161 members) is encoded straight into its
    destination, with one string per field value: its tracemalloc peak
    stays under 2 MiB (5.24 MiB in JSON and 3.51 MiB in CSV while the
    report was copied and joined into one text first)."""
    argv = ["net", "--q", "64", "--seed", "1", "--format", fmt, "--out", str(tmp_path / "net")]
    assert main(argv) == EXIT_OK  # warm: field tables, extension field, imports
    code, peak = _run_traced(argv)
    assert code == EXIT_OK and capsys.readouterr().out == ""
    assert peak < 2 << 20
