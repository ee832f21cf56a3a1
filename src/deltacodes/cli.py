"""Command-line front end: code parameters, intersection spectra, and the
verification suites, as machine-readable JSON or CSV.

Exit status: 0 when every asserted closed form holds, 1 when a stated claim
fails its brute-force check (the report carries the counterexamples), 2 on
usage or budget errors (one class budget admits every exhaustive path), 3
on an internal fault, with its traceback on stderr.  Identical (q, modulus,
seed, flags) produce byte-identical reports; timing is only embedded on
request.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import traceback
from typing import Optional

from .constructions import (
    construction2_code,
    construction1_samples,
    find_lambda_point,
    full_conic_code,
    lambda_orbit_count,
    line_code,
    make_net_context,
    build_net,
)
from .field import ExtField, Field, modulus_hex, parse_modulus
from .verify import (
    SUITES,
    BudgetError,
    check_class_budget,
    check_suite_budget,
    conic_spectrum,
    line_spectrum,
    parabola_spectrum,
    run_suite,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

SYSTEMS = ("lines", "parabolas", "conics", "net")
FAMILIES = ("lines", "parabolas", "all-conics")


def make_field(args) -> Field:
    q = args.q
    if q is None:
        raise UsageError("--q is required (directly or via --config)")
    if q < 4 or q > 64 or q & (q - 1):
        raise UsageError(f"--q must be a power of 2 with 4 <= q <= 64, got {q}")
    h = q.bit_length() - 1
    try:
        modulus = parse_modulus(args.modulus) if args.modulus else None
        return Field(h, modulus)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


class UsageError(RuntimeError):
    pass


def _strip_timing(obj, keep: bool):
    if keep:
        return obj
    if isinstance(obj, dict):
        return {k: _strip_timing(v, keep) for k, v in obj.items() if k != "elapsed"}
    if isinstance(obj, list):
        return [_strip_timing(v, keep) for v in obj]
    return obj


def emit(payload: dict, args) -> None:
    payload = _strip_timing(payload, getattr(args, "timing", False))
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = to_csv(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def to_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    kind = payload.get("kind")
    if kind == "params":
        writer.writerow(["q", "system", "n", "k", "d", "weight", "count"])
        rep = payload["report"]
        for w, c in rep["weights"]:
            writer.writerow([rep["q"], rep["system"], rep["n"], rep["k"], rep["d"], w, c])
    elif kind == "spectrum":
        writer.writerow(["q", "family", "intersection_size", "classes"])
        for size, count in sorted(payload["histogram"].items(), key=lambda kv: int(kv[0])):
            writer.writerow([payload["q"], payload["family"], size, count])
    elif kind == "verify":
        writer.writerow(["q", "suite", "check", "ok", "expected", "actual", "note"])
        for suite in payload["suites"]:
            for c in suite["checks"]:
                writer.writerow([payload["q"], suite["suite"], c["name"], c["ok"],
                                 c["expected"], c["actual"], c["note"]])
    elif kind == "net":
        writer.writerow(["q", "member", "a11", "a12", "a22", "a13", "a23", "a33"])
        for i, member in enumerate(payload["members"]):
            writer.writerow([payload["q"], i] + list(member))
    else:
        raise UsageError(f"no CSV layout for payload kind {kind!r}")
    return buf.getvalue()


def hex6(coeffs) -> list[str]:
    return [format(int(c), "#x") for c in coeffs]


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_params(args) -> int:
    if args.samples < 1:
        raise UsageError(f"--samples must be at least 1, got {args.samples}")
    F = make_field(args)
    if args.system == "lines":
        report = line_code(F)
    elif args.system == "parabolas":
        report = construction2_code(F)
    elif args.system == "conics":
        report = full_conic_code(F)
    else:
        samples = construction1_samples(F, args.samples, seed=args.seed)
        d_hist: dict[int, int] = {}
        dual_hist: dict[Optional[int], int] = {}
        for rep in samples:
            d_hist[rep["d"]] = d_hist.get(rep["d"], 0) + 1
            dual_hist[rep["dual_distance"]] = dual_hist.get(rep["dual_distance"], 0) + 1
        report = samples[0]
        report["samples"] = len(samples)
        report["d_histogram"] = {str(k): v for k, v in sorted(d_hist.items())}
        report["dual_distance_histogram"] = {str(k): v for k, v in sorted(dual_hist.items())}
        report["all_rank_3"] = all(rep["k"] == 3 for rep in samples)
        report["matches_expected"] = report["all_rank_3"] and all(
            rep["n"] == F.q * (F.q - 1) // 2 for rep in samples)
    report["modulus"] = modulus_hex(F.modulus)
    payload = {"kind": "params", "q": F.q, "report": report}
    emit(payload, args)
    return EXIT_OK if report.get("matches_expected", True) else EXIT_MISMATCH


def cmd_spectrum(args) -> int:
    F = make_field(args)
    if args.family == "lines":
        spec = line_spectrum(F)
        histogram = spec["histogram_delta"]
        clean = not spec["stated_mismatches"]
        extra = {"stated_mismatches": spec["stated_mismatches"][:16],
                 "stated_mismatch_count": len(spec["stated_mismatches"])}
    elif args.family == "parabolas":
        spec = parabola_spectrum(F)
        histogram = spec["histogram_delta"]
        clean = not spec["closed_form_mismatches"]
        extra = {"closed_form_mismatches": spec["closed_form_mismatches"][:16]}
    else:
        check_class_budget(F.q, 6)
        print(f"sweeping all conic classes at q={F.q} ...", file=sys.stderr)
        spec = conic_spectrum(F)
        histogram = spec["histogram"]
        clean = spec["window_violations"] == 0
        extra = {
            "window_violations": spec["window_violations"],
            "violation_counts": spec["violation_counts"],
            "violation_examples": spec["violation_examples"],
            "exceptional_parabola_classes": spec["exceptional_parabola_classes"],
        }
    payload = {
        "kind": "spectrum",
        "q": F.q,
        "modulus": modulus_hex(F.modulus),
        "family": args.family,
        "histogram": {str(k): v for k, v in sorted(histogram.items())},
        "all_stated_claims_hold": clean,
        **extra,
    }
    emit(payload, args)
    return EXIT_OK if clean else EXIT_MISMATCH


def cmd_verify(args) -> int:
    F = make_field(args)
    check_suite_budget(args.suite, F.q)
    print(f"running suite '{args.suite}' at q={F.q} ...", file=sys.stderr)
    reports = run_suite(args.suite, F)
    payload = {
        "kind": "verify",
        "q": F.q,
        "modulus": modulus_hex(F.modulus),
        "suites": [r.to_dict() for r in reports],
        "passed": all(r.passed for r in reports),
    }
    emit(payload, args)
    return EXIT_OK if payload["passed"] else EXIT_MISMATCH


def cmd_net(args) -> int:
    F = make_field(args)
    E = ExtField(F, 3)
    if args.scan_count:
        accepted = lambda_orbit_count(E)
        q = F.q
        expected = q ** 6 - q ** 5 - q ** 4 + q ** 3
        payload = {
            "kind": "net",
            "q": q,
            "modulus": modulus_hex(F.modulus),
            "members": [],
            "orbit_size": accepted,
            "orbit_size_expected": expected,
            "orbit_size_ok": accepted == expected,
        }
        emit(payload, args)
        return EXIT_OK if accepted == expected else EXIT_MISMATCH
    point = find_lambda_point(E, "scan" if args.scan else "seeded", args.seed)
    ctx = make_net_context(E, point)
    members = build_net(F, ctx)
    axis_tangent = [m.coeffs() for m in members if m.a12 == 0 and m.a22 == 0]
    payload = {
        "kind": "net",
        "q": F.q,
        "modulus": modulus_hex(F.modulus),
        "point": [list(c) for c in ctx.P],
        "members": [hex6(m.coeffs()) for m in members],
        "member_count": len(members),
        "expected_member_count": F.q * F.q + F.q + 1,
        "all_nondegenerate": True,  # build_net aborts otherwise
        "axis_tangent_members": len(axis_tangent),
    }
    emit(payload, args)
    ok = len(members) == payload["expected_member_count"] and len(axis_tangent) == 1
    return EXIT_OK if ok else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltacodes",
        description="Evaluation codes from linear systems of conics over GF(2^h): "
                    "parameters, intersection spectra, and exhaustive verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    subparsers = []

    def common(p):
        subparsers.append(p)
        p.add_argument("--q", type=int, help="field order, a power of 2 in [4, 64]")
        p.add_argument("--modulus", help="irreducible polynomial over GF(2) as hex, e.g. 0xB")
        p.add_argument("--config", help="JSON file with default flag values")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="write the report to a file instead of stdout")
        p.add_argument("--timing", action="store_true", help="embed elapsed times in reports")

    p = sub.add_parser("params", help="build a code and report [n, k, d] and weights")
    common(p)
    p.add_argument("--system", choices=SYSTEMS)
    p.add_argument("--seed", type=int, default=0, help="seed for net base-point sampling")
    p.add_argument("--samples", type=int, default=32, help="net base points to sample")
    p.set_defaults(fn=cmd_params, _needs=("system",))

    p = sub.add_parser("spectrum", help="histogram of intersection sizes over a family")
    common(p)
    p.add_argument("--family", choices=FAMILIES)
    p.set_defaults(fn=cmd_spectrum, _needs=("family",))

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("--suite", choices=tuple(SUITES) + ("all",))
    p.set_defaults(fn=cmd_verify, _needs=("suite",))

    p = sub.add_parser("net", help="build the triangle net and dump its members")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scan", action="store_true", help="take the first base point in scan order")
    p.add_argument("--scan-count", action="store_true",
                   help="exhaustively count the admissible base points instead")
    p.set_defaults(fn=cmd_net, _needs=())
    parser._deltacodes_subparsers = subparsers  # for config defaults
    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """A JSON config file supplies defaults for any long flag, e.g.
    {"modulus": "0x13", "format": "csv"}; explicit flags still win.  Values
    must have their flag's type (bool for a switch) and be one of its choices."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    try:
        path = argv[i + 1]
    except IndexError:
        raise UsageError("--config needs a file path") from None
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"--config {path}: {exc}") from None
    if not isinstance(config, dict):
        raise UsageError("config file must hold a JSON object")
    actions = {action.dest: action for p in parser._deltacodes_subparsers
               for action in p._actions if action.dest not in ("help", "config")}
    unknown = sorted(set(config) - set(actions))
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")
    for key, value in config.items():
        action = actions[key]
        kind = bool if action.nargs == 0 else action.type or str
        if type(value) is not kind or (action.choices and value not in action.choices):
            wanted = f"one of {', '.join(action.choices)}" if action.choices else kind.__name__
            raise UsageError(f"config key {key!r} must be {wanted}, got {json.dumps(value)}")
    for sub_parser in parser._deltacodes_subparsers:
        sub_parser.set_defaults(**config)
    return argv[:i] + argv[i + 2:]


def _check_out(path: str) -> None:
    """Reject an --out the report could not be written to, before any work."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise UsageError(f"--out {path}: no such directory")
    if os.path.isdir(path):
        raise UsageError(f"--out {path}: is a directory")
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise UsageError(f"--out {path}: not writable")


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(parser, argv)
        args = parser.parse_args(argv)
        for needed in args._needs:
            if getattr(args, needed, None) is None:
                raise UsageError(f"--{needed} is required (directly or via --config)")
        if args.out:
            _check_out(args.out)
        return args.fn(args)
    except (UsageError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
