"""Run one deltacodes CLI call with layer spans recorded.

    python bench/tracing.py TRACE_FILE JOB_ID -- <deltacodes CLI arguments>

The public functions of each deltacodes module are wrapped before
`cli.main` runs.  A wrapper records one span (id, name, start, end,
parent, work counts) per call, filed under the job id; names that other
modules bound with `from ... import` are rebound to the same wrapper, or
those calls would bypass it.  Functions called very often are tallied instead: calls and
summed time per parent span.  Per-element scalar operations (`Field.mul`,
`Field.trace`, `eval_line`, `eval_conic`) are not wrapped at all, because
a wrapper per element multiplies their cost; their time counts in the
caller's self time.

Spans stay in memory and are written to TRACE_FILE as JSON when the call
ends.  The process exits with the CLI's exit code.  `layer_metrics` reduces
the traces of a workload's jobs to the per-layer metrics in LAYER_METRICS.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("field", "geometry", "curves", "codes", "constructions", "verify", "cli")

# curves functions that are per-value predicates, not per-conic work
CURVES_SCALAR = {"in_elliptic_affine_window", "in_rational_affine_window"}


class Tracer:
    """Span recorder for one job.  Span 0 is the job itself."""

    def __init__(self, job_id: int):
        self.job_id = job_id
        self.spans: list[tuple] = []
        self.tallies: dict[tuple[int, str], list] = {}
        self.errors: dict[str, int] = {}
        self._raised: set[tuple[str, int]] = set()
        self._stack = [0]
        self._next_id = 1

    def _error(self, name: str, exc: BaseException) -> None:
        module = name.split(".", 1)[0]
        if (module, id(exc)) not in self._raised:  # count an exception once per module
            self._raised.add((module, id(exc)))
            self.errors[module] = self.errors.get(module, 0) + 1

    def span(self, name: str, fn, work=None):
        """Wrap fn so that each call records a span; work(result, *args,
        **kwargs) returns the call's work counts."""
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(sid)
            result = counts = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                self._error(name, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                if work is not None and result is not None:
                    counts = work(result, *args, **kwargs)
                spans.append((sid, name, start, end, parent, counts))

        return wrapper

    def tally(self, name: str, fn):
        """Wrap a leaf function (one that calls no wrapped function) so that
        its calls and time are summed per parent span."""
        stack, tallies, clock = self._stack, self.tallies, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self._error(name, exc)
                raise
            finally:
                cell = tallies.get((stack[-1], name))
                if cell is None:
                    cell = tallies[(stack[-1], name)] = [0, 0.0]
                cell[0] += 1
                cell[1] += clock() - start

        return wrapper

    def dump(self) -> dict:
        return {
            "job": self.job_id,
            "spans": [list(s) for s in self.spans],
            "tallies": [[parent, name, calls, secs]
                        for (parent, name), (calls, secs) in self.tallies.items()],
            "errors": self.errors,
        }


def _enumerate_work(result, g, *args, **kwargs):
    q, k = g.field.q, g.k
    return {"messages": q ** k, "classes": (q ** k - 1) // (q - 1)}


def install(tracer: Tracer):
    """Wrap the layer boundaries of every deltacodes module; return the
    wrapped `cli.main`."""
    from deltacodes import cli, codes, constructions, curves, field, geometry, verify
    modules = (cli, codes, constructions, curves, field, geometry, verify)

    def wrap_function(module, attr, name, work=None, tally=False):
        orig = getattr(module, attr)
        wrapped = tracer.tally(name, orig) if tally else tracer.span(name, orig, work)
        for m in modules:  # rebind `from ... import` copies too
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
        return wrapped

    def wrap_method(cls, attr, name, work=None, tally=False):
        orig = getattr(cls, attr)
        setattr(cls, attr, tracer.tally(name, orig) if tally else tracer.span(name, orig, work))

    wrap_method(field.Field, "__init__", "field.init")
    wrap_method(field.ExtField, "__init__", "field.init")
    wrap_method(field.Field, "mul_col", "field.mul_col",
                lambda r, self, arr, scalar: {"bytes": arr.nbytes + r.nbytes})
    wrap_method(field.Field, "vmul", "field.vmul", lambda r, self, a, b: {"elements": r.size})
    wrap_method(field.ExtField, "mul", "field.ext_mul", tally=True)

    wrap_function(geometry, "count_on_delta", "geometry.count_on_delta",
                  lambda r, F, zeroset, delta: {"points": len(delta)})
    wrap_function(geometry, "build_delta", "geometry.build_delta")
    wrap_function(geometry, "parabola_count_closed_form",
                  "geometry.parabola_count_closed_form", tally=True)

    for attr, value in list(vars(curves).items()):
        if (inspect.isfunction(value) and value.__module__ == curves.__name__
                and not attr.startswith("_") and attr not in CURVES_SCALAR):
            wrap_function(curves, attr, "curves.per_conic")

    wrap_function(verify, "projective_class_columns", "verify.class_columns",
                  lambda r, *a, **k: {"classes": len(r[0]),
                                      "bytes": sum(c.nbytes for c in r)})
    wrap_function(verify, "zero_counts", "verify.zero_counts",
                  lambda r, F, cols, monos: {"class_points": len(cols[0]) * len(monos)})
    for attr in ("conic_spectrum", "line_spectrum", "parabola_spectrum"):
        wrap_function(verify, attr, "verify.spectrum")
    for suite, fn in list(verify.SUITES.items()):
        verify.SUITES[suite] = wrap_function(verify, fn.__name__, "verify.suite")

    wrap_function(codes, "weight_distribution_enumerate", "codes.enumerate", _enumerate_work)
    wrap_function(codes, "evaluate_system", "codes.evaluate_system")
    wrap_function(codes, "dual_distance_upto", "codes.dual_distance")
    wrap_function(codes, "gf_rank", "codes.gf_rank", tally=True)

    for attr in ("_report", "line_code", "construction2_code", "full_conic_code",
                 "construction1_code", "construction1_samples"):
        wrap_function(constructions, attr, "constructions.report")
    for attr in ("find_lambda_point", "lambda_orbit_count", "make_net_context",
                 "build_net", "net_basis"):
        wrap_function(constructions, attr, "constructions.net")

    wrap_function(cli, "emit", "cli.emit")
    return wrap_function(cli, "main", "cli.main")


# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = [
    ("field.mul_col.calls", "count", "lower"),
    ("field.mul_col.self_s", "s", "lower"),
    ("field.mul_col.bytes", "bytes", "lower"),
    ("field.vmul.calls", "count", "lower"),
    ("field.vmul.self_s", "s", "lower"),
    ("field.vmul.elements", "count", "lower"),
    ("field.ext_mul.calls", "count", "lower"),
    ("field.ext_mul.self_s", "s", "lower"),
    ("field.init_s", "s", "lower"),
    ("geometry.count_on_delta.calls", "count", "lower"),
    ("geometry.count_on_delta.points", "count", "lower"),
    ("geometry.count_on_delta.self_s", "s", "lower"),
    ("geometry.parabola_count_closed_form.calls", "count", "lower"),
    ("geometry.parabola_count_closed_form.self_s", "s", "lower"),
    ("geometry.build_delta.self_s", "s", "lower"),
    ("curves.per_conic.calls", "count", "lower"),
    ("curves.per_conic.self_s", "s", "lower"),
    ("verify.class_columns.classes", "count", "lower"),
    ("verify.class_columns.bytes", "bytes", "lower"),
    ("verify.class_columns.self_s", "s", "lower"),
    ("verify.zero_counts.calls", "count", "lower"),
    ("verify.zero_counts.class_points", "count", "lower"),
    ("verify.zero_counts.self_s", "s", "lower"),
    ("verify.zero_counts.class_points_per_s", "1/s", "higher"),
    ("verify.suite.self_s", "s", "lower"),
    ("verify.spectrum.self_s", "s", "lower"),
    ("codes.enumerate.messages", "count", "lower"),
    ("codes.enumerate.self_s", "s", "lower"),
    ("codes.enumerate.messages_per_s", "1/s", "higher"),
    ("codes.enumerate.waste_ratio", "ratio", "lower"),
    ("codes.evaluate_system.self_s", "s", "lower"),
    ("codes.dual_distance.self_s", "s", "lower"),
    ("codes.gf_rank.calls", "count", "lower"),
    ("constructions.report.self_s", "s", "lower"),
    ("constructions.net.self_s", "s", "lower"),
    ("cli.emit.self_s", "s", "lower"),
    ("cli.emit.bytes", "bytes", "lower"),
    ("cli.main.self_s", "s", "lower"),
    *((f"{module}.errors", "count", "lower") for module in MODULES),
    ("trace.overhead_s", "s", "lower"),
]


def layer_metrics(traces: list[dict], emitted_bytes: int, overhead_s: float) -> dict[str, float]:
    """Reduce job traces to LAYER_METRICS.  A span's self time is its
    duration minus the time of the spans and tallies directly under it;
    `.calls` counts calls that do not come from a span of the same name;
    `_per_s` rates divide work by the layer's inclusive time."""
    acc: dict[str, float] = defaultdict(int)
    for trace in traces:
        names = {span[0]: span[1] for span in trace["spans"]}
        below: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in trace["spans"]:
            below[parent] += end - start
        for parent, name, calls, secs in trace["tallies"]:
            below[parent] += secs
            acc[name + ".calls"] += calls
            acc[name + ".self_s"] += secs
        for sid, name, start, end, parent, counts in trace["spans"]:
            acc[name + ".self_s"] += end - start - below[sid]
            acc[name + ".inclusive_s"] += end - start
            if names.get(parent) != name:
                acc[name + ".calls"] += 1
            for key, value in (counts or {}).items():
                acc[f"{name}.{key}"] += value
        for module, count in trace["errors"].items():
            acc[module + ".errors"] += count

    def ratio(num: str, den: str) -> float:
        return acc[num] / acc[den] if acc[den] else 0.0

    acc["field.init_s"] = acc["field.init.self_s"]
    acc["verify.zero_counts.class_points_per_s"] = ratio(
        "verify.zero_counts.class_points", "verify.zero_counts.inclusive_s")
    acc["codes.enumerate.messages_per_s"] = ratio(
        "codes.enumerate.messages", "codes.enumerate.inclusive_s")
    acc["codes.enumerate.waste_ratio"] = ratio("codes.enumerate.messages", "codes.enumerate.classes")
    acc["cli.emit.bytes"] = emitted_bytes
    acc["trace.overhead_s"] = overhead_s
    return {name: acc[name] for name, _, _ in LAYER_METRICS}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracing.py TRACE_FILE JOB_ID -- <deltacodes CLI arguments>",
              file=sys.stderr)
        return 2
    trace_file, job_id, cli_args = argv[0], int(argv[1]), argv[3:]
    sys.path.insert(0, str(SRC))
    tracer = Tracer(job_id)
    traced_main = install(tracer)
    try:
        return traced_main(cli_args)
    finally:
        sys.stdout.flush()
        with open(trace_file, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
