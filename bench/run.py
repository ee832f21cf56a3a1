"""The deltacodes benchmark: runs the real CLI on named workloads.

    python3 bench/run.py --workload grid-sweep --seed 1 --seconds 50 --trace 0

Each job is one `python -m deltacodes.cli ...` call in a fresh interpreter,
against the checkout's `src`, with nothing installed.  The load is one
client in a closed loop: one job at a time, so no table cache carries over
between jobs and the machine runs this process plus one job.  Every job's
exit code and result fields are checked against `reference.json`.

With --trace 0 the run repeats the workload's jobs while the next pass fits
in --seconds (at least once) and reports the end-to-end metrics as medians
over passes.  With --trace 1 it then runs one more pass through
`tracing.py` and reports the per-layer metrics.  The last line of stdout is
the result as one JSON object; see README.md for every name.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"

RUN_LIMIT_S = 170.0      # a run ends within this, whatever its jobs do
TIMEOUT_FACTOR = 4.0     # a job times out after this multiple of its reference time ...
TIMEOUT_FLOOR_S = 10.0   # ... plus this
SETUP_REPEATS = 5        # set-up samples before the first pass and after the last
# result fields that are prose or example lists, left out of the comparison
# so that a change in their wording or layout does not read as a failure
DROP = frozenset({"note", "elapsed", "stated_mismatches", "violation_examples",
                  "closed_form_mismatches"})
END_TO_END_UNITS = {"wall_s": "s", "slowest_job_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


@dataclass(frozen=True)
class Job:
    """One CLI call.  "{seed}" in args is replaced by the run's --seed."""

    args: tuple[str, ...]
    keep: Optional[tuple[str, ...]] = None  # seeded jobs: the fields that do not depend on it
    exts: tuple[int, ...] = ()              # extension degrees built over the job's field

    @property
    def key(self) -> str:
        return " ".join(self.args)

    @property
    def h(self) -> int:
        return int(self.args[self.args.index("--q") + 1]).bit_length() - 1

    def argv(self, seed: int) -> list[str]:
        return [a.replace("{seed}", str(seed)) for a in self.args]


def job(text: str, keep: Optional[tuple[str, ...]] = None, exts: tuple[int, ...] = ()) -> Job:
    return Job(tuple(text.split()), keep, exts)


WORKLOADS: dict[str, list[Job]] = {
    # The class sweep over all 1,118,481 conic classes on the GF(16)^2 grid:
    # zero_counts over mul_col gathers plus the vmul sweeps.  Memory peak.
    "grid-sweep": [
        job("verify --suite hasse --q 16"),
    ],
    # Everything on Delta: zero_counts on its 120 points and message
    # enumeration over 16^6 and 32^4 words, then the scalar per-object
    # paths: count_on_delta, ExtField arithmetic and the largest report (the
    # q=64 net dump).  The net jobs alone take the seed.
    "delta-referee": [
        job("spectrum --family all-conics --q 16"),
        job("params --system conics --q 16"),
        job("params --system parabolas --q 32"),
        job("spectrum --family lines --q 32"),
        job("verify --suite geometry --q 16"),
        job("verify --suite field --q 16"),
        job("net --q 64 --seed {seed}", exts=(3,),
            keep=("member_count", "expected_member_count", "axis_tangent_members",
                  "all_nondegenerate")),
        job("net --q 4 --scan-count", exts=(3,)),
        job("params --system net --q 16 --samples 32 --seed {seed}", exts=(3,),
            keep=("report.samples", "report.all_rank_3", "report.n", "report.k",
                  "report.matches_expected")),
    ],
}


# ----------------------------------------------------------------------
# Result fields and the reference
# ----------------------------------------------------------------------

def result_fields(payload, keep: Optional[tuple[str, ...]]):
    """The part of a report that is checked: the listed dotted paths when
    keep is given, else everything but the DROP keys."""
    if keep is not None:
        out = {}
        for path in keep:
            value = payload
            for part in path.split("."):
                value = value.get(part, "<missing>") if isinstance(value, dict) else "<missing>"
            out[path] = value
        return out
    if isinstance(payload, dict):
        return {k: result_fields(v, None) for k, v in payload.items() if k not in DROP}
    if isinstance(payload, list):
        return [result_fields(v, None) for v in payload]
    return payload


def first_difference(expected, actual, path: str = "") -> Optional[str]:
    """Dotted path of the first field where actual differs, or None."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                return f"{path}.{key}".lstrip(".")
            diff = first_difference(expected[key], actual[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{path} (length {len(expected)} != {len(actual)})".lstrip(".")
        for i, (e, a) in enumerate(zip(expected, actual)):
            diff = first_difference(e, a, f"{path}[{i}]")
            if diff:
                return diff
        return None
    return None if expected == actual else (path.lstrip(".") or "<report>")


# ----------------------------------------------------------------------
# Running one job
# ----------------------------------------------------------------------

@dataclass
class JobResult:
    key: str
    wall_s: float
    rss_mb: float
    exit_code: Optional[int]
    stdout_bytes: int
    error: Optional[str]  # None when the job matched its reference

    @property
    def failed(self) -> bool:
        return self.error is not None


def job_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd: list[str], timeout: float, stdout, stderr) -> tuple[float, Optional[int], float]:
    """Run cmd to completion or until timeout; return its wall time, exit
    code (None when killed for the timeout) and max RSS in MiB, taken from
    the child's own rusage."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=job_env(), stdin=subprocess.DEVNULL,
                            stdout=stdout, stderr=stderr)
    fired = threading.Event()

    def kill() -> None:
        fired.set()
        os.kill(proc.pid, signal.SIGKILL)  # not yet reaped, so the pid is still the child's

    timer = threading.Timer(timeout, kill)
    timer.start()
    wall = None
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
    finally:
        timer.cancel()
        timer.join()
        if wall is None:  # interrupted: stop the child before leaving
            proc.kill()
            proc.wait()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    timed_out = fired.is_set() and code == -signal.SIGKILL
    return wall, None if timed_out else code, usage.ru_maxrss / 1024.0


def run_job(j: Job, seed: int, timeout: float, workdir: Path, reference: dict,
            trace_file: Optional[Path] = None, job_id: int = 0) -> JobResult:
    argv = j.argv(seed)
    if trace_file is None:
        cmd = [sys.executable, "-m", "deltacodes.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "tracing.py"), str(trace_file), str(job_id), "--", *argv]
    out_path, err_path = workdir / f"{job_id}.out", workdir / f"{job_id}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        wall, code, rss = spawn(cmd, timeout, out, err)
    stdout, stderr = out_path.read_bytes(), err_path.read_text(errors="replace")
    ref = reference[j.key]
    error = None
    if code is None:
        error = f"timeout after {timeout:.0f} s"
    elif "Traceback (most recent call last)" in stderr:
        error = f"crash (exit {code}): {stderr.strip().splitlines()[-1]}"
    elif code != ref["exit"]:
        error = f"exit code {code}, reference {ref['exit']}"
    else:
        try:
            fields = result_fields(json.loads(stdout), j.keep)
        except ValueError:
            error = "report is not JSON"
        else:
            diff = first_difference(ref["fields"], fields)
            if diff:
                error = f"field {diff} differs from the reference"
    return JobResult(j.key, wall, rss, code, len(stdout), error)


def run_pass(jobs: list[Job], seed: int, deadline: float, workdir: Path, reference: dict,
             first_id: int, tracedir: Optional[Path] = None) -> list[JobResult]:
    """Run the jobs once, in order; a job that cannot end before the
    deadline is not started and counts as failed."""
    results = []
    for i, j in enumerate(jobs):
        job_id = first_id + i
        remaining = deadline - time.perf_counter()
        timeout = min(TIMEOUT_FACTOR * reference[j.key]["ref_s"] + TIMEOUT_FLOOR_S, remaining)
        if timeout <= 1.0:
            results.append(JobResult(j.key, 0.0, 0.0, None, 0, "not started: run time limit"))
            continue
        trace_file = tracedir / f"{job_id}.json" if tracedir else None
        results.append(run_job(j, seed, timeout, workdir, reference, trace_file, job_id))
    return results


# ----------------------------------------------------------------------
# Set-up time and the environment
# ----------------------------------------------------------------------

def setup_code(jobs: list[Job]) -> str:
    builds = sorted({(j.h, r) for j in jobs for r in (0, *j.exts)})
    return ("import deltacodes.cli\n"
            "from deltacodes.field import ExtField, Field\n"
            "fields = {}\n"
            f"for h, r in {builds!r}:\n"
            "    F = fields.setdefault(h, Field(h))\n"
            "    if r:\n"
            "        ExtField(F, r)\n"
            "print(deltacodes.cli.__file__)\n")


def measure_setup(jobs: list[Job], workdir: Path, warm: bool = False) -> list[float]:
    """Wall times of fresh interpreters that import the CLI and build the
    workload's fields.  With warm, one untimed call first writes the
    bytecode cache."""
    cmd = [sys.executable, "-c", setup_code(jobs)]
    times = []
    for i in range(SETUP_REPEATS + warm):
        out_path = workdir / "setup.out"
        with open(out_path, "wb") as out:
            wall, code, _ = spawn(cmd, TIMEOUT_FLOOR_S, out, subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError(f"set-up interpreter exited with {code}")
        loaded = Path(out_path.read_text().strip()).resolve()
        if loaded != SRC / "deltacodes" / "cli.py":
            raise RuntimeError(f"set-up imported {loaded}, not the checkout's src")
        if i or not warm:
            times.append(wall)
    return times


def read_text(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def environment() -> dict:
    model = next((line.split(":", 1)[1].strip() for line in read_text("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read_text(f"{index}/level"), read_text(f"{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = read_text(f"{index}/size")
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "cache": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": read_text("/proc/loadavg"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 reference: dict) -> tuple[int, int, dict]:
    jobs = WORKLOADS[name]
    deadline = time.perf_counter() + RUN_LIMIT_S
    with tempfile.TemporaryDirectory(prefix=".bench_work_", dir=ROOT) as tmp:
        workdir = Path(tmp)
        setup = measure_setup(jobs, workdir, warm=True)
        passes: list[list[JobResult]] = []
        measure_end = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(jobs, seed, deadline, workdir, reference,
                                   first_id=len(passes) * len(jobs)))
            took = time.perf_counter() - t0
            if time.perf_counter() + took > measure_end:
                break
        setup += measure_setup(jobs, workdir)
        traced: list[JobResult] = []
        if trace:
            tracedir = workdir / "traces"
            tracedir.mkdir()
            first_id = len(passes) * len(jobs)
            traced = run_pass(jobs, seed, deadline, workdir, reference, first_id, tracedir)
            traces = [json.loads((tracedir / f"{first_id + i}.json").read_text())
                      for i, r in enumerate(traced) if not r.failed]

    results = [r for p in passes for r in p] + traced
    failed = sum(r.failed for r in results)
    for r in results:
        status = "ok" if not r.failed else f"FAILED: {r.error}"
        command = r.key.replace("{seed}", str(seed))
        print(f"  {r.wall_s:9.3f} s  {r.rss_mb:8.1f} MiB  exit {r.exit_code}  {command}  {status}")
    walls = [sum(r.wall_s for r in p) for p in passes]
    print(f"{name}: seed {seed}, {len(passes)} untraced pass(es) of {len(jobs)} jobs, "
          f"failed_ratio {failed / len(results):.4f} ({failed}/{len(results)})")

    if not trace:
        units = END_TO_END_UNITS
        values = {
            "wall_s": statistics.median(walls),
            "slowest_job_s": statistics.median(max(r.wall_s for r in p) for p in passes),
            "peak_rss_mb": max(r.rss_mb for p in passes for r in p),
            "setup_s": statistics.median(setup),
        }
    else:
        units = {n: u for n, u, _ in tracing.LAYER_METRICS}
        overhead = sum(r.wall_s for r in traced) - statistics.median(walls)
        values = tracing.layer_metrics(traces, sum(r.stdout_bytes for r in traced), overhead)
    return len(results), failed, {n: {"value": v, "unit": units[n]} for n, v in values.items()}


# ----------------------------------------------------------------------
# Reference recording and the command line
# ----------------------------------------------------------------------

def record_reference(seed: int) -> dict:
    """Run every job once untraced and record its exit code, checked
    fields and wall time, as the reference for later runs."""
    reference = {}
    with tempfile.TemporaryDirectory(prefix=".bench_work_", dir=ROOT) as tmp:
        for jobs in WORKLOADS.values():
            for j in jobs:
                out_path = Path(tmp) / "ref.out"
                with open(out_path, "wb") as out:
                    wall, code, _ = spawn([sys.executable, "-m", "deltacodes.cli", *j.argv(seed)],
                                          RUN_LIMIT_S, out, subprocess.DEVNULL)
                fields = result_fields(json.loads(out_path.read_bytes()), j.keep)
                reference[j.key] = {"exit": code, "ref_s": round(wall, 2), "fields": fields}
                print(f"{wall:8.2f} s  exit {code}  {j.key}", file=sys.stderr)
    return reference


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1, help="passed to the net jobs only")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"rewrite {REFERENCE.name} from the code under test and exit")
    args = parser.parse_args(argv)

    if not (SRC / "deltacodes" / "cli.py").is_file():
        print(f"error: no deltacodes sources at {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        REFERENCE.write_text(json.dumps(record_reference(args.seed), indent=1, sort_keys=True) + "\n")
        return 0
    reference = json.loads(REFERENCE.read_text())

    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        try:
            n, f, m = run_workload(name, args.seed, args.seconds, bool(args.trace), reference)
        except RuntimeError as exc:  # the set-up interpreter failed: nothing can be measured
            print(f"error: {exc}", file=sys.stderr)
            return 1
        attempted, failed = attempted + n, failed + f
        for metric, value in m.items():
            print(f"  {metric} = {value['value']:.6g} {value['unit']}")
            metrics[metric if len(names) == 1 else f"{name}.{metric}"] = value
    env["loadavg_end"] = read_text("/proc/loadavg")
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
