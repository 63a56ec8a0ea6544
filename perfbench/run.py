#!/usr/bin/env python3
"""selmerlab benchmark: four workloads, each run in single-process children.

Usage (from anywhere; paths resolve against this file's checkout):

    python3 perfbench/run.py --workload window-ledger --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

With --trace 0 the workload is executed repeatedly, each execution a fresh
`--threads 1` child, until --seconds are used (at least three executions).
Every output is checked, and the medians of the end-to-end metrics are
printed, one per line with unit, followed by one JSON line.  With --trace 1
every workload gets one untraced and one traced 1-worker pass (the named
workload a second traced pass, whose exact counters must repeat), plus a
2-worker pass of the window-ledger input; the per-layer metrics come from
the traced passes.  perfbench/README.md explains the workloads and metrics.

Exit codes: 0 result printed, 2 the program under test or the benchmark's
own files are missing or cannot be imported.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"
SRC = ROOT / "src"

MIN_EXECUTIONS = 3
CHILD_TIMEOUT_S = 150.0
RUN_LIMIT_S = 120.0  # stop starting executions after this, so a run ends within 180 s
# The speed of shared machines drifts by tens of percent within seconds (a
# fixed integer loop has taken 14.5 ms to 31 ms on one 2-vCPU host).  A run
# times a fixed pure-Python loop before every execution and scales that
# execution's times to a machine on which the loop takes REFERENCE_PROBE_S;
# the raw medians are printed and kept in the result file.
REFERENCE_PROBE_S = 0.025

ALL_CPUS = os.sched_getaffinity(0)
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=str(SRC),
    PYTHONHASHSEED="0",
    OPENBLAS_NUM_THREADS="1",
)
CHILD_ENV.pop("SELMERLAB_THREADS", None)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "compute" (the CLI) or "scan" (family scan + moment reports)
    xmax: int
    sample: int | None = None
    descent: bool = False
    # Interpreted Python slows with the machine as the speed probe does; the
    # numpy kernel of the scan does not (scaled, its spread across runs grew
    # from 2% to 12%), so its times stay raw.
    probe_scaled: bool = True

    def spec(self, seed: int, index: int, threads: int = 1) -> dict:
        if self.kind == "scan":
            return {"kind": "scan", "xmax": self.xmax, "zcut": 100}
        argv = ["compute", "--xmax", str(self.xmax), "--threads", str(threads)]
        if self.sample is not None:
            # every execution of a run draws its own sample, so a run's median
            # covers several samples; the same --seed gives the same samples
            argv += ["--sample", str(self.sample), "--seed", str(seed * 1000 + index)]
        if self.descent:
            argv.append("--with-descent")
        return {"kind": "compute", "argv": argv}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("window-ledger", "compute", xmax=100),
        Workload("sample-descent", "compute", xmax=1000, sample=400, descent=True),
        Workload("sample-wide", "compute", xmax=2000, sample=500),
        Workload("family-scan", "scan", xmax=20000, probe_scaled=False),
    )
}


class Unrunnable(Exception):
    """The checkout lacks the program or the benchmark's own files."""


# ---------------------------------------------------------------------------
# child executions
# ---------------------------------------------------------------------------


@dataclass
class Execution:
    tag: str
    spec: dict
    rc: int
    wall_s: float
    setup_s: float | None
    work_s: float  # launch to the end of the work, before the child writes traces
    rss_mb: float
    load_before: tuple
    load_after: tuple
    out: Path
    stderr: str
    trace: dict | None
    records: int = 0
    failed: int = 0
    attempted: int = 0
    probe_s: float | None = None

    @property
    def curves_per_s(self) -> float:
        busy = self.wall_s - (self.setup_s if self.setup_s is not None else self.wall_s)
        return self.records / busy if busy > 0 else 0.0

    def row(self) -> dict:
        return {
            "tag": self.tag,
            "argv": self.spec.get("argv"),
            "rc": self.rc,
            "wall_s": self.wall_s,
            "setup_s": self.setup_s,
            "curves_per_s": self.curves_per_s,
            "peak_rss_mb": self.rss_mb,
            "records": self.records,
            "attempted": self.attempted,
            "failed": self.failed,
            "loadavg_before": self.load_before,
            "loadavg_after": self.load_after,
            "probe_s": self.probe_s,
        }


def speed_probe(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop, run between executions.

    Half of it is small-integer bytecode, half big-integer modular
    arithmetic: the two kinds of work this program's layers do.
    """
    big, modulus = 3**200 + 1, (10**9 + 7) ** 3
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        for i in range(20_000):
            acc = (acc * big + i) % modulus
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_child(spec: dict, tag: str, trace: bool = False, cpus: set[int] | None = None) -> Execution:
    out, res, err = (WORK / f"{tag}.out", WORK / f"{tag}.result.json", WORK / f"{tag}.stderr")
    for p in (out, res):
        p.unlink(missing_ok=True)
    spec = dict(spec, out=str(out), result=str(res), spans=str(WORK / f"{tag}.spans.tsv"), trace=trace)
    argv = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
    load_before = os.getloadavg()
    pinned = os.sched_getaffinity(0)
    with open(err, "w") as ferr:
        if cpus is not None:
            os.sched_setaffinity(0, cpus)  # the child inherits this mask
        t0 = time.monotonic()
        try:
            proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdout=ferr, stderr=ferr)
        finally:
            os.sched_setaffinity(0, pinned)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # wait4 gives the child's own peak RSS (and that of its reaped workers)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = json.loads(res.read_text()) if res.exists() else {}
    t_first = result.get("t_first")
    return Execution(
        tag=tag,
        spec=spec,
        rc=proc.returncode,
        wall_s=t1 - t0,
        setup_s=(t_first - t0) if t_first is not None else None,
        work_s=result.get("t_end", t1) - t0,
        rss_mb=usage.ru_maxrss / 1024.0,
        load_before=load_before,
        load_after=os.getloadavg(),
        out=out,
        stderr=err.read_text(errors="replace"),
        trace=result.get("trace"),
    )


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _program():
    """The program under test, imported into this process for the checks only."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from selmerlab import curve_family, descent

    return curve_family, descent


def is_window_member(A: int, B: int, X: int) -> bool:
    """Window membership restated from the definition, independent of the program."""
    if abs(A) > X or B == 0 or B * B > X or A * A == 4 * B:
        return False
    p = 2
    while p**4 <= abs(B):
        if B % p**4 == 0 and A % (p * p) == 0:
            return False
        p += 1
    return True


def _skipped(stderr: str) -> int:
    for line in stderr.splitlines():
        if line.startswith("skipped ") and line.endswith(" curves:"):
            return int(line.split()[1])
    return 0


def check_compute(w: Workload, ex: Execution, expected: dict) -> list[str]:
    problems = []
    data = ex.out.read_bytes() if ex.out.exists() else b""
    lines = data.decode(errors="replace").splitlines()
    ex.records = max(0, len(lines) - 1)
    if w.sample is None:
        want = expected[w.name]
        ex.attempted = want["records"]
        if want["xmax"] != w.xmax:
            return ["the reference output is for another xmax"]
        if hashlib.sha256(data).hexdigest() != want["sha256"]:
            problems.append("CSV bytes differ from the reference output")
        return problems
    ex.attempted = w.sample
    if not lines or lines[0] != expected["csv_header"]:
        return problems + ["missing or wrong CSV header"]
    rows = [(int(r[0]), int(r[1]), r) for r in csv.reader(lines[1:])]
    if len(rows) != w.sample:
        problems.append(f"{len(rows)} rows, {w.sample} requested")
    keys = [(B, A) for A, B, _ in rows]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        problems.append("rows are not distinct and in (B, A) order")
    if not all(is_window_member(A, B, w.xmax) for A, B, _ in rows):
        problems.append("a row is not a window member")
    if w.descent and any(r[3] == "" or int(r[2]) != int(r[3]) for _, _, r in rows):
        problems.append("t_total != t_descent on some row")
    if not w.descent and rows and not problems:
        # outside the timed part: the descent route on fixed rows must agree
        _, descent = _program()
        n = len(rows)
        for k in sorted({0, n // 4, n // 2, 3 * n // 4, n - 1}):
            A, B, r = rows[k]
            if descent.descent_exponent(A, B) != int(r[2]):
                problems.append(f"descent_exponent({A}, {B}) != t_total {r[2]}")
    return problems


def check_scan(w: Workload, ex: Execution, expected: dict) -> list[str]:
    want = expected[w.name]
    ex.attempted = want["n_total"]
    if want["xmax"] != w.xmax:
        return ["the reference scan is for another xmax"]
    if not ex.out.exists():
        return ["no scan output"]
    got = json.loads(ex.out.read_text())
    ex.records = got["n_total"]
    curve_family, _ = _program()
    problems = []
    if got["n_total"] != curve_family.count_window(w.xmax)[0]:
        problems.append("n_total differs from the closed-form count_window")
    for key in ("n_total", "n_square_disc", "power_sums", "density_counts"):
        if got[key] != want[key]:
            problems.append(f"{key} differs from the reference scan")
    return problems


def check(w: Workload, ex: Execution, expected: dict) -> list[str]:
    problems = [] if ex.rc == 0 else [f"exit code {ex.rc}"]
    problems += (check_scan if w.kind == "scan" else check_compute)(w, ex, expected)
    skipped = _skipped(ex.stderr)
    if skipped:
        problems.append(f"{skipped} curves skipped")
    if ex.setup_s is None:
        problems.append("no record reached the output")
    ex.failed = ex.attempted if problems else 0
    return [f"{ex.tag}: {p}" for p in problems]


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def median(xs):
    return statistics.median(xs) if xs else 0.0


def timed_run(w: Workload, seed: int, seconds: float, expected: dict):
    """Execute the workload until `seconds` are used.

    Returns the end-to-end metrics (medians over the executions of times
    scaled to the reference speed), the raw medians, the executions and the
    problems.
    """
    execs, problems = [], []
    start = time.monotonic()
    while True:
        probe = speed_probe()
        ex = run_child(w.spec(seed, len(execs)), f"{w.name}-{len(execs)}")
        ex.probe_s = probe
        problems += check(w, ex, expected)
        execs.append(ex)
        elapsed = time.monotonic() - start
        if len(execs) >= MIN_EXECUTIONS and (
            elapsed + median([e.wall_s for e in execs]) > seconds or elapsed > RUN_LIMIT_S
        ):
            break
    raw = {
        "wall_s": median([e.wall_s for e in execs]),
        "setup_s": median([e.setup_s if e.setup_s is not None else e.wall_s for e in execs]),
        "curves_per_s": median([e.curves_per_s for e in execs]),
        "peak_rss_mb": median([e.rss_mb for e in execs]),
        "probe_s": median([e.probe_s for e in execs]),
    }
    def speed(e):  # > 1 when the machine ran faster than the reference
        return REFERENCE_PROBE_S / e.probe_s if w.probe_scaled else 1.0

    metrics = {
        "wall_s": median([e.wall_s * speed(e) for e in execs]),
        "setup_s": median([(e.setup_s if e.setup_s is not None else e.wall_s) * speed(e) for e in execs]),
        "curves_per_s": median([e.curves_per_s / speed(e) for e in execs]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    return metrics, raw, execs, problems


def exact_counters(tr: dict) -> dict:
    return {"calls": tr["calls"], "counts": tr["counts"]}


def layer_metric(name: str, tr: dict, records: int) -> float:
    """A per-layer metric (name without its workload prefix) from a trace summary."""
    counts = tr["counts"]
    if name == "descent.class_yield":
        return counts.get("descent.classes_kept", 0) / max(1, counts.get("descent.divisors_tested", 0))
    if name == "curve_family.build_yield":
        return records / max(1, counts.get("curve_family.pairs_built", 0))
    if name == "descent.selmer_set.validate_s":
        return tr["busy_s"].get("descent.selmer_set.validate", 0.0)
    if name in ("cli.column.p50_s", "cli.column.max_s"):
        cols = tr["durations"].get("cli.column") or [0.0]
        return median(cols) if name.endswith("p50_s") else max(cols)
    span, _, stat = name.rpartition(".")
    if stat == "self_s":
        return tr["self_s"].get(span, 0.0)
    if stat == "calls_per_curve":
        return tr["calls"].get(span, 0) / max(1, records)
    raise KeyError(f"no rule for per-layer metric {name!r}")


def traced_run(seed: int, repeat: set[str], wanted: list[str], expected: dict):
    """One untraced and one traced 1-worker pass per workload, plus the
    2-worker window-ledger pass; returns every per-layer metric."""
    execs, problems, values = [], [], {}
    untraced_wall = {}
    for w in WORKLOADS.values():
        spec = w.spec(seed, 0)
        plain_probe = speed_probe()
        plain = run_child(spec, f"{w.name}-plain")
        traced_probe = speed_probe()
        traced = run_child(spec, f"{w.name}-traced", trace=True)
        passes = [plain, traced]
        if w.name in repeat:
            passes.append(run_child(spec, f"{w.name}-traced-again", trace=True))
        for ex in passes:
            problems += check(w, ex, expected)
        execs += passes
        if any(ex.trace is None for ex in passes[1:]):
            problems.append(f"{w.name}: a traced pass wrote no trace")
            continue
        if traced.trace["missing_hooks"]:
            problems.append(f"{w.name}: hooks not found: {traced.trace['missing_hooks']}")
        if len(passes) == 3 and exact_counters(passes[2].trace) != exact_counters(traced.trace):
            problems.append(f"{w.name}: exact counters differ between two traced passes")
        untraced_wall[w.name] = plain.wall_s
        # compared at equal machine speed where the probe tracks the work
        ratio = traced_probe / plain_probe if w.probe_scaled else 1.0
        values[f"{w.name}.trace.overhead_frac"] = traced.work_s / (plain.work_s * ratio) - 1.0
        prefix = w.name + "."
        for name in wanted:
            metric = name[len(prefix):]
            if name.startswith(prefix) and name not in values and metric != "cli.pool.scaling_eff_2w":
                values[name] = layer_metric(metric, traced.trace, traced.records)
    # pool scaling diagnostic: reported, not gated (shared 2-core machines vary)
    wl = WORKLOADS["window-ledger"]
    two = run_child(wl.spec(seed, 0, threads=2), "window-ledger-2w", cpus=ALL_CPUS)
    problems += check(wl, two, expected)
    execs.append(two)
    values["window-ledger.cli.pool.scaling_eff_2w"] = untraced_wall.get(wl.name, 0.0) / (2 * two.wall_s)
    missing = [n for n in wanted if n not in values]
    if missing:
        raise KeyError(f"per-layer metrics not produced: {missing}")
    return {n: values[n] for n in wanted}, execs, problems


# ---------------------------------------------------------------------------
# environment and entry point
# ---------------------------------------------------------------------------


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    git_rev = "not a git checkout"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            git_rev = rev.stdout.strip() if rev.returncode == 0 else "unknown"
        except (OSError, subprocess.TimeoutExpired):
            git_rev = "git unavailable"
    digest = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        digest.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": git_rev,
        "source_sha256": digest.hexdigest(),
        "loadavg": os.getloadavg(),
    }


def load_config() -> tuple[dict, dict]:
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        expected = json.loads((HERE / "expected.json").read_text())
    except (OSError, ValueError) as exc:
        raise Unrunnable(f"benchmark files unreadable: {exc}") from exc
    if not (SRC / "selmerlab" / "__init__.py").is_file():
        raise Unrunnable(f"program sources not found under {SRC}")
    warm = subprocess.run(
        [sys.executable, "-c", "import numpy, selmerlab.cli, selmerlab.statistics"],
        cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=170,
    )  # also compiles the sources once, before anything is timed
    if warm.returncode != 0:
        raise Unrunnable(f"cannot import the program: {warm.stderr.strip()[-500:]}")
    return bench, expected


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        bench, expected = load_config()
    except (Unrunnable, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    # The probe and the 1-worker children share one CPU, so the probe reads
    # the speed of the CPU the work runs on.
    os.sched_setaffinity(0, {min(ALL_CPUS)})
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    metrics, execs, problems, raw_report = {}, [], [], {}
    if args.trace:
        wanted = [m["name"] for m in bench["per_layer"]]
        metrics, execs, problems = traced_run(args.seed, set(names), wanted, expected)
    else:
        for name in names:
            got, raw, ex, pr = timed_run(WORKLOADS[name], args.seed, seconds, expected)
            n = len(ex)
            raw_report[name] = raw
            for m in bench["end_to_end"]:
                key = m["name"] if len(names) == 1 else f"{name}.{m['name']}"
                metrics[key] = got[m["name"]]
                units[key] = m["unit"]
            failed = sum(e.failed for e in ex)
            attempted = sum(e.attempted for e in ex)
            print(f"{name}: {n} executions, failed_frac {failed / max(1, attempted):.6g} "
                  f"({failed} of {attempted} curves); raw medians "
                  + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
            execs += ex
            problems += pr
    attempted = sum(e.attempted for e in execs)
    failed = sum(e.failed for e in execs)

    for p in problems:
        print(f"CHECK FAILED {p}")
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {units[key]}")
    env["loadavg_end"] = os.getloadavg()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "executions": [e.row() for e in execs],
        "problems": problems,
        "metrics": metrics,
        "raw_medians": raw_report,
    }
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1)
    )
    print("environment " + json.dumps(env))
    print(json.dumps({
        "correct": not problems,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
