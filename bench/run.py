"""commscore benchmark: seeded workloads through ingest → analyze → correlate.

Usage (from the repository root)::

    python3 bench/run.py --workload wide --seed 1 --seconds 25 --trace 0

Generates the workload's inputs from the seed with ``commscore.synth`` (not
timed), passes the bundled fixture through the CLI and compares the reports
with ``tests/data/golden`` byte for byte, then repeats the three CLI stages,
each repetition in a fresh interpreter, for about ``--seconds``.
Every repetition's output digests must agree, and at the workload's default
seed match ``bench/digests.json``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced repetitions and reports
the per-layer metrics.  Each metric is printed by name with its unit; the
last line is one JSON object.  Exits 1 if any stage or check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterator

from worker import at_reference_speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "data" / "fixture"
GOLDEN = ROOT / "tests" / "data" / "golden"
GOLDEN_REPORTS = ("metrics/metrics.csv", "report/correlation.csv", "report/scorecard.json")
REPORTS = GOLDEN_REPORTS + ("report/scorecard.html",)
RECORDED = BENCH / "digests.json"

STAGES = ("ingest", "analyze", "correlate")
#: A shorter stage is called again in its repetition until its calls add up to
#: this, and timed as their mean.
STAGE_SECONDS = 2.0
WORKER_TIMEOUT_S = 170


class Checks:
    """Stage calls attempted and failed, plus the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def require(self, ok: bool, problem: str) -> bool:
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def digests(out: Path) -> dict[str, str]:
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


def run_worker(job: dict, work: Path, checks: Checks, label: str) -> dict | None:
    """One repetition in a fresh interpreter; stage failures are recorded.

    The result's ``setup_wall_s`` is the time from starting the interpreter
    until it has imported ``commscore.cli``; ``setup_s`` is that time without
    the reference loops, at the reference speed (see ``worker.SpeedProbe``).
    """
    out = Path(job["out"])
    shutil.rmtree(out, ignore_errors=True)
    job_path, result_path = work / "job.json", work / "result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    start = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(job_path), str(result_path)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True) as proc:
        ready, _, _ = select.select([proc.stdout], [], [], WORKER_TIMEOUT_S)
        setup = time.perf_counter() - start
        if ready:
            proc.stdout.readline()
        try:
            _, stderr = proc.communicate(timeout=max(0.0, start + WORKER_TIMEOUT_S
                                                     - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            _, stderr = proc.communicate()
    if proc.returncode != 0:
        checks.attempted += len(STAGES)
        checks.require(False, f"{label}: worker exited {proc.returncode}: "
                              f"{stderr.strip()[-500:]}")
        checks.failed += len(STAGES) - 1
        return None
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_wall_s"] = setup
    result["setup_s"] = at_reference_speed(setup - result["setup"]["probe_s"],
                                           result["setup"]["loop_s"])
    checks.attempted += sum(result["calls"].values())
    ok = True
    for stage, code in result["codes"].items():
        ok &= checks.require(code == 0, f"{label}: {stage} exited {code}: "
                                        f"{stderr.strip()[-500:]}")
    return result if ok and len(result["codes"]) == len(STAGES) else None


def workload_job(workload, inputs, out: Path) -> dict:
    return {"mail": [str(p) for p in inputs.mail], "survey": str(inputs.survey),
            "period": inputs.period, "analyze_options": list(workload.analyze_options),
            "out": str(out), "traced": False, "stage_seconds": STAGE_SECONDS}


def golden_gate(work: Path, checks: Checks) -> list[float]:
    """Fixture reports must equal the golden files; returns the set-up sample."""
    job = {"mail": [str(p) for p in sorted((FIXTURE / "mail").glob("*.csv"))],
           "survey": str(FIXTURE / "survey.csv"), "period": "2012-06-01..2012-09-01",
           "analyze_options": [], "out": str(work / "golden"), "traced": False,
           "stage_seconds": 0}
    result = run_worker(job, work, checks, "golden fixture")
    if result is None:
        return []
    for name in GOLDEN_REPORTS:
        produced = (work / "golden" / name).read_bytes()
        expected = (GOLDEN / Path(name).name).read_bytes()
        checks.require(produced == expected, f"golden fixture: {name} deviates")
    return [result["setup_s"]]


class RepChecker:
    """Output checks applied to every repetition of one workload and seed."""

    def __init__(self, workload, seed: int, inputs, checks: Checks) -> None:
        self.inputs = inputs
        self.checks = checks
        self.first: dict[str, str] | None = None
        recorded = json.loads(RECORDED.read_text(encoding="utf-8")).get(workload.name)
        self.recorded = None
        if recorded is not None and seed == recorded["seed"]:
            self.recorded = recorded["reports"]

    def __call__(self, out: Path, label: str) -> None:
        require = self.checks.require
        found = digests(out)
        if self.first is None:
            self.first = found
        require(found == self.first, f"{label}: outputs differ from the first repetition")
        if self.recorded is not None:
            for name in REPORTS:
                require(found.get(name) == self.recorded[name],
                        f"{label}: {name} digest differs from digests.json")
        manifest = json.loads((out / "archive" / "manifest.json").read_text("utf-8"))
        ingested = {team: report["events"] for team, report in manifest["teams"].items()}
        require(ingested == self.inputs.team_events,
                f"{label}: per-team event counts differ from the generated mail")
        rows = (out / "metrics" / "metrics.csv").read_text("utf-8").splitlines()
        require(len(rows) == 1 + self.inputs.teams,
                f"{label}: metrics.csv has {len(rows) - 1} team rows")


def repetitions(seconds: float) -> Iterator[int]:
    """Numbers 1, 2, ... while the next repetition should end within ``seconds``.

    The first repetition always runs; a later one starts only if the mean
    repetition so far would still end in time, so runs do not overshoot.
    """
    start = time.perf_counter()
    count = 0
    while True:
        count += 1
        yield count
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / count > seconds:
            return


def end_to_end(job: dict, seconds: float, work: Path, check_rep, events: int,
               setups: list[float], checks: Checks) -> dict[str, tuple[float, str]]:
    reps: list[dict] = []
    for attempt in repetitions(seconds):
        label = f"repetition {attempt}"
        result = run_worker(job, work, checks, label)
        if result is not None:
            check_rep(Path(job["out"]), label)
            reps.append(result)
    if not reps:
        return {}
    # each call's own wall time at the reference speed measured while it ran
    # (see worker.SpeedProbe), averaged over every call of the run
    calls = {name: sum(r["calls"][name] for r in reps) for name in STAGES}
    stage = {name: sum(r["calls"][name] * at_reference_speed(r["seconds"][name],
                                                             r["reference"][name])
                       for r in reps) / calls[name] for name in STAGES}
    wall = {name: sum(r["calls"][name] * r["seconds"][name] for r in reps) / calls[name]
            for name in STAGES}
    loop = statistics.median(r["reference"][name] for r in reps for name in STAGES)
    print("wall time per call, probes excluded: "
          + ", ".join(f"{name} {wall[name]:.4g} s" for name in STAGES)
          + f"; set-up {statistics.median(r['setup_wall_s'] for r in reps):.4g} s"
          + f"; reference loop {loop * 1000:.4g} ms")
    return {
        "setup_s": (statistics.median(setups + [r["setup_s"] for r in reps]), "s"),
        **{f"{name}_s": (stage[name], "s") for name in STAGES},
        "events_per_s": (events / sum(stage.values()), "events/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MiB"),
    }


def layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_pct", "%"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(job: dict, seconds: float, work: Path, check_rep,
              checks: Checks) -> dict[str, tuple[float, str]]:
    """Untraced and traced repetitions in turn; layer times are medians.

    Every stage runs once per repetition, so both sides time the same calls.
    """
    job = {**job, "stage_seconds": 0}
    traces: list[dict] = []
    overheads: list[float] = []
    for pair in repetitions(seconds):
        plain = run_worker({**job, "traced": False}, work, checks, f"untraced {pair}")
        if plain is not None:
            check_rep(Path(job["out"]), f"untraced {pair}")
        traced = run_worker({**job, "traced": True}, work, checks, f"traced {pair}")
        if traced is None:
            continue
        check_rep(Path(job["out"]), f"traced {pair}")
        trace = traced["trace"]
        checks.require(trace.pop("trace.mismatches") == 0,
                       f"traced {pair}: rebuilt MetricVector differs from "
                       "compute_metric_vector")
        if plain is not None:
            overheads.append(trace["trace.stage_s"] - sum(plain["seconds"].values()))
        del trace["trace.stage_s"]
        traces.append(trace)
    if not traces or not overheads:
        return {}
    out: dict[str, tuple[float, str]] = {}
    for name in traces[0]:
        unit = layer_unit(name)
        values = [t[name] for t in traces]
        if unit in ("s", "ms"):
            out[name] = (statistics.median(values), unit)
        else:
            checks.require(len(set(values)) == 1, f"{name} differs across traced runs")
            out[name] = (values[0], unit)
    out["trace.overhead_s"] = (statistics.median(overheads), "s")
    return out


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep repeating the stages")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = [p for p in (SRC / "commscore" / "cli.py", FIXTURE / "mail", GOLDEN)
               if not p.exists()]
    if missing:
        print(f"error: run from a commscore checkout; missing {missing[0]}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, generate

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    scratch_root = ROOT / ".bench_work"
    scratch_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch_root))
    checks = Checks()
    try:
        inputs = generate(workload, args.seed, work / "inputs")
        print(f"workload {workload.name} (seed {args.seed}): {inputs.events} events, "
              f"{inputs.teams} teams — {workload.why}")
        setups = golden_gate(work, checks)
        job = workload_job(workload, inputs, work / "out")
        check_rep = RepChecker(workload, args.seed, inputs, checks)
        if args.trace:
            metrics = per_layer(job, args.seconds, work, check_rep, checks)
        else:
            metrics = end_to_end(job, args.seconds, work, check_rep, inputs.events,
                                 setups, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # kept while another run uses it
            scratch_root.rmdir()

    for problem in checks.problems:
        print(f"FAILED: {problem}")
    failed_ratio = checks.failed / max(1, checks.attempted)
    print(f"{'failed_ratio':40s} {failed_ratio:>16.6g} ratio "
          f"({checks.failed} of {checks.attempted} stage calls)")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    correct = checks.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
