"""The benchmark's own tests.

Usage (from the repository root)::

    python3 bench/selftest.py [WORKLOAD ...]    # default: every workload
    python3 bench/selftest.py --record          # rewrite bench/digests.json

For each workload it checks that inputs generated twice from one seed are
byte-identical, and that two traced runs of one seed report exactly the same
counts.  ``--record`` runs each workload once at its default seed and stores
the SHA-256 of its reports; do that only when a change is meant to alter the
reports.
"""

from __future__ import annotations

import contextlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
from workloads import DEFAULT_SEED, WORKLOADS, generate  # noqa: E402

SEED = DEFAULT_SEED + 1


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def traced_counts(name: str) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", name,
         "--seed", str(SEED), "--seconds", "0", "--trace", "1"],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    assert proc.returncode == 0, proc.stdout
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] not in ("s", "ms")}


def check(name: str, scratch: Path) -> None:
    first = generate(WORKLOADS[name], SEED, scratch / "a")
    generate(WORKLOADS[name], SEED, scratch / "b")
    assert first.events > 0
    assert tree_bytes(scratch / "a") == tree_bytes(scratch / "b"), \
        f"{name}: inputs differ between two generations of seed {SEED}"
    assert traced_counts(name) == traced_counts(name), \
        f"{name}: counts differ between two traced runs of seed {SEED}"
    print(f"ok {name}")


def record(scratch: Path) -> None:
    recorded = {}
    for name, workload in WORKLOADS.items():
        inputs = generate(workload, DEFAULT_SEED, scratch / name)
        job = run.workload_job(workload, inputs, scratch / name / "out")
        checks = run.Checks()
        assert run.run_worker(job, scratch, checks, name) is not None, checks.problems
        found = run.digests(scratch / name / "out")
        recorded[name] = {"seed": DEFAULT_SEED,
                          "reports": {r: found[r] for r in run.REPORTS}}
        print(f"recorded {name}")
    run.RECORDED.write_text(json.dumps(recorded, indent=2) + "\n", encoding="utf-8")


def main(args: list[str]) -> None:
    scratch_root = run.ROOT / ".bench_work"
    scratch_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=scratch_root) as tmp:
        if args == ["--record"]:
            record(Path(tmp))
        else:
            for name in args or list(WORKLOADS):
                check(name, Path(tmp) / name)
    with contextlib.suppress(OSError):  # kept while another run uses it
        scratch_root.rmdir()


if __name__ == "__main__":
    main(sys.argv[1:])
