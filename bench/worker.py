"""One repetition of ingest → analyze → correlate in a fresh interpreter.

Usage: ``python3 bench/worker.py JOB.json RESULT.json``.  The job names the
inputs, the analyze options, the output directory, whether to trace, and
``stage_seconds``: a stage that took less is called again until its calls add
up to that much.  The stages run in this process through
``commscore.cli.main``, one after another.  The worker prints ``ready`` once
``commscore.cli`` is imported; the result holds each stage's exit code, number
of calls and mean wall time per call, the mean time of the reference loops run
while it ran (untraced only), the reference loops' total and mean time while
``commscore.cli`` was imported, and the process's peak RSS, plus the
per-layer trace when tracing.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path


def stage_argvs(job: dict) -> list[tuple[str, list[str]]]:
    out = Path(job["out"])
    return [
        ("ingest", [*job["mail"], "--period", job["period"],
                    "--out", str(out / "archive")]),
        ("analyze", [str(out / "archive"), "--out", str(out / "metrics"),
                     *job["analyze_options"]]),
        ("correlate", [str(out / "metrics" / "metrics.csv"), job["survey"],
                       "--out", str(out / "report")]),
    ]


#: Mail-like rows in one reference loop.
REFERENCE_ROWS = 80
#: The reference loop's mean time during stages on the 2.1 GHz Xeon VM this
#: benchmark was built on, at its usual speed: the speed that reported
#: seconds are scaled to.
REFERENCE_LOOP_S = 0.0018
#: Wall time between reference loops while a stage runs.
PROBE_INTERVAL_S = 0.05


def reference_loop() -> float:
    """Wall time of fixed work of the program's kind that calls no program code.

    Like the pipeline, the loop writes and parses CSV mail rows, round-trips
    them through JSON lines, tallies sender-recipient edges and sums exact
    fractions; with that mix its time tracks the stages' more closely than a
    bare dictionary loop does.
    """
    start = time.perf_counter()
    rng = random.Random(0)
    rows = [[str(rng.randrange(10**9)), f"a{rng.randrange(50)}",
             f"a{rng.randrange(50)};a{rng.randrange(50)}", f"topic {rng.randrange(300)}"]
            for _ in range(REFERENCE_ROWS)]
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    lines = [json.dumps({"ts": ts, "from": sender, "to": to.split(";"), "subject": subject})
             for ts, sender, to, subject in csv.reader(io.StringIO(text.getvalue()))]
    edges: dict[tuple[str, str], int] = {}
    for event in map(json.loads, lines):
        for recipient in event["to"]:
            pair = (event["from"], recipient)
            edges[pair] = edges.get(pair, 0) + 1
    sum((Fraction(n, len(a) + len(b)) for (a, b), n in edges.items()), Fraction(0))
    return time.perf_counter() - start


def at_reference_speed(seconds: float, loop_s: float) -> float:
    """``seconds`` measured while the reference loop took ``loop_s``, rescaled
    to the speed at which it takes ``REFERENCE_LOOP_S``."""
    return seconds * REFERENCE_LOOP_S / loop_s


class SpeedProbe:
    """Runs the reference loop every ``PROBE_INTERVAL_S`` while stages run.

    The host this benchmark was built on runs the same work up to 1.8x slower
    in phases that last from a fraction of a second to minutes.  A SIGALRM
    handler runs the loop between the stage's own bytecodes, so the loops
    sample the host's speed across the whole call; a stage's time divided by
    their mean time is a cost that the drift cancels out of, while any change
    to the program's own work still moves it.  ``inside`` is the loops' time
    within timed calls, which is taken off the stage's time.
    """

    def __init__(self) -> None:
        self.loops: list[float] = []
        self.inside = 0.0
        self.timing = False

    def _probe(self, signum, frame) -> None:
        took = reference_loop()
        self.loops.append(took)
        if self.timing:
            self.inside += took

    def __enter__(self) -> "SpeedProbe":
        self.loops, self.inside = [reference_loop()], 0.0
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.loops.append(reference_loop())


def run(job: dict) -> dict:
    setup = SpeedProbe()
    with setup:
        import commscore.cli as cli
    print("ready", flush=True)  # the parent times set-up up to this line
    tracer = None
    if job["traced"]:
        from tracing import Tracer
        tracer = Tracer(cli)
    codes: dict[str, int] = {}
    calls: dict[str, int] = {}
    seconds: dict[str, float] = {}
    reference: dict[str, float] = {}
    for stage, argv in stage_argvs(job):
        calls[stage], busy = 0, 0.0
        # the traced run reports plain seconds, so it runs without the probe
        probe = SpeedProbe()
        with contextlib.nullcontext() if tracer else probe:
            # a stage shorter than stage_seconds is called again and timed as
            # the mean of its calls, so that one sample spans more than a
            # moment of a machine whose speed drifts
            while calls[stage] == 0 or (code == 0 and busy < job["stage_seconds"]):
                # each stage normally runs in a fresh process: leave the
                # previous call's garbage out of this one's time
                gc.collect()
                span = tracer.stage(stage) if tracer else contextlib.nullcontext()
                probe.timing = True
                start = time.perf_counter()
                with span, contextlib.redirect_stdout(io.StringIO()):
                    try:
                        code = cli.main([stage, *argv])
                    except Exception:  # a traceback is a failed stage, not a crash
                        traceback.print_exc()
                        code = -1
                busy += time.perf_counter() - start
                probe.timing = False
                calls[stage] += 1
        seconds[stage] = (busy - probe.inside) / calls[stage]
        if probe.loops:
            reference[stage] = statistics.fmean(probe.loops)
        codes[stage] = code
        if code != 0:
            break
    result = {
        "codes": codes,
        "calls": calls,
        "seconds": seconds,
        "reference": reference,
        "setup": {"probe_s": sum(setup.loops), "loop_s": statistics.fmean(setup.loops)},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["trace"] = tracer.report()
    return result


if __name__ == "__main__":
    job_path, result_path = map(Path, sys.argv[1:3])
    result = run(json.loads(job_path.read_text(encoding="utf-8")))
    result_path.write_text(json.dumps(result), encoding="utf-8")
