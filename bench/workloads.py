"""Benchmark workloads: seeded ``commscore.synth`` inputs, one per layer to load.

Each workload fixes a synth shape and the ``analyze`` options, and records why
it was chosen.  Inputs are a pure function of (workload, seed); generating
them is never timed.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from pathlib import Path

from commscore.synth import SynthSpec, planted_effects, write_outputs

#: Seed whose report digests are recorded in ``digests.json``.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    teams: int
    actors: int
    months: int
    messages: int
    effects: dict[str, float] = field(default_factory=dict)
    analyze_options: tuple[str, ...] = ()
    recurring_subjects: bool = False

    def spec(self, seed: int) -> SynthSpec:
        return SynthSpec(teams=self.teams, months=self.months, actors=self.actors,
                         respondents=25, messages_per_month=self.messages,
                         effects={**planted_effects(), **self.effects}, seed=seed)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "wide",
        "40-actor graphs: betweenness is most of analyze; windowing and "
        "reply matching barely run",
        teams=13, actors=40, months=3, messages=300),
    Workload(
        "long",
        "36 months of small stable teams: ~2.5k windows each scanning the "
        "whole corpus, large archive reload and gap scan",
        teams=13, actors=6, months=36, messages=50,
        effects={"avg_new_actors": 0.01}),
    Workload(
        "threads",
        "recurring subjects make big reply-matching groups; monthly "
        "oscillation, actor-weighted AWVCI, normalized emotionality",
        teams=13, actors=10, months=3, messages=500,
        analyze_options=("--oscillation-window", "monthly",
                         "--awvci-weighting", "actors",
                         "--emotionality-mode", "normalized"),
        recurring_subjects=True),
    Workload(
        "cohort",
        "300 small teams: survey parsing, statistics and score cards do "
        "real work; per-team costs show",
        teams=300, actors=6, months=3, messages=20),
)}

# synth subjects read "<topic> <thread sequence>[ <mood word>]", replies
# prefixed with "Re: "; dropping the sequence number makes topics recur
_THREAD_SEQUENCE = re.compile(r"^((?:Re: )*\w+) \d+")


def _recur_subjects(path: Path) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        row[4] = _THREAD_SEQUENCE.sub(r"\1", row[4])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@dataclass(frozen=True)
class Inputs:
    mail: list[Path]
    survey: Path
    period: str
    teams: int
    #: events each team's corpus must hold: distinct archive keys per file
    team_events: dict[str, int]

    @property
    def events(self) -> int:
        return sum(self.team_events.values())


def _distinct_events(path: Path) -> int:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        return len({(ts, sender, frozenset(to.split(";")), subject)
                    for ts, sender, to, _cc, subject in rows})


def generate(workload: Workload, seed: int, out_dir: Path) -> Inputs:
    """Write mail/<team>.csv and survey.csv for (workload, seed) under out_dir."""
    spec = workload.spec(seed)
    manifest = write_outputs(spec, out_dir)
    mail = sorted((out_dir / "mail").glob("*.csv"))
    if workload.recurring_subjects:
        for path in mail:
            _recur_subjects(path)
    period = manifest["period"]
    return Inputs(
        mail=mail, survey=out_dir / "survey.csv",
        period=f"{period['start'][:10]}..{period['end'][:10]}",  # type: ignore[index]
        teams=spec.teams,
        team_events={path.stem: _distinct_events(path) for path in mail})
