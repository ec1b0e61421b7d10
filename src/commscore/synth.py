"""Seeded synthetic team corpora with planted metric↔satisfaction effects.

Each team gets a latent satisfaction level in [0, 1]; per-metric effect sizes
tie generator knobs to that latent so the downstream pipeline recovers the
expected correlation directions:

* structure: messages interpolate between an even ring topology (low latent)
  and a two-cluster star bridged by a hub (high latent) — driving group
  centralization up; a latent-tied volume multiplier saturates the covered
  pair space so density rises alongside;
* churn replaces team members monthly (new actors, planted downward);
* low-latent teams concentrate their ring traffic onto a narrow arc that
  rotates weekly, so weekly betweenness profiles keep reshuffling
  (oscillation, planted downward) while monthly aggregates are unaffected;
* reply latency is lognormal with a latent-dependent median (ART, downward);
* same-day reciprocation of even traffic balances contribution indices for
  low-latent teams, while one-way broadcasts and direction-biased core days
  unbalance them for high-latent teams (AWVCI, planted upward);
* positive subject wording is more frequent for low-latent teams
  (emotionality, planted downward).

A zero effect leaves the corresponding knob at a jittered baseline that is
independent of the latent.  A team's staffing (its members, hub and
lieutenants) is walked month by month and never stored, so a team's memory
beyond its mail does not grow with the months.  Everything is a pure function
of the seed: the emitted files are byte-identical across runs.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from random import Random
from typing import Iterator, Mapping

from ._text import csv_line
from .ingest import EmailEvent, Period, event_order, iso_utc, make_event, serialize_events
from .metrics import METRIC_FIELDS
from .satisfaction import SURVEY_HEADER
from .tempograph import month_periods, next_month, week_periods

#: Neutral subject vocabulary (kept out of the bundled sentiment lexicon).
_TOPICS = (
    "invoice", "report", "sync", "rollout", "schedule", "budget",
    "handover", "deployment", "contract", "minutes", "planning", "forecast",
)
_POSITIVE_WORDS = ("thanks", "great", "excellent", "awesome")
_NEGATIVE_WORDS = ("problem", "delay", "issue")

PLANTED_EFFECT = 0.9

#: The first instant of every generated period; each of its months starts on day 1.
START = datetime(2012, 6, 1, tzinfo=timezone.utc)


def planted_effects() -> dict[str, float]:
    """Strong effects on every metric, toward the expected directions."""
    return {name: PLANTED_EFFECT for name in METRIC_FIELDS}


@dataclass(frozen=True)
class SynthSpec:
    """Generator parameters; the seed fixes the whole corpus byte-for-byte."""

    teams: int = 13
    months: int = 3
    actors: int = 10
    respondents: int = 25
    messages_per_month: int = 70
    effects: Mapping[str, float] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.teams < 2 or self.months < 1 or self.actors < 6:
            raise ValueError("need at least 2 teams, 1 month, 6 actors")
        if self.respondents < 1 or self.messages_per_month < 1:
            raise ValueError("respondents and messages_per_month must be positive")
        for key, size in self.effects.items():
            if key not in METRIC_FIELDS:
                raise ValueError(f"unknown effect key: {key!r}")
            if isinstance(size, bool) or not isinstance(size, (int, float)):
                raise ValueError(f"effect size for {key!r} is not a number: {size!r}")
            if not 0.0 <= size <= 1.0:
                raise ValueError(f"effect size for {key!r} outside [0, 1]")
        self.period()  # a period past year 9999 raises here, before any mail is made

    def period(self) -> Period:
        """``months`` whole UTC calendar months from :data:`START`."""
        end = START
        for _ in range(self.months):
            end = next_month(end)
        return Period(START, end)

    def effect(self, metric: str) -> float:
        return float(self.effects.get(metric, 0.0))

    def any_effect(self) -> bool:
        return any(v > 0 for v in self.effects.values())

    def team_ids(self) -> list[str]:
        return [f"team{i + 1:02d}" for i in range(self.teams)]


@dataclass(frozen=True)
class _Knobs:
    hierarchy: float      # share of core/periphery traffic vs even ring traffic
    volume: float         # traffic volume multiplier (pair-coverage lever)
    churn: float          # monthly member replacement fraction
    osc_focus: float      # weekly concentration of ring traffic onto an arc
    latency_median: float  # seconds
    broadcast_p: float    # one-way fan-out share of hub traffic
    reciprocate_p: float  # same-day counter-message probability for ring traffic
    bias_p: float         # probability a core's day is one-directional
    positive_p: float     # positive subject-word probability


def _lerp(base: float, low: float, high: float, effect: float, toward: float,
          jitter: float) -> float:
    """Effect-weighted interpolation with an effect-free jittered baseline."""
    if effect > 0:
        return low + (high - low) * effect * toward
    return base + jitter


def _team_knobs(spec: SynthSpec, index: int, latent: float) -> _Knobs:
    rng = Random(f"{spec.seed}|{index}|knobs")
    jit = lambda scale: rng.uniform(-scale, scale)  # noqa: E731
    structure = max(spec.effect("avg_gbc"), spec.effect("avg_gdc"),
                    spec.effect("avg_density"))
    return _Knobs(
        hierarchy=min(1.0, _lerp(0.50, 0.05, 1.25, structure, latent, jit(0.10))),
        volume=_lerp(1.0, 0.75, 1.55, spec.effect("avg_density"), latent, jit(0.05)),
        churn=_lerp(0.08, 0.04, 0.55, spec.effect("avg_new_actors"), 1 - latent, jit(0.02)),
        osc_focus=max(0.0, _lerp(0.0, 0.0, 1.0, spec.effect("oscillation_sum"),
                                 1 - latent, jit(0.03))),
        latency_median=_lerp(6 * 3600.0, 2 * 3600.0, 52 * 3600.0,
                             spec.effect("art_median"), 1 - latent, jit(3600.0)),
        broadcast_p=_lerp(0.15, 0.06, 0.45, spec.effect("awvci"), latent, jit(0.04)),
        reciprocate_p=_lerp(0.25, 0.10, 0.85, spec.effect("awvci"), 1 - latent, jit(0.08)),
        bias_p=_lerp(0.50, 0.50, 0.95, spec.effect("awvci"), latent, jit(0.0)),
        positive_p=_lerp(0.12, 0.03, 0.55, spec.effect("emotionality"), 1 - latent, jit(0.03)),
    )


@dataclass(frozen=True)
class _Roles:
    hub: str
    lieutenants: tuple[str, str]
    clusters: tuple[tuple[str, ...], tuple[str, ...]]  # the periphery under each lieutenant


def _staffing(spec: SynthSpec, team: str, knobs: _Knobs) -> Iterator[tuple[list[str], _Roles]]:
    """Each month's sorted members and roles, made as the walk reaches the month.

    Turnover is growth-biased.  Hub and lieutenants are stable, repaired only
    when churn removes a holder; the rest of the pool is their periphery.
    """
    pool_rng = Random(f"{spec.seed}|{team}|pool")
    roles_rng = Random(f"{spec.seed}|{team}|roles")
    pool = sorted(f"a{k:02d}@{team}.example.com" for k in range(spec.actors))
    next_id = spec.actors
    hub: str | None = None
    lieutenants: list[str] = []
    for month in range(spec.months):
        if month:
            joiners = round(knobs.churn * spec.actors)
            # never below 6 members, so each cluster keeps at least one
            leavers = pool_rng.sample(pool, min(len(pool) - 6, round(joiners * 0.4)))
            pool = sorted([a for a in pool if a not in leavers]
                          + [f"a{k:02d}@{team}.example.com"
                             for k in range(next_id, next_id + joiners)])
            next_id += joiners
        if hub not in pool:
            hub = roles_rng.choice(pool)
        lieutenants = [a for a in lieutenants if a in pool and a != hub]
        while len(lieutenants) < 2:
            lieutenants.append(roles_rng.choice(
                [a for a in pool if a != hub and a not in lieutenants]))
        periphery = [a for a in pool if a != hub and a not in lieutenants]
        yield pool, _Roles(hub=hub, lieutenants=(lieutenants[0], lieutenants[1]),
                           clusters=(tuple(periphery[0::2]), tuple(periphery[1::2])))


def generate_team_events(spec: SynthSpec, index: int) -> list[EmailEvent]:
    """All mail events for one team, time-sorted.

    Mail is laid out over the :func:`~commscore.tempograph.month_periods` and
    :func:`~commscore.tempograph.week_periods` of :meth:`SynthSpec.period`.
    """
    team = spec.team_ids()[index]
    latent = index / (spec.teams - 1)
    knobs = _team_knobs(spec, index, latent)
    rng = Random(f"{spec.seed}|{team}|mail")
    period = spec.period()
    months, weeks = month_periods(period), week_periods(period)
    week_starts = [week.start for week in weeks]
    events: list[EmailEvent] = []
    sequence = 0

    def post(stamp: datetime, sender: str, to: list[str], subject: str,
             reply_p: float) -> None:
        events.append(make_event(stamp, sender, to, [], subject, team))
        # deferred reply with latent-dependent latency
        if rng.random() < reply_p:
            latency = max(60, int(rng.lognormvariate(
                math.log(knobs.latency_median), 0.5)))
            reply_stamp = stamp + timedelta(seconds=latency)
            if reply_stamp in period:
                events.append(make_event(reply_stamp, rng.choice(to), [sender], [],
                                         f"Re: {subject}", team))

    def fresh_subject() -> str:
        nonlocal sequence
        sequence += 1
        subject = f"{rng.choice(_TOPICS)} {sequence}"
        mood = rng.random()
        if mood < knobs.positive_p:
            subject += f" {rng.choice(_POSITIVE_WORDS)}"
        elif mood < knobs.positive_p + 0.05:
            subject += f" {rng.choice(_NEGATIVE_WORDS)}"
        return subject

    # weekly core sync keeps hierarchical teams' core mutually connected
    if knobs.hierarchy >= 0.35:
        month_starts = [month.start for month in months]
        cores = [(roles.hub, roles.lieutenants) for _, roles in _staffing(spec, team, knobs)]
        for week in weeks:
            hub, (lt1, lt2) = cores[bisect_right(month_starts, week.start) - 1]
            for offset, (a, b) in enumerate([(hub, lt1), (lt1, hub), (hub, lt2),
                                             (lt2, hub), (lt1, lt2), (lt2, lt1)]):
                stamp = week.start + timedelta(
                    seconds=8 * 3600 + 1800 + offset * 300 + rng.randrange(240))
                if stamp in period:
                    post(stamp, a, [b], fresh_subject(), reply_p=0.0)

    for month, (pool, roles) in zip(months, _staffing(spec, team, knobs)):
        send_day_bias: dict[tuple[datetime, str], bool] = {}
        for _ in range(round(spec.messages_per_month * knobs.volume)):
            day = month.start + timedelta(days=rng.randrange((month.end - month.start).days))
            stamp = day + timedelta(seconds=rng.randrange(8 * 3600, 18 * 3600))
            if rng.random() < knobs.hierarchy:
                side = rng.randrange(2)
                cluster = roles.clusters[side]
                pick = rng.random()
                if pick >= 0.91 and len(cluster) >= 2:
                    # direct collaboration between two cluster mates
                    a, b = rng.sample(cluster, 2)
                    post(stamp, a, [b], fresh_subject(), reply_p=0.25)
                    continue
                core_is_hub = pick < 0.58
                core = roles.hub if core_is_hub else roles.lieutenants[side]
                key = (day, core)
                if key not in send_day_bias:
                    send_day_bias[key] = rng.random() < 0.5
                one_way = rng.random() < knobs.bias_p
                outbound = send_day_bias[key] if one_way else rng.random() < 0.5
                if core_is_hub:
                    scope = sorted(set(cluster) | set(roles.lieutenants))
                    if outbound and rng.random() < knobs.broadcast_p:
                        fanout = min(len(scope), rng.randint(3, 6))
                        post(stamp, core, rng.sample(scope, fanout),
                             fresh_subject(), reply_p=0.05)
                        continue
                    other = rng.choice(scope)
                elif outbound:
                    # lieutenants push work to half their cluster, hear from all
                    other = rng.choice(cluster[:(len(cluster) + 1) // 2])
                else:
                    other = rng.choice(cluster)
                sender, to = (core, [other]) if outbound else (other, [core])
                post(stamp, sender, to, fresh_subject(),
                     reply_p=0.15 if one_way else 0.45)
            else:
                # even ring traffic; low-trust teams concentrate it onto a
                # narrow arc that jumps to a disjoint stretch of the ring
                # each week, so weekly betweenness profiles are isolated
                # spikes while the monthly union still spans the whole ring
                size = len(pool)
                width = max(4, round(size - (size - 4) * knobs.osc_focus))
                week_no = bisect_right(week_starts, day) - 1
                i = (week_no * 7 + rng.randrange(width)) % size
                a, b = pool[i], pool[(i + 1) % size]
                forward = rng.random() < knobs.osc_focus
                if not forward and rng.random() < 0.5:
                    a, b = b, a
                post(stamp, a, [b], fresh_subject(), reply_p=0.45)
                if forward:
                    # relay down the arc, forming a through-path this week
                    relay = stamp + timedelta(seconds=rng.randrange(60, 900))
                    if relay in period and relay.date() == day.date():
                        post(relay, b, [pool[(i + 2) % size]], fresh_subject(),
                             reply_p=0.15)
                if rng.random() < knobs.reciprocate_p:
                    counter = stamp + timedelta(seconds=rng.randrange(300, 3600))
                    if counter in period and counter.date() == day.date():
                        post(counter, b, [a], fresh_subject(), reply_p=0.15)
    events.sort(key=event_order)
    return events


def generate_survey_rows(spec: SynthSpec) -> list[tuple[str, str, int, tuple[str, ...]]]:
    """Survey rows (team, respondent, nps answer, eight kpd answers as text)."""
    rows: list[tuple[str, str, int, tuple[str, ...]]] = []
    tied = spec.any_effect()
    for index, team in enumerate(spec.team_ids()):
        latent = index / (spec.teams - 1)
        rng = Random(f"{spec.seed}|{team}|survey")
        if tied:
            u_nps = min(1.0, max(0.0, latent + rng.gauss(0, 0.05)))
            u_kpd = min(1.0, max(0.0, latent + rng.gauss(0, 0.05)))
        else:
            u_nps = rng.random()
            u_kpd = rng.random()
        for j in range(spec.respondents):
            answer = min(10, max(0, round(rng.gauss(2.8 + 6.8 * u_nps, 1.7))))
            kpd_answers = tuple(
                f"{min(5.0, max(1.0, rng.gauss(1.8 + 3.0 * u_kpd, 0.5))):.1f}"
                for _ in range(8)
            )
            rows.append((team, f"r{j + 1:03d}", answer, kpd_answers))
    return rows


def write_outputs(spec: SynthSpec, out_dir: Path) -> dict[str, object]:
    """Write mail/<team>.csv, survey.csv, and a manifest; returns the manifest."""
    mail_dir = out_dir / "mail"
    mail_dir.mkdir(parents=True, exist_ok=True)
    counts: dict[str, int] = {}
    for index, team in enumerate(spec.team_ids()):
        events = generate_team_events(spec, index)
        counts[team] = len(events)
        (mail_dir / f"{team}.csv").write_bytes(serialize_events(events, "csv"))
    survey_lines = [csv_line(SURVEY_HEADER)]
    for team, respondent, answer, kpd_answers in generate_survey_rows(spec):
        survey_lines.append(csv_line((team, respondent, str(answer)) + kpd_answers))
    (out_dir / "survey.csv").write_bytes("".join(survey_lines).encode("utf-8"))
    period = spec.period()
    manifest = {
        "seed": spec.seed,
        "teams": spec.teams,
        "months": spec.months,
        "actors": spec.actors,
        "respondents": spec.respondents,
        "messages_per_month": spec.messages_per_month,
        "effects": dict(sorted(spec.effects.items())),
        "period": {"start": iso_utc(period.start), "end": iso_utc(period.end)},
        "events": counts,
    }
    (out_dir / "synth_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return manifest
