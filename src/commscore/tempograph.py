"""Aggregate a corpus into directed weighted graphs over calendar windows.

Calendar arithmetic is done in UTC throughout.  A message to ``k`` distinct
recipients contributes ``k`` directed edges (and ``k`` sends in the daily
tallies); self-addressed copies are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta, timezone
from types import MappingProxyType
from typing import Mapping

from .ingest import ActorId, Period, TeamCorpus


@dataclass(frozen=True)
class WindowGraph:
    """Directed weighted communication graph over one time window.

    ``nodes`` holds exactly the actors incident to at least one edge; counts
    are at least 1; there are no self-loops.
    """

    window: Period
    nodes: frozenset[ActorId]
    edges: Mapping[tuple[ActorId, ActorId], int]


def build_window_graph(corpus: TeamCorpus, window: Period) -> WindowGraph:
    """One edge-count increment per (sender, recipient) pair per message."""
    edges: dict[tuple[ActorId, ActorId], int] = {}
    for ev in corpus.events:
        if ev.timestamp not in window:
            continue
        for recipient in ev.recipients:
            if recipient == ev.sender:
                continue
            pair = (ev.sender, recipient)
            edges[pair] = edges.get(pair, 0) + 1
    nodes = frozenset(a for pair in edges for a in pair)
    return WindowGraph(window=window, nodes=nodes, edges=MappingProxyType(edges))


def month_periods(period: Period) -> list[Period]:
    """Calendar months intersecting the period, clipped to it, in order."""
    out: list[Period] = []
    cursor = period.start.replace(day=1, hour=0, minute=0, second=0, microsecond=0)
    while cursor < period.end:
        if cursor.month == 12:
            following = cursor.replace(year=cursor.year + 1, month=1)
        else:
            following = cursor.replace(month=cursor.month + 1)
        out.append(Period(max(cursor, period.start), min(following, period.end)))
        cursor = following
    return out


def week_periods(period: Period) -> list[Period]:
    """Monday-started calendar weeks intersecting the period, clipped to it."""
    day0 = period.start.replace(hour=0, minute=0, second=0, microsecond=0)
    cursor = day0 - timedelta(days=day0.weekday())
    out: list[Period] = []
    while cursor < period.end:
        following = cursor + timedelta(days=7)
        out.append(Period(max(cursor, period.start), min(following, period.end)))
        cursor = following
    return out


def monthly_windows(corpus: TeamCorpus) -> list[WindowGraph]:
    """One graph per calendar month intersecting the corpus period.

    Empty months yield empty graphs at their chronological position.
    """
    return [build_window_graph(corpus, w) for w in month_periods(corpus.period)]


def weekly_windows(corpus: TeamCorpus) -> list[WindowGraph]:
    return [build_window_graph(corpus, w) for w in week_periods(corpus.period)]


@dataclass(frozen=True)
class DailyActivity:
    """Per-actor sent/received tallies for one UTC calendar day.

    Counting one send per recipient keeps the conservation law exact:
    Σ sent = Σ received = total_edges.
    """

    day: date
    sent: Mapping[ActorId, int]
    received: Mapping[ActorId, int]
    total_edges: int

    @property
    def actors(self) -> frozenset[ActorId]:
        return frozenset(self.sent) | frozenset(self.received)


def daily_activity(corpus: TeamCorpus) -> list[DailyActivity]:
    """One entry per calendar day with at least one counted message, in order."""
    per_day: dict[date, tuple[dict[ActorId, int], dict[ActorId, int], int]] = {}
    for ev in corpus.events:
        day = ev.timestamp.astimezone(timezone.utc).date()
        recipients = [r for r in ev.recipients if r != ev.sender]
        if not recipients:
            continue
        sent, received, _ = per_day.setdefault(day, ({}, {}, 0))
        sent[ev.sender] = sent.get(ev.sender, 0) + len(recipients)
        for r in recipients:
            received[r] = received.get(r, 0) + 1
        per_day[day] = (sent, received, per_day[day][2] + len(recipients))
    return [
        DailyActivity(day=d, sent=MappingProxyType(s), received=MappingProxyType(r),
                      total_edges=t)
        for d, (s, r, t) in sorted(per_day.items())
    ]

