"""Aggregate a corpus into directed weighted graphs over calendar windows.

This module is the one place that maps events to windows.  It relies on the
:class:`TeamCorpus` invariant that ``events`` are in non-decreasing timestamp
order and lie within ``period``, so a window's events are found by bisection.

Calendar arithmetic is done in UTC throughout.  A message to ``k`` distinct
recipients contributes ``k`` directed edges (and ``k`` sends in the daily
tallies); self-addressed copies are dropped.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from itertools import groupby
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

from .ingest import ActorId, EmailEvent, Period, TeamCorpus


@dataclass(frozen=True)
class WindowGraph:
    """Directed weighted communication graph over one time window.

    ``nodes`` holds exactly the actors incident to at least one edge; counts
    are at least 1; there are no self-loops.
    """

    window: Period
    nodes: frozenset[ActorId]
    edges: Mapping[tuple[ActorId, ActorId], int]


def window_events(corpus: TeamCorpus, window: Period) -> tuple[EmailEvent, ...]:
    """The corpus events with timestamps in ``[window.start, window.end)``."""
    lo = bisect_left(corpus.events, window.start, key=attrgetter("timestamp"))
    hi = bisect_left(corpus.events, window.end, lo, key=attrgetter("timestamp"))
    return corpus.events[lo:hi]


def _count_edges(events: Iterable[EmailEvent]) -> dict[tuple[ActorId, ActorId], int]:
    """One count per (sender, recipient) pair per message, self-copies dropped."""
    edges: dict[tuple[ActorId, ActorId], int] = {}
    for ev in events:
        for recipient in ev.recipients:
            if recipient != ev.sender:
                pair = (ev.sender, recipient)
                edges[pair] = edges.get(pair, 0) + 1
    return edges


def build_window_graph(corpus: TeamCorpus, window: Period) -> WindowGraph:
    """One edge-count increment per (sender, recipient) pair per message."""
    edges = _count_edges(window_events(corpus, window))
    nodes = frozenset(a for pair in edges for a in pair)
    return WindowGraph(window=window, nodes=nodes, edges=MappingProxyType(edges))


def _clipped_walk(period: Period, cursor: datetime,
                  step: Callable[[datetime], datetime]) -> Iterator[Period]:
    """Windows ``[b, step(b))`` from boundary ``cursor`` on, clipped to the period."""
    while cursor < period.end:
        following = step(cursor)
        yield Period(max(cursor, period.start), min(following, period.end))
        cursor = following


def month_periods(period: Period) -> list[Period]:
    """Calendar months intersecting the period, clipped to it, in order."""
    first = period.start.replace(day=1, hour=0, minute=0, second=0, microsecond=0)
    return list(_clipped_walk(period, first, lambda c: c.replace(
        year=c.year + c.month // 12, month=c.month % 12 + 1)))


def week_periods(period: Period) -> list[Period]:
    """Monday-started calendar weeks intersecting the period, clipped to it."""
    day0 = period.start.replace(hour=0, minute=0, second=0, microsecond=0)
    return list(_clipped_walk(period, day0 - timedelta(days=day0.weekday()),
                              lambda c: c + timedelta(days=7)))


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
    out: list[DailyActivity] = []
    for day, events in groupby(corpus.events,
                                key=lambda ev: ev.timestamp.astimezone(timezone.utc).date()):
        sent: dict[ActorId, int] = {}
        received: dict[ActorId, int] = {}
        for (sender, recipient), count in _count_edges(events).items():
            sent[sender] = sent.get(sender, 0) + count
            received[recipient] = received.get(recipient, 0) + count
        if sent:
            out.append(DailyActivity(day=day, sent=MappingProxyType(sent),
                                     received=MappingProxyType(received),
                                     total_edges=sum(sent.values())))
    return out
