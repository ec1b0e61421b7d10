"""Aggregate a corpus into directed weighted graphs over calendar windows.

This module is the one place that maps events to windows, and the UTC day is
its one bucket: :func:`daily_activity` tallies each message into its day, and
every month or week graph is a sum of day tallies.  It is also the one
calendar: :func:`month_periods` and :func:`week_periods` give the UTC months
and Monday-started weeks of a period, and :mod:`commscore.synth` generates its
mail over them and ends its period by :func:`next_month`.  Event and period
instants are UTC whole seconds by type, so an instant's date is its UTC day.  A message to ``k`` distinct
recipients contributes ``k`` directed edges; self-addressed copies are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, timedelta
from itertools import chain
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

from .ingest import ActorId, Period, TeamCorpus

#: Message counts of directed pairs: ``{(sender, recipient): count}``.
EdgeCounts = dict[tuple[ActorId, ActorId], int]
#: One UTC day: its date and its edge counts, each at least 1.  Plain data, so
#: a corpus builds a graph per month and week but no object per day.
DayTally = tuple[date, EdgeCounts]

_DAY = timedelta(days=1)
_SECOND = timedelta(seconds=1)


@dataclass(frozen=True)
class WindowGraph:
    """Directed weighted communication graph over one time window.

    ``nodes`` holds exactly the actors incident to at least one edge; counts
    are at least 1; there are no self-loops.
    """

    window: Period
    nodes: frozenset[ActorId]
    edges: Mapping[tuple[ActorId, ActorId], int]


def _graph(window: Period, edges: EdgeCounts) -> WindowGraph:
    return WindowGraph(window=window, nodes=frozenset(chain.from_iterable(edges)),
                       edges=MappingProxyType(edges))


def _clipped_walk(period: Period, cursor: datetime,
                  step: Callable[[datetime], datetime]) -> Iterator[Period]:
    """Windows ``[b, step(b))`` from boundary ``cursor`` on, clipped to the period."""
    while cursor < period.end:
        try:
            following = step(cursor)
        except (ValueError, OverflowError):  # past year 9999: the period ends first
            following = period.end
        yield Period(max(cursor, period.start), min(following, period.end))
        cursor = following


def next_month(start: datetime) -> datetime:
    """The start of the UTC calendar month after the one that ``start`` begins."""
    return start.replace(year=start.year + start.month // 12, month=start.month % 12 + 1)


def month_periods(period: Period) -> list[Period]:
    """UTC calendar months intersecting the period, clipped to it, in order."""
    first = period.start.replace(day=1, hour=0, minute=0, second=0)
    return list(_clipped_walk(period, first, next_month))


def week_periods(period: Period) -> list[Period]:
    """Monday-started UTC calendar weeks intersecting the period, clipped to it."""
    day0 = period.start.replace(hour=0, minute=0, second=0)
    return list(_clipped_walk(period, day0 - timedelta(days=day0.weekday()),
                              lambda c: c + timedelta(days=7)))


def daily_activity(corpus: TeamCorpus) -> list[DayTally]:
    """The tally of each UTC day with a counted message, in order.

    This is the one walk over the corpus: each message's recipients are read
    once, and a new day starts only when an instant reaches the next midnight.
    """
    end = corpus.period.end
    days: list[DayTally] = []
    edges: EdgeCounts = {}
    next_midnight = corpus.period.start  # the first event opens the first day
    for ev in corpus.events:
        stamp = ev.timestamp
        if stamp >= next_midnight:
            edges = {}
            days.append((stamp.date(), edges))
            midnight = stamp.replace(hour=0, minute=0, second=0)
            # the day after 9999-12-31 is out of range; the period ends first
            next_midnight = end if end - midnight <= _DAY else midnight + _DAY
        sender = ev.sender
        for recipient in ev.recipients:
            if recipient != sender:
                pair = (sender, recipient)
                edges[pair] = edges.get(pair, 0) + 1
    return [day for day in days if day[1]]


def window_graphs(days: Sequence[DayTally], windows: Sequence[Period]) -> list[WindowGraph]:
    """Sum the :func:`daily_activity` tallies of a corpus into consecutive
    windows that cover its period; a window without a day gets an empty graph.

    Only the first window may start, and the last end, mid-day, so each day
    lies whole in the first window whose last second falls on or after it.
    """
    graphs: list[WindowGraph] = []
    i, n = 0, len(days)
    for window in windows:
        last = (window.end - _SECOND).date()  # an end may fall mid-day
        edges: EdgeCounts = {}
        while i < n and days[i][0] <= last:
            for pair, count in days[i][1].items():
                edges[pair] = edges.get(pair, 0) + count
            i += 1
        graphs.append(_graph(window, edges))
    return graphs


def monthly_windows(corpus: TeamCorpus) -> list[WindowGraph]:
    """One graph per UTC calendar month intersecting the corpus period.

    Empty months yield empty graphs at their chronological position.
    """
    return window_graphs(daily_activity(corpus), month_periods(corpus.period))


def weekly_windows(corpus: TeamCorpus) -> list[WindowGraph]:
    """One graph per Monday-started UTC week intersecting the corpus period."""
    return window_graphs(daily_activity(corpus), week_periods(corpus.period))
