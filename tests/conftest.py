"""Shared fixtures and compact builders for the test suite."""

from __future__ import annotations

import sys
from datetime import datetime, time, timedelta, timezone
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from commscore.ingest import Period, TeamCorpus, build_corpus, make_event
from commscore.tempograph import WindowGraph, daily_activity

UTC = timezone.utc


def ts(text: str) -> datetime:
    """'2012-06-04 09:00' → tz-aware UTC datetime."""
    return datetime.strptime(text, "%Y-%m-%d %H:%M").replace(tzinfo=UTC)


def addr(name: str) -> str:
    """Short actor names expand to full addresses; full addresses pass through."""
    return name if "@" in name else f"{name}@ex.com"


def ev(when: str, sender: str, to, cc=(), subject: str = "x", team: str = "t"):
    to = [to] if isinstance(to, str) else list(to)
    cc = [cc] if isinstance(cc, str) else list(cc)
    return make_event(ts(when), addr(sender), [addr(a) for a in to],
                      [addr(a) for a in cc], subject, team)


def corpus_of(events, team: str = "t",
              period: tuple[str, str] = ("2012-06-01 00:00", "2012-09-01 00:00")) -> TeamCorpus:
    return build_corpus(events, team, Period(ts(period[0]), ts(period[1])))


@pytest.fixture
def summer() -> Period:
    """The three-month window most tests run over."""
    return Period(ts("2012-06-01 00:00"), ts("2012-09-01 00:00"))


def day_graphs(corpus: TeamCorpus) -> list[WindowGraph]:
    """``daily_activity(corpus)`` as graphs: each day tally's edges over its UTC
    day clipped to the corpus period, with the edges' ends as nodes."""
    period = corpus.period
    graphs = []
    for day, edges in daily_activity(corpus):
        midnight = datetime.combine(day, time(), UTC)
        # the day after 9999-12-31 is out of range; the period ends first
        end = period.end if period.end - midnight <= timedelta(days=1) \
            else midnight + timedelta(days=1)
        graphs.append(WindowGraph(Period(max(midnight, period.start), end),
                                  frozenset(a for pair in edges for a in pair), edges))
    return graphs


def day_tallies(day) -> tuple:
    """A day graph as ``oracles.daily_tallies`` states a day: (UTC date, sends
    per actor, receipts per actor, total edges), from its out- and in-edges."""
    sent: dict[str, int] = {}
    received: dict[str, int] = {}
    for (sender, recipient), count in day.edges.items():
        sent[sender] = sent.get(sender, 0) + count
        received[recipient] = received.get(recipient, 0) + count
    return (day.window.start.astimezone(UTC).date(), sent, received, sum(day.edges.values()))
