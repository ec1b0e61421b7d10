"""Windowed graph construction and daily activity tallies."""

from __future__ import annotations

import dataclasses
import json
import tempfile
import warnings
from datetime import datetime, time, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commscore.cli import main
from commscore.errors import NoActivity
from commscore.ingest import Period, build_corpus, iso_utc, make_event, serialize_events
from commscore.metrics import awvci
from commscore.tempograph import (
    daily_activity,
    month_periods,
    monthly_windows,
    week_periods,
    weekly_windows,
)

from conftest import corpus_of, day_graphs, day_tallies, ev, ts
import oracles
from oracles import merge_edges


def test_one_message_to_two_recipients_makes_two_edges():
    corpus = corpus_of([ev("2012-06-04 09:00", "a", ["b", "c"])])
    (day,) = day_graphs(corpus)
    june = monthly_windows(corpus)[0]
    for g in (day, june):
        assert dict(g.edges) == {("a@ex.com", "b@ex.com"): 1, ("a@ex.com", "c@ex.com"): 1}
        assert g.nodes == {"a@ex.com", "b@ex.com", "c@ex.com"}


def test_repeated_messages_accumulate_counts():
    corpus = corpus_of([
        ev("2012-06-04 09:00", "a", "b"),
        ev("2012-06-04 10:00", "a", "b"),
        ev("2012-06-05 10:00", "a", "b"),
    ])
    assert [dict(d.edges) for d in day_graphs(corpus)] == \
        [{("a@ex.com", "b@ex.com"): 2}, {("a@ex.com", "b@ex.com"): 1}]
    assert dict(monthly_windows(corpus)[0].edges) == {("a@ex.com", "b@ex.com"): 3}


def test_self_only_message_yields_empty_graph():
    corpus = corpus_of([ev("2012-06-04 09:00", "a", "a")])
    assert daily_activity(corpus) == []
    june = monthly_windows(corpus)[0]
    assert not june.nodes and not june.edges


def test_cc_recipients_weigh_like_to_recipients():
    direct = corpus_of([ev("2012-06-04 09:00", "a", "b", cc="c")])
    (day,) = day_graphs(direct)
    assert dict(day.edges) == dict(monthly_windows(direct)[0].edges) == \
        {("a@ex.com", "b@ex.com"): 1, ("a@ex.com", "c@ex.com"): 1}


# ---------------------------------------------------------------------------
# calendar windows


def test_june_through_december_gives_seven_months():
    period = Period(ts("2012-06-01 00:00"), ts("2013-01-01 00:00"))
    months = month_periods(period)
    assert len(months) == 7
    assert months[0].start == ts("2012-06-01 00:00")
    assert months[-1].end == ts("2013-01-01 00:00")


def test_single_month_period():
    period = Period(ts("2012-06-01 00:00"), ts("2012-07-01 00:00"))
    assert month_periods(period) == [period]


def test_partial_months_are_clipped_to_the_period():
    period = Period(ts("2012-06-15 00:00"), ts("2012-08-10 00:00"))
    months = month_periods(period)
    assert [(m.start, m.end) for m in months] == [
        (ts("2012-06-15 00:00"), ts("2012-07-01 00:00")),
        (ts("2012-07-01 00:00"), ts("2012-08-01 00:00")),
        (ts("2012-08-01 00:00"), ts("2012-08-10 00:00")),
    ]


def test_weeks_start_on_mondays_and_cover_the_period(summer):
    weeks = week_periods(summer)
    assert weeks[0].start == summer.start  # clipped partial first week
    assert all(w.start.weekday() == 0 for w in weeks[1:])
    assert weeks[-1].end == summer.end
    for earlier, later in zip(weeks, weeks[1:]):
        assert earlier.end == later.start


def test_month_with_no_events_yields_empty_graph_in_position():
    corpus = corpus_of([
        ev("2012-06-04 09:00", "a", "b"),
        ev("2012-08-06 09:00", "a", "b"),
    ])
    months = monthly_windows(corpus)
    assert len(months) == 3
    assert months[0].nodes and months[2].nodes
    assert not months[1].nodes  # July silent


# ---------------------------------------------------------------------------
# daily activity


def test_multi_recipient_day_counts_per_recipient():
    corpus = corpus_of([ev("2012-06-04 09:00", "a", ["b", "c"])])
    (day,) = day_graphs(corpus)
    assert day.window == Period(ts("2012-06-04 00:00"), ts("2012-06-05 00:00"))
    _, sent, received, total = day_tallies(day)
    assert sent == {"a@ex.com": 2}
    assert received == {"b@ex.com": 1, "c@ex.com": 1}
    assert total == 2


def test_reciprocated_pair_is_symmetric():
    corpus = corpus_of([
        ev("2012-06-04 09:00", "a", "b"),
        ev("2012-06-04 10:00", "b", "a"),
    ])
    (day,) = day_graphs(corpus)
    assert dict(day.edges) == {("a@ex.com", "b@ex.com"): 1, ("b@ex.com", "a@ex.com"): 1}
    _, sent, received, total = day_tallies(day)
    assert sent == received == {"a@ex.com": 1, "b@ex.com": 1}
    assert total == 2


def test_quiet_days_are_absent():
    corpus = corpus_of([ev("2012-06-04 09:00", "a", "b"), ev("2012-06-06 09:00", "a", "a")])
    days = day_graphs(corpus)
    assert [d.window.start.date().isoformat() for d in days] == ["2012-06-04"]


_corpora = st.lists(
    st.tuples(
        st.integers(0, 85),         # day offset within the summer period
        st.integers(0, 23),         # hour
        st.integers(0, 4),          # sender index
        st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True),
    ),
    min_size=1, max_size=25,
)


def _build(raw):
    actors = [f"p{i}@ex.com" for i in range(5)]
    events = []
    for day_offset, hour, sender, recipients in raw:
        stamp = ts("2012-06-01 00:00") + timedelta(days=day_offset, hours=hour)
        to = [actors[r] for r in recipients]
        events.append(make_event(stamp, actors[sender], to, [], "s", "t"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return build_corpus(events, "t", Period(ts("2012-06-01 00:00"),
                                                ts("2012-09-01 00:00")))


@given(_corpora)
@settings(max_examples=60)
def test_daily_conservation_law(raw):
    """Σ sent = Σ received = total edges, every day, any corpus."""
    corpus = _build(raw)
    tallies = [day_tallies(day) for day in day_graphs(corpus)]
    assert tallies == oracles.daily_tallies(corpus.events)
    for _, sent, received, total in tallies:
        assert sum(sent.values()) == sum(received.values()) == total


@given(_corpora)
@settings(max_examples=60)
def test_monthly_union_equals_full_period_graph(raw):
    corpus = _build(raw)
    merged = merge_edges(g.edges for g in monthly_windows(corpus))
    full = oracles.window_edges(corpus.events, corpus.period.start, corpus.period.end)
    assert merged == full == merge_edges(d.edges for d in day_graphs(corpus))
    assert set().union(*(g.nodes for g in monthly_windows(corpus))) == \
        {actor for pair in full for actor in pair}


@given(_corpora)
@settings(max_examples=30)
def test_weekly_union_equals_full_period_graph(raw):
    corpus = _build(raw)
    merged = merge_edges(g.edges for g in weekly_windows(corpus))
    assert merged == oracles.window_edges(corpus.events, corpus.period.start, corpus.period.end)


@given(_corpora)
@settings(max_examples=25)
def test_monthly_graphs_are_deterministic(raw):
    corpus = _build(raw)
    again = _build(list(raw))
    assert [(g.window, dict(g.edges)) for g in monthly_windows(corpus)] == \
        [(g.window, dict(g.edges)) for g in monthly_windows(again)]


def test_monthly_graph_counts_each_direction():
    corpus = corpus_of([
        ev("2012-06-04 09:00", "b", "a"),
        ev("2012-06-04 09:30", "a", "b"),
    ])
    june = monthly_windows(corpus)[0]
    assert june.window.start == ts("2012-06-01 00:00")
    assert dict(june.edges) == {("a@ex.com", "b@ex.com"): 1, ("b@ex.com", "a@ex.com"): 1}


# ---------------------------------------------------------------------------
# windowing against the full-scan oracles, with events on calendar edges


@st.composite
def _edge_corpora(draw):
    """A corpus whose events sit on month starts, Monday 00:00, midnights and
    the last second of the period, with self-only mail and shared timestamps.
    Some events, and maybe the period bounds, keep their instant but carry a
    UTC offset of up to ±23 h, as an :class:`EmailEvent` or :class:`Period`
    built directly may."""
    start = datetime(2011, 12, 20, tzinfo=timezone.utc) + timedelta(
        hours=draw(st.integers(0, 24 * 50)))
    end = start + timedelta(hours=draw(st.integers(1, 24 * 100)))
    midnights = [datetime.combine(start.date() + timedelta(days=i), time(), timezone.utc)
                 for i in range(1, (end - start).days + 2)]
    midnights = [m for m in midnights if m < end]
    special = [start, end - timedelta(seconds=1)] + [
        m for m in midnights if m.day == 1 or m.weekday() == 0]
    instants = [st.sampled_from(special),
                st.integers(0, int((end - start).total_seconds()) - 1).map(
                    lambda s: start + timedelta(seconds=s))]
    if midnights:
        instants.append(st.sampled_from(midnights))
    actors = [f"p{i}@ex.com" for i in range(4)]
    events = []
    for stamp, sender, recipients, copies in draw(st.lists(st.tuples(
            st.one_of(instants), st.integers(0, 3),
            st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True),
            st.integers(1, 3)), min_size=1, max_size=20)):
        for _ in range(copies):
            events.append(make_event(stamp, actors[sender], [actors[r] for r in recipients],
                                     [], f"s{len(events)}", "t"))
    zones = st.none() | st.integers(-23 * 60, 23 * 60).map(
        lambda minutes: timezone(timedelta(minutes=minutes)))
    events = [e if zone is None else dataclasses.replace(e, timestamp=e.timestamp.astimezone(zone))
              for e, zone in zip(events, draw(st.lists(zones, min_size=len(events),
                                                       max_size=len(events))))]
    zone = draw(zones) or timezone.utc
    return build_corpus(events, "t", Period(start.astimezone(zone), end.astimezone(zone)))


@given(_edge_corpora())
@settings(max_examples=80)
def test_windows_and_daily_tallies_equal_the_full_scan_oracles(corpus):
    events, start, end = corpus.events, corpus.period.start, corpus.period.end
    for windows, key in ((monthly_windows(corpus), oracles.month_key),
                         (weekly_windows(corpus), oracles.week_key)):
        assert [(key(g.window.start), dict(g.edges)) for g in windows] == \
            oracles.calendar_edges(events, start, end, key)
        assert windows[0].window.start == start and windows[-1].window.end == end
        for g in windows:
            assert g.nodes == {a for pair in g.edges for a in pair}
    days = day_graphs(corpus)
    assert [day_tallies(d) for d in days] == oracles.daily_tallies(events)
    for d in days:  # each window is its UTC day, clipped to the period
        midnight = datetime.combine(day_tallies(d)[0], time(), timezone.utc)
        assert d.window == Period(max(midnight, start), min(midnight + timedelta(days=1), end))
        assert d.nodes == {a for pair in d.edges for a in pair}


@given(_edge_corpora(), st.sampled_from(("edges", "actors")))
@settings(max_examples=80)
def test_awvci_of_the_day_walk_equals_the_tally_oracle(corpus, weighting):
    """AWVCI over ``daily_activity`` equals the variance oracle over
    ``oracles.daily_tallies``, under both day weightings."""
    pairs = []
    for _, sent, received, total in oracles.daily_tallies(corpus.events):
        actors = sorted(sent.keys() | received.keys())
        indices = [oracles.ci_formula(sent.get(a, 0), received.get(a, 0)) for a in actors]
        pairs.append((oracles.population_variance(indices),
                      total if weighting == "edges" else len(actors)))
    if not pairs:  # only self-addressed mail
        with pytest.raises(NoActivity):
            awvci(daily_activity(corpus), weighting)
        return
    assert awvci(daily_activity(corpus), weighting) == oracles.weighted_variance_mean(pairs)


@given(_edge_corpora())
@settings(max_examples=25, deadline=None)
def test_ingest_gap_months_equal_the_oracle(corpus):
    """A gap month has no mail at all; self-addressed mail fills a month."""
    start, end = corpus.period.start, corpus.period.end
    with tempfile.TemporaryDirectory() as tmp:
        mail = Path(tmp) / "mail.jsonl"
        mail.write_bytes(serialize_events(corpus.events, "jsonl"))
        assert main(["ingest", str(mail), "--format", "jsonl", "--period",
                     f"{iso_utc(start)}..{iso_utc(end)}", "--out", f"{tmp}/out"]) == 0
        manifest = json.loads((Path(tmp) / "out" / "manifest.json").read_text())
    assert manifest["teams"]["t"] == {
        "events": len(corpus.events),
        "gap_months": oracles.gap_months(corpus.events, start, end)}


@pytest.mark.parametrize("period", ["9999-11-01..9999-12-31",
                                    "9999-10-01..9999-12-31T23:59:59Z"])
def test_a_period_that_reaches_december_9999_ingests_and_analyzes(tmp_path, capsys, period):
    """The month, week and day after December 9999 are past the datetime
    range; the windows end with the period instead."""
    mail = tmp_path / "t.csv"
    mail.write_text("timestamp,from,to,cc,subject\n"
                    "9999-10-04T09:00:00Z,a@x.com,b@x.com,,hi\n"
                    "9999-12-06T09:00:00Z,a@x.com,b@x.com;c@x.com,,plan\n"
                    "9999-12-30T10:00:00Z,b@x.com,a@x.com,,Re: plan\n"
                    "9999-12-31T23:59:58Z,c@x.com,a@x.com,,done\n", encoding="utf-8")
    archive = tmp_path / "archive"
    assert main(["ingest", str(mail), "--period", period, "--out", str(archive)]) == 0
    assert "t: " in capsys.readouterr().out
    manifest = json.loads((archive / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["teams"]["t"]["gap_months"] == ["9999-11"]
    for window in ("weekly", "monthly"):
        assert main(["analyze", str(archive), "--oscillation-window", window,
                     "--out", str(tmp_path / window)]) == 0
        assert (tmp_path / window / "metrics.csv").read_text(encoding="utf-8").startswith(
            "team_id,")
