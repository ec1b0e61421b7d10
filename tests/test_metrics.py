"""The eight score-card metrics, checked against independent oracles."""

from __future__ import annotations

import math
import re
import statistics
import warnings
from collections import Counter
from datetime import date, datetime, timedelta, timezone
from fractions import Fraction
from random import Random
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import commscore.metrics
from commscore.errors import FormatError, InsufficientWindows, NoActivity, OutOfRange
from commscore.ingest import EmailEvent, Period, build_corpus, make_event
from commscore.metrics import (
    METRIC_CHOICES,
    CentralityMap,
    MetricConfig,
    SentimentLexicon,
    awvci,
    avg_new_actors,
    betweenness_centrality,
    compute_metric_vector,
    contribution_index,
    degree_centrality,
    density,
    direction_changes,
    emotionality,
    group_centralization,
    leadership_oscillation,
    load_lexicon,
    match_replies,
    normalize_subject,
    response_times,
    sentiment,
)
from commscore.tempograph import (
    DayTally,
    WindowGraph,
    daily_activity,
    month_periods,
    monthly_windows,
    week_periods,
    weekly_windows,
)

import oracles
from conftest import addr, corpus_of, ev, ts


def graph(*edges: tuple[str, str], counts: dict | None = None) -> WindowGraph:
    """A window graph straight from an edge list (count 1 unless overridden)."""
    window = Period(ts("2012-06-01 00:00"), ts("2012-07-01 00:00"))
    weighted = {e: 1 for e in edges}
    if counts:
        weighted.update(counts)
    nodes = frozenset(v for e in weighted for v in e)
    return WindowGraph(window=window, nodes=nodes, edges=MappingProxyType(weighted))


# ---------------------------------------------------------------------------
# betweenness


def test_directed_path_center_carries_half():
    bc = betweenness_centrality(graph(("a", "b"), ("b", "c"))).values
    assert bc == {"a": 0, "b": Fraction(1, 2), "c": 0}


def test_complete_triangle_has_no_intermediaries():
    bc = betweenness_centrality(
        graph(("a", "b"), ("b", "a"), ("a", "c"), ("c", "a"), ("b", "c"), ("c", "b"))
    ).values
    assert set(bc.values()) == {0}


def test_reciprocated_star_center_is_maximal():
    edges = []
    for leaf in "wxyz":
        edges += [("hub", leaf), (leaf, "hub")]
    bc = betweenness_centrality(graph(*edges)).values
    assert bc["hub"] == 1
    assert all(bc[leaf] == 0 for leaf in "wxyz")


def test_fewer_than_three_nodes_scores_zero():
    assert betweenness_centrality(graph(("a", "b"))).values == {"a": 0, "b": 0}


def _random_graph(rng: Random) -> tuple[list[str], list[tuple[str, str]]]:
    n = rng.randint(2, 8)
    nodes = [f"n{i}" for i in range(n)]
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    edges = [p for p in pairs if rng.random() < rng.choice((0.15, 0.3, 0.6))]
    return nodes, edges


@pytest.mark.parametrize("seed", range(8))
def test_betweenness_matches_path_enumeration(seed):
    """Dependency accumulation agrees exactly with brute-force enumeration."""
    rng = Random(seed)
    for _ in range(40):
        nodes, edges = _random_graph(rng)
        g = graph(*edges) if edges else WindowGraph(
            window=Period(ts("2012-06-01 00:00"), ts("2012-07-01 00:00")),
            nodes=frozenset(), edges=MappingProxyType({}))
        expected = oracles.enumeration_betweenness(g.nodes, g.edges)
        assert betweenness_centrality(g).values == expected


JUNE = Period(ts("2012-06-01 00:00"), ts("2012-07-01 00:00"))


@st.composite
def digraphs(draw) -> WindowGraph:
    """Up to 40 nodes, isolated ones included, and up to 6 edges per node."""
    n = draw(st.integers(0, 40))
    edges: dict[tuple[str, str], int] = {}
    if n >= 2:
        size = draw(st.integers(0, 6 * n))
        for src, other in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)),
                                        min_size=size, max_size=size)):
            dst = other + (other >= src)  # any node but src
            edges[(f"n{src:02d}", f"n{dst:02d}")] = 1
    return WindowGraph(window=JUNE, nodes=frozenset(f"n{i:02d}" for i in range(n)),
                       edges=MappingProxyType(edges))


@given(digraphs())
@settings(max_examples=60, deadline=None)
def test_betweenness_matches_fraction_accumulation(g):
    """Graphs past enumeration's reach agree exactly with per-edge Fraction Brandes."""
    assert betweenness_centrality(g).values == oracles.accumulation_betweenness(g.nodes, g.edges)


def test_betweenness_on_a_ladder_with_huge_path_counts():
    """Chained 2-, 3- and 5-way fans: hub h(i) fans out to b(i) rungs that all
    lead on to hub h(i+1), so σ from the first hub to the last is Π b(i),
    beyond 2⁶⁴, and the per-source lcm L is as large.  An edge from the last
    hub back to the first lets every source reach every node."""
    branches = [2, 3, 5] * 15
    assert math.prod(branches) > 2 ** 64
    edges = [(f"h{len(branches):02d}", "h00")]
    for i, b in enumerate(branches):
        for j in range(b):
            rung = f"r{i:02d}.{j}"
            edges += [(f"h{i:02d}", rung), (rung, f"h{i + 1:02d}")]
    g = graph(*edges)
    values = betweenness_centrality(g).values
    assert values == oracles.accumulation_betweenness(g.nodes, g.edges)
    assert all(0 <= v <= 1 for v in values.values())
    assert values["h00"] > values["r00.0"] > 0


# ---------------------------------------------------------------------------
# degree / centralization / density


def test_degree_star_examples():
    edges = [("hub", leaf) for leaf in "wxyz"]
    dc = degree_centrality(graph(*edges)).values
    assert dc["hub"] == 1
    assert dc["w"] == Fraction(1, 4)


def test_isolated_dyad_both_score_one():
    dc = degree_centrality(graph(("a", "b"), ("b", "a"))).values
    assert dc == {"a": 1, "b": 1}


def test_centralization_of_equal_map_is_zero():
    c = CentralityMap("degree", {"a": 1, "b": 1, "c": 1}, 2)  # each 1/2
    assert group_centralization(c) == 0


def test_star_degree_map_centralizes_to_one():
    c = CentralityMap("degree", {"hub": 4, "w": 1, "x": 1, "y": 1, "z": 1}, 4)  # 1 and 1/4
    assert group_centralization(c) == 1


def test_star_betweenness_map_centralizes_to_one():
    edges = []
    for leaf in "wxyz":
        edges += [("hub", leaf), (leaf, "hub")]
    assert group_centralization(betweenness_centrality(graph(*edges))) == 1


def test_density_examples():
    assert density(graph(("a", "b"), ("b", "c"))) == Fraction(1, 3)
    full = graph(("a", "b"), ("b", "a"), ("a", "c"), ("c", "a"),
                 ("b", "c"), ("c", "b"))
    assert density(full) == 1
    empty = WindowGraph(window=Period(ts("2012-06-01 00:00"), ts("2012-07-01 00:00")),
                        nodes=frozenset(), edges=MappingProxyType({}))
    assert density(empty) == 0


@pytest.mark.parametrize("seed", range(5))
def test_structural_metrics_ignore_edge_multiplicities(seed):
    """Scaling every count by k changes no centrality, centralization, density."""
    rng = Random(100 + seed)
    nodes, edges = _random_graph(rng)
    if not edges:
        edges = [("n0", "n1")]
    plain = graph(*edges)
    scaled = graph(*edges, counts={e: 7 for e in edges})
    assert betweenness_centrality(plain).values == betweenness_centrality(scaled).values
    assert degree_centrality(plain).values == degree_centrality(scaled).values
    assert density(plain) == density(scaled)


@pytest.mark.parametrize("seed", range(6))
def test_centrality_ranges(seed):
    rng = Random(200 + seed)
    nodes, edges = _random_graph(rng)
    if not edges:
        return
    g = graph(*edges)
    for value in betweenness_centrality(g).values.values():
        assert 0 <= value <= 1
    for value in degree_centrality(g).values.values():
        assert 0 <= value <= 1
    assert 0 <= group_centralization(betweenness_centrality(g)) <= 1
    assert 0 <= group_centralization(degree_centrality(g)) <= 1
    assert 0 <= density(g) <= 1


# ---------------------------------------------------------------------------
# new actors


def test_new_actors_hand_trace():
    months = [graph(("a", "b")), graph(("a", "c")),
              graph(("b", "d"), ("d", "e"))]
    # {a,b} then {a,c} adds 1, then {b,d,e} adds 2
    assert avg_new_actors(months) == Fraction(3, 2)


def test_new_actors_identical_months_is_zero():
    g = graph(("a", "b"), ("b", "c"))
    assert avg_new_actors([g, g, g]) == 0


def test_new_actors_needs_two_windows():
    with pytest.raises(InsufficientWindows):
        avg_new_actors([graph(("a", "b"))])


# ---------------------------------------------------------------------------
# oscillation


@pytest.mark.parametrize("series,expected", [
    ([1, 3, 2, 4, 1], 3),
    ([1, 2, 3, 4], 0),        # monotone
    ([2, 2, 2], 0),           # constant
    ([1, 2, 2, 1], 1),        # plateau then reversal
    ([0, 1, 1, 2], 0),        # plateau inside a rise is not an extremum
    ([5, 1], 0),
    ([], 0),
])
def test_direction_change_counting(series, expected):
    assert direction_changes(series) == expected


def weekly_betweenness(corpus):
    return [betweenness_centrality(g) for g in weekly_windows(corpus)]


def changes_per_actor(series):
    """Each actor's direction changes across a betweenness series, 0 where absent."""
    maps = [c.values for c in series]
    return {actor: direction_changes([m.get(actor, Fraction(0)) for m in maps])
            for actor in set().union(*maps)}


@given(st.lists(st.integers(0, 5), min_size=3, max_size=20))
def test_direction_changes_bounded_by_t_minus_2(series):
    assert 0 <= direction_changes(series) <= len(series) - 2


def test_oscillation_counts_weekly_reversals():
    """Alternating weekly leadership produces one change per reversal."""
    events = []
    mondays = [ts("2012-06-04 09:00") + timedelta(weeks=i) for i in range(6)]
    for week, monday in enumerate(mondays):
        if week % 2 == 0:  # a→b→c: b leads
            events.append(ev(monday.strftime("%Y-%m-%d %H:%M"), "a", "b", subject=f"s{week}"))
            events.append(ev(monday.strftime("%Y-%m-%d %H:%M"), "b", "c", subject=f"t{week}"))
        else:              # b→a→c: a leads
            events.append(ev(monday.strftime("%Y-%m-%d %H:%M"), "b", "a", subject=f"s{week}"))
            events.append(ev(monday.strftime("%Y-%m-%d %H:%M"), "a", "c", subject=f"t{week}"))
    corpus = corpus_of(events, period=("2012-06-04 00:00", "2012-07-16 00:00"))
    series = weekly_betweenness(corpus)
    # b: ½,0,½,0,½,0 → 4 changes; a: 0,½,0,½,0,½ → 4; c flat
    assert changes_per_actor(series) == {"b@ex.com": 4, "a@ex.com": 4, "c@ex.com": 0}
    assert leadership_oscillation(series) == 8


def test_oscillation_bounds_hold_per_actor():
    rng = Random(9)
    actors = [f"m{i}@ex.com" for i in range(4)]
    events = []
    for day in range(0, 84, 2):
        stamp = ts("2012-06-01 09:00") + timedelta(days=day)
        sender, receiver = rng.sample(actors, 2)
        events.append(ev(stamp.strftime("%Y-%m-%d %H:%M"), sender, receiver,
                         subject=f"d{day}"))
    corpus = corpus_of(events)
    series = weekly_betweenness(corpus)
    per_actor = changes_per_actor(series)
    for count in per_actor.values():
        assert 0 <= count <= len(series) - 2
    assert leadership_oscillation(series) == sum(per_actor.values())


def test_oscillation_needs_three_windows():
    corpus = corpus_of([ev("2012-06-04 09:00", "a", "b")],
                       period=("2012-06-04 00:00", "2012-06-11 00:00"))
    with pytest.raises(InsufficientWindows):
        leadership_oscillation(weekly_betweenness(corpus))


#: Week graphs for the network-metric property test.  The first three have 0,
#: 2 and 2 nodes.  Node ``b`` has betweenness 1/2 both on the 3-node path (1
#: of 2 ordered pairs) and on the 4-node graph after it (3 of 6), so weeks in
#: a row can hold one value over two denominators: a plateau.
_WEEK_MOTIFS = (
    (),
    (("a", "b"),),
    (("a", "b"), ("b", "a")),
    (("a", "b"), ("b", "c")),
    (("a", "b"), ("b", "c"), ("b", "d"), ("d", "a")),
)
_week_graphs = st.one_of(
    st.sampled_from(_WEEK_MOTIFS),
    st.lists(st.tuples(st.sampled_from("abcdef"), st.sampled_from("abcdef"))
             .filter(lambda edge: edge[0] != edge[1]), max_size=10))


def _network_metrics_by_fractions(events, start, end) -> tuple:
    """(Avg GBC, Avg GDC, Sum of Oscillation) from the oracles' calendar
    windows, with one ``Fraction`` per actor and term."""
    def nodes(edges):
        return {v for pair in edges for v in pair}

    months = [e for _, e in oracles.calendar_edges(events, start, end, oracles.month_key)]
    weeks = [e for _, e in oracles.calendar_edges(events, start, end, oracles.week_key)]
    active = [e for e in months if e]
    gbc = gdc = oscillation = None
    if active:
        gbc = sum(oracles.freeman_centralization(
            oracles.accumulation_betweenness(nodes(e), e), "betweenness")
            for e in active) / len(active)
        gdc = sum(oracles.freeman_centralization(
            oracles.degree_map(nodes(e), e), "degree") for e in active) / len(active)
    if len(weeks) >= 3:
        series = [oracles.accumulation_betweenness(nodes(e), e) for e in weeks]
        oscillation = sum(oracles.turning_points([m.get(actor, Fraction(0)) for m in series])
                          for actor in sorted(set().union(*series)))
    return gbc, gdc, oscillation


@given(st.lists(_week_graphs, min_size=1, max_size=10))
# b: 1/2 over 2, 1/2 over 6, then 0 is a plateau and a fall, not a turn
@example([_WEEK_MOTIFS[3], _WEEK_MOTIFS[4], _WEEK_MOTIFS[0]])
@example([_WEEK_MOTIFS[4], _WEEK_MOTIFS[3], _WEEK_MOTIFS[4], _WEEK_MOTIFS[1]])
@settings(max_examples=200, deadline=None)
def test_network_metrics_equal_a_fraction_recomputation(weeks):
    """Avg GBC, Avg GDC and the Sum of Oscillation, computed over integer
    numerators, equal a recomputation with a ``Fraction`` per actor."""
    monday = ts("2012-06-04 00:00")
    events = [make_event(monday + timedelta(weeks=week, minutes=j), addr(sender),
                         [addr(recipient)], subject=f"s{week}", team_id="t")
              for week, edges in enumerate(weeks) for j, (sender, recipient) in enumerate(edges)]
    period = Period(monday, monday + timedelta(weeks=len(weeks)))
    vec = compute_metric_vector(build_corpus(events, "t", period))
    assert (vec.avg_gbc, vec.avg_gdc, vec.oscillation_sum) == _network_metrics_by_fractions(
        events, period.start, period.end)


@pytest.mark.parametrize("actors", [6, 40])
def test_metric_vector_builds_a_few_fractions_per_window(monkeypatch, actors):
    """An operation bound: however many actors a window holds, the vector
    builds at most a few ``Fraction``s per window graph (the centralities
    are integers over one denominator per graph)."""
    rng = Random(actors)
    names = [f"p{i}" for i in range(actors)]
    events = [ev(f"2012-{month:02}-{day:02} {hour:02}:00", sender,
                 rng.sample([n for n in names if n != sender], rng.randint(1, 3)),
                 subject=f"s{month}-{day}")
              for month in (6, 7, 8) for day in range(1, 29) for hour in (9, 11, 15)
              for sender in [rng.choice(names)]]
    corpus = corpus_of(events)
    expected = compute_metric_vector(corpus)
    built = []

    def counting_fraction(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(commscore.metrics, "Fraction", counting_fraction)
    assert compute_metric_vector(corpus) == expected
    windows = len(monthly_windows(corpus)) + len(weekly_windows(corpus))
    assert len({v for g in monthly_windows(corpus) for v in g.nodes}) == actors
    assert 0 < len(built) <= 3 * windows


def test_metric_vector_builds_no_object_per_day(monkeypatch):
    """An operation bound: the vector builds a ``Period`` and a ``WindowGraph``
    per month and week window, and none per active day."""
    events = [ev(f"2012-{month:02}-{day:02} 09:00", sender, to, subject=f"s{day}")
              for month in (6, 7, 8) for day in range(1, 29)
              for sender, to in (("a", ["b", "c"]), ("b", "a"))]
    corpus = corpus_of(events)
    expected = compute_metric_vector(corpus)
    windows = len(month_periods(corpus.period)) + len(week_periods(corpus.period))
    built = Counter()
    real_post_init, real_init = Period.__post_init__, WindowGraph.__init__

    def counting_post_init(self):
        built[Period] += 1
        real_post_init(self)

    def counting_init(self, *args, **kwargs):
        built[WindowGraph] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Period, "__post_init__", counting_post_init)
    monkeypatch.setattr(WindowGraph, "__init__", counting_init)
    assert compute_metric_vector(corpus) == expected
    assert windows == 17 and len(daily_activity(corpus)) == 84
    assert built[Period] <= windows + 2 and built[WindowGraph] <= windows + 2


def test_graphs_under_three_nodes_centralize_to_zero():
    lone = WindowGraph(window=graph().window, nodes=frozenset({"a"}),
                       edges=MappingProxyType({}))
    for g in (graph(), lone, graph(("a", "b"))):
        assert set(betweenness_centrality(g).values.values()) <= {0}
        assert group_centralization(betweenness_centrality(g)) == 0
        assert group_centralization(degree_centrality(g)) == 0


# ---------------------------------------------------------------------------
# replies / response times


def test_subject_normalization_strips_prefixes():
    assert normalize_subject("Re: RE: Fwd: Budget  plan ") == "budget plan"
    assert normalize_subject("FW: x") == "x"
    assert normalize_subject("rebate") == "rebate"  # not a prefix


#: Prefix-heavy subjects: prefix words in mixed case, colons, ASCII and Unicode
#: whitespace, and near-misses such as ``rebate`` or ``f w``.
_PREFIX_PIECES = ("re", "RE", "Re", "rE", "fw", "FW", "Fw", "fwd", "FWD", "fWd", ":",
                  " ", "\t", "\n", "\x1c", "\xa0", "\u2003", "\u3000", "f", "w", "d",
                  "r", "e", "rebate", "x", "Ré", "ｒｅ")


@given(st.one_of(st.lists(st.sampled_from(_PREFIX_PIECES), max_size=14).map("".join),
                 st.text(max_size=20)))
@settings(max_examples=500)
def test_subject_normalization_equals_oracle(subject):
    assert normalize_subject(subject) == oracles.thread_subject(subject)


def test_reply_pairs_by_subject_and_participants():
    a = ev("2012-06-04 09:00", "a", "b", subject="invoice")
    b = ev("2012-06-04 11:00", "b", "a", subject="Re: invoice")
    (pair,) = match_replies(corpus_of([a, b]))
    assert pair.original == a and pair.reply == b
    assert pair.latency == 7200


def test_reply_beyond_cap_is_unmatched():
    a = ev("2012-06-04 09:00", "a", "b", subject="invoice")
    b = ev("2012-06-14 09:00", "b", "a", subject="Re: invoice")
    assert match_replies(corpus_of([a, b])) == []
    assert len(match_replies(corpus_of([a, b]), reply_cap=11 * 86400)) == 1


def test_reply_matches_latest_eligible_original():
    first = ev("2012-06-04 09:00", "a", "b", subject="invoice")
    second = ev("2012-06-04 10:00", "a", "b", subject="invoice")
    reply = ev("2012-06-04 11:00", "b", "a", subject="Re: invoice")
    (pair,) = match_replies(corpus_of([first, second, reply]))
    assert pair.original == second
    assert pair.latency == 3600
    # same-time originals: the one last in event order (here by `to`) wins
    wider = ev("2012-06-04 10:00", "a", ["b", "c"], subject="invoice")
    for originals in ([second, wider], [wider, second]):
        (pair,) = match_replies(corpus_of([first, *originals, reply]))
        assert pair.original == wider
        assert pair.latency == 3600


def test_cc_recipients_can_reply():
    a = ev("2012-06-04 09:00", "a", "b", cc="c", subject="minutes")
    c = ev("2012-06-04 10:00", "c", "a", subject="Re: minutes")
    (pair,) = match_replies(corpus_of([a, c]))
    assert pair.reply == c


def test_non_addressee_reply_is_ignored():
    a = ev("2012-06-04 09:00", "a", "b", subject="minutes")
    d = ev("2012-06-04 10:00", "d", "a", subject="Re: minutes")
    assert match_replies(corpus_of([a, d])) == []


@given(st.permutations(list(range(9))))
@settings(max_examples=30)
def test_reply_matching_is_order_invariant(order):
    # three events per hour, so replies choose between same-time originals
    events = []
    for i in range(9):
        sender, other = "ab"[i % 2], "ba"[i % 2]
        events.append(ev(f"2012-06-04 {9 + i // 3}:00", sender,
                         [other] if i % 3 else [other, "c"],
                         subject="Re: topic" if i % 4 else "topic"))
    shuffled = [events[i] for i in order]
    baseline = match_replies(corpus_of(events))
    assert len(baseline) >= 3
    assert match_replies(corpus_of(shuffled)) == baseline


def test_empty_subjects_pair_like_any_thread():
    """Subjects that normalize to "" form one thread, as any other subject does."""
    blank = ev("2012-06-04 09:00", "a", "b", subject="")
    other = ev("2012-06-04 09:30", "a", "b", subject="x")
    reply = ev("2012-06-04 10:00", "b", "a", subject="Re:")
    forward = ev("2012-06-04 11:00", "a", "b", subject=" Fwd :  ")
    pairs = match_replies(corpus_of([blank, other, reply, forward]))
    assert [(p.original, p.reply, p.latency) for p in pairs] == [
        (blank, reply, 3600), (reply, forward, 3600)]


@st.composite
def reply_corpora(draw):
    """(reply cap, events): a few actors and subjects, instants near multiples of the cap."""
    cap = draw(st.sampled_from((60, 3600, 7 * 86400)))
    actors = [addr(f"p{i}") for i in range(draw(st.integers(2, 5)))]
    topics = draw(st.lists(st.sampled_from(("", "invoice", "Plan  B")),
                           min_size=1, max_size=3, unique=True))
    start = ts("2012-06-04 00:00")
    events = []
    for _ in range(draw(st.integers(0, 40))):
        # 4 multiples of the cap, each ±1 s or half a cap later: several
        # events per instant, and gaps of 0, 1, 2 s and cap − 2 … cap + 2 s
        offset = (draw(st.integers(0, 3)) * cap
                  + draw(st.sampled_from((-1, 0, 1, cap // 2))))
        subject = draw(st.sampled_from(("", "Re: ", "Fwd: ", "RE: fw:"))) + draw(
            st.sampled_from(topics))
        events.append(make_event(
            start + timedelta(seconds=offset), draw(st.sampled_from(actors)),
            draw(st.lists(st.sampled_from(actors), min_size=1, max_size=3, unique=True)),
            draw(st.lists(st.sampled_from(actors), max_size=2, unique=True)), subject, "t"))
    return cap, events


@given(reply_corpora())
@settings(max_examples=200, deadline=None)
def test_reply_matching_equals_all_pairs_oracle(case):
    cap, events = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        corpus = corpus_of(events)
    pairs = match_replies(corpus, reply_cap=cap)
    assert [(p.original, p.reply, p.latency) for p in pairs] == oracles.reply_pairs(
        corpus.events, cap)


def test_long_thread_of_mostly_ineligible_originals_equals_all_pairs_oracle():
    """One subject, 300 events among 12 actors: most replies walk back past many
    originals they may not answer, and runs of events share an instant."""
    rng = Random(16)
    actors = [addr(f"p{i}") for i in range(12)]
    when = ts("2012-06-04 00:00")
    events = []
    for _ in range(300):
        when += timedelta(seconds=rng.choice((0, 0, 1, 59, 60, 61, 600, 3599, 3600)))
        sender, *others = rng.sample(actors, 3)
        events.append(make_event(when, sender, others[:1], others[1:rng.randrange(1, 3)],
                                 rng.choice(("status", "Re: status", "RE: re: Status")), "t"))
    corpus = corpus_of(events)
    assert len(corpus.events) == 300
    assert len({e.timestamp for e in corpus.events}) < 250
    for cap in (60, 3600, 7 * 86400):
        expected = oracles.reply_pairs(corpus.events, cap)
        assert expected
        pairs = match_replies(corpus, reply_cap=cap)
        assert [(p.original, p.reply, p.latency) for p in pairs] == expected


def test_reply_cap_may_reach_past_the_datetime_range():
    a = ev("2012-06-04 09:00", "a", "b", subject="invoice")
    b = ev("2012-08-30 09:00", "b", "a", subject="Re: invoice")
    for cap in (10**12, 10**20):
        assert [p.latency for p in match_replies(corpus_of([a, b]), cap)] == [87 * 86400]
    start = datetime(1, 1, 1, tzinfo=timezone.utc)
    first = make_event(start, addr("a"), [addr("b")], subject="x", team_id="t")
    reply = make_event(start + timedelta(hours=1), addr("b"), [addr("a")], subject="Re: x",
                       team_id="t")
    corpus = build_corpus([first, reply], "t", Period(start, start + timedelta(days=31)))
    for cap in (7 * 86400, 10**20):
        assert [p.latency for p in match_replies(corpus, cap)] == [3600]


def _fake_pairs(latencies):
    a = ev("2012-06-04 09:00", "a", "b", subject="s")
    from commscore.metrics import ReplyPair
    return [ReplyPair(a, a, lat) for lat in latencies]


def test_response_time_medians():
    assert response_times(_fake_pairs([3600, 7200, 36000])).art_median == 7200
    assert response_times(_fake_pairs([1000, 3000])).art_median == 2000
    empty = response_times([])
    assert empty.art_median is None


@given(st.lists(st.integers(0, 2**51), min_size=1, max_size=40))
@example([3600, 7200, 36000])
@example([1000, 3001])
@example([2**51, 2**51 - 1])
def test_response_time_median_is_exact(latencies):
    """The median is the middle latency, or the sum of the middle two over 2, as
    an exact Fraction, for odd and even counts alike; below 2**52 it equals
    ``statistics.median``, whose half of an int sum is then a float exactly."""
    art = response_times(_fake_pairs(latencies)).art_median
    ordered = sorted(latencies)
    middle = len(ordered) // 2
    assert type(art) is Fraction
    assert art == (ordered[middle] if len(ordered) % 2
                   else Fraction(ordered[middle - 1] + ordered[middle], 2))
    assert art == statistics.median(latencies)


# ---------------------------------------------------------------------------
# contribution index / AWVCI


def test_contribution_index_endpoints():
    assert contribution_index(5, 0) == 1
    assert contribution_index(0, 5) == -1
    assert contribution_index(3, 1) == Fraction(1, 2)


def test_contribution_index_errors():
    with pytest.raises(NoActivity):
        contribution_index(0, 0)
    with pytest.raises(OutOfRange):
        contribution_index(-1, 2)


def _day(i: int, edges: dict) -> DayTally:
    """The tally of the ``i``-th day from 2012-06-04, as ``daily_activity`` states one."""
    return date(2012, 6, 4) + timedelta(days=i), dict(edges)


def test_awvci_opposed_pair_is_one():
    d = _day(0, {("a", "b"): 3})
    assert awvci([d]) == 1  # CIs are +1 and −1, population variance 1


def test_awvci_weights_days_by_edges():
    quiet = _day(0, {("a", "b"): 1, ("b", "a"): 1})  # CIs 0,0 → var 0, weight 1+1
    busy = _day(1, {("a", "b"): 3})
    # var {0:2, 1:3} per edge weights 2 and 3... direct check instead:
    value = awvci([quiet, busy])
    assert value == Fraction(0 * 2 + 1 * 3, 5)


def test_awvci_actor_weighting_switch():
    quiet = _day(0, {("a", "b"): 1, ("b", "a"): 1})
    busy = _day(1, {("a", "b"): 3})
    assert awvci([quiet, busy], weighting="actors") == Fraction(0 * 2 + 1 * 2, 4)
    with pytest.raises(ValueError):
        awvci([quiet], weighting="nodes")


@given(st.integers(2, 5), st.integers(0, 3))
def test_awvci_constant_variance_is_weighting_invariant(actors, spread):
    """If every day shows the same variance v, AWVCI = v under both weightings."""
    ring = {(f"a{k}", f"a{(k + 1) % actors}"): 1 + spread for k in range(actors)}
    days = [_day(i, ring) for i in range(3)]
    # every actor sends and receives 1 + spread: all CIs are 0, every variance is 0
    assert awvci(days, "edges") == awvci(days, "actors") == 0


def test_awvci_no_active_days_raises():
    with pytest.raises(NoActivity):
        awvci([])


@pytest.mark.parametrize("seed", range(4))
def test_awvci_stays_within_unit_interval(seed):
    rng = Random(300 + seed)
    days = []
    for i in range(10):
        edges = {(f"a{j}", f"a{k}"): rng.randint(0, 5) for j in range(4) for k in range(4)
                 if j != k}
        edges = {pair: count for pair, count in edges.items() if count}
        if edges:
            days.append(_day(i, edges))
    if days:
        assert 0 <= awvci(days) <= 1


@st.composite
def activity_days(draw) -> list[DayTally]:
    """1–5 day tallies of 2–40 actors, each edge counting 1 to 10⁶ messages.

    A random spanning tree reaches every actor, so pure senders and pure
    receivers occur; more edges are added at random.
    """
    days = []
    for i in range(draw(st.integers(1, 5))):
        k = draw(st.integers(2, 40))
        counts = st.integers(1, 10 ** 6)
        edges = {}
        for j in range(1, k):
            other = f"a{draw(st.integers(0, j - 1))}"
            pair = (other, f"a{j}") if draw(st.booleans()) else (f"a{j}", other)
            edges[pair] = draw(counts)
        for (src, dst), count in draw(st.dictionaries(
                st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)).filter(
                    lambda pair: pair[0] != pair[1]), counts, max_size=k)).items():
            edges[(f"a{src}", f"a{dst}")] = count
        days.append(_day(i, edges))
    return days


@given(activity_days(), st.sampled_from(("edges", "actors")))
@settings(max_examples=80, deadline=None)
def test_awvci_matches_fraction_variance_oracle(days, weighting):
    pairs = []
    for _, edges in days:
        nodes = {a for pair in edges for a in pair}
        sent = {a: sum(c for (s, _), c in edges.items() if s == a) for a in nodes}
        received = {a: sum(c for (_, r), c in edges.items() if r == a) for a in nodes}
        indices = [oracles.ci_formula(sent[a], received[a]) for a in sorted(nodes)]
        weight = sum(edges.values()) if weighting == "edges" else len(indices)
        pairs.append((oracles.population_variance(indices), weight))
    assert awvci(days, weighting) == oracles.weighted_variance_mean(pairs)


@pytest.mark.parametrize("edges,nodes,error", [
    ({("a", "b"): -1}, {"a", "b"}, OutOfRange),                      # a sends −1
    ({("a", "b"): 2, ("c", "b"): -3}, {"a", "b", "c"}, OutOfRange),  # b receives −1
    ({("a", "b"): 2, ("c", "b"): 0}, {"a", "b", "c"}, NoActivity),   # c has no traffic
    ({}, set(), NoActivity),                                         # no active day
])
def test_awvci_rejects_bad_counts(edges, nodes, error):
    d = _day(0, edges)
    assert {a for pair in edges for a in pair} == nodes  # a day's actors: its edges' ends
    with pytest.raises(error):
        awvci([d], "actors")


# ---------------------------------------------------------------------------
# sentiment / emotionality


def _lexicon():
    return load_lexicon(b"[positive]\ngreat\nthanks\njob\n[negative]\ndelay\nproblem\n")


def test_sentiment_three_way():
    lx = _lexicon()
    assert sentiment("great job thanks", lx) == "positive"
    assert sentiment("delay problem", lx) == "negative"
    assert sentiment("invoice 4711", lx) == "neutral"
    assert sentiment("great delay", lx) == "neutral"  # tie


def test_sentiment_tokenizes_case_and_punctuation():
    lx = _lexicon()
    assert sentiment("GREAT!!! (thanks)", lx) == "positive"
    assert sentiment("greatest", lx) == "neutral"  # whole-word matches only


def test_emotionality_counts_and_normalizes():
    events = [ev("2012-06-04 09:00", "a", "b", subject=s, team="t")
              for s in ["great 1", "thanks 2", "delay", "invoice",
                        "great 3", "x", "y", "z", "great 4", "w"]]
    corpus = corpus_of(events)
    lx = _lexicon()
    assert emotionality(corpus, lx, "cumulative") == 4
    assert emotionality(corpus, lx, "normalized") == Fraction(4, 10)
    with pytest.raises(ValueError):
        emotionality(corpus, lx, "percent")


@st.composite
def recurring_subject_corpora(draw):
    """(reply cap, events) whose raw subjects repeat, or differ only by a
    ``Re:``/``FW:`` prefix, case or whitespace."""
    cap = draw(st.sampled_from((60, 3600, 7 * 86400)))
    actors = [addr(f"p{i}") for i in range(draw(st.integers(2, 5)))]
    topics = draw(st.lists(st.sampled_from(("great job", "delay problem", "thanks", "")),
                           min_size=1, max_size=3, unique=True))
    start = ts("2012-06-04 00:00")
    events = []
    for _ in range(draw(st.integers(0, 40))):
        topic = draw(st.sampled_from(topics)).replace(" ", draw(st.sampled_from((" ", "  \t"))))
        subject = (draw(st.sampled_from(("", "Re: ", "FW: ", "re:Fw: ")))
                   + draw(st.sampled_from((str, str.upper, str.title)))(topic)
                   + draw(st.sampled_from(("", " "))))
        events.append(make_event(
            start + timedelta(seconds=draw(st.integers(0, 3)) * cap // 2),
            draw(st.sampled_from(actors)),
            draw(st.lists(st.sampled_from(actors), min_size=1, max_size=3, unique=True)),
            draw(st.lists(st.sampled_from(actors), max_size=2, unique=True)), subject, "t"))
    return cap, events


@given(recurring_subject_corpora(), st.sampled_from(METRIC_CHOICES["emotionality_mode"]))
@settings(max_examples=150, deadline=None)
def test_vector_subject_metrics_equal_those_built_without_a_shared_table(case, mode):
    cap, events = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        corpus = corpus_of(events)
    lx = _lexicon()
    vec = compute_metric_vector(corpus, MetricConfig(reply_cap=cap, emotionality_mode=mode,
                                                     lexicon=lx))
    assert vec.art_median == response_times(match_replies(corpus, cap)).art_median
    assert vec.emotionality == emotionality(corpus, lx, mode)
    latencies = [latency for _, _, latency in oracles.reply_pairs(corpus.events, cap)]
    assert vec.art_median == (statistics.median(latencies) if latencies else None)
    positive = sum(sentiment(e.subject, lx) == "positive" for e in corpus.events)
    assert vec.emotionality == (positive if mode == "cumulative" or not corpus.events
                                else Fraction(positive, len(corpus.events)))


def test_lexicon_rejects_overlap_and_uppercase():
    with pytest.raises(ValueError):
        load_lexicon(b"[positive]\nfine\n[negative]\nfine\n")


@pytest.mark.parametrize("entry", ["well-done", "thank you", "a_b"])
def test_lexicon_rejects_an_entry_no_subject_can_match(entry):
    """``sentiment`` reads a subject as its runs of letters and digits, so an
    entry with a hyphen, a space or an underscore could never match, however
    the lexicon is built."""
    with pytest.raises(FormatError, match=repr(entry)):
        load_lexicon(b"[positive]\n" + entry.encode())
    with pytest.raises(FormatError, match=repr(entry)):
        SentimentLexicon(frozenset(["good"]), frozenset([entry]))
    with pytest.raises(FormatError, match=repr(entry)):
        MetricConfig(lexicon=SentimentLexicon(frozenset([entry]), frozenset()))


def test_lexicon_names_its_first_unmatchable_entry_in_sorted_order():
    with pytest.raises(FormatError, match="'a-b'"):
        SentimentLexicon(frozenset(["z z", "good", "a-b"]), frozenset(["x_y"]))


def test_lexicon_lines_end_only_at_a_newline_or_carriage_return():
    """A lexicon file's lines end at ``\\n``, ``\\r\\n`` or ``\\r``, and a leading
    BOM is dropped; ``\\x1c`` and U+2028, which ``str.splitlines`` also splits
    on, stay inside a line."""
    lx = load_lexicon(b"\xef\xbb\xbf# words\r[positive]\r\ngood\rfine\n[negative]\nbad")
    assert (lx.positive, lx.negative) == ({"good", "fine"}, {"bad"})
    for separator in ("\x1c", "\u2028"):
        with pytest.raises(FormatError, match="not one word"):
            load_lexicon(f"[positive]\ngood{separator}fine\n".encode())


def test_lexicon_accepts_a_word_of_any_script():
    lx = load_lexicon("[positive]\nCafé\n[negative]\nошибка\n".encode())
    assert (lx.positive, lx.negative) == ({"café"}, {"ошибка"})
    assert sentiment("RE: café!", lx) == "positive"
    assert sentiment("ошибка 42", lx) == "negative"


def _counting(monkeypatch, name):
    """Replace ``commscore.metrics.<name>`` with a wrapper that counts its calls
    by first argument."""
    calls: Counter = Counter()
    original = getattr(commscore.metrics, name)

    def counted(subject, *args):
        calls[subject] += 1
        return original(subject, *args)

    monkeypatch.setattr(commscore.metrics, name, counted)
    return calls


def test_subject_work_is_done_once_per_distinct_raw_subject(monkeypatch):
    """40 events over 5 recurring raw subjects: reply matching normalizes, and
    emotionality classifies, each distinct raw subject once, alone or inside
    ``compute_metric_vector``; neither does the other's subject work."""
    subjects = ["great job", "Re: great job", "delay problem", "RE: Re: delay problem", ""]
    actors = ["a", "b", "c"]
    events = [ev(f"2012-06-{4 + i // 8:02} {9 + i % 8:02}:00", actors[i % 3],
                 actors[(i + 1) % 3], subject=subjects[i % 5]) for i in range(40)]
    corpus = corpus_of(events)
    assert len(corpus.events) == 40 and {e.subject for e in corpus.events} == set(subjects)
    lx = _lexicon()
    once = Counter(subjects)
    for mode in METRIC_CHOICES["emotionality_mode"]:
        config = MetricConfig(reply_cap=3600, emotionality_mode=mode, lexicon=lx)
        # (the work, whether it normalizes, whether it classifies)
        for run, normalizes, classifies in (
                (lambda: compute_metric_vector(corpus, config), True, True),
                (lambda: match_replies(corpus, 3600), True, False),
                (lambda: emotionality(corpus, lx, mode), False, True)):
            normalized = _counting(monkeypatch, "normalize_subject")
            classified = _counting(monkeypatch, "sentiment")
            run()
            monkeypatch.undo()
            assert normalized == (once if normalizes else Counter())
            assert classified == (once if classifies else Counter())


# ---------------------------------------------------------------------------
# the assembled vector


def test_identical_months_average_to_single_month():
    events = []
    for month in ("06", "07", "08"):
        events += [
            ev(f"2012-{month}-04 09:00", "a", "b", subject=f"s{month}"),
            ev(f"2012-{month}-04 10:00", "b", "c", subject=f"t{month}"),
        ]
    corpus = corpus_of(events)
    vec = compute_metric_vector(corpus)
    assert vec.avg_gbc == Fraction(1, 2)
    assert vec.avg_gdc == 1
    assert vec.avg_density == Fraction(1, 3)
    assert vec.avg_new_actors == 0


def test_empty_corpus_yields_undefined_metrics(summer):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        from commscore.ingest import build_corpus
        corpus = build_corpus([], "t", summer)
    vec = compute_metric_vector(corpus)
    assert vec.avg_gbc is None
    assert vec.avg_new_actors == 0          # three empty windows, nothing new
    assert vec.oscillation_sum == 0
    assert vec.art_median is None
    assert vec.awvci is None
    assert vec.emotionality == 0


def test_monthly_means_skip_silent_months():
    events = [
        ev("2012-06-04 09:00", "a", "b"), ev("2012-06-04 10:00", "b", "c", subject="y"),
        ev("2012-08-06 09:00", "a", "b", subject="z"), ev("2012-08-06 10:00", "b", "c", subject="w"),
    ]
    vec = compute_metric_vector(corpus_of(events))
    assert vec.avg_gbc == Fraction(1, 2)    # July's empty graph not averaged in
    assert vec.avg_density == Fraction(1, 3)


def test_monthly_oscillation_reuses_monthly_betweenness(monkeypatch):
    events = [ev(f"2012-{month:02}-04 09:00", sender, receiver, subject=f"s{month}")
              for month in range(6, 12)
              for sender, receiver in (("ab", "bc", "ca")[month % 3], "db")]
    corpus = corpus_of(events, period=("2012-06-01 00:00", "2012-12-01 00:00"))
    real = commscore.metrics.betweenness_centrality
    expected = leadership_oscillation([real(g) for g in monthly_windows(corpus)])
    calls = []
    monkeypatch.setattr(commscore.metrics, "betweenness_centrality",
                        lambda g: calls.append(g.window) or real(g))
    vec = compute_metric_vector(corpus, MetricConfig(oscillation_window="monthly"))
    assert vec.oscillation_sum == expected > 0
    assert calls == [g.window for g in monthly_windows(corpus)]  # once per month
    with pytest.raises(ValueError, match="granularity"):
        compute_metric_vector(corpus, MetricConfig(oscillation_window="daily"))


@pytest.mark.parametrize("setting, message", [
    ({"oscillation_window": "daily"}, "unknown oscillation granularity: 'daily'"),
    ({"awvci_weighting": "x"}, "unknown AWVCI weighting: 'x'"),
    ({"emotionality_mode": "y"}, "unknown emotionality mode: 'y'"),
    *(({"reply_cap": cap}, f"reply cap must be a positive whole number of seconds, got {cap!r}")
      for cap in (0, -5, 1.5, 3600.0, "3600", True)),
], ids=["oscillation-daily", "awvci-x", "emotionality-y", "cap-0", "cap-minus-5", "cap-1.5",
        "cap-float-3600", "cap-str-3600", "cap-true"])
def test_metric_config_refuses_what_the_command_line_refuses(setting, message):
    """A setting outside its choices, or a reply cap that is not a positive
    integer, fails when the config is made, before any metric can run."""
    with pytest.raises(ValueError, match=re.escape(message)):
        MetricConfig(**setting)
    assert MetricConfig(reply_cap=1).reply_cap == 1


def test_vector_reads_each_events_recipients_once(monkeypatch):
    """Months, weeks and days all come from one walk over the corpus."""
    events = [ev(f"2012-{month:02}-{day:02} {hour:02}:00", sender, to, subject=f"s{day}")
              for month in (6, 7, 8) for day in (4, 12, 20)
              for hour, sender, to in ((9, "a", ["b", "c"]), (10, "b", "a"), (11, "c", "c"))]
    corpus = corpus_of(events)
    expected = compute_metric_vector(corpus)
    reads = []
    real = EmailEvent.recipients
    monkeypatch.setattr(EmailEvent, "recipients",
                        property(lambda event: reads.append(event) or real.fget(event)))
    assert compute_metric_vector(corpus) == expected
    assert sorted(reads, key=corpus.events.index) == list(corpus.events)


def test_awvci_config_switch_only_moves_awvci():
    events = [ev("2012-06-04 09:00", "a", ["b", "c"]),
              ev("2012-06-05 09:00", "b", "a", subject="y")]
    corpus = corpus_of(events)
    default = compute_metric_vector(corpus)
    switched = compute_metric_vector(corpus, MetricConfig(awvci_weighting="actors"))
    assert default.awvci != switched.awvci
    assert default.avg_gbc == switched.avg_gbc
    assert default.oscillation_sum == switched.oscillation_sum
