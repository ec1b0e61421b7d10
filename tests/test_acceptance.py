"""Acceptance gate: six end-to-end checks, one printed verdict line each.

Run with ``pytest -v tests/test_acceptance.py``.  The verdict lines are
written to the unbuffered real stdout so they survive pytest's capture.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from random import Random
from types import MappingProxyType

import pytest

from commscore.cli import main
from commscore.ingest import Period, build_corpus
from commscore.metrics import (
    MetricConfig,
    METRIC_FIELDS,
    betweenness_centrality,
    compute_metric_vector,
    contribution_index,
    degree_centrality,
    density,
    group_centralization,
    match_replies,
    WindowGraph,
)
from commscore.satisfaction import (
    SurveyResponse,
    classify_respondent,
    nps,
    team_satisfaction,
)
from commscore.scorecard import DIRECTIONS
from commscore.stats import correlate_all, pearson, p_value_two_tailed
from commscore.synth import SynthSpec, generate_survey_rows, generate_team_events, planted_effects

import oracles
from conftest import corpus_of, day_graphs, day_tallies, ev, ts

TESTS = Path(__file__).resolve().parent
FIXTURE = TESTS / "data" / "fixture"
GOLDEN = TESTS / "data" / "golden"


def _announce(capfd, number: int, summary: str, status: str) -> None:
    with capfd.disabled():
        print(f"\nCRITERION {number} ({summary}): {status}",
              file=sys.stdout, flush=True)


@contextmanager
def verdict(capfd, number: int, summary: str):
    """Emit one PASS/FAIL line per criterion past pytest's capture."""
    try:
        yield
    except BaseException:
        _announce(capfd, number, summary, "FAIL")
        raise
    else:
        _announce(capfd, number, summary, "PASS")


# ---------------------------------------------------------------------------
# criterion 1: published significance table reproduced from (r, n) alone

PUBLISHED_N = 13
PUBLISHED_CELLS = [
    # (r, two-tailed significance) for every metric × {NPS, KPD} cell
    (0.503, 0.080), (0.454, 0.119), (0.402, 0.173), (-0.454, 0.119),
    (-0.604, 0.029), (-0.414, 0.159), (0.418, 0.156), (-0.440, 0.132),
    (0.645, 0.017), (0.609, 0.027), (0.496, 0.085), (-0.579, 0.038),
    (-0.644, 0.018), (-0.533, 0.061), (0.495, 0.085), (-0.572, 0.041),
]


def test_criterion_1_pvalues_match_published_table(capfd):
    with verdict(capfd, 1, "p-values of the published table within ±0.002"):
        start = time.perf_counter()
        for r, expected in PUBLISHED_CELLS:
            p = p_value_two_tailed(r, PUBLISHED_N)
            assert abs(p - expected) <= 0.002, (r, p, expected)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


# ---------------------------------------------------------------------------
# criterion 2: betweenness equals exhaustive path enumeration, exactly


def _random_window_graph(rng: Random) -> WindowGraph:
    n = rng.randint(2, 8)
    nodes = [f"n{i}" for i in range(n)]
    p = rng.choice((0.1, 0.2, 0.35, 0.6, 0.85))
    edges = {(a, b): rng.randint(1, 3)
             for a in nodes for b in nodes if a != b and rng.random() < p}
    window = Period(ts("2012-06-01 00:00"), ts("2012-07-01 00:00"))
    return WindowGraph(window=window, nodes=frozenset(nodes),
                       edges=MappingProxyType(edges))


def test_criterion_2_betweenness_vs_enumeration(capfd):
    with verdict(capfd, 2, "Brandes == path enumeration on 1000 random graphs"):
        rng = Random(20120601)
        start = time.perf_counter()
        for _ in range(1000):
            g = _random_window_graph(rng)
            expected = oracles.enumeration_betweenness(g.nodes, g.edges)
            assert betweenness_centrality(g).values == expected
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 3: contribution index and NPS against their closed forms


def _respondent(team: str, i: int, answer: int) -> SurveyResponse:
    return SurveyResponse(team_id=team, respondent_id=f"r{i}",
                          nps_answer=answer,
                          kpd_answers=tuple(Fraction(3) for _ in range(8)))


def test_criterion_3_contribution_index_and_nps_formulas(capfd):
    with verdict(capfd, 3, "contribution-index grid and sampled NPS multisets"):
        for sent, received in itertools.product(range(50), range(50)):
            if sent == 0 and received == 0:
                continue
            assert contribution_index(sent, received) == \
                oracles.ci_formula(sent, received)
        for k in range(1, 50):
            assert contribution_index(k, 0) == 1
            assert contribution_index(0, k) == -1

        rng = Random(16091)
        for _ in range(10_000):
            answers = [rng.randint(0, 10) for _ in range(rng.randint(1, 6))]
            responses = [_respondent("t", i, a) for i, a in enumerate(answers)]
            assert nps(responses) == oracles.reichheld_nps(answers)


# ---------------------------------------------------------------------------
# criterion 4: planted-effect synthetic cohort and a null cohort


def _cohort(seed: int, effects: dict[str, float]):
    spec = SynthSpec(teams=13, months=3, respondents=25, seed=seed,
                     effects=effects)
    period = spec.period()
    vectors = []
    for index, team in enumerate(spec.team_ids()):
        corpus = build_corpus(generate_team_events(spec, index), team, period)
        vectors.append(compute_metric_vector(corpus, MetricConfig()))
    responses = [
        SurveyResponse(team_id=team, respondent_id=rid, nps_answer=answer,
                       kpd_answers=tuple(Fraction(v) for v in kpds))
        for team, rid, answer, kpds in generate_survey_rows(spec)
    ]
    by_team: dict[str, list[SurveyResponse]] = {}
    for resp in responses:
        by_team.setdefault(resp.team_id, []).append(resp)
    sats = [team_satisfaction(rows, team) for team, rows in by_team.items()]
    return correlate_all(vectors, sats)


def _binomial_band(n: int, p: float, mass: float = 0.999) -> tuple[int, int]:
    """Central interval of a Binomial(n, p) holding ≥ ``mass`` probability."""
    tail = (1 - mass) / 2
    cdf = 0.0
    lo = hi = None
    for k in range(n + 1):
        cdf += math.comb(n, k) * p**k * (1 - p) ** (n - k)
        if lo is None and cdf > tail:
            lo = k
        if hi is None and cdf >= 1 - tail:
            hi = k
            break
    return lo, n if hi is None else hi


def test_criterion_4_planted_and_null_cohorts(capfd):
    with verdict(capfd, 4, "planted directions significant, null near 5%"):
        start = time.perf_counter()

        planted = _cohort(seed=7, effects=planted_effects())
        assert len(planted) == 16
        for cell in planted:
            assert cell.r is not None, cell
            wanted = DIRECTIONS[cell.metric_name]
            assert (cell.r > 0) == (wanted == "+"), \
                (cell.metric_name, cell.target, cell.r)
            assert cell.p < 0.05, (cell.metric_name, cell.target, cell.p)

        defined = 0
        false_hits = 0
        for seed in range(100, 120):
            for cell in _cohort(seed=seed, effects={}):
                if cell.r is None:
                    continue
                defined += 1
                false_hits += cell.significant
        lo, hi = _binomial_band(defined, 0.05)
        assert lo <= false_hits <= hi, (false_hits, defined, lo, hi)

        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 5: cross-module invariant sampler (full suites live per module)


def _range_ok(value, lo=0, hi=1) -> bool:
    return lo <= value <= hi


def test_criterion_5_invariant_sampler(capfd):
    with verdict(capfd, 5, "range, conservation, determinism, boundary invariants"):
        rng = Random(5)
        for _ in range(50):
            g = _random_window_graph(rng)
            bc = betweenness_centrality(g).values
            assert all(_range_ok(v) for v in bc.values())
            assert _range_ok(group_centralization(betweenness_centrality(g)))
            assert _range_ok(group_centralization(degree_centrality(g)))
            assert _range_ok(density(g))

        events = [
            ev("2012-06-04 09:00", "a", ["b", "c"], cc=["d"]),
            ev("2012-06-04 10:00", "b", ["a"]),
            ev("2012-06-05 11:00", "c", ["a", "b"]),
        ]
        tallies = [day_tallies(day) for day in day_graphs(corpus_of(events))]
        assert tallies == oracles.daily_tallies(events)
        for _, sent, received, total in tallies:
            assert sum(sent.values()) == sum(received.values()) == total

        corpus = corpus_of(events)
        first = compute_metric_vector(corpus, MetricConfig())
        again = compute_metric_vector(corpus, MetricConfig())
        shuffled = corpus_of(list(reversed(events)))
        permuted = compute_metric_vector(shuffled, MetricConfig())
        for field in METRIC_FIELDS:
            assert first.value(field) == again.value(field) \
                == permuted.value(field)

        xs = [1.0, 2.0, 4.0, 8.0]
        ys = [3.0, 1.0, 4.0, 1.0]
        base = pearson(xs, ys)
        assert pearson(xs, [5 * y + 2 for y in ys]) == pytest.approx(base)
        assert pearson(xs, [-2 * y for y in ys]) == pytest.approx(-base)

        assert classify_respondent(6) == "detractor"
        assert classify_respondent(7) == "passive"
        assert classify_respondent(8) == "passive"
        assert classify_respondent(9) == "promoter"

        twenty = [_respondent("t", i, 9) for i in range(20)]
        assert not team_satisfaction(twenty, "t").eligible
        assert team_satisfaction(twenty + [_respondent("t", 20, 9)], "t").eligible

        cap = 7 * 86400
        original = ev("2012-06-04 09:00", "a", ["b"], subject="specs")
        at_cap = ev("2012-06-11 09:00", "b", ["a"], subject="Re: specs")
        corpus_at_cap = corpus_of([original, at_cap],
                                  period=("2012-06-01 00:00", "2012-07-01 00:00"))
        assert [p.latency for p in match_replies(corpus_at_cap, cap)] == [cap]
        past = ev("2012-06-11 09:01", "b", ["a"], subject="Re: specs")
        corpus_past = corpus_of([original, past],
                                period=("2012-06-01 00:00", "2012-07-01 00:00"))
        assert match_replies(corpus_past, cap) == []


# ---------------------------------------------------------------------------
# criterion 6: bundled fixture reproduces the golden reports byte for byte


def test_criterion_6_golden_pipeline(tmp_path, capfd):
    with verdict(capfd, 6, "pipeline output byte-identical to golden files"):
        mail = sorted((FIXTURE / "mail").glob("*.csv"))
        corpus = tmp_path / "corpus"
        metrics = tmp_path / "metrics"
        report = tmp_path / "report"
        assert main(["ingest", *map(str, mail),
                     "--period", "2012-06-01..2012-09-01",
                     "--out", str(corpus)]) == 0
        assert main(["analyze", str(corpus), "--out", str(metrics)]) == 0
        assert main(["correlate", str(metrics / "metrics.csv"),
                     str(FIXTURE / "survey.csv"), "--out", str(report)]) == 0
        produced = {
            "metrics.csv": metrics / "metrics.csv",
            "correlation.csv": report / "correlation.csv",
            "scorecard.json": report / "scorecard.json",
        }
        for name, path in produced.items():
            assert path.read_bytes() == (GOLDEN / name).read_bytes(), \
                f"{name} deviates from golden"
