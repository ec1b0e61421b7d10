"""Hand-derived values for the bundled four-team fixture.

Every number below was worked out on paper from the message tables in
tests/data/fixture (see make_fixture.py for the construction); the golden
report files are written by make_golden.py from ``oracles.metrics_csv`` and
``oracles.reports``.  This suite ties the public API to those hand results.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from commscore.cli import parse_period
from commscore.ingest import build_corpus, parse_events
from commscore.metrics import MetricConfig, compute_metric_vector
from commscore.satisfaction import group_by_team, load_survey, team_satisfaction

FIXTURE = Path(__file__).resolve().parent / "data" / "fixture"
PERIOD = parse_period("2012-06-01..2012-09-01")

# team: (gbc, gdc, density, new actors, oscillation, art, awvci, emotionality)
EXPECTED = {
    "alpha": (Fraction(1, 2), 1, Fraction(1, 2), 0, 0,
              3600, Fraction(26, 81), 2),
    "bravo": (0, 0, Fraction(2, 3), 0, 23, 7200, Fraction(26, 81), 4),
    "carol": (1, 1, Fraction(1, 2), 0, 0, None, 0, 0),
    "delta": (Fraction(1, 2), 1, Fraction(1, 2), Fraction(3, 2), 1,
              1800, Fraction(80, 189), 1),
}


def _vector(team: str):
    with open(FIXTURE / "mail" / f"{team}.csv", "rb") as fh:
        result = parse_events(fh, "csv", default_team=team,
                              source_name=f"{team}.csv")
    assert not result.issues
    corpus = build_corpus(result.events, team, PERIOD)
    return compute_metric_vector(corpus, MetricConfig())


@pytest.mark.parametrize("team", sorted(EXPECTED))
def test_fixture_metrics_match_hand_computation(team):
    vec = _vector(team)
    gbc, gdc, dens, new, osc, art, awvci, emo = EXPECTED[team]
    assert vec.avg_gbc == gbc
    assert vec.avg_gdc == gdc
    assert vec.avg_density == dens
    assert vec.avg_new_actors == new
    assert vec.oscillation_sum == osc
    assert vec.art_median == art
    assert vec.awvci == awvci
    assert vec.emotionality == emo


def test_fixture_survey_satisfaction():
    with open(FIXTURE / "survey.csv", "rb") as fh:
        responses = load_survey(fh, source_name="survey.csv")
    sats = {team: team_satisfaction(rows, team)
            for team, rows in group_by_team(responses).items()}
    assert sats["alpha"].nps == Fraction(100 * (14 - 2), 21)
    assert sats["bravo"].nps == Fraction(100 * (6 - 9), 21)
    assert sats["carol"].nps == Fraction(100 * 18, 21)
    assert sats["alpha"].kpd == 3
    assert sats["bravo"].kpd == 4
    assert sats["carol"].kpd == 2
    assert [t for t, s in sorted(sats.items()) if s.eligible] == \
        ["alpha", "bravo", "carol"]
    assert not sats["delta"].eligible
    assert sats["delta"].n_respondents == 5
