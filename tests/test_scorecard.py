"""Cohort standardization, direction checks, and report rendering."""

from __future__ import annotations

import json
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from commscore.errors import CohortTooSmall, UnsupportedFormat
from commscore.metrics import METRIC_FIELDS, MetricVector
from commscore.scorecard import (
    DIRECTIONS,
    MetricScore,
    ScoreCard,
    build_scorecards,
    render,
)


def vector(team: str, **overrides) -> MetricVector:
    values = {f: Fraction(1) for f in METRIC_FIELDS}
    values.update(overrides)
    return MetricVector(team_id=team, **values)


def card_of(team: str, cohort, **options) -> ScoreCard:
    """The card of cohort member ``team``, scored with the rest of ``cohort``."""
    return next(c for c in build_scorecards(cohort, **options) if c.team_id == team)


def test_direction_table_is_pinned():
    assert DIRECTIONS == {
        "avg_gbc": "+",
        "avg_gdc": "+",
        "avg_density": "+",
        "avg_new_actors": "-",
        "oscillation_sum": "-",
        "art_median": "-",
        "awvci": "+",
        "emotionality": "-",
    }
    assert list(DIRECTIONS) == list(METRIC_FIELDS)


def test_cohort_mean_is_favorable_with_zero_z():
    cohort = [vector("a", avg_gbc=Fraction(1, 2)),
              vector("b", avg_gbc=Fraction(1, 4)),
              vector("c", avg_gbc=Fraction(3, 4))]
    card = card_of("a", cohort)
    score = card.metrics["avg_gbc"]
    assert score.z == 0.0
    assert score.favorable is True
    assert score.alert is False


def test_oscillation_two_sigma_above_mean_alerts():
    # three teams: 0, 0, and an outlier high oscillation count
    cohort = [vector("a", oscillation_sum=2), vector("b", oscillation_sum=2),
              vector("c", oscillation_sum=11)]
    card = card_of("c", cohort)
    score = card.metrics["oscillation_sum"]
    assert score.z == pytest.approx(math.sqrt(2))
    assert score.favorable is False        # direction is '−', z > 0
    assert score.alert is True             # beyond the default 1.0 σ


def test_gbc_above_mean_is_favorable_without_alert():
    cohort = [vector("a", avg_gbc=Fraction(1, 4)),
              vector("b", avg_gbc=Fraction(1, 2)),
              vector("c", avg_gbc=Fraction(3, 4))]
    card = card_of("c", cohort)
    score = card.metrics["avg_gbc"]
    assert score.z > 0
    assert score.favorable is True and score.alert is False


def test_alert_threshold_is_configurable():
    cohort = [vector("a", art_median=100.0), vector("b", art_median=200.0),
              vector("c", art_median=300.0)]
    strict = card_of("c", cohort, alert_sigma=0.5)
    lax = card_of("c", cohort, alert_sigma=2.0)
    assert strict.metrics["art_median"].alert is True
    assert lax.metrics["art_median"].alert is False
    for never in (math.inf, math.nan):
        card = card_of("c", cohort, alert_sigma=never)
        assert card.metrics["art_median"].alert is False


def test_z_scores_sum_to_zero_per_metric():
    cohort = [vector(f"t{i}", avg_density=Fraction(i + 1, 10),
                     oscillation_sum=i * i) for i in range(5)]
    cards = build_scorecards(cohort)
    for field in ("avg_density", "oscillation_sum"):
        total = sum(c.metrics[field].z for c in cards)
        assert total == pytest.approx(0.0, abs=1e-12)


def test_undefined_metric_stays_unscored():
    cohort = [vector("a", art_median=None), vector("b", art_median=200.0),
              vector("c", art_median=300.0)]
    card = card_of("a", cohort)
    score = card.metrics["art_median"]
    assert score.value is None and score.z is None
    assert score.favorable is None and score.alert is None
    # the defined teams are still standardized against each other
    other = card_of("b", cohort)
    assert other.metrics["art_median"].z == pytest.approx(-1.0)


def test_constant_cohort_column_scores_zero_z():
    cohort = [vector("a"), vector("b"), vector("c")]
    card = card_of("a", cohort)
    assert card.metrics["avg_gbc"].z == 0.0
    assert card.metrics["avg_gbc"].favorable is True


def test_tiny_column_is_standardized_without_underflow():
    """Squared deviations of 1e-200 underflow in floats; σ comes from exact parts."""
    cohort = [vector("alpha", avg_gbc=1e-200), vector("bravo", avg_gbc=2e-200),
              vector("carol", avg_gbc=3e-200)]
    score = build_scorecards(cohort)[0].metrics["avg_gbc"]
    assert score.z == pytest.approx(-math.sqrt(1.5))
    assert (round(score.z, 3), score.favorable, score.alert) == (-1.225, False, True)


def test_decisions_come_from_the_exact_mean():
    """fsum/n rounds the mean of this column to 1.0, which would give alpha and
    beta z 0 and no alert; exactly, they lie 1/√2 σ below the mean."""
    cohort = [vector("alpha", avg_gbc=1.0), vector("beta", avg_gbc=1.0),
              vector("gamma", avg_gbc=1.0000000000000002)]
    for alert_sigma, alerts in ((1.0, False), (0.5, True)):
        alpha, beta, gamma = (c.metrics["avg_gbc"]
                              for c in build_scorecards(cohort, alert_sigma=alert_sigma))
        assert alpha == beta
        assert (round(alpha.z, 3), alpha.favorable, alpha.alert) == (-0.707, False, alerts)
        assert (round(gamma.z, 3), gamma.favorable, gamma.alert) == (1.414, True, False)


@pytest.mark.parametrize("low, high", [(0.1, 0.3), (0.2, 0.9), (1 / 3, 2 / 3)])
def test_z_equal_to_alert_sigma_does_not_alert(low, high):
    """Four equal values and one other: the odd one lies exactly 2σ from the
    mean and the others exactly σ/2, whatever the two values."""
    cohort = [vector(f"t{i}", art_median=low) for i in range(4)] + [vector("u", art_median=high)]
    for alert_sigma, team, z in ((2.0, "u", 2.0), (0.5, "t0", -0.5)):
        for sigma, alerts in ((alert_sigma, False), (alert_sigma * 0.999, z > 0)):
            score = card_of(team, cohort, alert_sigma=sigma).metrics["art_median"]
            assert (score.z, score.favorable, score.alert) == (z, z <= 0, alerts)


# columns of dyadic values that stay normal floats under a scaling by 2**±900
_column = st.lists(st.builds(math.ldexp, st.integers(-2**20, 2**20), st.integers(-40, 40)),
                   min_size=2, max_size=7)


def _decisions(column, alert_sigma):
    cohort = [vector(f"t{i}", avg_gbc=v, art_median=v) for i, v in enumerate(column)]
    cards = build_scorecards(cohort, alert_sigma=alert_sigma)
    return [(s.z, s.favorable, s.alert) for card in cards
            for s in (card.metrics["avg_gbc"], card.metrics["art_median"])]


@given(_column, st.integers(-900, 900), st.sampled_from([0.5, 1.0, 1.5]))
@settings(max_examples=200)
def test_scaling_a_column_by_a_power_of_two_changes_no_score(column, k, alert_sigma):
    scaled = [math.ldexp(v, k) for v in column]
    assert _decisions(scaled, alert_sigma) == _decisions(column, alert_sigma)


@given(st.one_of(_column, st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                   min_size=2, max_size=7)),
       st.sampled_from([0.5, 1.0, 1.5]))
@example([1.0, 1.0, 1.0000000000000002], 0.5)
# the z of 0.0 underflows to -0.0, but the value still lies below the mean
@example([-1.7976931348623157e308, 0.0, 1.7976931348623157e308, 5e-324], 1.0)
@settings(max_examples=300)
def test_scores_equal_the_fraction_mean_and_variance(column, alert_sigma):
    mean, var = oracles.mean_and_variance(column)
    decisions = _decisions(column, alert_sigma)
    for value, (gbc, art) in zip(column, zip(decisions[::2], decisions[1::2])):
        deviation = Fraction(value) - mean
        beyond = deviation ** 2 > Fraction(alert_sigma) ** 2 * var
        # a few roundings: relative, or of subnormal size for a subnormal z
        assert gbc[0] == pytest.approx(oracles.z_score(value, column), rel=1e-15, abs=1e-322)
        assert art[0] == gbc[0]
        assert gbc[1:] == (deviation >= 0 or var == 0, deviation < 0 and beyond)
        assert art[1:] == (deviation <= 0 or var == 0, deviation > 0 and beyond)


def test_cohort_of_one_is_rejected():
    with pytest.raises(CohortTooSmall):
        build_scorecards([vector("a")])


def test_members_with_gaps_are_scored_in_team_order():
    """Cards come sorted by team id, and each defined value is scored against
    the defined values of its field, whatever the cohort's order and gaps."""
    cohort = [vector("d", art_median=None, avg_gbc=Fraction(1, 3), awvci=None),
              vector("b", avg_gbc=Fraction(2, 7), oscillation_sum=5, awvci=None),
              vector("a", art_median=None, avg_gbc=None, awvci=Fraction(1, 9)),
              vector("c", avg_gbc=Fraction(5, 6), oscillation_sum=0, awvci=None)]
    cards = build_scorecards(cohort, alert_sigma=0.5, eligibility={"a": True, "c": False})
    assert [(c.team_id, c.survey_eligible) for c in cards] == [
        ("a", True), ("b", None), ("c", False), ("d", None)]
    for field in METRIC_FIELDS:
        column = [v for v in (m.value(field) for m in cohort) if v is not None]
        for card, team in zip(cards, sorted(cohort, key=lambda m: m.team_id)):
            score = card.metrics[field]
            assert score.value == team.value(field)
            if score.value is None or len(column) < 2:
                assert (score.z, score.favorable, score.alert) == (None, None, None)
            else:
                assert score.z == pytest.approx(oracles.z_score(score.value, column),
                                                 rel=1e-15)


# ---------------------------------------------------------------------------
# rendering


def _cards():
    cohort = [vector("a", avg_gbc=Fraction(1, 4), oscillation_sum=9),
              vector("b", avg_gbc=Fraction(1, 2), oscillation_sum=3),
              vector("c", avg_gbc=Fraction(3, 4), oscillation_sum=1)]
    return build_scorecards(cohort, eligibility={"a": True, "b": False})


def test_rendering_same_input_twice_is_byte_identical():
    stamp = "2012-10-01T00:00:00Z"
    config = {"alert_sigma": 1.0}
    for format in ("json", "csv", "html"):
        first = render(_cards(), format, generated_at=stamp, config=config)
        second = render(_cards(), format, generated_at=stamp, config=config)
        assert first == second


def test_json_schema_round_trips():
    blob = render(_cards(), "json", generated_at="2012-10-01T00:00:00Z",
                  config={"alert_sigma": 1.0})
    payload = json.loads(blob)
    assert set(payload) == {"generated_at", "config", "teams"}
    assert [t["team_id"] for t in payload["teams"]] == ["a", "b", "c"]
    first = payload["teams"][0]
    assert first["survey_eligible"] is True
    assert payload["teams"][1]["survey_eligible"] is False
    assert payload["teams"][2]["survey_eligible"] is None
    for field in METRIC_FIELDS:
        cell = first["metrics"][field]
        assert set(cell) == {"value", "z", "favorable", "alert"}


# the values the JSON writer must tell apart: 1.0 and 1 are not true, 0.0 and
# 0 not false, and NaN and the infinities are written as json writes them
_cells = st.one_of(
    st.sampled_from([None, 0.0, -0.0, 1.0, 0, 1, -7, math.nan, math.inf, -math.inf,
                     5e-324, 1e16, -1e16]),
    st.floats(), st.integers(-10**20, 10**20))
_flags = st.sampled_from([True, False, None])
_team_ids = st.one_of(
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u2028\u2029", "équipe ☃", "", "a\nb"]),
    st.text())
_settings = st.fixed_dictionaries(
    {"period": st.one_of(st.none(), st.fixed_dictionaries(
        {"start": st.text(), "end": st.text()}))},
    optional={"alert_sigma": st.one_of(st.floats(), st.integers()), "strict": st.booleans(),
              "lexicon": st.text(), "fingerprint": st.text(), "reply_cap": st.integers()})
_score_cards = st.lists(st.builds(
    ScoreCard, _team_ids,
    st.fixed_dictionaries({field: st.builds(MetricScore, _cells, _cells, _flags, _flags)
                           for field in METRIC_FIELDS}),
    _flags), min_size=1, max_size=4)


def _json_report(cards, generated_at, config) -> bytes:
    """The score-card report as ``json.dumps`` writes it, for comparison."""
    def rounded(value):
        return None if value is None else round(value, 3)

    def cell(s: MetricScore) -> dict:
        return {"value": rounded(s.value), "z": rounded(s.z),
                "favorable": s.favorable, "alert": s.alert}

    payload = {
        "generated_at": generated_at,
        "config": dict(sorted(config.items())),
        "teams": [{"team_id": card.team_id, "survey_eligible": card.survey_eligible,
                   "metrics": {field: cell(card.metrics[field]) for field in METRIC_FIELDS}}
                  for card in cards],
    }
    return (json.dumps(payload, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


@given(_score_cards, st.text(), _settings)
@example(_cards(), "2012-10-01T00:00:00Z", {"period": None, "alert_sigma": 1.0})
@settings(max_examples=300)
def test_json_render_equals_json_dumps_of_the_report(cards, generated_at, config):
    assert render(cards, "json", generated_at=generated_at, config=config) == \
        _json_report(cards, generated_at, config)


def test_json_render_memory_is_bounded_by_its_output():
    """The JSON report of 300 cards peaks at a small multiple of its own bytes:
    cards are written one at a time, not as one payload for ``json``'s encoder."""
    cohort = [vector(f"team{i:03d}", **{field: Fraction(i * (k + 3) % 97, 89 + k)
                                        for k, field in enumerate(METRIC_FIELDS)})
              for i in range(300)]
    cards = build_scorecards(cohort, eligibility={f"team{i:03d}": i % 3 == 0
                                                  for i in range(0, 300, 2)})
    config = {"period": {"start": "2012-06-01T00:00:00Z", "end": "2012-09-01T00:00:00Z"},
              "alert_sigma": 1.0}
    render(cards, "json", generated_at="2012-10-01T00:00:00Z", config=config)
    tracemalloc.start()
    try:
        blob = render(cards, "json", generated_at="2012-10-01T00:00:00Z", config=config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(blob), (peak, len(blob))


def test_html_contains_all_rows_in_order():
    blob = render(_cards(), "html", generated_at="2012-10-01T00:00:00Z",
                  config={}).decode()
    labels = ["Group Betweenness Centrality", "Group Degree Centrality",
              "Group Density", "Average new team members",
              "Leadership Oscillation", "ART (Median)",
              "AWVCI (weighted by #actors)", "Emotionality"]
    positions = [blob.index(label) for label in labels]
    assert positions == sorted(positions)
    assert blob.count("Group Betweenness Centrality") == 4  # legend + 3 teams


def test_csv_render_has_one_row_per_team_metric():
    blob = render(_cards(), "csv", generated_at="x", config={}).decode()
    lines = blob.strip().split("\n")
    assert lines[0] == "team_id,metric,value,z,favorable,alert"
    assert len(lines) == 1 + 3 * len(METRIC_FIELDS)


def test_unknown_format_rejected():
    with pytest.raises(UnsupportedFormat):
        render(_cards(), "pdf", generated_at="x", config={})
    with pytest.raises(CohortTooSmall):
        render([], "json", generated_at="x", config={})
