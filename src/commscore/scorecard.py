"""Cohort-relative score cards with expected-direction checks and alerts."""

from __future__ import annotations

import html
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring as _quote
from typing import Mapping, Sequence

from ._text import csv_line, fmt3
from .errors import CohortTooSmall, UnsupportedFormat
from .metrics import METRIC_FIELDS, MetricVector, spread_parts
from .stats import standard_score

#: Expected correlation direction per metric (the score-card legend).
DIRECTIONS: dict[str, str] = {
    "avg_gbc": "+",
    "avg_gdc": "+",
    "avg_density": "+",
    "avg_new_actors": "-",
    "oscillation_sum": "-",
    "art_median": "-",
    "awvci": "+",
    "emotionality": "-",
}

#: Display names for the score-card rows, in fixed report order.
SCORECARD_LABELS: dict[str, str] = {
    "avg_gbc": "Group Betweenness Centrality",
    "avg_gdc": "Group Degree Centrality",
    "avg_density": "Group Density",
    "avg_new_actors": "Average new team members",
    "oscillation_sum": "Leadership Oscillation",
    "art_median": "ART (Median)",
    "awvci": "AWVCI (weighted by #actors)",
    "emotionality": "Emotionality",
}

DEFAULT_ALERT_SIGMA = 1.0


@dataclass(frozen=True)
class MetricScore:
    value: float | None
    z: float | None
    favorable: bool | None
    alert: bool | None


@dataclass(frozen=True)
class ScoreCard:
    team_id: str
    metrics: Mapping[str, MetricScore]
    survey_eligible: bool | None = None


def build_scorecards(cohort: Sequence[MetricVector],
                     *, alert_sigma: float = DEFAULT_ALERT_SIGMA,
                     eligibility: Mapping[str, bool | None] | None = None) -> list[ScoreCard]:
    """Standardize each cohort member's metrics against the cohort (population σ),
    one card per member, sorted by team id.

    z = 0 counts as favorable; an alert fires when z runs against the expected
    direction by more than ``alert_sigma`` (never for inf or NaN).  Metrics
    undefined for the team, or defined for fewer than two members, stay
    unscored.  Per field, :func:`~commscore.metrics.spread_parts` puts the
    defined values over one denominator d as integers k: n·k − Σk is n·d times
    a member's deviation from the mean and the spread n²·d² times the variance,
    so the decisions compare these integers exactly.
    """
    if not cohort:
        return []
    if len(cohort) < 2:
        raise CohortTooSmall(f"cohort of {len(cohort)} cannot be standardized")
    # alert_sigma as an exact ratio; None (no alert) for inf or NaN
    limit = alert_sigma.as_integer_ratio() if alert_sigma < math.inf else None
    teams = sorted(cohort, key=lambda m: m.team_id)
    scores: list[dict[str, MetricScore]] = [{} for _ in teams]
    for field in METRIC_FIELDS:
        values = [team.value(field) for team in teams]
        defined = [v.as_integer_ratio() for v in values if v is not None]
        scored = len(defined) > 1
        if scored:
            ks, _, spread = spread_parts(defined)
            n, total, member = len(ks), sum(ks), iter(ks)
        for card, value in zip(scores, values):
            if value is None or not scored:
                card[field] = MetricScore(value=value, z=None, favorable=None, alert=None)
                continue
            deviation = n * next(member) - total
            # a constant column standardizes every value to z = 0
            z = standard_score(deviation, spread) if spread else 0.0
            favorable = deviation >= 0 if DIRECTIONS[field] == "+" else deviation <= 0
            alert = (not favorable and limit is not None
                     and (deviation * limit[1]) ** 2 > limit[0] ** 2 * spread)
            card[field] = MetricScore(value=value, z=z, favorable=favorable, alert=alert)
    eligibility = eligibility or {}
    return [ScoreCard(team_id=team.team_id, metrics=metrics,
                      survey_eligible=eligibility.get(team.team_id))
            for team, metrics in zip(teams, scores)]


def _round3(value: float | None) -> float | None:
    return None if value is None else round(value, 3)


#: The formats :func:`render` writes, the default first.
SCORECARD_FORMATS = ("json", "csv", "html")


def render(scorecards: Sequence[ScoreCard], format: str = SCORECARD_FORMATS[0], *,
           generated_at: str, config: Mapping[str, object]) -> bytes:
    """Deterministic report bytes in one of :data:`SCORECARD_FORMATS`."""
    if not scorecards:
        raise CohortTooSmall("no scorecards to render")
    if format == "json":
        return _render_json(scorecards, generated_at, config)
    if format == "csv":
        return _render_csv(scorecards)
    if format == "html":
        return _render_html(scorecards, generated_at)
    raise UnsupportedFormat(f"unknown scorecard format: {format!r}")


def _json_scalar(value: object) -> str:
    """``json.dumps(value)`` of one scalar.  ``None``, ``True`` and ``False`` are
    matched by identity, since ``1.0 == True``; a finite float is its ``repr``."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is float and -math.inf < value < math.inf:
        return float.__repr__(value)
    return json.dumps(value, ensure_ascii=False)


def _card_template() -> str:
    """One ``teams`` entry as ``json.dumps(..., indent=2)`` lays it out, with a
    ``%s`` for the team id, its survey eligibility and each metric's four cells."""
    metrics = ",\n".join(
        f'        {_quote(field)}: {{\n          "value": %s,\n          "z": %s,\n'
        f'          "favorable": %s,\n          "alert": %s\n        }}'
        for field in METRIC_FIELDS)
    return ('    {\n      "team_id": %s,\n      "survey_eligible": %s,\n'
            f'      "metrics": {{\n{metrics}\n      }}\n    }}')


_CARD_TEMPLATE = _card_template()


def _render_json(cards: Sequence[ScoreCard], generated_at: str,
                 config: Mapping[str, object]) -> bytes:
    """Byte for byte ``json.dumps(payload, indent=2, ensure_ascii=False) + "\n"``
    of ``{"generated_at", "config" (keys sorted), "teams"}``, each card filled
    into one template; the cards are encoded one at a time and joined once."""
    # the settings are few: dumped alone, then indented one level (a dumped
    # string holds no raw newline)
    settings = json.dumps(dict(sorted(config.items())), indent=2,
                          ensure_ascii=False).replace("\n", "\n  ")
    parts = [(f'{{\n  "generated_at": {_quote(generated_at)},\n'
              f'  "config": {settings},\n  "teams": [\n').encode("utf-8")]
    for card in cards:
        cells = [_quote(card.team_id), _json_scalar(card.survey_eligible)]
        for field in METRIC_FIELDS:
            s = card.metrics[field]
            cells += (_json_scalar(_round3(s.value)), _json_scalar(_round3(s.z)),
                      _json_scalar(s.favorable), _json_scalar(s.alert))
        parts += ((_CARD_TEMPLATE % tuple(cells)).encode("utf-8"), b",\n")
    parts[-1] = b"\n  ]\n}\n"
    return b"".join(parts)


def _bool_cell(flag: bool | None) -> str:
    return "" if flag is None else ("true" if flag else "false")


def _render_csv(cards: Sequence[ScoreCard]) -> bytes:
    lines = [csv_line(("team_id", "metric", "value", "z", "favorable", "alert"))]
    for card in cards:
        for field in METRIC_FIELDS:
            s = card.metrics[field]
            lines.append(csv_line((card.team_id, field, fmt3(s.value), fmt3(s.z),
                                   _bool_cell(s.favorable), _bool_cell(s.alert))))
    return "".join(lines).encode("utf-8")


_HTML_STYLE = (
    "body{font-family:sans-serif;margin:2em}"
    "table{border-collapse:collapse;margin:1em 0}"
    "td,th{border:1px solid #999;padding:4px 10px;text-align:left}"
    "tr.alert td{background:#fdd}"
    "caption{font-weight:bold;text-align:left;padding:4px 0}"
)


def _render_html(cards: Sequence[ScoreCard], generated_at: str) -> bytes:
    parts = [
        "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n",
        "<title>Communication score cards</title>\n",
        f"<style>{_HTML_STYLE}</style>\n</head>\n<body>\n",
        "<h1>Communication score cards</h1>\n",
        f"<p>Generated at {html.escape(generated_at)}</p>\n",
        "<table>\n<caption>Expected direction of correlation</caption>\n",
        "<tr><th>Social Network Metric</th><th>Direction</th></tr>\n",
    ]
    for field in METRIC_FIELDS:
        parts.append(
            f"<tr><td>{html.escape(SCORECARD_LABELS[field])}</td>"
            f"<td>{DIRECTIONS[field]}</td></tr>\n"
        )
    parts.append("</table>\n")
    for card in cards:
        caveat = ""
        if card.survey_eligible is False:
            caveat = " (survey ineligible)"
        parts.append(f"<h2>{html.escape(card.team_id)}{html.escape(caveat)}</h2>\n<table>\n")
        parts.append("<tr><th>Metric</th><th>Value</th><th>z</th>"
                     "<th>Favorable</th><th>Alert</th></tr>\n")
        for field in METRIC_FIELDS:
            s = card.metrics[field]
            row_class = ' class="alert"' if s.alert else ""
            parts.append(
                f"<tr{row_class}><td>{html.escape(SCORECARD_LABELS[field])}</td>"
                f"<td>{fmt3(s.value)}</td><td>{fmt3(s.z)}</td>"
                f"<td>{_bool_cell(s.favorable)}</td><td>{_bool_cell(s.alert)}</td></tr>\n"
            )
        parts.append("</table>\n")
    parts.append("</body>\n</html>\n")
    return "".join(parts).encode("utf-8")
