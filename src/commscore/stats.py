"""Pearson correlation with two-tailed significance, and the 8×2 result grid."""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Mapping, Sequence

from ._text import csv_line
from .errors import DegenerateInput, DegenerateSeries, LengthMismatch
from .metrics import METRIC_FIELDS, METRIC_LABELS, MetricVector, spread_parts
from .satisfaction import TeamSatisfaction

ALPHA = 0.05

TARGETS = ("NPS", "KPD")


def _times_power_of_two(value: int, exponent: int) -> float:
    """``value · 2**exponent``, rounded to a float once."""
    return float(value << exponent) if exponent >= 0 else value / (1 << -exponent)


def _half_scale(spread: int) -> int:
    """An ``a`` that puts ``spread · 4**a`` in [1/4, 2), well inside the normal floats."""
    return (1 - spread.bit_length()) // 2


def standard_score(deviation: int, spread: int) -> float:
    """``deviation / √spread`` for a positive integer ``spread``, which is scaled
    by 4**a into the normal floats and ``deviation`` by 2**a: in the normal float
    range such a scaling is exact, so nothing underflows or overflows and the
    quotient is the same as without it."""
    a = _half_scale(spread)
    return _times_power_of_two(deviation, a) / math.sqrt(_times_power_of_two(spread, 2 * a))


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson product-moment coefficient.

    Raises LengthMismatch for unequal lengths, DegenerateSeries for
    constant or too-short (< 3) input and DegenerateInput for an infinite or
    NaN value.  Over each series' common denominator,
    :func:`~commscore.metrics.spread_parts` gives integers and their spreads
    n·Σx² − (Σx)² and n·Σy² − (Σy)²; with cov = n·Σxy − Σx·Σy the denominators
    cancel, and r = cov / √(spread_x·spread_y) is one :func:`standard_score`.
    """
    if len(x) != len(y):
        raise LengthMismatch(f"series lengths differ: {len(x)} vs {len(y)}")
    if len(x) < 3:
        raise DegenerateSeries(f"need at least 3 pairs, got {len(x)}")
    if not all(map(math.isfinite, x)) or not all(map(math.isfinite, y)):
        raise DegenerateInput("correlation needs finite values")
    xs, _, spread_x = spread_parts([v.as_integer_ratio() for v in x])
    ys, _, spread_y = spread_parts([v.as_integer_ratio() for v in y])
    if spread_x == 0 or spread_y == 0:
        raise DegenerateSeries("constant series has no correlation")
    cov = len(xs) * sum(map(mul, xs, ys)) - sum(xs) * sum(ys)
    if cov * cov == spread_x * spread_y:
        return 1.0 if cov > 0 else -1.0
    return max(-1.0, min(1.0, standard_score(cov, spread_x * spread_y)))


def p_value_two_tailed(r: float, n: int) -> float:
    """p = 2·P(T_{n-2} ≥ |t|), t = r·√((n-2)/(1-r²)).

    Evaluated by the finite series for Student's t with whole degrees of
    freedom ν = n-2 (Abramowitz & Stegun 26.7.3–26.7.4), with sin θ = |r| and
    cos²θ = 1-r².  |r| = 1 returns exactly 0; rounding can leave a p near 0
    a few ulps below it, which is clamped to 0.
    """
    if n < 3:
        raise DegenerateInput(f"p-value needs n ≥ 3, got {n}")
    if not abs(r) <= 1:
        raise DegenerateInput(f"|r| must not exceed 1, got {r}")
    if abs(r) == 1:
        return 0.0
    nu, sin, cos2 = n - 2, abs(r), 1.0 - r * r
    if nu % 2:
        p = 1.0 - 2.0 / math.pi * math.asin(sin)
        term, first = 2.0 / math.pi * sin * math.sqrt(cos2), 1
    else:
        p, term, first = 1.0 - sin, sin * cos2 / 2.0, 2
    for k in range(first, nu - 1, 2):
        p -= term
        term *= cos2 * (k + 1) / (k + 2)
    return max(0.0, p)


@dataclass(frozen=True)
class CorrelationResult:
    """One cell of the correlation grid; r/p are None when undefined."""

    metric_name: str
    target: str
    r: float | None
    p: float | None
    n: int
    significant: bool


def correlate_all(vectors: Sequence[MetricVector],
                  sats: Sequence[TeamSatisfaction]) -> list[CorrelationResult]:
    """The 8 metrics × {NPS, KPD} grid over eligible teams.

    A cell is significant when its two-tailed p is below :data:`ALPHA`.
    Missing values are handled by pairwise deletion; cells with fewer than 3
    pairs or a constant series stay undefined instead of being dropped.
    """
    # each eligible team's targets, as floats, converted once
    targets: Mapping[str, tuple[float, float]] = {
        s.team_id: (float(s.nps), float(s.kpd)) for s in sats if s.eligible
    }
    rows = [(vec, targets[vec.team_id]) for vec in vectors if vec.team_id in targets]
    cells: list[CorrelationResult] = []
    for field in METRIC_FIELDS:
        pairs = [(value, ys) for vec, ys in rows
                 if (value := vec.value(field)) is not None]
        xs = [x for x, _ in pairs]
        for column, target in enumerate(TARGETS):
            ys = [y[column] for _, y in pairs]
            try:
                r = pearson(xs, ys)
            except DegenerateSeries:
                cells.append(CorrelationResult(field, target, None, None,
                                               len(xs), False))
                continue
            p = p_value_two_tailed(r, len(xs))
            cells.append(CorrelationResult(field, target, r, p, len(xs), p < ALPHA))
    return cells


def render_correlation_csv(cells: Sequence[CorrelationResult]) -> bytes:
    """CSV mirroring the report table: metric columns, per-target row groups.

    ``cells`` is the full grid that :func:`correlate_all` returns.  Each target
    contributes a group-header row followed by Pearson / Sig. (2-tailed) / N
    sub-rows; significant Pearson cells carry a trailing ``*``.  Undefined r
    and p are empty.
    """
    by_cell = {(c.metric_name, c.target): c for c in cells}
    lines = [csv_line(("target",) + tuple(METRIC_LABELS[f] for f in METRIC_FIELDS))]
    for target in TARGETS:
        row_cells = [by_cell[f, target] for f in METRIC_FIELDS]
        lines.append(csv_line((target,) + ("",) * len(METRIC_FIELDS)))
        pearson_row = []
        sig_row = []
        n_row = [str(cell.n) for cell in row_cells]
        for cell in row_cells:
            if cell.r is None:
                pearson_row.append("")
                sig_row.append("")
                continue
            star = "*" if cell.significant else ""
            pearson_row.append(f"{cell.r:.3f}{star}")
            sig_row.append(f"{cell.p:.3f}")
        lines.append(csv_line(("Pearson",) + tuple(pearson_row)))
        lines.append(csv_line(("Sig. (2-tailed)",) + tuple(sig_row)))
        lines.append(csv_line(("N",) + tuple(n_row)))
    return "".join(lines).encode("utf-8")
