"""Pearson r, two-tailed p-values, and the correlation grid."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from commscore.errors import DegenerateInput, DegenerateSeries, LengthMismatch
from commscore.metrics import METRIC_FIELDS, MetricVector, spread_parts
from commscore.satisfaction import TeamSatisfaction
from commscore.stats import (
    correlate_all,
    p_value_two_tailed,
    pearson,
    render_correlation_csv,
)

import oracles


def is_exact(x, y) -> bool:
    """True when |r| = 1 holds in exact rational arithmetic."""
    cov, varx, vary = oracles.pearson_parts(x, y)
    return varx != 0 and vary != 0 and cov * cov == varx * vary


# ---------------------------------------------------------------------------
# pearson


def test_identity_series_correlates_perfectly():
    assert pearson([1, 2, 3], [1, 2, 3]) == 1.0


def test_negative_affine_map_is_minus_one():
    x = [1.0, 2.0, 5.0, 7.0]
    assert pearson(x, [-2 * v + 7 for v in x]) == -1.0


def test_hand_evaluated_example():
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)


def test_pearson_agrees_with_reference_formula():
    x = [0.5, 1.5, 2.0, 4.0, 4.5, 7.25]
    y = [2.0, 1.0, 3.5, 3.0, 5.5, 6.0]
    assert pearson(x, y) == pytest.approx(oracles.pearson_r(x, y), abs=1e-12)


def test_degenerate_series_rejected():
    with pytest.raises(DegenerateSeries):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(DegenerateSeries):
        pearson([1, 2], [1, 2])
    with pytest.raises(LengthMismatch):
        pearson([1, 2, 3], [1, 2])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_values_are_degenerate_input(bad):
    with pytest.raises(DegenerateInput):
        pearson([1.0, 2.0, bad], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateInput):
        pearson([1.0, 2.0, 3.0], [bad, 2.0, 3.0])


_series = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False).map(lambda v: round(v, 3)),
    min_size=3, max_size=10)


@given(_series, st.floats(min_value=0.1, max_value=9.0),
       st.floats(min_value=-20, max_value=20))
@settings(max_examples=80)
def test_r_is_invariant_under_positive_affine_maps(y, scale, shift):
    x = list(range(len(y)))
    assume(len(set(y)) > 1)
    base = pearson(x, y)
    rescaled = pearson(x, [scale * v + shift for v in y])
    assert rescaled == pytest.approx(base, abs=1e-9)
    assert pearson(x, [-v for v in y]) == pytest.approx(-base, abs=1e-12)


@given(_series)
def test_r_never_leaves_the_unit_interval(y):
    x = list(range(len(y)))
    assume(len(set(y)) > 1)
    assert -1.0 <= pearson(x, y) <= 1.0


def test_exactness_detects_rational_collinearity():
    x = [1.0, 2.0, 3.0]
    assert is_exact(x, [v / 4 for v in x])     # exactly representable slope
    assert not is_exact(x, [1.0, 2.0, 3.5])


def test_tiny_series_do_not_underflow():
    # n·Σx² − (Σx)² is about 1e-399 here, below the smallest float
    assert pearson([1e-200, 2e-200, 4e-200], [1, 2, 5]) == \
        pytest.approx(pearson([1, 2, 4], [1, 2, 5]), abs=1e-15)


#: Metric-like floats: either sign, from 1e-300 to 1e15, with 0 and -0.0.
_float = st.one_of(
    st.builds(lambda v, negative: -v if negative else v,
              st.floats(min_value=1e-300, max_value=1e15), st.booleans()),
    st.sampled_from([0.0, -0.0]),
)
#: Any value the old per-element ``Fraction`` sums accepted: integers, floats
#: and fractions whose denominators are not powers of two.
_value = st.one_of(st.integers(-10**6, 10**6), _float,
                   st.fractions(min_value=-10**6, max_value=10**6, max_denominator=60))


@st.composite
def _series_pair(draw, min_size=0, values=_value):
    n = draw(st.integers(min_size, 12))
    return (draw(st.lists(values, min_size=n, max_size=n)),
            draw(st.lists(_value, min_size=n, max_size=n)))


@given(st.lists(_value, min_size=1, max_size=12))
@example([1e-300, -0.0, 1e15])
@example([Fraction(1, 3), 0.1, -7])
@settings(max_examples=300)
def test_spread_parts_put_each_ratio_over_one_denominator(values):
    """Each ``k/d`` is its input ratio exactly, and the spread is n²·d² times
    the population variance."""
    ks, d, spread = spread_parts([v.as_integer_ratio() for v in values])
    exact = [Fraction(v) for v in values]
    assert [Fraction(k, d) for k in ks] == exact
    assert spread == len(exact) ** 2 * d * d * oracles.population_variance(exact)


@given(_series_pair(min_size=3))
@example(([1e-300, -0.0, 1e15], [3, -0.0, 0.5]))
@example(([1.0, 2.0, 4.0], [1, 2, 5]))
@settings(max_examples=300)
def test_pearson_is_within_two_ulps_of_a_50_digit_r(pair):
    x, y = pair
    cov, varx, vary = oracles.pearson_parts(x, y)
    assume(varx != 0 and vary != 0)
    with mpmath.workdps(50):
        exact = float(mpmath.mpf(cov.numerator) / cov.denominator / mpmath.sqrt(
            mpmath.mpf(varx.numerator) / varx.denominator
            * mpmath.mpf(vary.numerator) / vary.denominator))
    assert abs(pearson(x, y) - exact) <= 2 * math.ulp(exact)


@given(st.lists(st.integers(-10**6, 10**6), min_size=3, max_size=12, unique=True),
       st.integers(-2**20, 2**20).filter(bool), st.integers(-2**20, 2**20),
       st.integers(-1074, 30))
@settings(max_examples=200)
def test_collinear_series_take_the_exact_path(ints, slope, shift, exponent):
    x = [math.ldexp(v, exponent) for v in ints]   # exact, subnormals included
    y = [slope * v + shift for v in ints]
    assert is_exact(x, y)
    assert pearson(x, y) == math.copysign(1.0, slope)


@st.composite
def _scaled_case(draw):
    """(x, y, k) with every x·2**k a normal float or zero."""
    x, y = draw(_series_pair(min_size=3, values=_float))
    exponents = [math.frexp(v)[1] for v in x if v]
    k = draw(st.integers(sys.float_info.min_exp - min(exponents, default=0),
                         sys.float_info.max_exp - max(exponents, default=0)))
    return x, y, k


@given(_scaled_case())
@example(([1.0, 2.0, 4.0], [1, 2, 5], -700))   # varx of the scaled x is about 5e-421
@settings(max_examples=300)
def test_r_is_exactly_invariant_under_power_of_two_scaling(case):
    x, y, k = case
    assume(len(set(x)) > 1 and len(set(y)) > 1)
    assert pearson([math.ldexp(v, k) for v in x], y) == pearson(x, y)


# ---------------------------------------------------------------------------
# p-values

PRINTED_CELLS = [
    # (r, printed two-tailed significance), all at n = 13
    (0.503, 0.080), (0.454, 0.119), (0.402, 0.173), (-0.454, 0.119),
    (-0.604, 0.029), (-0.414, 0.159), (0.418, 0.156), (-0.440, 0.132),
    (0.645, 0.017), (0.609, 0.027), (0.496, 0.085), (-0.579, 0.038),
    (-0.644, 0.018), (-0.533, 0.061), (0.495, 0.085), (-0.572, 0.041),
]


@pytest.mark.parametrize("r,printed", PRINTED_CELLS)
def test_published_significance_values_reproduce(r, printed):
    assert p_value_two_tailed(r, 13) == pytest.approx(printed, abs=0.002)


def test_p_value_edge_cases():
    assert p_value_two_tailed(0.0, 13) == pytest.approx(1.0)
    assert p_value_two_tailed(1.0, 13) == 0.0
    assert p_value_two_tailed(-1.0, 5) == 0.0
    with pytest.raises(DegenerateInput):
        p_value_two_tailed(0.5, 2)
    with pytest.raises(DegenerateInput):
        p_value_two_tailed(1.5, 13)
    with pytest.raises(DegenerateInput):  # NaN is no correlation, not p = 0
        p_value_two_tailed(math.nan, 5)


@given(st.floats(min_value=-0.999, max_value=0.999), st.integers(3, 40))
@settings(max_examples=100)
def test_p_is_symmetric_in_sign(r, n):
    assert p_value_two_tailed(r, n) == pytest.approx(p_value_two_tailed(-r, n),
                                                     abs=1e-12)


@given(st.integers(3, 30))
def test_p_decreases_in_abs_r(n):
    grid = [i / 20 for i in range(20)]
    values = [p_value_two_tailed(r, n) for r in grid]
    assert all(a >= b for a, b in zip(values, values[1:]))


@given(st.floats(min_value=0.05, max_value=0.95))
def test_p_decreases_in_n(r):
    values = [p_value_two_tailed(r, n) for n in range(3, 30)]
    assert all(a >= b for a, b in zip(values, values[1:]))


@given(st.floats(min_value=-0.99, max_value=0.99), st.integers(3, 400))
@settings(max_examples=200)
def test_p_matches_incomplete_beta_oracle(r, n):
    assert p_value_two_tailed(r, n) == pytest.approx(oracles.student_t_p(r, n),
                                                     abs=1e-12)


@given(st.floats(min_value=-1, max_value=1), st.integers(3, 600))
@example(0.853013247571732, 151)  # the unclamped series ends at -2.2e-16
@settings(max_examples=200)
def test_p_stays_in_the_unit_interval(r, n):
    assert 0.0 <= p_value_two_tailed(r, n) <= 1.0


# ---------------------------------------------------------------------------
# the grid


def _vector(team: str, value: float | None) -> MetricVector:
    filled: dict[str, Fraction | None] = {f: Fraction(1) for f in METRIC_FIELDS}
    filled["avg_gbc"] = None if value is None else \
        Fraction(value).limit_denominator(10**6)
    return MetricVector(team_id=team, **filled)


def _sat(team: str, score: float, eligible: bool = True) -> TeamSatisfaction:
    f = Fraction(score).limit_denominator(10**6)
    return TeamSatisfaction(team_id=team, nps=f, kpd=f / 20,
                            n_respondents=21 if eligible else 5, eligible=eligible)


def test_grid_has_sixteen_cells_in_fixed_order():
    vectors = [_vector(f"t{i}", float(i)) for i in range(4)]
    sats = [_sat(f"t{i}", 10.0 * i + (i % 2)) for i in range(4)]
    cells = correlate_all(vectors, sats)
    assert [(c.metric_name, c.target) for c in cells] == [
        (f, t) for f in METRIC_FIELDS for t in ("NPS", "KPD")
    ]


def test_metric_equal_to_target_is_exact():
    vectors = [_vector(f"t{i}", float(i + 1)) for i in range(13)]
    sats = [_sat(f"t{i}", float(i + 1)) for i in range(13)]
    cells = {(c.metric_name, c.target): c for c in correlate_all(vectors, sats)}
    cell = cells[("avg_gbc", "NPS")]
    assert cell.r == 1.0 and cell.p == 0.0 and cell.significant


def test_ineligible_teams_and_missing_values_are_pairwise_deleted():
    vectors = [_vector("t0", 1.0), _vector("t1", 2.0), _vector("t2", None),
               _vector("t3", 4.0), _vector("t4", 8.0)]
    sats = [_sat("t0", 30), _sat("t1", 40), _sat("t2", 50),
            _sat("t3", 55), _sat("t4", 70, eligible=False)]
    cells = {(c.metric_name, c.target): c for c in correlate_all(vectors, sats)}
    gbc = cells[("avg_gbc", "NPS")]
    assert gbc.n == 3                      # t2 undefined, t4 ineligible
    assert gbc.r is not None
    constant = cells[("avg_gdc", "NPS")]   # every remaining value is 1
    assert constant.r is None and constant.p is None
    assert constant.n == 4


def test_two_eligible_teams_leave_cells_undefined():
    vectors = [_vector("t0", 1.0), _vector("t1", 2.0)]
    sats = [_sat("t0", 30), _sat("t1", 40)]
    for cell in correlate_all(vectors, sats):
        assert cell.r is None and not cell.significant


def test_correlation_csv_layout():
    vectors = [_vector(f"t{i}", float(i * i + 1)) for i in range(5)]
    sats = [_sat(f"t{i}", 10.0 + 7 * i) for i in range(5)]
    blob = render_correlation_csv(correlate_all(vectors, sats)).decode()
    lines = blob.strip().split("\n")
    assert lines[0].startswith("target,Avg GBC,Avg GDC,Avg Density")
    assert lines[1].startswith("NPS")
    assert lines[2].startswith("Pearson,")
    assert lines[3].startswith("Sig. (2-tailed),")
    assert lines[4].startswith("N,")
    assert lines[5].startswith("KPD")
    assert len(lines) == 9
    # significant cells are starred
    gbc_nps = lines[2].split(",")[1]
    expected_r = pearson([float(i * i + 1) for i in range(5)],
                         [10.0 + 7 * i for i in range(5)])
    expected = f"{expected_r:.3f}"
    if p_value_two_tailed(expected_r, 5) < 0.05:
        expected += "*"
    assert gbc_nps == expected


def test_rendering_is_deterministic():
    vectors = [_vector(f"t{i}", float(i + 1)) for i in range(4)]
    sats = [_sat(f"t{i}", 20.0 * i + 3) for i in range(4)]
    first = render_correlation_csv(correlate_all(vectors, sats))
    second = render_correlation_csv(correlate_all(list(vectors), list(sats)))
    assert first == second
