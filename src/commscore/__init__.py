"""Communication score cards from team e-mail logs.

Pipeline: parse mail logs into per-team corpora (:mod:`commscore.ingest`),
aggregate windowed communication graphs (:mod:`commscore.tempograph`), compute
the eight score-card metrics (:mod:`commscore.metrics`), fold in survey
satisfaction (:mod:`commscore.satisfaction`), correlate
(:mod:`commscore.stats`), and report (:mod:`commscore.scorecard`).  The
``commscore`` command line wires the stages together; :mod:`commscore.synth`
generates seeded test corpora with planted effects.
"""

from .ingest import (
    ActorId,
    EmailEvent,
    Period,
    TeamCorpus,
    build_corpus,
    load_corpus,
    normalize_address,
    parse_events,
    serialize_events,
)
from .metrics import (
    METRIC_FIELDS,
    METRIC_LABELS,
    MetricConfig,
    MetricVector,
    compute_metric_vector,
    contribution_index,
)
from .satisfaction import (
    SurveyResponse,
    TeamSatisfaction,
    classify_respondent,
    kpd,
    nps,
    team_satisfaction,
)
from .scorecard import DIRECTIONS, ScoreCard, build_scorecard, build_scorecards, render
from .stats import CorrelationResult, correlate_all, p_value_two_tailed, pearson
from .synth import SynthSpec, planted_effects
from .tempograph import (
    DailyActivity,
    WindowGraph,
    build_window_graph,
    daily_activity,
    monthly_windows,
    weekly_windows,
)

__version__ = "0.1.0"

__all__ = [
    "ActorId",
    "CorrelationResult",
    "DIRECTIONS",
    "DailyActivity",
    "EmailEvent",
    "METRIC_FIELDS",
    "METRIC_LABELS",
    "MetricConfig",
    "MetricVector",
    "Period",
    "ScoreCard",
    "SurveyResponse",
    "SynthSpec",
    "TeamCorpus",
    "TeamSatisfaction",
    "WindowGraph",
    "build_corpus",
    "build_scorecard",
    "build_scorecards",
    "build_window_graph",
    "classify_respondent",
    "compute_metric_vector",
    "contribution_index",
    "correlate_all",
    "daily_activity",
    "kpd",
    "load_corpus",
    "monthly_windows",
    "normalize_address",
    "nps",
    "p_value_two_tailed",
    "parse_events",
    "pearson",
    "planted_effects",
    "render",
    "serialize_events",
    "team_satisfaction",
    "weekly_windows",
]
