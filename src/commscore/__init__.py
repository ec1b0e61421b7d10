"""Communication score cards from team e-mail logs.

Pipeline: parse mail logs into per-team corpora (:mod:`commscore.ingest`),
aggregate windowed communication graphs (:mod:`commscore.tempograph`), compute
the eight score-card metrics (:mod:`commscore.metrics`), fold in survey
satisfaction (:mod:`commscore.satisfaction`), correlate
(:mod:`commscore.stats`), and report (:mod:`commscore.scorecard`).  The
``commscore`` command line wires the stages together; :mod:`commscore.synth`
generates seeded test corpora with planted effects.

``import commscore`` imports no submodule: each public name below is imported
from its module on first use (PEP 562), so ``from commscore import load_corpus``
loads :mod:`commscore.ingest` and what it needs, and nothing else.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each public name and the module that defines it.
_EXPORTS = {
    "ActorId": "ingest", "EmailEvent": "ingest", "Period": "ingest", "TeamCorpus": "ingest",
    "build_corpus": "ingest", "load_corpus": "ingest", "normalize_address": "ingest",
    "parse_events": "ingest", "parse_period": "ingest", "serialize_events": "ingest",
    "METRIC_FIELDS": "metrics", "METRIC_LABELS": "metrics", "MetricConfig": "metrics",
    "MetricVector": "metrics", "compute_metric_vector": "metrics",
    "contribution_index": "metrics",
    "SurveyResponse": "satisfaction", "TeamSatisfaction": "satisfaction",
    "classify_respondent": "satisfaction", "kpd": "satisfaction", "nps": "satisfaction",
    "team_satisfaction": "satisfaction",
    "DIRECTIONS": "scorecard", "ScoreCard": "scorecard", "build_scorecards": "scorecard",
    "render": "scorecard",
    "CorrelationResult": "stats", "correlate_all": "stats", "p_value_two_tailed": "stats",
    "pearson": "stats",
    "SynthSpec": "synth", "planted_effects": "synth",
    "WindowGraph": "tempograph", "daily_activity": "tempograph",
    "monthly_windows": "tempograph", "weekly_windows": "tempograph",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
