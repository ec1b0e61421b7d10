"""Per-layer spans for the traced run, recorded from the benchmark's side.

A :class:`Tracer` wraps the public functions that ``commscore.cli`` calls in
each module, and replaces ``compute_metric_vector`` with a step-by-step
rebuild from public calls, in the same order.  Every rebuilt vector is
checked against the real ``compute_metric_vector``; that check and the input
bookkeeping run under a ``trace.check`` span, with recording suspended, and
are left out of every layer time and stage self time.

A metric ``<layer>.<step>_s`` is the busy time of span ``<layer>.<step>``
(the sum of its durations); counts are exact and repeat across runs.
"""

from __future__ import annotations

import math
import statistics
import time
from bisect import bisect_left
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Iterator

import commscore.metrics as M
import commscore.tempograph as T
from commscore.errors import InsufficientWindows, NoActivity

CHECK = "trace.check"

#: Layer spans reported as ``<name>_s``.
BUSY_SPANS = (
    "ingest.parse_csv", "ingest.serialize", "ingest.build_corpus",
    "ingest.parse_jsonl", "ingest.reload_corpus",
    "tempograph.windows", "tempograph.daily_activity",
    "metrics.betweenness_monthly", "metrics.betweenness_weekly",
    "metrics.structure", "metrics.new_actors", "metrics.direction_changes",
    "metrics.reply_matching", "metrics.awvci", "metrics.lexicon",
    "metrics.emotionality",
    "satisfaction.load_survey", "satisfaction.group_by_team",
    "satisfaction.team_satisfaction",
    "stats.correlate_all", "stats.render",
    "scorecard.build", "scorecard.render",
)

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ≥ 10 samples beyond it.

    Nearest-rank percentiles; with fewer than 20 samples no percentile
    qualifies and the median is reported.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100 * n))
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def _mean(parts: list[Fraction]) -> Fraction:
    return sum(parts, start=Fraction(0)) / len(parts)


class Tracer:
    """Spans and counters for one traced repetition; patches on creation."""

    def __init__(self, cli) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter[str] = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.subject_groups: list[int] = []
        self._stack: list[int] = []
        self._suspended = False
        self._stage = ""
        self._install(cli)

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[list | None]:
        if self._suspended:
            yield None
            return
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        self._stage = name
        with self.span(f"cli.{name}"):
            yield

    @contextmanager
    def _suspend(self) -> Iterator[None]:
        self._suspended = True
        try:
            yield
        finally:
            self._suspended = False

    def _timed(self, fn: Callable, name: str,
               on_result: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None and not self._suspended:
                on_result(result, *args)
            return result
        return traced

    # -- patching ----------------------------------------------------------

    def _install(self, cli) -> None:
        parse_events, build_corpus = cli.parse_events, cli.build_corpus

        def traced_parse(source, format, **kwargs):
            with self.span(f"ingest.parse_{format}"):
                result = parse_events(source, format, **kwargs)
            if format == "csv":
                self.counts["ingest.events"] += len(result.events)
            return result

        def traced_corpus(events, team_id, period):
            if self._stage != "ingest":
                with self.span("ingest.reload_corpus"):
                    return build_corpus(events, team_id, period)
            with self.span("ingest.build_corpus"):
                corpus = build_corpus(events, team_id, period)
            self.counts["ingest.build_corpus_scanned"] += len(events)
            self.counts["ingest.build_corpus_kept"] += len(corpus.events)
            return corpus

        def count_rows(result, *args):
            self.counts["satisfaction.rows"] += len(result)

        def count_load(result, *args):
            self.counts["metrics.lexicon_loads"] += 1

        cli.parse_events = traced_parse
        cli.build_corpus = traced_corpus
        for attr, name, on_result in (
            ("serialize_events", "ingest.serialize", None),
            ("load_survey", "satisfaction.load_survey", count_rows),
            ("group_by_team", "satisfaction.group_by_team", None),
            ("team_satisfaction", "satisfaction.team_satisfaction", None),
            ("correlate_all", "stats.correlate_all", None),
            ("render_correlation_csv", "stats.render", None),
            ("build_scorecards", "scorecard.build", None),
            ("render", "scorecard.render", None),
        ):
            setattr(cli, attr, self._timed(getattr(cli, attr), name, on_result))
        # MetricConfig.resolved_lexicon looks default_lexicon up at call time
        M.default_lexicon = self._timed(M.default_lexicon, "metrics.default_lexicon",
                                        count_load)
        self._compute_metric_vector = M.compute_metric_vector
        M.compute_metric_vector = self._metric_vector

    # -- the analyze layers ------------------------------------------------

    def _metric_vector(self, corpus, config=M.MetricConfig()):
        with self.span("metrics.team") as record:
            vector, months, windows = self._rebuild(corpus, config)
        self.samples["metrics.team"].append((record[2] - record[1]) * 1e3)
        with self.span(CHECK), self._suspend():
            if vector != self._compute_metric_vector(corpus, config):
                self.counts["trace.mismatches"] += 1
            self._count_inputs(corpus, months, windows)
        return vector

    def _betweenness(self, graph, name: str):
        with self.span(name) as record:
            centrality = M.betweenness_centrality(graph)
        self.samples["metrics.betweenness_graph"].append((record[2] - record[1]) * 1e3)
        self.counts["metrics.betweenness_graphs"] += 1
        self.counts["metrics.betweenness_edges"] += len(graph.edges)
        return centrality

    def _rebuild(self, corpus, config):
        """``compute_metric_vector`` step by step, in its order, from public calls."""
        span = self.span
        with span("tempograph.windows"):
            months = T.monthly_windows(corpus)
        active = [g for g in months if g.nodes]
        gbc = gdc = dens = None
        if active:
            centralities = [self._betweenness(g, "metrics.betweenness_monthly")
                            for g in active]
            with span("metrics.structure"):
                gbc = _mean([M.group_centralization(c) for c in centralities])
                gdc = _mean([M.group_centralization(M.degree_centrality(g))
                             for g in active])
                dens = _mean([M.density(g) for g in active])
        with span("metrics.new_actors"):
            try:
                new_actors = M.avg_new_actors(months)
            except InsufficientWindows:
                new_actors = None
        windowing = {"weekly": T.weekly_windows,
                     "monthly": T.monthly_windows}[config.oscillation_window]
        with span("tempograph.windows"):
            windows = windowing(corpus)
        oscillation = None
        if len(windows) >= 3:
            maps = [self._betweenness(g, "metrics.betweenness_weekly").values
                    for g in windows]
            with span("metrics.direction_changes"):
                actors = sorted(set().union(*(g.nodes for g in windows)))
                oscillation = sum(
                    M.direction_changes([m.get(a, Fraction(0)) for m in maps])
                    for a in actors)
        with span("metrics.reply_matching"):
            pairs = M.match_replies(corpus, config.reply_cap)
            art = M.response_times(pairs).art_median
        with span("tempograph.daily_activity"):
            days = T.daily_activity(corpus)
        with span("metrics.awvci"):
            try:
                variance = M.awvci(days, config.awvci_weighting)
            except NoActivity:
                variance = None
        with span("metrics.lexicon"):
            lexicon = config.resolved_lexicon()
        with span("metrics.emotionality"):
            emo = M.emotionality(corpus, lexicon, config.emotionality_mode)
        self.counts["metrics.reply_pairs"] += len(pairs)
        vector = M.MetricVector(
            team_id=corpus.team_id, avg_gbc=gbc, avg_gdc=gdc, avg_density=dens,
            avg_new_actors=new_actors, oscillation_sum=oscillation,
            art_median=art, awvci=variance, emotionality=emo)
        return vector, months, windows

    def _count_inputs(self, corpus, months, windows) -> None:
        groups = Counter(M.normalize_subject(ev.subject) for ev in corpus.events)
        self.subject_groups.extend(groups.values())
        self.counts["metrics.reply_candidates"] += sum(k * (k - 1) for k in groups.values())
        stamps = [ev.timestamp for ev in corpus.events]  # corpora are time-sorted
        for graphs in (months, windows):
            self.counts["tempograph.windows"] += len(graphs)
            self.counts["tempograph.events_scanned"] += len(stamps) * len(graphs)
            self.counts["tempograph.events_placed"] += sum(
                bisect_left(stamps, g.window.end) - bisect_left(stamps, g.window.start)
                for g in graphs)
        self.counts["input.monthly_graphs"] += len(months)
        self.counts["input.monthly_graph_actors"] += sum(len(g.nodes) for g in months)
        self.counts["input.teams"] += 1

    # -- report ------------------------------------------------------------

    def report(self) -> dict[str, float]:
        busy: Counter[str] = Counter()
        child_time: Counter[int] = Counter()
        for name, start, end, parent in self.spans:
            busy[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {f"{name}_s": busy[name] for name in BUSY_SPANS}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            if name.startswith("cli."):
                out[f"{name}_self_s"] = end - start - child_time[index]
        out["trace.stage_s"] = sum(t for name, t in busy.items()
                                   if name.startswith("cli.")) - busy[CHECK]
        c = self.counts
        for name in ("ingest.events", "ingest.build_corpus_scanned",
                     "tempograph.windows", "metrics.betweenness_graphs",
                     "metrics.betweenness_edges", "metrics.reply_candidates",
                     "metrics.reply_pairs", "metrics.lexicon_loads",
                     "satisfaction.rows", "input.teams", "trace.mismatches"):
            out[name] = c[name]
        out["ingest.build_corpus_kept_ratio"] = \
            c["ingest.build_corpus_kept"] / c["ingest.build_corpus_scanned"]
        out["tempograph.scan_useful_ratio"] = \
            c["tempograph.events_placed"] / c["tempograph.events_scanned"]
        out["metrics.reply_match_ratio"] = \
            c["metrics.reply_pairs"] / max(1, c["metrics.reply_candidates"])
        for name in ("metrics.betweenness_graph", "metrics.team"):
            samples = self.samples[name]
            pct, value = tail(samples)
            out[f"{name}_p50_ms"] = statistics.median(samples)
            out[f"{name}_tail_ms"] = value
            out[f"{name}_tail_pct"] = pct
        out["input.subject_group_mean"] = statistics.fmean(self.subject_groups)
        out["input.subject_group_max"] = max(self.subject_groups)
        out["input.windows_per_team"] = c["tempograph.windows"] / c["input.teams"]
        out["input.monthly_graph_actors_mean"] = \
            c["input.monthly_graph_actors"] / c["input.monthly_graphs"]
        return out
