"""Command-line pipeline: ingest → analyze → correlate → scorecard, plus synth.

Stages communicate through files (JSONL corpora, CSV tables, JSON reports) so
each is independently runnable and testable.  Fixed inputs plus fixed
configuration produce byte-identical outputs.

Exit codes: 0 success, 1 usage, 2 ingest failure, 3 analysis failure,
4 correlation/report failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Sequence

from . import metrics as metrics_mod
from ._text import csv_line, fmt6, read_csv
from .errors import (
    CohortTooSmall,
    CommscoreError,
    EmptyCorpusWarning,
    FormatError,
    MalformedRecord,
    NoActivity,
)
from .ingest import (
    EmailEvent,
    FORMATS,
    ParseIssue,
    Period,
    build_corpus,
    iso_utc,
    load_corpus,
    parse_events,
    parse_timestamp,
    serialize_events,
)
from .metrics import (
    METRIC_FIELDS,
    METRIC_LABELS,
    MetricConfig,
    MetricVector,
    load_lexicon,
)
from .satisfaction import (
    DEFAULT_ELIGIBILITY_MIN,
    group_by_team,
    load_survey,
    team_satisfaction,
)
from .scorecard import DEFAULT_ALERT_SIGMA, build_scorecards, render
from .stats import correlate_all, render_correlation_csv
from .synth import SynthSpec, planted_effects, write_outputs
from .tempograph import month_periods, window_events

DEFAULT_GENERATED_AT = "1970-01-01T00:00:00Z"

METRICS_CSV_HEADER = ("team_id",) + tuple(METRIC_LABELS[f] for f in METRIC_FIELDS)


@dataclass(frozen=True)
class RunConfig:
    """Effective settings for one pipeline invocation."""

    period: Period | None = None
    format: str = "csv"
    reply_cap: int = metrics_mod.DEFAULT_REPLY_CAP
    oscillation_window: str = "weekly"
    awvci_weighting: str = "edges"
    emotionality_mode: str = "cumulative"
    eligibility_min: int = DEFAULT_ELIGIBILITY_MIN
    alert_sigma: float = DEFAULT_ALERT_SIGMA
    strict: bool = False
    lexicon_path: Path | None = None
    generated_at: str = DEFAULT_GENERATED_AT

    def __post_init__(self) -> None:
        if self.reply_cap <= 0 or self.eligibility_min <= 0 or self.alert_sigma <= 0:
            raise ValueError("thresholds must be positive")

    def metric_config(self) -> MetricConfig:
        """Metric settings with the lexicon loaded once, bundled or from a file."""
        if self.lexicon_path is None:
            lexicon = metrics_mod.default_lexicon()
        else:
            with open(self.lexicon_path, encoding="utf-8") as fh:
                lexicon = load_lexicon(fh)
        return MetricConfig(
            oscillation_window=self.oscillation_window,
            reply_cap=self.reply_cap,
            awvci_weighting=self.awvci_weighting,
            emotionality_mode=self.emotionality_mode,
            lexicon=lexicon,
        )

    def as_dict(self) -> dict[str, object]:
        """Semantic configuration values (paths to inputs/outputs excluded)."""
        return {
            "period": None if self.period is None else
            {"start": iso_utc(self.period.start), "end": iso_utc(self.period.end)},
            "format": self.format,
            "reply_cap": self.reply_cap,
            "oscillation_window": self.oscillation_window,
            "awvci_weighting": self.awvci_weighting,
            "emotionality_mode": self.emotionality_mode,
            "eligibility_min": self.eligibility_min,
            "alert_sigma": self.alert_sigma,
            "strict": self.strict,
            "lexicon": "builtin" if self.lexicon_path is None else self.lexicon_path.name,
        }

    def fingerprint(self) -> str:
        blob = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]

    def config_payload(self) -> dict[str, object]:
        payload: dict[str, object] = {"fingerprint": self.fingerprint()}
        payload.update(self.as_dict())
        return payload


def parse_period(raw: str) -> Period:
    """``START..END`` with ISO dates (midnight UTC) or full instants, end exclusive."""
    parts = raw.split("..")
    if len(parts) != 2:
        raise ValueError(f"period must be START..END, got {raw!r}")
    bounds = []
    for part in parts:
        text = part.strip()
        if len(text) == 10:
            text += "T00:00:00Z"
        bounds.append(parse_timestamp(text))
    return Period(bounds[0], bounds[1])


# --------------------------------------------------------------------------
# stages: each builds its configuration from the parsed arguments and runs;
# a failure propagates to main(), which maps it to the stage's exit code


def cmd_ingest(args: argparse.Namespace) -> int:
    config = RunConfig(period=args.period, format=args.format, strict=args.strict)
    out_dir: Path = args.out
    events_by_team: dict[str, list[EmailEvent]] = {}
    issues: list[ParseIssue] = []
    sources: list[dict[str, object]] = []
    for path in args.paths:
        team = path.stem if config.format in ("csv", "mbox") else ""
        with open(path, "rb") as fh:
            result = parse_events(fh, config.format, default_team=team,
                                  source_name=path.name, strict=config.strict)
        for ev in result.events:
            if ev.team_id:
                events_by_team.setdefault(ev.team_id, []).append(ev)
        issues.extend(result.issues)
        sources.append({"path": path.name, "events": len(result.events),
                        "skipped": len(result.issues)})
    corpora_dir = out_dir / "corpora"
    corpora_dir.mkdir(parents=True, exist_ok=True)
    teams_report: dict[str, dict[str, object]] = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyCorpusWarning)
        for team in sorted(events_by_team):
            corpus = build_corpus(events_by_team[team], team, config.period)
            (corpora_dir / f"{team}.jsonl").write_bytes(
                serialize_events(corpus.events, "jsonl"))
            gaps = [iso_utc(w.start)[:7] for w in month_periods(config.period)
                    if not window_events(corpus, w)]
            teams_report[team] = {"events": len(corpus.events), "gap_months": gaps}
    manifest = {
        "format": config.format,
        "period": {"start": iso_utc(config.period.start),
                   "end": iso_utc(config.period.end)},
        "config": config.config_payload(),
        "sources": sources,
        "teams": teams_report,
        "issues": [{"source": i.source, "line": i.line, "message": i.message}
                   for i in issues],
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    for team, report in teams_report.items():
        gaps = report["gap_months"]
        if gaps:
            print(f"{team}: {report['events']} events, "
                  f"months without e-mail: {', '.join(gaps)}")
        else:
            print(f"{team}: {report['events']} events")
    if issues:
        print(f"skipped {len(issues)} malformed record(s); see manifest.json")
    print(f"wrote {out_dir / 'manifest.json'}")
    return 0


def _read_archive_period(archive: Path) -> Period:
    try:
        manifest = json.loads((archive / "manifest.json").read_text(encoding="utf-8"))
        period = manifest["period"]
        return Period(parse_timestamp(str(period["start"])),
                      parse_timestamp(str(period["end"])))
    except (OSError, LookupError, TypeError, ValueError, RecursionError) as exc:
        raise FormatError(f"{archive} is not an ingest archive: {exc}") from None


def cmd_analyze(args: argparse.Namespace) -> int:
    config = RunConfig(reply_cap=args.reply_cap,
                       oscillation_window=args.oscillation_window,
                       awvci_weighting=args.awvci_weighting,
                       emotionality_mode=args.emotionality_mode,
                       lexicon_path=args.lexicon)
    archive: Path = args.archive
    out_dir: Path = args.out
    period = _read_archive_period(archive)
    corpora = sorted((archive / "corpora").glob("*.jsonl"))
    metric_config = config.metric_config()
    vectors: list[MetricVector] = []
    analyzable = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyCorpusWarning)
        for path in corpora:
            corpus = load_corpus(path, path.stem, period)
            if corpus.events:
                analyzable += 1
            vectors.append(metrics_mod.compute_metric_vector(corpus, metric_config))
    if analyzable == 0:
        raise NoActivity("zero analyzable teams in archive")
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [csv_line(METRICS_CSV_HEADER)]
    for vec in sorted(vectors, key=lambda v: v.team_id):
        lines.append(csv_line((vec.team_id,) + tuple(
            fmt6(getattr(vec, f)) for f in METRIC_FIELDS)))
    effective = replace(config, period=period)
    (out_dir / "metrics.csv").write_bytes("".join(lines).encode("utf-8"))
    (out_dir / "analyze_config.json").write_text(
        json.dumps(effective.config_payload(), indent=2) + "\n", encoding="utf-8")
    print(f"analyzed {len(vectors)} team(s)")
    print(f"wrote {out_dir / 'metrics.csv'}")
    return 0


#: Largest magnitude of a metrics cell read back.  Every metric ``analyze``
#: writes is far smaller (the largest, ART in seconds, stays below 3.2e11), and
#: below it the float steps of correlation and score cards cannot overflow.
METRIC_CELL_MAX = 1e15


def _metric_value(cell: str, where: str) -> float | None:
    if cell == "":
        return None
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not abs(value) <= METRIC_CELL_MAX:
        raise FormatError(f"{where}: metric cell {cell!r} is not a finite number "
                          f"of magnitude at most {METRIC_CELL_MAX:g}")
    return value


def read_metrics_csv(path: Path) -> list[MetricVector]:
    """Read a metrics CSV back into vectors (undefined cells stay None).

    Each row needs a non-empty ``team_id`` that no earlier row has used.  Ids
    are stripped of surrounding whitespace, as survey ids are.
    """
    vectors = []
    seen: set[str] = set()
    with open(path, "rb") as fh:
        for line, row in read_csv(fh, path.name, METRICS_CSV_HEADER):
            if not row:
                continue
            if len(row) != len(METRICS_CSV_HEADER):
                raise MalformedRecord(
                    f"expected {len(METRICS_CSV_HEADER)} fields, got {len(row)}",
                    source=path.name, line=line)
            team = row[0].strip()
            if not team:
                raise MalformedRecord("empty team_id", source=path.name, line=line)
            if team in seen:
                raise MalformedRecord(f"duplicate team_id {team!r}",
                                      source=path.name, line=line)
            seen.add(team)
            where = f"{path.name}: line {line}"
            values = {field: _metric_value(cell, where)
                      for field, cell in zip(METRIC_FIELDS, row[1:])}
            vectors.append(MetricVector(team_id=team, **values))
    return vectors


def cmd_correlate(args: argparse.Namespace) -> int:
    config = RunConfig(eligibility_min=args.eligibility_min,
                       alert_sigma=args.alert_sigma, generated_at=args.generated_at)
    out_dir: Path = args.out
    vectors = read_metrics_csv(args.metrics_csv)
    with open(args.survey_csv, "rb") as fh:
        responses = load_survey(fh, source_name=args.survey_csv.name)
    sats = [team_satisfaction(rows, team, config.eligibility_min)
            for team, rows in group_by_team(responses).items()]
    metric_teams = {v.team_id for v in vectors}
    eligible = [s for s in sats if s.eligible and s.team_id in metric_teams]
    if len(eligible) < 3:
        raise CohortTooSmall(f"{len(eligible)} eligible team(s) with metrics; need ≥ 3")
    cells = correlate_all(vectors, sats)
    eligibility = {s.team_id: s.eligible for s in sats}
    cards = build_scorecards(vectors, alert_sigma=config.alert_sigma,
                             eligibility=eligibility)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "correlation.csv").write_bytes(render_correlation_csv(cells))
    payload = config.config_payload()
    (out_dir / "scorecard.json").write_bytes(
        render(cards, "json", generated_at=config.generated_at, config=payload))
    (out_dir / "scorecard.html").write_bytes(
        render(cards, "html", generated_at=config.generated_at, config=payload))
    significant = [c for c in cells if c.significant]
    if significant:
        for cell in significant:
            print(f"significant: {METRIC_LABELS[cell.metric_name]} × {cell.target} "
                  f"r={cell.r:.3f} p={cell.p:.3f} n={cell.n}")
    else:
        print("no significant cells at the 0.05 level")
    print(f"wrote {out_dir / 'correlation.csv'}")
    print(f"wrote {out_dir / 'scorecard.json'}")
    print(f"wrote {out_dir / 'scorecard.html'}")
    return 0


def cmd_scorecard(args: argparse.Namespace) -> int:
    config = RunConfig(alert_sigma=args.alert_sigma, generated_at=args.generated_at)
    vectors = read_metrics_csv(args.metrics_csv)
    cards = build_scorecards(vectors, alert_sigma=config.alert_sigma)
    blob = render(cards, args.format, generated_at=config.generated_at,
                  config=config.config_payload())
    args.out.mkdir(parents=True, exist_ok=True)
    target = args.out / f"scorecard.{args.format}"
    target.write_bytes(blob)
    print(f"wrote {target}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    spec = SynthSpec(teams=args.teams, months=args.months, actors=args.actors,
                     respondents=args.respondents, messages_per_month=args.messages,
                     effects=args.effects, seed=args.seed)
    out_dir: Path = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = write_outputs(spec, out_dir)
    period = manifest["period"]
    print(f"wrote {spec.teams} team corpora under {out_dir / 'mail'}")
    print(f"wrote {out_dir / 'survey.csv'}")
    print(f"suggested --period {period['start'][:10]}..{period['end'][:10]}")  # type: ignore[index]
    return 0


# --------------------------------------------------------------------------
# argument parsing: usage errors exit 1 before any stage runs


def _argument(convert: Callable[[str], Any]) -> Callable[[str], Any]:
    """``convert`` as an argparse ``type=`` that reports why a value is bad."""
    def checked(raw: str) -> Any:
        try:
            return convert(raw)
        except (OSError, TypeError, ValueError, RecursionError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return checked


def _positive(number: Callable[[str], Any]) -> Callable[[str], Any]:
    def positive(raw: str) -> Any:
        value = number(raw)
        if not 0 < value < math.inf:
            raise ValueError(f"must be a positive finite number, got {raw!r}")
        return value
    return _argument(positive)


def _parse_effects(raw: str) -> dict[str, float]:
    if raw == "none":
        return {}
    if raw == "planted":
        return planted_effects()
    if not raw.lstrip().startswith("{"):
        raw = Path(raw).read_text(encoding="utf-8")
    effects = json.loads(raw, parse_int=float)
    if not isinstance(effects, dict):
        raise ValueError("effects must be a JSON object")
    return {str(k): float(v) for k, v in effects.items()}


def _build_parser() -> argparse.ArgumentParser:
    """The subcommands, each with its stage function and its failure exit code."""
    parser = argparse.ArgumentParser(
        prog="commscore",
        description="Communication score cards from team e-mail logs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="parse mail logs into a corpus archive")
    p_ingest.set_defaults(run=cmd_ingest, failure_code=2)
    p_ingest.add_argument("paths", nargs="+", type=Path)
    p_ingest.add_argument("--format", choices=FORMATS, default="csv")
    p_ingest.add_argument("--period", required=True, type=_argument(parse_period),
                          help="analysis interval START..END (end exclusive)")
    p_ingest.add_argument("--out", type=Path, required=True)
    p_ingest.add_argument("--strict", action="store_true",
                          help="abort on the first malformed record")

    p_analyze = sub.add_parser("analyze", help="compute per-team metric vectors")
    p_analyze.set_defaults(run=cmd_analyze, failure_code=3)
    p_analyze.add_argument("archive", type=Path)
    p_analyze.add_argument("--out", type=Path, required=True)
    p_analyze.add_argument("--reply-cap", type=_positive(int),
                           default=metrics_mod.DEFAULT_REPLY_CAP,
                           help="max reply latency in seconds (default 7 days)")
    p_analyze.add_argument("--oscillation-window", choices=("weekly", "monthly"),
                           default="weekly")
    p_analyze.add_argument("--awvci-weighting", choices=("edges", "actors"),
                           default="edges")
    p_analyze.add_argument("--emotionality-mode", choices=("cumulative", "normalized"),
                           default="cumulative")
    p_analyze.add_argument("--lexicon", type=Path, default=None,
                           help="sentiment lexicon file (default: bundled)")

    p_corr = sub.add_parser("correlate",
                            help="correlate metrics with survey satisfaction")
    p_corr.set_defaults(run=cmd_correlate, failure_code=4)
    p_corr.add_argument("metrics_csv", type=Path)
    p_corr.add_argument("survey_csv", type=Path)
    p_corr.add_argument("--out", type=Path, required=True)
    p_corr.add_argument("--eligibility-min", type=_positive(int),
                        default=DEFAULT_ELIGIBILITY_MIN,
                        help="respondents required (strictly more than this)")
    p_corr.add_argument("--alert-sigma", type=_positive(float),
                        default=DEFAULT_ALERT_SIGMA)
    p_corr.add_argument("--generated-at", default=DEFAULT_GENERATED_AT,
                        help="UTC instant stamped into reports (fixed default "
                             "keeps reruns byte-identical)")

    p_card = sub.add_parser("scorecard", help="render score cards from a metrics CSV")
    p_card.set_defaults(run=cmd_scorecard, failure_code=4)
    p_card.add_argument("metrics_csv", type=Path)
    p_card.add_argument("--out", type=Path, required=True)
    p_card.add_argument("--format", choices=("json", "csv", "html"), default="json")
    p_card.add_argument("--alert-sigma", type=_positive(float),
                        default=DEFAULT_ALERT_SIGMA)
    p_card.add_argument("--generated-at", default=DEFAULT_GENERATED_AT)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus + survey")
    p_synth.set_defaults(run=cmd_synth, failure_code=1)
    p_synth.add_argument("--out", type=Path, required=True)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--teams", type=int, default=13)
    p_synth.add_argument("--months", type=int, default=3)
    p_synth.add_argument("--actors", type=int, default=10)
    p_synth.add_argument("--respondents", type=int, default=25)
    p_synth.add_argument("--messages", type=int, default=70,
                         help="messages per team per month (before replies)")
    p_synth.add_argument("--effects", type=_argument(_parse_effects), default="none",
                         help="'none', 'planted', inline JSON, or a JSON file path")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.run(args)
    except (CommscoreError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return args.failure_code
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
