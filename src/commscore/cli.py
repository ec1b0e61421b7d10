"""Command-line pipeline: ingest → analyze → correlate → scorecard, plus synth.

Stages communicate through files (JSONL corpora, CSV tables, JSON reports) so
each is independently runnable and testable.  Fixed inputs plus fixed
configuration produce byte-identical outputs.

Each stage reads its parsed arguments directly.  Every report embeds the
run's settings with a fingerprint of them (:func:`report_settings`); the
settings and their defaults are listed once, in :data:`REPORT_SETTINGS`, and
the parser's defaults read from there.

Exit codes: 0 success, 1 usage, 2 ingest failure, 3 analysis failure,
4 correlation/report failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
from bisect import bisect_left
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Sequence

from . import metrics as metrics_mod
from ._text import csv_line, fmt6, read_csv
from .errors import (
    CohortTooSmall,
    CommscoreError,
    FormatError,
    MalformedRecord,
    NoActivity,
)
from .ingest import (
    EmailEvent,
    FORMATS,
    TEAM_PER_FILE_FORMATS,
    ParseIssue,
    Period,
    build_corpus,
    iso_utc,
    load_corpus,
    parse_events,
    parse_period,
    parse_timestamp,
    serialize_events,
)
from .metrics import (
    DEFAULT_REPLY_CAP,
    METRIC_CHOICES,
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
from .scorecard import DEFAULT_ALERT_SIGMA, SCORECARD_FORMATS, build_scorecards, render
from .stats import correlate_all, render_correlation_csv
from .tempograph import month_periods

DEFAULT_GENERATED_AT = "1970-01-01T00:00:00Z"

METRICS_CSV_HEADER = ("team_id",) + tuple(METRIC_LABELS[f] for f in METRIC_FIELDS)

#: The settings every report records, in report order, each with its default.
#: A stage without an option for a setting records this default.
REPORT_SETTINGS: dict[str, object] = {
    "period": None,
    "format": "csv",
    "reply_cap": DEFAULT_REPLY_CAP,
    **{key: choices[0] for key, choices in METRIC_CHOICES.items()},
    "eligibility_min": DEFAULT_ELIGIBILITY_MIN,
    "alert_sigma": DEFAULT_ALERT_SIGMA,
    "strict": False,
    "lexicon": None,
}


def report_settings(args: argparse.Namespace, **effective: object) -> dict[str, object]:
    """The settings a report embeds, led by their 12-hex-digit fingerprint.

    Each setting is read from ``args``, or is its default where the stage has
    no such option; ``effective`` overrides it where the stage decided the
    value itself, such as the archive period and the digest of the lexicon
    bytes that ``analyze`` reads.  The bundled lexicon is ``"builtin"``.
    """
    settings = {key: getattr(args, key, default) for key, default in REPORT_SETTINGS.items()}
    settings.update(effective)
    period = settings["period"]
    if isinstance(period, Period):
        settings["period"] = {"start": iso_utc(period.start), "end": iso_utc(period.end)}
    settings["lexicon"] = settings["lexicon"] or "builtin"
    blob = json.dumps(settings, sort_keys=True, separators=(",", ":"))
    return {"fingerprint": hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12], **settings}


# --------------------------------------------------------------------------
# stages: each runs on the parsed arguments; a failure propagates to main(),
# which maps it to the stage's exit code


_instant = attrgetter("timestamp")


def _ingest_group(args: argparse.Namespace, team: str, paths: list[Path],
                  months: list[Period], corpora_dir: Path,
                  ) -> tuple[list[tuple[dict[str, object], list[ParseIssue]]],
                             dict[str, dict[str, object]]]:
    """Parse ``paths``, whose format gives them all ``team`` (``""`` where
    records name their own), and write the corpus of each team they hold.

    Returns each file's source entry and issues, and each team's manifest
    entry.  The mail is dropped on return.
    """
    events_by_team: dict[str, list[EmailEvent]] = {}
    files = []
    for path in paths:
        with open(path, "rb") as fh:
            result = parse_events(fh, args.format, default_team=team,
                                  source_name=path.name, strict=args.strict)
        for ev in result.events:
            if ev.team_id:
                events_by_team.setdefault(ev.team_id, []).append(ev)
        files.append(({"path": path.name, "events": len(result.events),
                       "skipped": len(result.issues)}, result.issues))
    reports: dict[str, dict[str, object]] = {}
    for team_id, parsed in events_by_team.items():
        corpus = build_corpus(parsed, team_id, args.period)
        (corpora_dir / f"{team_id}.jsonl").write_bytes(serialize_events(corpus.events, "jsonl"))
        events = corpus.events
        # a gap month: the first event from its start on is past its end, or absent
        gaps = [iso_utc(w.start)[:7] for w in months
                if (i := bisect_left(events, w.start, key=_instant)) == len(events)
                or events[i].timestamp >= w.end]
        reports[team_id] = {"events": len(corpus.events), "gap_months": gaps}
    return files, reports


def cmd_ingest(args: argparse.Namespace) -> int:
    out_dir: Path = args.out
    for path in args.paths:  # a file name names its source, and maybe its team
        try:
            path.name.encode("utf-8")
        except UnicodeEncodeError:
            raise FormatError(f"file name {os.fsencode(path.name)!r} is not UTF-8") from None
    # the archive is replaced: without its manifest, analyze refuses it until
    # this run has written every corpus and removed the stale ones
    (out_dir / "manifest.json").unlink(missing_ok=True)
    corpora_dir = out_dir / "corpora"
    corpora_dir.mkdir(parents=True, exist_ok=True)
    # one team's mail at a time: a CSV or mbox file's team is its stem, so its
    # group is the files of that stem; JSONL records name their own teams, so
    # all JSONL files are one group
    groups: dict[str, list[int]] = {}
    for index, path in enumerate(args.paths):
        team = path.stem if args.format in TEAM_PER_FILE_FORMATS else ""
        groups.setdefault(team, []).append(index)
    months = month_periods(args.period)
    files: dict[int, tuple[dict[str, object], list[ParseIssue]]] = {}
    teams_report: dict[str, dict[str, object]] = {}
    for team, indices in groups.items():
        parsed, reports = _ingest_group(args, team, [args.paths[i] for i in indices],
                                        months, corpora_dir)
        files.update(zip(indices, parsed))
        teams_report.update(reports)
    for stale in corpora_dir.glob("*.jsonl"):
        if stale.stem not in teams_report:
            stale.unlink()
    teams_report = dict(sorted(teams_report.items()))
    issues = [issue for index in sorted(files) for issue in files[index][1]]
    config = report_settings(args)
    manifest = {
        "format": args.format,
        "period": config["period"],
        "config": config,
        "sources": [files[index][0] for index in sorted(files)],
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
    archive: Path = args.archive
    out_dir: Path = args.out
    period = _read_archive_period(archive)
    corpora = sorted((archive / "corpora").glob("*.jsonl"))
    if args.lexicon is None:
        lexicon, lexicon_digest = metrics_mod.default_lexicon(), None
    else:
        data = args.lexicon.read_bytes()
        lexicon = load_lexicon(data)
        lexicon_digest = "sha256:" + hashlib.sha256(data).hexdigest()
    metric_config = MetricConfig(reply_cap=args.reply_cap, lexicon=lexicon,
                                 **{key: getattr(args, key) for key in METRIC_CHOICES})
    vectors: list[MetricVector] = []
    analyzable = 0
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
    (out_dir / "metrics.csv").write_bytes("".join(lines).encode("utf-8"))
    (out_dir / "analyze_config.json").write_text(
        json.dumps(report_settings(args, period=period, lexicon=lexicon_digest),
                   indent=2) + "\n", encoding="utf-8")
    print(f"analyzed {len(vectors)} team(s)")
    print(f"wrote {out_dir / 'metrics.csv'}")
    return 0


#: Largest magnitude of a metrics cell read back.  Every metric ``analyze``
#: writes is far smaller (the largest, ART in seconds, stays below 3.2e11), and
#: below it the float steps of correlation and score cards cannot overflow.
METRIC_CELL_MAX = 1e15

#: A metrics cell's number as it may be written: ASCII digits, maybe a minus
#: sign, a decimal point and an exponent (``float()`` alone reads ``1_0`` and ``٣``).
_METRIC_CELL_RE = re.compile(r"-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _metric_value(cell: str, where: str) -> float | None:
    if cell == "":
        return None
    text = cell.strip()  # as survey cells are stripped
    value = float(text) if _METRIC_CELL_RE.fullmatch(text) else math.nan
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
    out_dir: Path = args.out
    vectors = read_metrics_csv(args.metrics_csv)
    with open(args.survey_csv, "rb") as fh:
        responses = load_survey(fh, source_name=args.survey_csv.name)
    sats = [team_satisfaction(rows, team, args.eligibility_min)
            for team, rows in group_by_team(responses).items()]
    metric_teams = {v.team_id for v in vectors}
    eligible = [s for s in sats if s.eligible and s.team_id in metric_teams]
    if len(eligible) < 3:
        raise CohortTooSmall(f"{len(eligible)} eligible team(s) with metrics; need ≥ 3")
    cells = correlate_all(vectors, sats)
    eligibility = {s.team_id: s.eligible for s in sats}
    cards = build_scorecards(vectors, alert_sigma=args.alert_sigma,
                             eligibility=eligibility)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "correlation.csv").write_bytes(render_correlation_csv(cells))
    config = report_settings(args)
    for format in ("json", "html"):
        (out_dir / f"scorecard.{format}").write_bytes(
            render(cards, format, generated_at=args.generated_at, config=config))
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
    vectors = read_metrics_csv(args.metrics_csv)
    cards = build_scorecards(vectors, alert_sigma=args.alert_sigma)
    blob = render(cards, args.render_format, generated_at=args.generated_at,
                  config=report_settings(args))
    args.out.mkdir(parents=True, exist_ok=True)
    target = args.out / f"scorecard.{args.render_format}"
    target.write_bytes(blob)
    print(f"wrote {target}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import SynthSpec, write_outputs  # only this stage generates data

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


def _parse_effects(raw: str) -> dict[str, Any]:
    if raw == "none":
        return {}
    if raw == "planted":
        from .synth import planted_effects

        return planted_effects()
    if not raw.lstrip().startswith("{"):
        raw = Path(raw).read_text(encoding="utf-8")
    effects = json.loads(raw, parse_int=float)  # an integer size is written as 1.0, not 1
    if not isinstance(effects, dict):
        raise ValueError("effects must be a JSON object")
    return effects


def _setting(parser: argparse.ArgumentParser, flag: str, **kwargs: Any) -> None:
    """Add the option of a report setting, its default read from :data:`REPORT_SETTINGS`."""
    parser.add_argument(flag, default=REPORT_SETTINGS[flag[2:].replace("-", "_")], **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    """The subcommands, each with its stage function and its failure exit code."""
    parser = argparse.ArgumentParser(
        prog="commscore",
        description="Communication score cards from team e-mail logs.")
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=Path, required=True)
    report = argparse.ArgumentParser(add_help=False)
    _setting(report, "--alert-sigma", type=_positive(float))
    report.add_argument("--generated-at", default=DEFAULT_GENERATED_AT,
                        help="UTC instant stamped into reports (fixed default "
                             "keeps reruns byte-identical)")

    def stage(name: str, run: Callable[[argparse.Namespace], int], failure_code: int,
              help: str, *parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        command = sub.add_parser(name, help=help, parents=[out, *parents])
        command.set_defaults(run=run, failure_code=failure_code)
        return command

    p_ingest = stage("ingest", cmd_ingest, 2, "parse mail logs into a corpus archive")
    p_ingest.add_argument("paths", nargs="+", type=Path)
    _setting(p_ingest, "--format", choices=FORMATS)
    p_ingest.add_argument("--period", required=True, type=_argument(parse_period),
                          help="analysis interval START..END (end exclusive)")
    _setting(p_ingest, "--strict", action="store_true",
             help="abort on the first malformed record")

    p_analyze = stage("analyze", cmd_analyze, 3, "compute per-team metric vectors")
    p_analyze.add_argument("archive", type=Path)
    _setting(p_analyze, "--reply-cap", type=_positive(int),
             help="max reply latency in seconds (default 7 days)")
    for key, choices in METRIC_CHOICES.items():
        _setting(p_analyze, "--" + key.replace("_", "-"), choices=choices)
    _setting(p_analyze, "--lexicon", type=Path,
             help="sentiment lexicon file (default: bundled)")

    p_corr = stage("correlate", cmd_correlate, 4,
                   "correlate metrics with survey satisfaction", report)
    p_corr.add_argument("metrics_csv", type=Path)
    p_corr.add_argument("survey_csv", type=Path)
    _setting(p_corr, "--eligibility-min", type=_positive(int),
             help="respondents required (strictly more than this)")

    p_card = stage("scorecard", cmd_scorecard, 4,
                   "render score cards from a metrics CSV", report)
    p_card.add_argument("metrics_csv", type=Path)
    # its own dest: the report's "format" setting is ingest's mail format
    p_card.add_argument("--format", dest="render_format", choices=SCORECARD_FORMATS,
                        default=SCORECARD_FORMATS[0])

    p_synth = stage("synth", cmd_synth, 1, "generate a synthetic corpus + survey")
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
