"""End-to-end pipeline behaviour of the command line."""

from __future__ import annotations

import ast
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import commscore
from commscore._text import csv_line
from commscore.cli import METRICS_CSV_HEADER, main, parse_period, read_metrics_csv
from commscore.errors import FormatError, MalformedRecord
from commscore.ingest import make_event, parse_timestamp, serialize_events
from commscore.metrics import METRIC_CHOICES, METRIC_FIELDS

import oracles
from mail import EVERY_PATH_MAIL, MONTHS, Message, period, team_mail, write_mail

PERIOD = "2012-06-01..2012-09-01"
MAIL_HEADER = b"timestamp,from,to,cc,subject\n"
MAIL_ROW = b"2012-06-04T09:00:00Z,a@x.com,b@x.com,,hello\n"
BAD_ROW = b"bad,a@x.com,b@x.com,,hi\n"
SURVEY_HEADER = b"team_id,respondent_id,nps,kpd_1,kpd_2,kpd_3,kpd_4,kpd_5,kpd_6,kpd_7,kpd_8\n"


def run(*argv: str) -> int:
    return main([str(a) for a in argv])


def _synth(tmp_path: Path, *, seed: int = 3, teams: int = 4,
           effects: str = "none") -> Path:
    data = tmp_path / "data"
    assert run("synth", "--out", data, "--seed", str(seed), "--teams", str(teams),
               "--months", "3", "--respondents", "22", "--effects", effects) == 0
    return data


def _pipeline(tmp_path: Path, data: Path) -> tuple[Path, Path, Path]:
    corpus = tmp_path / "corpus"
    metrics = tmp_path / "metrics"
    report = tmp_path / "report"
    mail = sorted((data / "mail").glob("*.csv"))
    assert run("ingest", *mail, "--period", "2012-06-01..2012-09-01",
               "--out", corpus) == 0
    assert run("analyze", corpus, "--out", metrics) == 0
    assert run("correlate", metrics / "metrics.csv", data / "survey.csv",
               "--out", report) == 0
    return corpus, metrics, report


def test_full_pipeline_produces_all_reports(tmp_path):
    data = _synth(tmp_path, seed=3)
    corpus, metrics, report = _pipeline(tmp_path, data)
    assert (corpus / "manifest.json").exists()
    assert (metrics / "metrics.csv").exists()
    assert (report / "correlation.csv").exists()
    assert (report / "scorecard.json").exists()
    assert (report / "scorecard.html").exists()
    manifest = json.loads((corpus / "manifest.json").read_text())
    assert len(manifest["teams"]) == 4
    payload = json.loads((report / "scorecard.json").read_text())
    assert len(payload["teams"]) == 4
    assert payload["config"]["fingerprint"]


def test_pipeline_reruns_are_byte_identical(tmp_path):
    data = _synth(tmp_path, seed=8)
    _, metrics_a, report_a = _pipeline(tmp_path / "a", data)
    _, metrics_b, report_b = _pipeline(tmp_path / "b", data)
    for name, first, second in [
        ("metrics.csv", metrics_a, metrics_b),
        ("correlation.csv", report_a, report_b),
        ("scorecard.json", report_a, report_b),
        ("scorecard.html", report_a, report_b),
    ]:
        assert (first / name).read_bytes() == (second / name).read_bytes()


@st.composite
def _surveyed_mail(draw) -> tuple[int, list[Message], bytes]:
    """(months, messages, survey): :func:`mail.team_mail` and two or three
    respondents for each of its teams."""
    months, messages = draw(team_mail())
    survey = [SURVEY_HEADER.decode()]
    for team in sorted({m.team for m in messages}):
        survey += [csv_line([team, f"r{k}", str(draw(st.integers(0, 10)))] + draw(st.lists(
            st.sampled_from(["1", "2.5", "3", "4.5", "5"]), min_size=8, max_size=8)))
            for k in range(draw(st.integers(2, 3)))]
    return months, messages, "".join(survey).encode()


#: Metrics defined for one team only: the score card writes each such value
#: rounded to three places (AWVCI 0.320988 reads 0.321) but scores none of them.
_ONE_TEAM_DEFINED = (1, [Message(MONTHS[0] + timedelta(hours=9), sender, (to,), cc, "plan", team)
                         for team, sender, to, cc in (
    ("t0", "a0@t0.example", "a0@t0.example", ()),
    ("t1", "a0@t1.example", "a0@t1.example", ()),
    ("t2", "a0@t2.example", "a1@t2.example", ()),
    ("t2", "a1@t2.example", "a0@t2.example", ("a2@t2.example",)))],
    SURVEY_HEADER + b"".join(b"t%d,r%d,0,1,1,1,1,1,1,1,1\n" % (team, k)
                             for team in range(3) for k in range(2)))


@pytest.mark.parametrize("choices", list(itertools.product(*METRIC_CHOICES.values())))
def test_reports_equal_the_oracle_pipeline(choices):
    """``ingest``, ``analyze`` and ``correlate`` write ``metrics.csv``,
    ``correlation.csv`` and ``scorecard.json`` byte for byte as
    ``oracles.metrics_csv`` and ``oracles.reports`` derive them from the
    oracles' parse of the same mail, as CSV, JSONL or mbox, under each
    metric choice."""
    options = dict(zip(METRIC_CHOICES, choices))
    flags = [part for key, value in options.items()
             for part in ("--" + key.replace("_", "-"), value)]
    lexicon = (Path(commscore.__file__).parent / "data" / "default_lexicon.txt").read_bytes()

    @given(_surveyed_mail(), st.sampled_from(["csv", "jsonl", "mbox"]),
           st.sampled_from([3600, 86400, 7 * 86400]))
    @example(_ONE_TEAM_DEFINED, "csv", 3600)
    @example(_ONE_TEAM_DEFINED, "jsonl", 3600)
    @example(_ONE_TEAM_DEFINED, "mbox", 3600)
    @settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def check(inputs, format: str, reply_cap: int) -> None:
        months, messages, survey = inputs
        events = []
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            paths = write_mail(messages, root / "mail", format)
            for path in paths:
                events += oracles.reference_parse(path.read_bytes(), format, make_event,
                                                  parse_timestamp, default_team=path.stem)[0]
            assert run("ingest", *paths, "--format", format, "--period", period(months),
                       "--out", root / "archive") == 0
            assert run("analyze", root / "archive", "--out", root / "metrics",
                       "--reply-cap", reply_cap, *flags) == 0
            assert run("correlate", root / "metrics" / "metrics.csv",
                       _write(root / "survey.csv", survey), "--out", root / "report",
                       "--eligibility-min", "1", "--alert-sigma", "0.5") == 0
            metrics = oracles.metrics_csv(events, MONTHS[0], MONTHS[months], reply_cap=reply_cap,
                                          lexicon=lexicon, **options)
            assert (root / "metrics" / "metrics.csv").read_bytes() == metrics
            correlation, scorecard = oracles.reports(metrics, survey, eligibility_min=1,
                                                     alert_sigma=0.5)
            assert (root / "report" / "correlation.csv").read_bytes() == correlation
            assert (root / "report" / "scorecard.json").read_bytes() == scorecard
    check()


@given(team_mail(), st.sampled_from(["csv", "jsonl", "mbox"]), st.integers(0, 4))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_removing_one_teams_mail_leaves_every_other_row_unchanged(drawn, format, which):
    """Team independence through ``main()``: the same mail without one team's
    messages analyzes to ``metrics.csv`` without that team's row, every other
    row byte-identical."""
    months, messages = drawn
    teams = sorted({m.team for m in messages})
    gone = teams[which % len(teams)]
    written = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, kept in (("all", messages), ("rest", [m for m in messages if m.team != gone])):
            root = Path(tmp) / name
            assert run("ingest", *write_mail(kept, root / "mail", format), "--format", format,
                       "--period", period(months), "--out", root / "archive") == 0
            assert run("analyze", root / "archive", "--out", root / "metrics") == 0
            written.append((root / "metrics" / "metrics.csv").read_bytes().splitlines())
    assert len(written[0]) == 1 + len(teams)
    assert written[1] == [row for row in written[0] if not row.startswith(f"{gone},".encode())]


FIXTURE = Path(__file__).parent / "data" / "fixture"

#: Every report setting of a run that changes none of them.
DEFAULT_SETTINGS = {"period": None, "format": "csv", "reply_cap": 604800,
                    "oscillation_window": "weekly", "awvci_weighting": "edges",
                    "emotionality_mode": "cumulative", "eligibility_min": 20,
                    "alert_sigma": 1.0, "strict": False, "lexicon": "builtin"}
FIXTURE_PERIOD = {"start": "2012-06-01T00:00:00Z", "end": "2012-09-01T00:00:00Z"}


def test_reports_embed_their_settings_and_fingerprint(tmp_path):
    """Each stage's settings payload, key order and fingerprint included, on the fixture."""
    lexicon = _write(tmp_path / "words.txt", b"[positive]\ngood\n[negative]\nbad\n")
    corpus, metrics, report, card = (tmp_path / name for name in ("c", "m", "r", "s"))
    assert run("ingest", *sorted((FIXTURE / "mail").glob("*.csv")), "--period", PERIOD,
               "--out", corpus, "--strict") == 0
    assert run("analyze", corpus, "--out", metrics, "--reply-cap", "3600",
               "--oscillation-window", "monthly", "--awvci-weighting", "actors",
               "--emotionality-mode", "normalized", "--lexicon", lexicon) == 0
    assert run("correlate", metrics / "metrics.csv", FIXTURE / "survey.csv", "--out", report,
               "--alert-sigma", "0.5", "--eligibility-min", "3") == 0
    assert run("scorecard", metrics / "metrics.csv", "--out", card, "--format", "json") == 0

    def read(path: Path) -> dict:
        return json.loads(path.read_text(encoding="utf-8"))

    ingest = {"fingerprint": "1569ab0c3645",
              **DEFAULT_SETTINGS, "period": FIXTURE_PERIOD, "strict": True}
    analyze = {"fingerprint": "2c3a6dcae07d", **DEFAULT_SETTINGS, "period": FIXTURE_PERIOD,
               "reply_cap": 3600, "oscillation_window": "monthly",
               "awvci_weighting": "actors", "emotionality_mode": "normalized",
               "lexicon": "sha256:" + hashlib.sha256(lexicon.read_bytes()).hexdigest()}
    correlate = {"fingerprint": "d911f4d41066",
                 **DEFAULT_SETTINGS, "eligibility_min": 3, "alert_sigma": 0.5}
    scorecard = {"fingerprint": "4355eeac78fa", **DEFAULT_SETTINGS}
    # manifest.json and analyze_config.json keep the settings' order;
    # scorecard.json sorts every key
    assert list(read(corpus / "manifest.json")["config"].items()) == list(ingest.items())
    assert list(read(metrics / "analyze_config.json").items()) == list(analyze.items())
    assert list(read(report / "scorecard.json")["config"].items()) == sorted(correlate.items())
    assert list(read(card / "scorecard.json")["config"].items()) == sorted(scorecard.items())


def test_a_lexicon_file_may_start_with_a_byte_order_mark(tmp_path):
    """A ``--lexicon`` file drops a leading BOM as a CSV file does, so the same
    words with and without one write the same metrics."""
    corpus = tmp_path / "c"
    assert run("ingest", *sorted((FIXTURE / "mail").glob("*.csv")), "--period", PERIOD,
               "--out", corpus) == 0
    words = (Path(commscore.__file__).parent / "data" / "default_lexicon.txt").read_bytes()
    written = []
    for name, data in (("plain", words), ("bom", b"\xef\xbb\xbf" + words)):
        lexicon = _write(tmp_path / name / "words.txt", data)
        assert run("analyze", corpus, "--out", tmp_path / name / "m", "--lexicon", lexicon) == 0
        written.append((tmp_path / name / "m" / "metrics.csv").read_bytes())
    assert written[0] == written[1]


def test_a_lexicon_is_fingerprinted_by_its_bytes(tmp_path):
    """Two lexicons of one file name are two settings; the bundled one stays
    ``"builtin"``, so an all-default run keeps its fingerprint."""
    corpus = tmp_path / "c"
    assert run("ingest", *sorted((FIXTURE / "mail").glob("*.csv")), "--period", PERIOD,
               "--out", corpus) == 0
    recorded = {}
    for name, words in (("lexA", b"great\nthanks\n"), ("lexB", b"fine\n"), ("default", None)):
        options = []
        if words is not None:
            lexicon = _write(tmp_path / name / "words.txt", b"[positive]\n" + words)
            options = ["--lexicon", lexicon]
        assert run("analyze", corpus, "--out", tmp_path / f"m{name}", *options) == 0
        recorded[name] = json.loads(
            (tmp_path / f"m{name}" / "analyze_config.json").read_text(encoding="utf-8"))
    for name in ("lexA", "lexB"):
        data = (tmp_path / name / "words.txt").read_bytes()
        assert recorded[name]["lexicon"] == "sha256:" + hashlib.sha256(data).hexdigest()
    assert recorded["lexA"]["fingerprint"] != recorded["lexB"]["fingerprint"]
    assert recorded["default"] == {"fingerprint": "8b9cbcbcccad", **DEFAULT_SETTINGS,
                                   "period": FIXTURE_PERIOD}


def test_metrics_header_uses_report_labels(tmp_path):
    data = _synth(tmp_path)
    _, metrics, _ = _pipeline(tmp_path, data)
    header = (metrics / "metrics.csv").read_text().splitlines()[0]
    assert header == ("team_id,Avg GBC,Avg GDC,Avg Density,Avg. New Actors,"
                      "Sum of Oscillation,ART Median,"
                      "AWVCI (weighted by #actors),"
                      "Emotionality (cumulated pos. sentiment)")


def test_ingest_reports_gap_months(tmp_path, capsys):
    mail = tmp_path / "team.csv"
    mail.write_text("timestamp,from,to,cc,subject\n"
                    "2012-06-04T09:00:00Z,a@x.com,b@x.com,,hello\n"
                    "2012-08-06T09:00:00Z,a@x.com,b@x.com,,again\n")
    assert run("ingest", mail, "--period", "2012-06-01..2012-09-01",
               "--out", tmp_path / "c") == 0
    out = capsys.readouterr().out
    assert "months without e-mail: 2012-07" in out
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert manifest["teams"]["team"]["gap_months"] == ["2012-07"]


def test_archive_before_year_1000_reads_back(tmp_path, capsys):
    mail = tmp_path / "team.csv"
    mail.write_text("timestamp,from,to,cc,subject\n"
                    "0999-01-02T03:04:05Z,a@x.com,b@x.com,,hello\n")
    assert run("ingest", mail, "--period", "0999-01-01..0999-03-01",
               "--out", tmp_path / "c") == 0
    assert "months without e-mail: 0999-02" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert manifest["period"] == {"start": "0999-01-01T00:00:00Z",
                                  "end": "0999-03-01T00:00:00Z"}
    assert manifest["teams"]["team"]["gap_months"] == ["0999-02"]
    archived = (tmp_path / "c" / "corpora" / "team.jsonl").read_text()
    assert archived.startswith('{"timestamp":"0999-01-02T03:04:05Z",')
    assert run("analyze", tmp_path / "c", "--out", tmp_path / "m") == 0


def test_ingest_lenient_skips_and_counts_bad_rows(tmp_path):
    mail = tmp_path / "team.csv"
    mail.write_text("timestamp,from,to,cc,subject\n"
                    "bad-stamp,a@x.com,b@x.com,,hello\n"
                    "2012-06-04T09:00:00Z,a@x.com,b@x.com,,ok\n")
    assert run("ingest", mail, "--period", "2012-06-01..2012-09-01",
               "--out", tmp_path / "c") == 0
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert manifest["sources"][0]["skipped"] == 1
    assert manifest["teams"]["team"]["events"] == 1


def test_ingest_strict_mode_exits_2(tmp_path):
    mail = tmp_path / "team.csv"
    mail.write_text("timestamp,from,to,cc,subject\nbad,a@x.com,b@x.com,,hi\n")
    assert run("ingest", mail, "--period", "2012-06-01..2012-09-01",
               "--out", tmp_path / "c", "--strict") == 2


def test_ingest_again_replaces_the_archive(tmp_path, capsys):
    """A second ingest into one ``--out`` leaves only its own teams' corpora,
    and ``analyze`` reads exactly the teams of the manifest."""
    mail = sorted((FIXTURE / "mail").glob("*.csv"))
    assert run("ingest", *mail, "--period", PERIOD, "--out", tmp_path / "c") == 0
    assert run("ingest", *mail[:2], "--period", PERIOD, "--out", tmp_path / "c") == 0
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    corpora = sorted(p.stem for p in (tmp_path / "c" / "corpora").iterdir())
    assert corpora == sorted(manifest["teams"]) == [p.stem for p in mail[:2]]
    capsys.readouterr()
    assert run("analyze", tmp_path / "c", "--out", tmp_path / "m") == 0
    assert "analyzed 2 team(s)" in capsys.readouterr().out


def test_a_failed_ingest_leaves_no_archive_to_analyze(tmp_path, capsys):
    mail = sorted((FIXTURE / "mail").glob("*.csv"))
    assert run("ingest", *mail, "--period", PERIOD, "--out", tmp_path / "c") == 0
    blocked = tmp_path / "c" / "corpora" / f"{mail[-1].stem}.jsonl"
    blocked.unlink()
    blocked.mkdir()  # the corpus of the last team cannot be written
    assert run("ingest", *mail, "--period", PERIOD, "--out", tmp_path / "c") == 2
    assert not (tmp_path / "c" / "manifest.json").exists()
    capsys.readouterr()
    assert run("analyze", tmp_path / "c", "--out", tmp_path / "m") == 3
    assert "is not an ingest archive" in capsys.readouterr().err


def test_ingest_reads_the_files_of_one_team_together(tmp_path, capsys):
    """Files of one stem are one team, wherever they are on the command line;
    sources and issues keep the command-line order."""
    other = b"2012-06-05T09:00:00Z,b@x.com,a@x.com,,re\n"
    last = b"2012-07-02T09:00:00Z,a@x.com,c@x.com,,more\n"
    a = _write(tmp_path / "a" / "t.csv", MAIL_HEADER + MAIL_ROW + other + BAD_ROW)
    u = _write(tmp_path / "u.csv", MAIL_HEADER + BAD_ROW + MAIL_ROW)
    b = _write(tmp_path / "b" / "t.csv", MAIL_HEADER + BAD_ROW + MAIL_ROW + last)
    both = _write(tmp_path / "both" / "t.csv", MAIL_HEADER + MAIL_ROW + other + MAIL_ROW + last)
    assert run("ingest", a, u, b, "--period", PERIOD, "--out", tmp_path / "c") == 0
    assert run("ingest", both, "--period", PERIOD, "--out", tmp_path / "one") == 0
    corpora = tmp_path / "c" / "corpora"
    assert sorted(p.name for p in corpora.iterdir()) == ["t.jsonl", "u.jsonl"]
    assert (corpora / "t.jsonl").read_bytes() == \
        (tmp_path / "one" / "corpora" / "t.jsonl").read_bytes()
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text(encoding="utf-8"))
    assert [(s["path"], s["events"], s["skipped"]) for s in manifest["sources"]] == [
        ("t.csv", 2, 1), ("u.csv", 1, 1), ("t.csv", 2, 1)]
    assert [(i["source"], i["line"]) for i in manifest["issues"]] == [
        ("t.csv", 4), ("u.csv", 2), ("t.csv", 2)]
    assert manifest["teams"] == {"t": {"events": 3, "gap_months": ["2012-08"]},
                                 "u": {"events": 1, "gap_months": ["2012-07", "2012-08"]}}
    clean = [_write(tmp_path / "clean" / "t.csv", MAIL_HEADER + MAIL_ROW),
             _write(tmp_path / "clean" / "u.csv", MAIL_HEADER + MAIL_ROW)]
    capsys.readouterr()
    assert run("ingest", *clean, b, "--period", PERIOD, "--out", tmp_path / "c",
               "--strict") == 2
    assert capsys.readouterr().err.startswith("error: t.csv:2: bad timestamp 'bad'")
    assert not (tmp_path / "c" / "manifest.json").exists()
    assert run("analyze", tmp_path / "c", "--out", tmp_path / "m") == 3


def test_ingest_memory_is_bounded_by_the_largest_team(tmp_path):
    """Ingest holds one team's mail at a time: the peak of eight equal teams
    stays near that of one, not eight times it.  Each team's 1,500 messages
    among six actors lie a little over 17 hours apart."""
    actors = [f"u{i}@team.example" for i in range(6)]
    start = datetime(2012, 1, 1, tzinfo=timezone.utc)
    paths = write_mail([Message(start + timedelta(minutes=1049 * n), actors[n % 6],
                                (actors[(n + 1) % 6], actors[(n + 3) % 6]), (), f"status {n}",
                                f"t{team}")
                        for team in range(8) for n in range(1500)], tmp_path / "in", "csv")
    period = "2012-01-01..2015-01-01"
    assert run("ingest", paths[0], "--period", period, "--out", tmp_path / "warm") == 0

    def peak(files: list[Path]) -> int:
        tracemalloc.start()
        try:
            assert run("ingest", *files, "--period", period, "--out", tmp_path / "c") == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, eight = peak(paths[:1]), peak(paths)
    assert eight < 1.5 * one, (one, eight)


def test_a_mail_file_name_that_is_not_utf8_fails_before_writing(tmp_path, capsys):
    name = os.fsdecode(b"\xff.csv")  # as the command line decodes the byte
    mail = _write(tmp_path / "in" / name, MAIL_HEADER + MAIL_ROW)
    ok = _write(tmp_path / "in" / "ok.csv", MAIL_HEADER + MAIL_ROW)
    assert run("ingest", ok, mail, "--period", PERIOD, "--out", tmp_path / "c") == 2
    assert capsys.readouterr().err == "error: file name b'\\xff.csv' is not UTF-8\n"
    assert not (tmp_path / "c").exists()


def test_lone_surrogate_records_are_malformed(tmp_path, capsys):
    good = _jsonl("t")
    mail = _write(tmp_path / "m.jsonl", good.replace(b"a@x.com", b"a\\ud800@x.com") + good
                  + good.replace(b'"t"', b'"t\\udfff"')
                  + good.replace(b"}", b', "subject": "\\udc00"}'))
    args = ("ingest", mail, "--format", "jsonl", "--period", PERIOD)
    assert run(*args, "--out", tmp_path / "c") == 0
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text(encoding="utf-8"))
    assert [(i["line"], i["message"]) for i in manifest["issues"]] == [
        (1, "not a local@domain address: 'a\\ud800@x.com'"),
        (3, "team_id 't\\udfff' holds a lone surrogate"),
        (4, "subject '\\udc00' holds a lone surrogate")]
    assert manifest["teams"]["t"]["events"] == 1
    assert run(*args, "--out", tmp_path / "s", "--strict") == 2
    assert capsys.readouterr().err == (
        "error: m.jsonl:1: not a local@domain address: 'a\\ud800@x.com'\n")


def test_a_team_id_that_is_not_a_string_names_no_corpus(tmp_path, capsys):
    mail = _write(tmp_path / "m.jsonl", _jsonl("t") + _jsonl("t").replace(b'"t"', b'["t"]'))
    args = ("ingest", mail, "--format", "jsonl", "--period", PERIOD)
    assert run(*args, "--out", tmp_path / "c") == 0
    assert sorted(p.name for p in (tmp_path / "c" / "corpora").iterdir()) == ["t.jsonl"]
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text(encoding="utf-8"))
    assert [(i["line"], i["message"]) for i in manifest["issues"]] == [
        (2, "team_id must be a string")]
    assert run(*args, "--out", tmp_path / "s", "--strict") == 2
    assert capsys.readouterr().err == "error: m.jsonl:2: team_id must be a string\n"


def test_analyze_empty_archive_exits_3(tmp_path):
    mail = tmp_path / "team.csv"
    mail.write_text("timestamp,from,to,cc,subject\n")
    assert run("ingest", mail, "--period", "2012-06-01..2012-09-01",
               "--out", tmp_path / "c") == 0
    assert run("analyze", tmp_path / "c", "--out", tmp_path / "m") == 3


def test_analyze_rejects_non_archive(tmp_path):
    assert run("analyze", tmp_path, "--out", tmp_path / "m") == 3


def test_correlate_without_enough_eligible_teams_exits_4(tmp_path):
    data = _synth(tmp_path, teams=4)
    corpus = tmp_path / "corpus"
    metrics = tmp_path / "metrics"
    mail = sorted((data / "mail").glob("*.csv"))
    run("ingest", *mail, "--period", "2012-06-01..2012-09-01", "--out", corpus)
    run("analyze", corpus, "--out", metrics)
    # demand far more respondents than generated
    assert run("correlate", metrics / "metrics.csv", data / "survey.csv",
               "--out", tmp_path / "r", "--eligibility-min", "500") == 4


def test_correlate_announces_significant_cells(tmp_path, capsys):
    data = _synth(tmp_path, teams=13, seed=7, effects="planted")
    _pipeline(tmp_path, data)
    out = capsys.readouterr().out
    assert "significant:" in out


def test_scorecard_subcommand_renders_alternate_formats(tmp_path):
    data = _synth(tmp_path)
    _, metrics, _ = _pipeline(tmp_path, data)
    for format in ("json", "csv", "html"):
        assert run("scorecard", metrics / "metrics.csv", "--out", tmp_path / "sc",
                   "--format", format) == 0
        assert (tmp_path / "sc" / f"scorecard.{format}").exists()


def test_analyze_config_switch_changes_only_awvci(tmp_path):
    data = _synth(tmp_path, seed=12)
    corpus = tmp_path / "corpus"
    mail = sorted((data / "mail").glob("*.csv"))
    run("ingest", *mail, "--period", "2012-06-01..2012-09-01", "--out", corpus)
    run("analyze", corpus, "--out", tmp_path / "default")
    run("analyze", corpus, "--out", tmp_path / "actors", "--awvci-weighting", "actors")
    base = (tmp_path / "default" / "metrics.csv").read_text().splitlines()
    alt = (tmp_path / "actors" / "metrics.csv").read_text().splitlines()
    awvci_column = base[0].split(",").index("AWVCI (weighted by #actors)")
    for left, right in zip(base[1:], alt[1:]):
        l_cells, r_cells = left.split(","), right.split(",")
        del l_cells[awvci_column], r_cells[awvci_column]
        assert l_cells == r_cells


def test_bad_period_is_a_usage_error(tmp_path):
    mail = tmp_path / "t.csv"
    mail.write_text("timestamp,from,to,cc,subject\n")
    assert run("ingest", mail, "--period", "2012-06-01", "--out", tmp_path / "c") == 1
    with pytest.raises(ValueError):
        parse_period("2012-06-01")
    period = parse_period("2012-06-01..2012-09-01")
    assert period.start.isoformat() == "2012-06-01T00:00:00+00:00"


def test_synth_effects_accept_inline_json(tmp_path):
    assert run("synth", "--out", tmp_path / "d", "--seed", "1", "--teams", "2",
               "--effects", '{"art_median": 0.5}') == 0
    manifest = json.loads((tmp_path / "d" / "synth_manifest.json").read_text())
    assert manifest["effects"] == {"art_median": 0.5}
    assert run("synth", "--out", tmp_path / "i", "--seed", "1", "--teams", "2",
               "--effects", '{"art_median": 1, "awvci": 0}') == 0
    assert '"art_median": 1.0,\n    "awvci": 0.0\n' in (
        tmp_path / "i" / "synth_manifest.json").read_text()


def test_synth_rejects_unknown_effect_keys(tmp_path):
    assert run("synth", "--out", tmp_path / "d", "--effects", '{"bogus": 0.5}') == 1


def _write(path: Path, content: bytes) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(content)
    return path


def _jsonl(team_id: str) -> bytes:
    return (json.dumps({"timestamp": "2012-06-04T09:00:00Z", "from": "a@x.com",
                        "to": ["b@x.com"], "team_id": team_id}) + "\n").encode()


def _metrics(*cells: str, teams: tuple[str, ...] = ("alpha", "bravo", "carol"),
             scale: str = "") -> bytes:
    """A metrics CSV with one row per team; ``cells`` fill the first team's row.

    ``scale`` is appended to every generated cell, e.g. ``"e-200"``.
    """
    rows = [METRICS_CSV_HEADER]
    for n, team in enumerate(teams):
        values = [f"{0.25 * (n + 1) + k}{scale}" for k in range(len(METRICS_CSV_HEADER) - 1)]
        if n == 0:
            values[:len(cells)] = cells
        rows.append((team, *values))
    return "".join(csv_line(r) for r in rows).encode()


def _survey(extra: str = "") -> bytes:
    """Two respondents for each team of :func:`_metrics`: eligible at ``--eligibility-min 1``.

    ``extra`` is appended as further rows.
    """
    rows = [f"{team},r{k},{3 * n + k},{n + k + 1},3,3,3,3,3,3,3\n"
            for n, team in enumerate(("alpha", "bravo", "carol")) for k in (0, 1)]
    return SURVEY_HEADER + "".join(rows).encode() + extra.encode()


def _correlate_survey(extra: str) -> Callable[[Path], list[object]]:
    """argv for ``correlate`` on a good metrics file and ``_survey(extra)``."""
    return lambda d: ["correlate", _write(d / "m.csv", _metrics()),
                      _write(d / "s.csv", _survey(extra)), "--out", d / "o",
                      "--eligibility-min", "1"]


def _metrics_argv(command: str, teams: tuple[str, ...]) -> Callable[[Path], list[object]]:
    """argv for ``correlate`` or ``scorecard`` on ``_metrics(teams=teams)``."""
    def argv(d: Path) -> list[object]:
        args = [command, _write(d / "m.csv", _metrics(teams=teams))]
        if command == "correlate":
            args += [_write(d / "s.csv", _survey()), "--eligibility-min", "1"]
        return args + ["--out", d / "o"]
    return argv


def _empty_archive(d: Path) -> Path:
    assert run("ingest", _write(d / "team.csv", MAIL_HEADER), "--period", PERIOD,
               "--out", d / "c") == 0
    return d / "c"


def _archive(d: Path, start: str = "2012-06-01T00:00:00Z", corpus: bytes = b"") -> Path:
    """An archive whose manifest period begins at ``start``, with one team corpus."""
    period = {"start": start, "end": "2012-09-01T00:00:00Z"}
    _write(d / "a" / "manifest.json", json.dumps({"period": period}).encode())
    _write(d / "a" / "corpora" / "team.jsonl", corpus)
    return d / "a"


#: Year 1's first instant one hour east of UTC, which is still year 0 in UTC.
BEFORE_YEAR_1 = "0001-01-01T00:00:00+01:00"
#: JSON nested deeper than the decoder's recursion limit.
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000 + b"\n"

DUPLICATE_TEAM = ("alpha", "bravo", "carol", "alpha")
PADDED_DUPLICATE_TEAM = ("alpha", "bravo", "carol", " alpha")
EMPTY_TEAM = ("alpha", "bravo", "carol", " ")

EXIT_CODE_CASES = [
    pytest.param(1, lambda d: ["ingest", _write(d / "t.csv", MAIL_HEADER + MAIL_ROW),
                               "--period", "2012-06-01", "--out", d / "o"],
                 id="bad-period"),
    pytest.param(1, lambda d: ["ingest", _write(d / "t.csv", MAIL_HEADER + MAIL_ROW),
                               "--period", f"{BEFORE_YEAR_1}..2012-02-01", "--out", d / "o"],
                 id="period-before-year-1"),
    pytest.param(1, lambda d: ["analyze", d, "--out", d / "o", "--reply-cap", "0"],
                 id="reply-cap-0"),
    pytest.param(1, lambda d: ["correlate", d / "m.csv", d / "s.csv", "--out", d / "o",
                               "--alert-sigma", "0"],
                 id="alert-sigma-0"),
    pytest.param(1, lambda d: ["correlate", d / "m.csv", d / "s.csv", "--out", d / "o",
                               "--eligibility-min", "0"],
                 id="eligibility-min-0"),
    *(pytest.param(1, lambda d, sigma=sigma: ["scorecard", d / "m.csv", "--out", d / "o",
                                              "--alert-sigma", sigma],
                   id=f"scorecard-alert-sigma-{sigma}")
      for sigma in ("0", "nan", "inf")),
    pytest.param(1, lambda d: ["synth", "--out", d / "o", "--effects", '{"bogus": 0.5}'],
                 id="unknown-effect-key"),
    pytest.param(1, lambda d: ["synth", "--out", d / "o", "--effects", '{"avg_gbc:x": 0.5}'],
                 id="suffixed-effect-key"),
    *(pytest.param(1, lambda d, size=size: ["synth", "--out", d / "o",
                                            "--effects", f'{{"avg_gbc": {size}}}'],
                   id=f"effect-size-{name}")
      for name, size in (("string", '"0.5"'), ("padded-string", '" 1 "'), ("true", "true"),
                         ("null", "null"), ("list", "[0.5]"))),
    pytest.param(1, lambda d: ["synth", "--out", d / "o",
                               "--effects", _write(d / "e.json", DEEP_JSON)],
                 id="deeply-nested-effects-file"),
    pytest.param(2, lambda d: ["ingest", _write(d / "t.csv", MAIL_HEADER + MAIL_ROW.replace(
                                   b"2012-06-04T09:00:00Z", BEFORE_YEAR_1.encode())),
                               "--period", PERIOD, "--out", d / "o", "--strict"],
                 id="strict-row-before-year-1"),
    pytest.param(2, lambda d: ["ingest", _write(d / "t.jsonl", DEEP_JSON), "--format", "jsonl",
                               "--period", PERIOD, "--out", d / "o", "--strict"],
                 id="strict-deeply-nested-jsonl"),
    pytest.param(2, lambda d: ["ingest", _write(d / "t.csv", MAIL_HEADER + BAD_ROW),
                               "--period", PERIOD, "--out", d / "o", "--strict"],
                 id="strict-malformed-row"),
    pytest.param(2, lambda d: ["ingest", _write(d / "t.csv", MAIL_HEADER + b"\xff\n"),
                               "--period", PERIOD, "--out", d / "o"],
                 id="non-utf8-csv"),
    pytest.param(2, lambda d: ["ingest", _write(d / "t.mbox", b"From x\nFrom: a@x.com\n"
                                                b"To: b@x.com\nSubject: caf\xff\n"
                                                b"Date: Mon, 04 Jun 2012 09:00:00 +0000\n\n"),
                               "--format", "mbox", "--period", PERIOD, "--out", d / "o",
                               "--strict"],
                 id="strict-non-utf8-mbox-header"),
    pytest.param(2, lambda d: ["ingest", _write(d / "t.jsonl", _jsonl("../../escaped")),
                               "--format", "jsonl", "--period", PERIOD, "--out", d / "o",
                               "--strict"],
                 id="strict-unsafe-team-id"),
    pytest.param(2, lambda d: ["ingest", _write(d / "t.jsonl", _jsonl("t").replace(
                                   b'"a@x.com"', b'["a@x.com"]')),
                               "--format", "jsonl", "--period", PERIOD, "--out", d / "o",
                               "--strict"],
                 id="strict-non-string-sender"),
    pytest.param(3, lambda d: ["analyze", _empty_archive(d), "--out", d / "o"],
                 id="empty-archive"),
    pytest.param(3, lambda d: ["analyze", _archive(d, start=BEFORE_YEAR_1), "--out", d / "o"],
                 id="archive-period-before-year-1"),
    pytest.param(3, lambda d: ["analyze", _archive(d, corpus=DEEP_JSON), "--out", d / "o"],
                 id="deeply-nested-archive-corpus"),
    *(pytest.param(code, lambda d, words=words: [
        "analyze", _archive(d, corpus=_jsonl("team")), "--out", d / "o",
        "--lexicon", _write(d / "words.txt", b"[positive]\ngood\n" + words)],
                   id=f"lexicon-{name}")
      for code, name, words in ((0, "unicode-word", "caf\u00e9\n".encode()),
                                (3, "hyphenated-entry", b"well-done\n"),
                                (3, "two-word-entry", b"thank you\n"))),
    pytest.param(4, lambda d: ["correlate", _write(d / "m.csv", _metrics("nan")),
                               _write(d / "s.csv", _survey()), "--out", d / "o",
                               "--eligibility-min", "1"],
                 id="nan-metric-correlate"),
    pytest.param(4, lambda d: ["scorecard", _write(d / "m.csv", _metrics("nan")),
                               "--out", d / "o"],
                 id="nan-metric-scorecard"),
    pytest.param(4, lambda d: ["correlate", _write(d / "m.csv", _metrics("1e200")),
                               _write(d / "s.csv", _survey()), "--out", d / "o",
                               "--eligibility-min", "1"],
                 id="huge-metric-correlate"),
    pytest.param(4, lambda d: ["scorecard", _write(d / "m.csv", _metrics("1e200")),
                               "--out", d / "o"],
                 id="huge-metric-scorecard"),
    pytest.param(0, lambda d: ["correlate", _write(d / "m.csv", _metrics(scale="e-200")),
                               _write(d / "s.csv", _survey()), "--out", d / "o",
                               "--eligibility-min", "1"],
                 id="tiny-metric-correlate"),
    *(pytest.param(4, _metrics_argv(command, teams), id=f"{name}-team-{command}")
      for name, teams in (("duplicate", DUPLICATE_TEAM),
                          ("padded-duplicate", PADDED_DUPLICATE_TEAM), ("empty", EMPTY_TEAM))
      for command in ("correlate", "scorecard")),
    pytest.param(4, _correlate_survey("dave,r0,5,99,3,3,3,3,3,3,3\n"), id="kpd-99"),
    pytest.param(4, _correlate_survey("dave,r0,5,-3,3,3,3,3,3,3,3\n"), id="kpd-minus-3"),
    pytest.param(4, _correlate_survey("dave,r0,5,1e1000000,3,3,3,3,3,3,3\n"),
                 id="kpd-1e1000000"),
    pytest.param(4, _correlate_survey("alpha,r0,5,3,3,3,3,3,3,3,3\n"),
                 id="duplicate-respondent"),
    pytest.param(1, lambda d: ["synth", "--out", d / "o", "--months", "100000"],
                 id="synth-past-year-9999"),
]


@pytest.mark.parametrize("code, argv", EXIT_CODE_CASES)
def test_exit_code_contract(tmp_path, capsys, code, argv):
    """Usage 1, ingest 2, analyze 3, correlate/scorecard 4, each with one error
    line; success 0 with none."""
    assert run(*argv(tmp_path)) == code
    assert ("error: " in capsys.readouterr().err) == (code != 0)


def test_scorecard_of_a_tiny_metric_column(tmp_path):
    """A column of 0.25e-200, 0.5e-200 and 0.75e-200 is standardized as any other."""
    assert run("scorecard", _write(tmp_path / "m.csv", _metrics(scale="e-200")),
               "--out", tmp_path / "o") == 0
    card = json.loads((tmp_path / "o" / "scorecard.json").read_text(encoding="utf-8"))
    alpha = card["teams"][0]["metrics"]["avg_gbc"]
    assert (alpha["z"], alpha["favorable"], alpha["alert"]) == (-1.225, False, True)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "x", "1_0", "٣", "1e1_0"])
def test_non_finite_metric_cells_are_format_errors(tmp_path, cell):
    survey = _write(tmp_path / "s.csv", _survey())
    # the same files with finite cells pass both commands
    good = _write(tmp_path / "good.csv", _metrics("0.5", "0.75"))
    assert run("correlate", good, survey, "--out", tmp_path / "ok",
               "--eligibility-min", "1") == 0
    assert run("scorecard", good, "--out", tmp_path / "ok") == 0
    path = _write(tmp_path / "metrics.csv", _metrics("0.5", cell))
    with pytest.raises(FormatError, match=r"metrics\.csv: line 2: .* not a finite number"):
        read_metrics_csv(path)
    assert run("correlate", path, survey, "--out", tmp_path / "o",
               "--eligibility-min", "1") == 4
    assert run("scorecard", path, "--out", tmp_path / "o") == 4
    assert not (tmp_path / "o").exists()


def test_metric_cells_are_ascii_numbers_with_surrounding_spaces_ignored(tmp_path):
    path = _write(tmp_path / "m.csv", _metrics(" 1 ", "-1.", ".5", "0.25e-200", "2E+3", ""))
    first = read_metrics_csv(path)[0]
    assert [getattr(first, f) for f in METRIC_FIELDS[:6]] == [1.0, -1.0, 0.5, 0.25e-200,
                                                              2000.0, None]
    for cell in (" ", "+1", "1 0"):  # a blank cell is not an empty one
        with pytest.raises(FormatError, match="not a finite number"):
            read_metrics_csv(_write(tmp_path / "b.csv", _metrics(cell)))


def test_metric_cells_are_bounded(tmp_path):
    at_bound = _write(tmp_path / "m.csv", _metrics("-1e15", "1e15"))
    assert run("correlate", at_bound, _write(tmp_path / "s.csv", _survey()),
               "--out", tmp_path / "o", "--eligibility-min", "1") == 0
    assert run("scorecard", at_bound, "--out", tmp_path / "o") == 0
    with pytest.raises(FormatError, match=r"line 2: .* magnitude at most 1e\+15"):
        read_metrics_csv(_write(tmp_path / "big.csv", _metrics("1.0000001e15")))


@pytest.mark.parametrize("teams, message", [(DUPLICATE_TEAM, "duplicate team_id 'alpha'"),
                                             (PADDED_DUPLICATE_TEAM, "duplicate team_id 'alpha'"),
                                             (EMPTY_TEAM, "empty team_id")],
                         ids=["duplicate", "padded-duplicate", "empty"])
def test_metric_rows_need_a_unique_team_id(tmp_path, teams, message):
    with pytest.raises(MalformedRecord, match=rf"m\.csv:5: {message}"):
        read_metrics_csv(_write(tmp_path / "m.csv", _metrics(teams=teams)))


def test_padded_metric_team_ids_join_the_survey(tmp_path):
    """Metrics ids are stripped like survey ids, so `` alpha `` joins ``alpha``."""
    metrics = _write(tmp_path / "m.csv", _metrics(teams=(" alpha ", "bravo", "carol")))
    assert [v.team_id for v in read_metrics_csv(metrics)] == ["alpha", "bravo", "carol"]
    assert run("correlate", metrics, _write(tmp_path / "s.csv", _survey()),
               "--out", tmp_path / "o", "--eligibility-min", "1") == 0


def _loaded_by(statement: str) -> list[str]:
    """The modules that a fresh interpreter loads to run ``statement``."""
    probe = (f"import sys; before = set(sys.modules); {statement}; "
             "print(sorted(set(sys.modules) - before))")
    src = str(Path(commscore.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return ast.literal_eval(out)


_DIGEST_PIPELINE = """\
import contextlib, hashlib, io, re, sys
from pathlib import Path
from commscore.cli import main
golden_metrics, golden_survey, mail, out = map(Path, sys.argv[1:])

def run(*argv):
    assert main([str(arg) for arg in argv]) == 0, argv

with contextlib.redirect_stdout(io.StringIO()):
    run("correlate", golden_metrics, golden_survey, "--out", out / "report")
    for format in ("json", "csv", "html"):
        run("scorecard", golden_metrics, "--out", out / "cards", "--format", format)
    run("synth", "--out", out / "synth", "--seed", "7", "--teams", "6", "--months", "8",
        "--actors", "6", "--messages", "30", "--effects", "planted")
    (out / "synth" / "recur").mkdir()
    for path in sorted((out / "synth" / "mail").glob("*.csv")):
        # as the benchmark's threads workload: no thread numbers, so subjects recur
        (out / "synth" / "recur" / path.name).write_text(re.sub(
            r",((?:Re: )*[a-z]+) [0-9]+(?=[^,]*$)", r",\\1", path.read_text(encoding="utf-8"),
            flags=re.M), encoding="utf-8")
    # 40 actors a team: betweenness and oscillation on graphs larger than the others'
    run("synth", "--out", out / "wide", "--seed", "7", "--teams", "3", "--months", "3",
        "--actors", "40")
    sources = {"recur": out / "synth" / "recur", "wide": out / "wide" / "mail"}
    for name, format, period in (("recur", "csv", "2012-06-01..2013-02-01"),
                                 ("wide", "csv", "2012-06-01..2012-09-01"),
                                 ("csv", "csv", "2012-12-01..2013-02-01"),
                                 ("jsonl", "jsonl", "2012-12-01..2013-02-01"),
                                 ("mbox", "mbox", "2012-12-01..2013-02-01")):
        source = sources.get(name, mail / name)
        run("ingest", *sorted(source.iterdir()), "--format", format, "--period", period,
            "--out", out / name / "archive")
        run("analyze", out / name / "archive", "--out", out / name / "default")
        run("analyze", out / name / "archive", "--out", out / name / "options",
            "--reply-cap", "3600", "--oscillation-window", "monthly",
            "--awvci-weighting", "actors", "--emotionality-mode", "normalized")
    metrics = out / "recur" / "default" / "metrics.csv"
    run("correlate", metrics, out / "synth" / "survey.csv", "--out", out / "strict",
        "--alert-sigma", "0.5", "--eligibility-min", "5")
    for format in ("json", "csv", "html"):
        run("scorecard", metrics, "--out", out / "strictcards", "--alert-sigma", "0.5",
            "--format", format)
for path in sorted(out.rglob("*")):
    if path.is_file():
        print(path.relative_to(out).as_posix(), hashlib.sha256(path.read_bytes()).hexdigest())
"""


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    """The whole pipeline, each stage through ``main()`` and each run in a fresh
    interpreter, writes the same bytes under two hash seeds: no set or dict
    order reaches a file.  On the golden fixture it runs ``correlate`` and
    ``scorecard`` in each format.  It runs ``synth`` over a year boundary,
    then ``ingest`` of that mail with its subjects made recurring, of a
    ``synth`` of 40 actors a team, whose graphs are the large ones, and of
    :data:`mail.EVERY_PATH_MAIL` in CSV, JSONL and mbox.  Each archive is
    analyzed with the default options and with every other choice, and the
    synth metrics go through ``correlate`` and ``scorecard`` (each format)
    with a lower alert threshold and eligibility bar."""
    for format in ("csv", "jsonl", "mbox"):
        write_mail(EVERY_PATH_MAIL[1], tmp_path / "mail" / format, format)
    src = str(Path(commscore.__file__).parents[1])
    digests = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        digests.append(subprocess.run(
            [sys.executable, "-c", _DIGEST_PIPELINE, str(FIXTURE.parent / "golden" / "metrics.csv"),
             str(FIXTURE / "survey.csv"), str(tmp_path / "mail"), str(tmp_path / seed)],
            env=env, check=True, capture_output=True, text=True).stdout.splitlines())
    written = [line.split()[0] for line in digests[0]]
    assert len(written) == 68
    assert {"cards/scorecard.csv", "cards/scorecard.html", "cards/scorecard.json",
            "report/correlation.csv", "report/scorecard.html", "report/scorecard.json",
            "synth/mail/team06.csv", "strict/correlation.csv", "strictcards/scorecard.csv",
            "strictcards/scorecard.html", "strictcards/scorecard.json"} <= set(written)
    for name in ("recur", "wide", "csv", "jsonl", "mbox"):
        assert {f"{name}/archive/manifest.json", f"{name}/default/metrics.csv",
                f"{name}/options/metrics.csv"} <= set(written)
    assert digests[0] == digests[1]


def test_cli_imports_only_the_standard_library():
    """A fresh interpreter loads nothing outside the stdlib for ``import commscore.cli``,
    and neither ``email`` (the mbox parser's) nor ``commscore.synth``."""
    loaded = _loaded_by("import commscore.cli")
    packages = {m.partition(".")[0] for m in loaded}
    assert "commscore" in packages
    assert [m for m in packages if m != "commscore" and m not in sys.stdlib_module_names] == []
    assert [m for m in loaded if m.partition(".")[0] == "email" or m == "commscore.synth"] == []


def test_the_package_imports_each_public_name_on_first_use():
    """``import commscore`` loads no submodule; each name of ``__all__`` resolves,
    and ``from commscore import *`` binds exactly ``__all__``."""
    assert [m for m in _loaded_by("import commscore") if m.startswith("commscore.")] == []
    assert all(hasattr(commscore, name) for name in commscore.__all__)
    assert set(commscore.__all__) <= set(dir(commscore))
    namespace: dict = {}
    exec("from commscore import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == sorted(commscore.__all__)
    assert not hasattr(commscore, "no_such_name")


def test_the_archive_api_loads_only_ingest():
    """README's archive snippet, ``from commscore import load_corpus, parse_period``,
    loads ``commscore.ingest`` and the two modules it imports, and no stage."""
    loaded = _loaded_by("from commscore import load_corpus, parse_period")
    assert sorted(m for m in loaded if m.startswith("commscore.")) == [
        "commscore._text", "commscore.errors", "commscore.ingest"]


def _names_used(node: ast.AST) -> set[str]:
    """Every name that ``node`` reads, imports or looks up as an attribute."""
    used: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name)
    return used


def _python_api_section() -> str:
    """The text of README's "Python API" section."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]


def test_every_top_level_definition_is_reached():
    """Each top-level function and class of the package is referenced outside
    its own definition somewhere in the package, or is a public name of
    ``commscore`` that README's "Python API" section names: nothing in
    ``src/`` is left that neither the command line nor the documented Python
    API can reach."""
    definitions: list[tuple[str, str]] = []
    scopes: list[tuple[tuple[str, str] | None, set[str]]] = []  # (definition, names used)
    for path in sorted(Path(commscore.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner = (path.name, node.name)
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    definitions.append(owner)
            scopes.append((owner, _names_used(node)))
    api = _python_api_section()
    unreached = [f"{module}:{name}" for module, name in definitions
                 if not any(name in names for owner, names in scopes
                            if owner != (module, name))
                 and not (name in commscore._EXPORTS and re.search(rf"\b{name}\b", api))]
    assert unreached == []


def test_only_ingest_converts_instants_to_utc():
    """``EmailEvent`` and ``Period`` hold UTC whole seconds by type, so no
    module of the package but ``ingest`` calls ``.astimezone()``."""
    callers = [path.name for path in sorted(Path(commscore.__file__).parent.glob("*.py"))
               if path.name != "ingest.py"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "astimezone"]
    assert callers == []


def test_only_ingest_and_the_calendar_handle_the_ends_of_the_datetime_range():
    """Every event lies inside its corpus period, so every walk over a corpus
    stays inside it: the ends of the datetime range matter only where
    ``ingest`` makes instants and ``tempograph`` steps the calendar.  No other
    module handles ``OverflowError`` or names ``datetime.min``/``datetime.max``."""
    def reaches_a_range_end(node: ast.AST) -> bool:
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            return any(isinstance(t, ast.Name) and t.id == "OverflowError" for t in caught)
        return (isinstance(node, ast.Attribute) and node.attr in ("min", "max")
                and isinstance(node.value, ast.Name) and node.value.id == "datetime")

    found = [(path.name, node.lineno)
             for path in sorted(Path(commscore.__file__).parent.glob("*.py"))
             if path.name not in ("ingest.py", "tempograph.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if reaches_a_range_end(node)]
    assert found == []


def test_the_oracles_and_the_golden_writer_import_nothing_from_the_package():
    """``tests/oracles.py`` and ``tests/make_golden.py`` are the references the
    package is checked against, and ``tests/mail.py`` writes the mail it is
    fed, so none of them imports ``commscore``."""
    found = []
    for name in ("oracles.py", "make_golden.py", "mail.py"):
        for node in ast.walk(ast.parse((Path(__file__).parent / name).read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [(name, module) for module in modules
                      if module.partition(".")[0] == "commscore"]
    assert found == []


def test_ingest_keeps_unsafe_team_ids_inside_out(tmp_path):
    mail = _write(tmp_path / "in" / "m.jsonl", _jsonl("../../escaped") + _jsonl("ok"))
    out = tmp_path / "d" / "e" / "c2"
    assert run("ingest", mail, "--format", "jsonl", "--period", PERIOD, "--out", out) == 0
    assert not list(tmp_path.rglob("escaped*"))
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest["teams"]) == ["ok"]
    assert manifest["issues"][0]["line"] == 1


def _payloads(header: bytes) -> st.SearchStrategy[bytes]:
    body = st.one_of(st.binary(max_size=200),
                     st.text(max_size=200).map(lambda t: t.encode("utf-8")))
    return st.tuples(st.sampled_from([b"", header]), body).map(b"".join)


_jsonl_records = st.lists(st.one_of(
    st.text(max_size=12).map(_jsonl),
    st.binary(max_size=80).map(lambda b: b + b"\n")), max_size=4).map(b"".join)

#: Lines as ``ingest`` writes them, which the reload reads through its text
#: memos: two parties, the second with a cc and text that JSON escapes.
_WRITTEN_LINES = serialize_events([
    make_event(parse_timestamp(f"2012-06-0{day}T09:00:00Z"), sender, [to], cc, subject, "team")
    for day, (sender, to, cc, subject) in enumerate(
        [("a@x.com", "b@x.com", [], "s"), ("b@x.com", "a@x.com", ["c@x.com"], 'é "\\')] * 2,
        start=1)], "jsonl").splitlines(keepends=True)


@st.composite
def _near_written_archives(draw) -> bytes:
    """Written lines, one to three of them with one byte inserted, deleted or replaced."""
    lines = list(_WRITTEN_LINES)
    byte = st.one_of(st.sampled_from([bytes([c]) for c in b'"\\,:{}[] \t\r\nuzZ0']),
                     st.binary(min_size=1, max_size=1))
    for i in draw(st.lists(st.integers(0, len(lines) - 1), min_size=1, max_size=3)):
        line = lines[i]
        at = draw(st.integers(0, len(line) - 1))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        keep = at + (edit != "insert")
        lines[i] = line[:at] + (b"" if edit == "delete" else draw(byte)) + line[keep:]
    return b"".join(lines)


#: Lines of mbox headers, well-formed or not, and of arbitrary bytes.
_mbox_lines = st.lists(st.one_of(st.sampled_from([
    b"From x", b"From: A <A@x.com>", b"To: b@x.com, C <c@x.com>", b"Cc: ", b"Cc: a@x.com,",
    b"Subject: Re: hi", b"Subject: =?utf-8?b?Y2Fm/w==?=", b"Date: Mon, 04 Jun 2012 09:00:00 +0000",
    b"Date: 31 Dec 9999 23:59:59 -1200", b"Date: 4 Jun 2012 09:00", b"", b"body"]),
    st.binary(max_size=30)), max_size=12).map(b"\n".join)

#: Lexicon lines: section headers, known or not, comments, words and any bytes.
_lexicon_lines = st.lists(st.one_of(
    st.sampled_from([b"[positive]", b"[negative]", b"[other]", b"# note", b"s", b"\xc3\xa9", b""]),
    st.binary(max_size=20), st.text(max_size=20).map(str.encode)), max_size=8).map(b"\n".join)


@st.composite
def _metrics_rows(draw) -> bytes:
    """A metrics header and rows of readable cells, one cell perhaps replaced by other text."""
    rows = [[team] + draw(st.lists(st.sampled_from(["", "0", "3", "0.5", "-1.25", "1e6", "1e-320"]),
                                   min_size=8, max_size=8))
            for team in draw(st.lists(st.sampled_from(["alpha", "bravo", "carol", "dee", "é"]),
                                      unique=True, max_size=5))]
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, 8))] = draw(st.one_of(
            st.sampled_from(["nan", "-inf", "1e999", "1_0", "0x1", " 1"]), st.text(max_size=6)))
    return "".join(map(csv_line, [METRICS_CSV_HEADER, *rows])).encode()


_metrics_payloads = st.one_of(_payloads(csv_line(METRICS_CSV_HEADER).encode()), _metrics_rows())

#: (name of the fuzzed input, strategy for its bytes)
FUZZ_INPUTS = {
    "mail.csv": _payloads(MAIL_HEADER),
    "mail.jsonl": _jsonl_records,
    "mail.mbox": st.one_of(_payloads(b"From x\n"), _mbox_lines),
    "archive corpus": _jsonl_records,
    "archive corpus near the written form": _near_written_archives(),
    "archive manifest": _payloads(b'{"period": '),
    "lexicon": _lexicon_lines,
    "survey.csv": _payloads(SURVEY_HEADER),
    "metrics.csv": _metrics_payloads,
    **{f"scorecard --format {format}": _metrics_payloads for format in ("json", "csv", "html")},
}


def _fuzz_argv(kind: str, blob: bytes, inputs: Path, out: Path) -> list[object]:
    manifest = b'{"period": {"start": "2012-06-01T00:00:00Z", "end": "2012-09-01T00:00:00Z"}}'
    if kind.startswith("mail."):
        format = kind.partition(".")[2]
        return ["ingest", _write(inputs / f"team.{format}", blob), "--format", format,
                "--period", PERIOD, "--out", out]
    if kind.startswith("archive") or kind == "lexicon":
        archive = inputs / "archive"
        _write(archive / "manifest.json", blob if kind == "archive manifest" else manifest)
        _write(archive / "corpora" / "team.jsonl",
               blob if kind.startswith("archive corpus") else b"".join(_WRITTEN_LINES))
        lexicon = ["--lexicon", _write(inputs / "words.txt", blob)] if kind == "lexicon" else []
        return ["analyze", archive, "--out", out, *lexicon]
    if kind.startswith("scorecard"):
        return ["scorecard", _write(inputs / "metrics.csv", blob), "--out", out,
                "--format", kind.rpartition(" ")[2]]
    metrics = blob if kind == "metrics.csv" else _metrics()
    survey = blob if kind == "survey.csv" else _survey()
    return ["correlate", _write(inputs / "metrics.csv", metrics),
            _write(inputs / "survey.csv", survey), "--out", out, "--eligibility-min", "1"]


def test_each_fuzzed_input_is_what_its_command_reads(tmp_path):
    """For each kind, the fuzzed bytes are the one input file of that kind:
    none is replaced by a fixed stand-in."""
    blob = b"\x00fuzzed\n"
    for kind in FUZZ_INPUTS:
        _fuzz_argv(kind, blob, tmp_path / kind, tmp_path / "out")
        files = [p for p in (tmp_path / kind).rglob("*") if p.is_file()]
        assert [p.read_bytes() for p in files].count(blob) == 1, kind


@pytest.mark.parametrize("kind", FUZZ_INPUTS)
def test_any_input_bytes_end_in_a_documented_exit_code(kind):
    @given(blob=FUZZ_INPUTS[kind])
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def check(blob: bytes) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            out = root / "w" / "x" / "y" / "out"  # deep, so an escape stays in root
            out.parent.mkdir(parents=True)

            def outside_out() -> list[Path]:
                return sorted(p for p in root.rglob("*") if not p.is_relative_to(out))

            argv = _fuzz_argv(kind, blob, root / "in", out)
            before = outside_out()
            assert run(*argv) in {0, 1, 2, 3, 4}
            assert outside_out() == before
    check()
