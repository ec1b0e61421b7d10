"""Parsing, normalization, and corpus assembly."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import re
import tempfile
import warnings
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commscore import ingest
from commscore._text import csv_line
from commscore.cli import _build_parser, main
from commscore.errors import FormatError, MalformedAddress, MalformedRecord, UnsupportedFormat
from commscore.ingest import (
    EmailEvent,
    FORMATS,
    Period,
    TeamCorpus,
    build_corpus,
    event_order,
    iso_utc,
    load_corpus,
    make_event,
    normalize_address,
    parse_events,
    parse_timestamp,
    serialize_events,
)
from commscore.metrics import compute_metric_vector

import oracles
from conftest import corpus_of, ev, ts
from mail import EVERY_PATH_MAIL, iso_stamp, period, team_mail, write_mail

FIXTURE = Path(__file__).parent / "data" / "fixture"


# ---------------------------------------------------------------------------
# address normalization


def test_display_name_and_case_are_stripped():
    assert normalize_address("John Doe <John.DOE@Example.com>") == "john.doe@example.com"


def test_plain_address_is_identity():
    assert normalize_address("a@b.com") == "a@b.com"


def test_plus_addressing_is_preserved():
    assert normalize_address("A+tag@B.com") == "a+tag@b.com"


@pytest.mark.parametrize("raw", ["no-at-sign", "", "  ", "<>", "a@b@c", "a b@c.com"])
def test_unextractable_addresses_raise(raw):
    with pytest.raises(MalformedAddress):
        normalize_address(raw)


def test_timestamp_requires_offset():
    with pytest.raises(ValueError):
        parse_timestamp("2012-07-01T09:00:00")
    stamp = parse_timestamp("2012-07-01T11:00:00+02:00")
    assert stamp == datetime(2012, 7, 1, 9, 0, tzinfo=timezone.utc)


@pytest.mark.parametrize("raw", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:30:00-01:00"])
def test_timestamp_outside_utc_years_1_to_9999_raises(raw):
    with pytest.raises(ValueError, match="outside years 1-9999"):
        parse_timestamp(raw)
    assert parse_timestamp("0001-01-01T00:00:00-01:00").year == 1


# ---------------------------------------------------------------------------
# CSV / JSONL / mbox parsing

CSV_DOC = b"""timestamp,from,to,cc,subject
2012-07-01T09:00:00Z,a@x.com,b@y.com,,Re: invoice
2012-07-01T10:00:00Z,a@x.com,b@y.com;c@y.com,d@y.com,"hello, world"
"""


def test_csv_row_maps_to_event():
    result = parse_events(io.BytesIO(CSV_DOC), "csv", default_team="t9")
    assert not result.issues
    first, second = result.events
    assert first.sender == "a@x.com"
    assert first.to == ("b@y.com",)
    assert first.cc == ()
    assert first.subject == "Re: invoice"
    assert first.team_id == "t9"
    assert second.to == ("b@y.com", "c@y.com")
    assert second.cc == ("d@y.com",)
    assert second.subject == "hello, world"


def test_csv_empty_timestamp_is_reported_with_line():
    doc = b"timestamp,from,to,cc,subject\n,a@x.com,b@y.com,,hi\n"
    result = parse_events(io.BytesIO(doc), "csv")
    assert result.events == []
    assert len(result.issues) == 1
    assert result.issues[0].line == 2


def test_csv_strict_mode_aborts_on_first_bad_record():
    doc = b"timestamp,from,to,cc,subject\n,a@x.com,b@y.com,,hi\n"
    with pytest.raises(MalformedRecord) as err:
        parse_events(io.BytesIO(doc), "csv", strict=True)
    assert err.value.line == 2


def test_csv_bad_header_is_a_format_error():
    with pytest.raises(FormatError):
        parse_events(io.BytesIO(b"when,who\n"), "csv")
    with pytest.raises(FormatError):
        parse_events(io.BytesIO(b""), "csv")


def test_csv_that_is_not_utf8_names_the_line():
    good = b"2012-06-04T09:00:00Z,a@x.com,b@x.com,,hello\n"
    # the bad byte lies past the text decoder's first read-ahead block
    doc = b"timestamp,from,to,cc,subject\n" + good * 500 + good.replace(b"hello", b"caf\xe9")
    with pytest.raises(FormatError, match=r"team\.csv: line 502: not UTF-8"):
        parse_events(io.BytesIO(doc), "csv", source_name="team.csv")


def _jsonl_record(team: str) -> bytes:
    return (json.dumps({"timestamp": "2012-06-04T09:00:00Z", "from": "a@x.com",
                        "to": ["b@x.com"], "team_id": team}) + "\n").encode()


@pytest.mark.parametrize("team", ["../../escaped", "a/b", "a\\b", "a\x00b", ".", ".."])
def test_team_id_must_be_one_path_component(team):
    result = parse_events(io.BytesIO(_jsonl_record(team) + _jsonl_record("...")), "jsonl")
    assert [e.team_id for e in result.events] == ["..."]
    assert [(i.line, "path component" in i.message) for i in result.issues] == [(1, True)]
    with pytest.raises(MalformedRecord):
        parse_events(io.BytesIO(_jsonl_record(team)), "jsonl", strict=True)
    with pytest.raises(ValueError):
        make_event(ts("2012-06-04 09:00"), "a@x.com", ["b@x.com"], team_id=team)


def test_unknown_format_rejected():
    for name in ("tsv", "CSV", "json", ""):
        with pytest.raises(UnsupportedFormat, match="unknown mail format"):
            parse_events(io.BytesIO(b""), name)


def test_ingest_format_choices_are_the_parsed_formats():
    (commands,) = [a for a in _build_parser()._actions if a.dest == "command"]
    (choice,) = [a for a in commands.choices["ingest"]._actions if a.dest == "format"]
    assert tuple(choice.choices) == FORMATS == ("csv", "jsonl", "mbox")


def test_jsonl_round_trip_fields():
    doc = (b'{"timestamp":"2012-07-01T09:00:00Z","from":"A@x.com","to":["b@y.com"],'
           b'"cc":[],"subject":"s","team_id":"t1"}\n')
    result = parse_events(io.BytesIO(doc), "jsonl")
    (event,) = result.events
    assert event.sender == "a@x.com"
    assert event.team_id == "t1"


def test_jsonl_bad_line_reported_not_dropped_silently():
    doc = b'not json\n{"timestamp":"2012-07-01T09:00:00Z","from":"a@x.com","to":["b@y.com"],"team_id":"t"}\n'
    result = parse_events(io.BytesIO(doc), "jsonl")
    assert len(result.events) == 1
    assert len(result.issues) == 1
    assert result.issues[0].line == 1


MBOX_DOC = b"""From a@x.com Sun Jul  1 09:00:00 2012
From: Alice <A@x.com>
To: b@y.com
Cc: c@y.com
Subject: Re: invoice
Date: Sun, 01 Jul 2012 09:00:00 +0000

body ignored
"""


def test_mbox_message_equals_equivalent_csv_row():
    """The same logical message arrives identically from mbox and CSV."""
    from_mbox = parse_events(io.BytesIO(MBOX_DOC), "mbox", default_team="t").events[0]
    csv_doc = b"timestamp,from,to,cc,subject\n2012-07-01T09:00:00Z,a@x.com,b@y.com,c@y.com,Re: invoice\n"
    from_csv = parse_events(io.BytesIO(csv_doc), "csv", default_team="t").events[0]
    assert from_mbox == from_csv


def test_mbox_missing_date_reported():
    doc = b"From a@x.com\nFrom: a@x.com\nTo: b@y.com\nSubject: s\n\n"
    result = parse_events(io.BytesIO(doc), "mbox")
    assert result.events == []
    assert "Date" in result.issues[0].message


def test_mbox_date_past_year_9999_in_utc_reported():
    doc = MBOX_DOC.replace(b"Sun, 01 Jul 2012 09:00:00 +0000",
                           b"Fri, 31 Dec 9999 23:30:00 -0100")
    result = parse_events(io.BytesIO(doc), "mbox")
    assert result.events == []
    assert "outside years 1-9999" in result.issues[0].message


#: An mbox message whose Date lies past year 9999 in UTC and whose To is empty.
_MBOX_LATE_DATE = (b"From x\nFrom: a@ex.com\nTo: \nCc: \nSubject: s\n"
                   b"Date: Fri, 31 Dec 9999 23:30:00 -0100\n\nbody\n")


def test_mbox_reports_an_out_of_range_date_first_as_csv_does():
    csv_doc = b"timestamp,from,to,cc,subject\n9999-12-31T23:30:00-01:00,a@ex.com,,,s\n"
    for blob, format in ((_MBOX_LATE_DATE, "mbox"), (csv_doc, "csv")):
        (issue,) = parse_events(io.BytesIO(blob), format, default_team="t").issues
        assert issue.message == "9999-12-31T23:30:00-01:00 falls outside years 1-9999 in UTC"


#: Messages whose header bytes are not UTF-8, raw or in an encoded word, then
#: one with raw UTF-8 and a Latin-1 encoded word; each message is 8 lines.
_MBOX_NOT_UTF8 = b"".join(MBOX_DOC.replace(old, new) for old, new in (
    (b"Subject: Re: invoice", b"Subject: caf\xff"),
    (b"From: Alice <A@x.com>", b"From: a\xff@x.com"),
    (b"Subject: Re: invoice", b"Subject: =?utf-8?q?caf=FF?="),
    (b"Subject: Re: invoice", b"Subject: caf\xc3\xa9 =?latin-1?q?caf=E9?=")))


def test_mbox_header_bytes_that_are_not_utf8_make_a_malformed_record():
    """Such bytes are reported at their message, not read as U+FFFD."""
    result = parse_events(io.BytesIO(_MBOX_NOT_UTF8), "mbox", default_team="t")
    assert [ev.subject for ev in result.events] == ["caf\xe9 caf\xe9"]
    assert [(issue.line, issue.message) for issue in result.issues] == [
        (1, "Subject header 'caf\ufffd' is not UTF-8"),
        (9, "From header 'a\ufffd@x.com' is not UTF-8"),
        (17, "Subject header 'caf\ufffd' is not UTF-8")]
    with pytest.raises(MalformedRecord, match="^m:1: Subject header"):
        parse_events(io.BytesIO(_MBOX_NOT_UTF8), "mbox", default_team="t", source_name="m",
                     strict=True)


def test_jsonl_nesting_too_deep_to_decode_is_bad_json():
    doc = b"[" * 100_000 + b"]" * 100_000 + b"\n"
    result = parse_events(io.BytesIO(doc), "jsonl")
    assert result.events == []
    assert (result.issues[0].line, result.issues[0].message[:9]) == (1, "bad JSON:")
    with pytest.raises(MalformedRecord, match="bad JSON"):
        parse_events(io.BytesIO(doc), "jsonl", strict=True)


_LINE = ('{"timestamp":"2012-07-01T09:00:00Z","from":"a@x.com","to":["b@y.com"],'
         '"subject":"hi","team_id":"t"}')


@pytest.mark.parametrize("text", [
    "\ufeff" + _LINE,                   # a BOM, which json.loads refuses
    '{"a":1} {"b":2}',                   # two values on one line
    _LINE + "\u00a0",                   # trailing whitespace json does not skip
    "[" * 100_000 + "]" * 100_000,       # nesting too deep to decode
    "NaN",                               # a value json accepts, but no object
    '{"a": "b',                          # an unterminated string
], ids=["bom", "two-values", "trailing-nbsp", "deep", "nan", "unterminated"])
def test_jsonl_line_that_is_not_one_object_reports_what_json_loads_says(text):
    try:
        json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        expected = f"f.jsonl:1: bad JSON: {exc}"
    else:
        expected = "f.jsonl:1: record is not an object"
    with pytest.raises(MalformedRecord) as raised:
        parse_events(io.BytesIO(text.encode() + b"\n"), "jsonl", source_name="f.jsonl",
                     strict=True)
    assert str(raised.value) == expected


def test_mbox_leading_garbage_is_a_format_error():
    with pytest.raises(FormatError):
        parse_events(io.BytesIO(b"garbage\nFrom a@x.com\n"), "mbox")


# ---------------------------------------------------------------------------
# serialize → parse round trip

_address = st.builds(
    "{}@{}.io".format,
    st.text(alphabet="abcdefgh23.+", min_size=1, max_size=8),
    st.text(alphabet="xyz89", min_size=1, max_size=5),
)
_subject = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=40)
_stamp = st.datetimes().map(lambda d: d.replace(tzinfo=timezone.utc, microsecond=0))
# Instants on either side of midnights and year ends, the ends of years 1-9999
# among them: drawn into a list among other instants, they make runs of one UTC
# day, day changes and returns to an earlier day, in unsorted order.
_EDGE_STAMPS = tuple(datetime.fromisoformat(text).replace(tzinfo=timezone.utc) for text in (
    "0001-01-01T00:00:00", "0001-01-01T23:59:59", "0001-01-02T00:00:00",
    "2011-12-31T23:59:59", "2012-01-01T00:00:00", "2012-01-01T00:00:01",
    "2012-01-01T12:00:00", "2012-02-29T23:59:59", "2012-03-01T00:00:00",
    "9999-12-31T00:00:00", "9999-12-31T23:59:59"))
_edge_stamp = st.sampled_from(_EDGE_STAMPS)


@st.composite
def _events(draw):
    addresses = draw(st.lists(_address, min_size=2, max_size=6, unique=True))
    sender = addresses[0]
    k = draw(st.integers(1, len(addresses) - 1))
    recipients = addresses[1:1 + k]
    split = draw(st.integers(1, len(recipients)))
    return make_event(draw(st.one_of(_edge_stamp, _stamp)), sender, recipients[:split],
                      recipients[split:], draw(_subject), "team")


@given(st.lists(_events(), max_size=8), st.sampled_from(["csv", "jsonl"]))
@settings(max_examples=60)
def test_parse_serialize_parse_is_fixed_point(events, format):
    blob = serialize_events(events, format)
    reparsed = parse_events(io.BytesIO(blob), format, default_team="team")
    assert not reparsed.issues
    assert reparsed.events == list(events)
    assert serialize_events(reparsed.events, format) == blob
    if format == "csv":  # each stamp cell, written per run of one day, is iso_utc's
        rows = list(csv.reader(io.StringIO(blob.decode("utf-8"), newline="")))
        assert [row[0] for row in rows[1:]] == [iso_utc(e.timestamp) for e in events]


# Instants with microseconds in any fixed zone, a day clear of the ends of
# years 1-9999 so that converting them to UTC cannot overflow.
_zoned_stamp = st.datetimes(
    min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30),
    timezones=st.one_of(st.just(timezone.utc), st.timedeltas(
        min_value=timedelta(hours=-23, minutes=-59),
        max_value=timedelta(hours=23, minutes=59)).map(timezone)))
# Text with JSON's hard cases: quotes, backslashes, control characters, line
# and paragraph separators, and characters outside the BMP.
_wild_text = st.text(st.one_of(
    st.characters(blacklist_categories=("Cs",)),
    st.sampled_from('"\\\x00\x08\x1f\x7f\u2028\u2029\U0001F600\U0001D11E')), max_size=12)
# Event instants in any zone, or on either side of a midnight or a year end.
_archive_stamp = st.one_of(_edge_stamp, _zoned_stamp)


@st.composite
def _wild_events(draw):
    names = draw(st.lists(_wild_text.filter(bool), min_size=2, max_size=5, unique=True))
    split = draw(st.integers(2, len(names)))
    return EmailEvent(draw(_archive_stamp), names[0], tuple(names[1:split]),
                      tuple(names[split:]), draw(_wild_text), draw(_wild_text))


@st.composite
def _shared_party_events(draw):
    """Events over a small pool of senders, recipient lists and teams.  Each
    drawn party comes with three others that differ from it only in ``cc``,
    only in ``team_id`` or only in the order of ``to``; every party is used at
    least once, in shuffled order, and some more than once."""
    names = draw(st.lists(_wild_text.filter(bool), min_size=4, max_size=6, unique=True))
    teams = draw(st.lists(_wild_text, min_size=2, max_size=3, unique=True))
    parties = []
    for _ in range(draw(st.integers(1, 3))):
        sender = draw(st.sampled_from(names))
        order = draw(st.permutations(names))
        to, cc = tuple(order[:2]), tuple(order[2:3])
        team, other_team = draw(st.permutations(teams))[:2]
        parties += [(sender, to, cc, team), (sender, to, tuple(order[2:4]), team),
                    (sender, to, cc, other_team), (sender, to[::-1], cc, team)]
    used = draw(st.permutations(parties + draw(st.lists(st.sampled_from(parties), max_size=6))))
    return [EmailEvent(draw(_archive_stamp), sender, to, cc, draw(_wild_text), team)
            for sender, to, cc, team in used]


@given(st.one_of(st.lists(_wild_events(), max_size=6), _shared_party_events()))
@example([EmailEvent(datetime(999, 1, 2, 3, 4, 5, tzinfo=timezone.utc), 'a"\\',
                     ("b\x00\n",), ("\U0001F600",), "\x1f \\u0041", "t\u2028")])
@settings(max_examples=300)
def test_jsonl_archive_equals_json_dumps_per_event(events):
    """Each line is ``json.dumps`` of its event, also where events share
    parties: escaped parties are reused only where sender, ``to`` in its order,
    ``cc`` and team all agree.  Events come in any order, across midnights and
    year ends, so a day's date text is reused only while the day holds."""
    assert serialize_events(events, "jsonl") == oracles.archive_bytes(events)


def test_each_distinct_party_is_escaped_once_per_archive(monkeypatch):
    """An operation bound: the JSONL archive escapes each event's subject and,
    once per distinct ``(sender, to, cc, team_id)``, its sender, addresses and
    team."""
    events = []
    for path in sorted((FIXTURE / "mail").glob("*.csv")):
        with open(path, "rb") as fh:
            events += parse_events(fh, "csv", default_team=path.stem).events
    parties = {(e.sender, e.to, e.cc, e.team_id) for e in events}
    escaped: list[str] = []
    quote = ingest._quote

    def counting_quote(text):
        escaped.append(text)
        return quote(text)

    monkeypatch.setattr(ingest, "_quote", counting_quote)
    archive = serialize_events(events, "jsonl")
    assert len(parties) < len(events)
    assert len(escaped) <= len(events) + sum(2 + len(to) + len(cc) for _, to, cc, _ in parties)
    assert archive == oracles.archive_bytes(events)


def test_each_distinct_party_is_decoded_once_per_reload(monkeypatch):
    """An operation bound: reading back one team's archive decodes a whole
    record and normalizes its parties once per distinct ``(sender, to, cc)``;
    each other line decodes only its stamp and subject."""
    with open(FIXTURE / "mail" / "alpha.csv", "rb") as fh:
        events = parse_events(fh, "csv", default_team="alpha").events
    parties = {(e.sender, e.to, e.cc) for e in events}
    decoded: list[str] = []
    normalized: list[tuple] = []
    scan, normalize = ingest._scan_json, ingest._parties

    def counting_scan(text, index):
        if index == 0:
            decoded.append(text)
        return scan(text, index)

    def counting_parties(*key):
        normalized.append(key)
        return normalize(*key)

    monkeypatch.setattr(ingest, "_scan_json", counting_scan)
    monkeypatch.setattr(ingest, "_parties", counting_parties)
    archive = serialize_events(events, "jsonl")
    result = parse_events(io.BytesIO(archive), "jsonl", default_team="alpha", strict=True)
    assert result.events == events
    assert 4 * len(parties) < len(events)
    assert len(decoded) == len(normalized) == len(parties)


@given(_zoned_stamp, st.sampled_from(["+00:00", "Z", "z"]))
@example(datetime(999, 1, 2, 3, 4, 5, 6, tzinfo=timezone.utc), "Z")
@example(datetime(2000, 1, 1, tzinfo=timezone(timedelta(microseconds=1))), "Z")
@example(datetime(2000, 1, 1, 0, 0, 0, 999999, tzinfo=timezone(timedelta(microseconds=-1))), "Z")
@settings(max_examples=300)
def test_parse_timestamp_converts_to_utc_as_the_oracle(stamp, utc_suffix):
    text = stamp.isoformat()
    if stamp.utcoffset() == timedelta(0):
        text = text[:-len("+00:00")] + utc_suffix
    parsed = parse_timestamp(text)
    expected = oracles.utc_second(stamp)
    assert parsed.tzinfo is timezone.utc
    assert (parsed, parsed.isoformat()) == (expected, expected.isoformat())


@st.composite
def _near_canonical(draw):
    """A 20-character ``YYYY-MM-DDTHH:MM:SSZ`` text with one character
    replaced: a digit, ``z``, a space, a separator, or a non-ASCII digit."""
    instant = draw(st.datetimes(max_value=datetime(9999, 12, 31, 23, 59, 59)))
    text = f"{instant.replace(microsecond=0).isoformat()}Z"
    at = draw(st.integers(0, len(text) - 1))
    return text[:at] + draw(st.sampled_from("0123456789z T.+-:\u0663")) + text[at + 1:]


@given(_near_canonical())
@example("2012-06-04T090000.5Z")
@example("2012-06-04T24:00:00Z")
@example("2013-02-29T00:00:00Z")
@example("0000-01-01T00:00:00Z")
@example("2012-06-04 09:00:00Z")
@example("2012-06-04T09:00:00z")
@example("9999-12-31T23:59:59Z")
@settings(max_examples=500)
def test_canonical_stamps_parse_in_one_call_as_the_rules_do(text):
    """The one call for a 20-character text ending in ``Z`` gives the rules'
    instant or message.  The rules' answer comes from the text with a trailing
    space, which they strip and which is too long for the one call."""
    def outcome(raw):
        try:
            stamp = parse_timestamp(raw)
        except ValueError as exc:
            return str(exc).replace(repr(raw), repr(text))
        return stamp, stamp.tzinfo is timezone.utc, stamp.isoformat()

    assert outcome(text) == outcome(text + " ")


@given(_zoned_stamp, _zoned_stamp)
@example(datetime(2000, 1, 1, 0, 0, 0, 999999, tzinfo=timezone(timedelta(microseconds=-1))),
         datetime(2000, 1, 1, 0, 0, 1, tzinfo=timezone(timedelta(hours=23, minutes=59))))
@settings(max_examples=300)
def test_events_and_periods_hold_their_instants_as_utc_seconds(stamp, other):
    """An ``EmailEvent`` built directly holds its instant as ``make_event``
    does, in UTC at whole seconds; so do a ``Period``'s bounds."""
    event = EmailEvent(stamp, "a@ex.com", ("b@ex.com",), (), "s", "t")
    expected = oracles.utc_second(stamp)
    assert event == make_event(stamp, "a@ex.com", ["b@ex.com"], [], "s", "t")
    assert event.timestamp.tzinfo is timezone.utc
    assert (event.timestamp, event.timestamp.isoformat()) == (expected, expected.isoformat())
    start, end = sorted((stamp, other))
    if oracles.utc_second(start) < oracles.utc_second(end):
        period = Period(start, end)
        assert (period.start, period.end) == (oracles.utc_second(start), oracles.utc_second(end))
        assert period.start.tzinfo is period.end.tzinfo is timezone.utc
    else:
        with pytest.raises(ValueError):
            Period(start, end)


def test_naive_instants_and_periods_within_one_second_raise():
    with pytest.raises(ValueError, match="timezone-aware"):
        EmailEvent(datetime(2012, 6, 4, 9), "a@ex.com", ("b@ex.com",), (), "s", "t")
    with pytest.raises(ValueError, match="timezone-aware"):
        make_event(datetime(2012, 6, 4, 9), "a@ex.com", ["b@ex.com"])
    start = datetime(2012, 6, 4, 9, 0, 0, 100000, tzinfo=timezone.utc)
    with pytest.raises(ValueError, match="precede"):
        Period(start, start.replace(microsecond=900000))


def test_sub_second_events_analyze_as_their_archive_does():
    """Events built directly with sub-second stamps in another zone give the
    metrics of their archive, which reads back to the same corpus: the reply
    9.95 s after its original is 10 s after it at whole seconds."""
    zone = timezone(timedelta(hours=2))
    sent = datetime(2012, 6, 4, 9, 0, 0, 100000, tzinfo=zone)
    events = [EmailEvent(sent, "a@ex.com", ("b@ex.com",), (), "s", "t"),
              EmailEvent(sent + timedelta(seconds=9.95), "b@ex.com", ("a@ex.com",), (),
                         "Re: s", "t")]
    period = Period(datetime(2012, 6, 1, tzinfo=zone), datetime(2012, 7, 1, tzinfo=zone))
    corpus = build_corpus(events, "t", period)
    archive = serialize_events(corpus.events, "jsonl")
    again = build_corpus(parse_events(io.BytesIO(archive), "jsonl", strict=True).events,
                         "t", period)
    assert again == corpus
    assert serialize_events(again.events, "jsonl") == archive
    vector = compute_metric_vector(corpus)
    assert vector.art_median == 10
    assert compute_metric_vector(again) == vector


def test_each_distinct_address_is_normalized_once(tmp_path, summer):
    """An operation bound: ingest and reload call the address normalizer's
    body at most once per distinct address string."""
    mail = sorted((FIXTURE / "mail").glob("*.csv"))
    raw: set[str] = set()
    for path in mail:
        with open(path, encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                raw.add(row["from"])
                raw.update(part.strip() for part in f"{row['to']};{row['cc']}".split(";")
                           if part.strip())
    normalize_address.cache_clear()
    assert main(["ingest", *map(str, mail), "--period", "2012-06-01..2012-09-01",
                 "--out", str(tmp_path)]) == 0
    assert 0 < normalize_address.cache_info().misses <= len(raw)

    corpora = sorted((tmp_path / "corpora").glob("*.jsonl"))
    archived: set[str] = set()
    for path in corpora:
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            archived.update([record["from"], *record["to"], *record["cc"]])
    normalize_address.cache_clear()
    for path in corpora:
        load_corpus(path, path.stem, summer)
    assert 0 < normalize_address.cache_info().misses <= len(archived)


@pytest.mark.parametrize("edit", [
    {"from": ["a@x.com"]}, {"to": ["b@x.com", ["c@x.com"]]}, {"to": [True]}, {"cc": [5]},
    {"cc": [{"c@x.com": 1}]}, {"timestamp": 1338800400}, {"team_id": ["t"]},
    {"team_id": None}, {"team_id": 0}, {"subject": ["s"]}, {"subject": 5}])
def test_jsonl_fields_that_are_not_strings_are_malformed(edit):
    """A JSON value is never turned into text: a non-string address, timestamp,
    team id or subject (other than a null subject) makes the record malformed."""
    good = {"timestamp": "2012-06-04T09:00:00Z", "from": "a@x.com", "to": ["b@x.com"],
            "team_id": "t"}
    doc = "".join(json.dumps(record) + "\n" for record in ({**good, **edit}, good)).encode()
    result = parse_events(io.BytesIO(doc), "jsonl", source_name="m.jsonl")
    assert [(e.sender, e.to, e.team_id) for e in result.events] == [("a@x.com", ("b@x.com",), "t")]
    assert [i.line for i in result.issues] == [1]
    assert "must be" in result.issues[0].message
    with pytest.raises(MalformedRecord, match=r"^m\.jsonl:1: "):
        parse_events(io.BytesIO(doc), "jsonl", source_name="m.jsonl", strict=True)


@pytest.mark.parametrize("field", ["to", "cc"])
@pytest.mark.parametrize("value", [False, True, 0, 1, "", "b@x.com", {}, {"b@x.com": 1}])
def test_jsonl_recipients_that_are_neither_null_nor_an_array_are_malformed(field, value):
    """Only an absent or ``null`` ``to``/``cc`` means no recipients; a falsy
    value such as ``false``, ``0``, ``""`` or ``{}`` is no more an array than
    ``1`` is."""
    good = {"timestamp": "2012-06-04T09:00:00Z", "from": "a@x.com", "to": ["b@x.com"],
            "team_id": "t"}
    doc = "".join(json.dumps(record) + "\n" for record in (
        {**good, field: value}, {**good, "cc": None}, good)).encode()
    result = parse_events(io.BytesIO(doc), "jsonl", source_name="m.jsonl")
    assert [(e.to, e.cc) for e in result.events] == [(("b@x.com",), ())] * 2
    assert [(i.line, i.message) for i in result.issues] == [(1, "to/cc must be arrays")]


@pytest.mark.parametrize("subject", [{}, {"subject": None}])
def test_jsonl_absent_or_null_subject_is_empty(subject):
    record = {"timestamp": "2012-06-04T09:00:00Z", "from": "a@x.com", "to": ["b@x.com"],
              "team_id": "t", **subject}
    (event,) = parse_events(io.BytesIO(json.dumps(record).encode()), "jsonl").events
    assert event.subject == ""
    assert b'"subject":""' in serialize_events([event], "jsonl")


def test_each_distinct_party_key_and_team_is_decided_once(monkeypatch, tmp_path):
    """An operation bound: per parse, the party normalizer runs at most once per
    distinct raw (from, to, cc) key and the team-id check once per distinct team."""
    mail = sorted((FIXTURE / "mail").glob("*.csv"))
    assert main(["ingest", *map(str, mail), "--period", "2012-06-01..2012-09-01",
                 "--out", str(tmp_path)]) == 0
    archive = b"".join(path.read_bytes() for path in sorted(tmp_path.glob("corpora/*.jsonl")))
    calls: list[tuple] = []
    searched: list[str] = []
    parties, unsafe_team = ingest._parties, ingest._UNSAFE_TEAM_RE

    def counting_parties(sender, to, cc):
        calls.append((sender, tuple(to), tuple(cc)))
        return parties(sender, to, cc)

    class CountingPattern:
        def search(self, text):
            searched.append(text)
            return unsafe_team.search(text)

    monkeypatch.setattr(ingest, "_parties", counting_parties)
    monkeypatch.setattr(ingest, "_UNSAFE_TEAM_RE", CountingPattern())
    for blob, format, keys in (
            *((path.read_bytes(), "csv",
               {tuple(row[1:4]) for row in list(csv.reader(io.StringIO(path.read_text())))[1:]})
              for path in mail),
            (archive, "jsonl", {(r["from"], tuple(r["to"]), tuple(r["cc"]))
                                for r in map(json.loads, archive.splitlines())}),
            (MBOX_DOC * 3, "mbox", {("A@x.com", ("b@y.com",), ("c@y.com",))})):
        calls.clear()
        searched.clear()
        ingest._team_error.cache_clear()
        result = parse_events(io.BytesIO(blob), format, default_team="t")
        assert len(result.events) > len(keys)  # so one call per record would break the bound
        assert 0 < len(calls) <= len(keys)
        assert sorted(searched) == sorted({ev.team_id for ev in result.events})


# Raw spellings of four actors, some malformed, for records that repeat parties.
_RAW_ADDRESSES = ("a@ex.com", "A@EX.COM", "Ann <a@ex.com>", " b@ex.com", "B@ex.com",
                  "Cid <C@Ex.com>", "d@ex.com", "no-at-sign", "a@b@c")
_STAMPS = ("2012-06-04T09:00:00Z", "2012-06-04T11:00:00+02:00", "2012-06-05T09:00:00Z",
           "2012-06-04T09:00:00", "bad", "0001-01-01T00:00:00+01:00")
_DATES = ("Mon, 04 Jun 2012 09:00:00 +0000", "Mon, 04 Jun 2012 11:00:00 +0200",
          "Mon, 04 Jun 2012 09:00:00 -0000", "Fri, 31 Dec 9999 23:30:00 -0100", "not a date")
_TEAMS = ("t", "u", "../up", ".")
#: One good JSONL record, edited by the examples.
_RECORD = {"timestamp": "2012-06-04T09:00:00Z", "from": "a@ex.com", "to": ["b@ex.com"],
           "cc": [], "subject": "s", "team_id": "t"}


def _written_json(record: dict) -> str:
    """``record`` as ``serialize_events`` writes a line: no spaces, the keys in
    the order given, non-ASCII text unescaped but for a lone surrogate, which
    UTF-8 cannot encode, written as its ``\\u`` escape."""
    text = json.dumps(record, ensure_ascii=False, separators=(",", ":"))
    return re.sub(r"[\ud800-\udfff]", lambda m: f"\\u{ord(m[0]):04x}", text)


#: ``_RECORD`` in the writer's form: read from the record, it fills the text memos.
_WRITTEN_LINE = (_written_json(_RECORD) + "\n").encode()
#: Edits of ``_WRITTEN_LINE`` at the edges of the writer's form.  Each example
#: reads one before and one after that line: with the text memos empty and filled.
_NEAR_WRITTEN = tuple(_WRITTEN_LINE.replace(old, new, 1) for old, new in (
    (b',"team_id"', b',"from":"z@ex.com","team_id"'),  # keys repeated in the tail
    (b',"team_id"', b',"to":["c@ex.com"],"team_id"'),
    (b'"t"}', b'"t","team_id":"u"}'),
    (b'"subject":"s"', b'"subject":null,"subject":"s"'),
    (b'"subject":"s"', b'"subject":"s\\",\\"subject\\":\\"x"'),
    (b'"from":"a@ex.com"', b'"from":"\\u0061@ex.com"'),
    (b'"subject":"s"', b'"subject":"\\u0073"'),
    (b'"subject":"s"', b'"subject":"\\ud800"'),
    (b'00:00Z"', b'00:00z"'),
    (b'T09', b' 09'),
    (b'T09', b'"09'),  # fromisoformat takes any separator; JSON takes neither
    (b'T09', b'\t09'),
    (b'"t"}', b'".."}'),
    (b'}\n', b'} \n'),
    (b'}\n', b'}\r\n'),
))


def _examples(*values):
    """``@example(value)`` for each value."""
    def decorate(test):
        for value in values:
            test = example(value)(test)
        return test
    return decorate


_party_triples = st.tuples(st.sampled_from(_RAW_ADDRESSES),
                           st.lists(st.sampled_from(_RAW_ADDRESSES), max_size=3),
                           st.lists(st.sampled_from(_RAW_ADDRESSES), max_size=2))


@st.composite
def _mail_files(draw):
    """A mail file of one format whose records reuse a few raw party triples."""
    format = draw(st.sampled_from(["csv", "jsonl", "mbox"]))
    dumps = draw(st.sampled_from([_written_json, json.dumps]))
    triples = draw(st.lists(_party_triples, min_size=1, max_size=3))
    lines = ["timestamp,from,to,cc,subject\n"] if format == "csv" else []
    for _ in range(draw(st.integers(0, 8))):
        sender, to, cc = draw(st.sampled_from(triples))
        subject = draw(st.sampled_from(["s", "Re: s, again", 'say "hi"', None]))
        if format == "csv":
            stamp = draw(st.sampled_from(_STAMPS))
            lines.append(csv_line((stamp, sender, ";".join(to), ";".join(cc), subject or "")))
        elif format == "jsonl":
            record = {"timestamp": draw(st.sampled_from(_STAMPS)), "from": sender, "to": to,
                      "cc": cc, "subject": subject, "team_id": draw(st.sampled_from(_TEAMS))}
            if draw(st.integers(0, 9)) == 0:
                record.pop(draw(st.sampled_from(["from", "subject", "team_id"])))
            if draw(st.integers(0, 9)) == 0:  # written as the escape \ud800
                record[draw(st.sampled_from(["from", "subject", "team_id"]))] = "x\ud800"
            lines.append(dumps(record) + "\n")
        else:
            headers = [f"From: {sender}", f"To: {', '.join(to)}", f"Cc: {', '.join(cc)}"]
            if subject is not None:
                headers.append(f"Subject: {subject}")
            if draw(st.integers(0, 9)):
                headers.append(f"Date: {draw(st.sampled_from(_DATES))}")
            lines.append("From x\n" + "\n".join(headers) + "\n\nbody\n")
    return "".join(lines).encode(), format, draw(st.sampled_from(_TEAMS))


@given(_mail_files())
@example((b"timestamp,from,to,cc,subject\n2012-06-04T09:00:00Z,a@ex.com,a@ex.com;,a@ex.com,s\n"
          b"2012-06-04T09:00:00Z,a@ex.com,;,,s\n" * 2, "csv", "t"))
@example((_MBOX_LATE_DATE, "mbox", "t"))
# header bytes that are not UTF-8: raw and in a Q-encoded word, then in a B-encoded one
@example((_MBOX_NOT_UTF8, "mbox", "t"))
@example((MBOX_DOC.replace(b"Re: invoice", b"=?utf-8?b?Y2Fm/w==?="), "mbox", "t"))
# lone surrogates in an address, a team and a subject; a pair, and an escaped
# backslash before "ud800"
@example((b"".join(json.dumps({**_RECORD, **edit}).encode() + b"\n" for edit in (
    {"to": ["b@ex.com", "c\udc00@ex.com"]}, {"team_id": "t\ud800"}, {"subject": "\udfff"},
    {"subject": "\ud83d\ude00 \\ud800"})), "jsonl", "t"))
@_examples(*((line + _WRITTEN_LINE + line, "jsonl", "t") for line in _NEAR_WRITTEN))
@settings(max_examples=300, deadline=None)
def test_parse_events_equals_make_event_per_record(mail):
    """The memoized parse gives the events, issues and strict-mode error of
    building every record with its own ``make_event`` call."""
    blob, format, team = mail
    events, issues = oracles.reference_parse(blob, format, make_event, parse_timestamp,
                                             default_team=team, source="m")
    result = parse_events(io.BytesIO(blob), format, default_team=team, source_name="m")
    assert result.events == events
    assert [(i.source, i.line, i.message) for i in result.issues] == issues
    if issues:
        with pytest.raises(MalformedRecord) as info:
            parse_events(io.BytesIO(blob), format, default_team=team, source_name="m",
                         strict=True)
        assert str(info.value) == str(MalformedRecord(issues[0][2], source="m",
                                                      line=issues[0][1]))


def test_ingesting_the_archive_again_writes_it_unchanged(tmp_path):
    """Format round trip through ``main()``: the JSONL corpora that ``ingest``
    wrote from CSV, ingested again as JSONL, come out byte-identical."""
    period = "2012-06-01..2012-09-01"
    mail = sorted((FIXTURE / "mail").glob("*.csv"))
    assert main(["ingest", *map(str, mail), "--period", period,
                 "--out", str(tmp_path / "csv")]) == 0
    corpora = sorted((tmp_path / "csv" / "corpora").glob("*.jsonl"))
    assert main(["ingest", *map(str, corpora), "--format", "jsonl", "--period", period,
                 "--out", str(tmp_path / "jsonl")]) == 0
    again = sorted((tmp_path / "jsonl" / "corpora").glob("*.jsonl"))
    assert [p.name for p in again] == [p.name for p in corpora]
    assert [p.read_bytes() for p in again] == [p.read_bytes() for p in corpora]
    manifests = [json.loads((tmp_path / run / "manifest.json").read_text(encoding="utf-8"))
                 for run in ("csv", "jsonl")]
    assert manifests[0]["teams"] == manifests[1]["teams"]


@given(team_mail())
@example(EVERY_PATH_MAIL)
@settings(max_examples=5, deadline=None)
def test_the_same_mail_as_csv_jsonl_and_mbox_ingests_to_one_archive(drawn):
    """Format relation through ``main()``: the same mail as one CSV and one
    mbox file per team, and as one JSONL file naming each record's team,
    ingests to byte-identical corpora."""
    months, messages = drawn
    archives = []
    with tempfile.TemporaryDirectory() as tmp:
        for format in ("csv", "jsonl", "mbox"):
            out = Path(tmp) / format
            files = write_mail(messages, out / "mail", format)
            assert main(["ingest", *map(str, files), "--format", format, "--period",
                         period(months), "--out", str(out / "archive"), "--strict"]) == 0
            archives.append({p.name: p.read_bytes()
                             for p in (out / "archive" / "corpora").iterdir()})
    assert sorted(archives[0]) == sorted({f"{m.team}.jsonl" for m in messages})
    assert archives[0] == archives[1] == archives[2]


#: The same instant in other offsets and spellings, and ``...Z``, which parses in one call.
_STAMP_FORMS = {
    "Z": lambda t: f"{t.astimezone(timezone.utc):%Y-%m-%dT%H:%M:%S}Z",
    "own offset": iso_stamp,
    "+05:30": lambda t: t.astimezone(timezone(timedelta(hours=5, minutes=30))).isoformat(),
    "-08:00": lambda t: t.astimezone(timezone(timedelta(hours=-8))).isoformat(),
    "z": lambda t: f"{t.astimezone(timezone.utc):%Y-%m-%dT%H:%M:%S}z",
    "+00:00": lambda t: t.astimezone(timezone.utc).isoformat(),
    ".000000Z": lambda t: f"{t.astimezone(timezone.utc):%Y-%m-%dT%H:%M:%S}.000000Z",
}


@given(team_mail(), st.sampled_from(["csv", "jsonl"]))
@example(EVERY_PATH_MAIL, "csv")
@example(EVERY_PATH_MAIL, "jsonl")
@settings(max_examples=3, deadline=None)
def test_stamps_in_other_forms_ingest_and_analyze_to_the_same_files(drawn, format):
    """Representation relation through ``main()``: the same mail with every
    stamp written in each of :data:`_STAMP_FORMS` ingests to byte-identical
    corpora and manifest teams, and analyzes to a byte-identical
    ``metrics.csv``."""
    months, messages = drawn
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, form in _STAMP_FORMS.items():
            out = Path(tmp) / name
            files = write_mail(messages, out / "mail", format, stamp=form)
            assert main(["ingest", *map(str, files), "--format", format, "--period",
                         period(months), "--strict", "--out", str(out / "archive")]) == 0
            assert main(["analyze", str(out / "archive"), "--out", str(out / "metrics")]) == 0
            manifest = json.loads((out / "archive" / "manifest.json").read_text(encoding="utf-8"))
            outputs.append(({p.name: p.read_bytes()
                             for p in (out / "archive" / "corpora").iterdir()},
                            manifest["teams"], (out / "metrics" / "metrics.csv").read_bytes()))
    assert len(outputs[0][0]) == len({m.team for m in messages})
    assert all(output == outputs[0] for output in outputs[1:])


def test_ingest_writes_the_reference_archive(tmp_path):
    """Each corpus ``ingest`` writes, from the fixture mail and from ``synth``
    mail, equals the oracles' archive of the oracles' corpus of the
    oracles' parse, none of which calls ``serialize_events``."""
    assert main(["synth", "--out", str(tmp_path / "synth"), "--seed", "3",
                 "--teams", "3"]) == 0
    period = Period(ts("2012-06-01 00:00"), ts("2012-09-01 00:00"))
    for name, mail in (("fixture", sorted((FIXTURE / "mail").glob("*.csv"))),
                       ("synth", sorted((tmp_path / "synth" / "mail").glob("*.csv")))):
        out = tmp_path / name
        assert main(["ingest", *map(str, mail), "--period", "2012-06-01..2012-09-01",
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in (out / "corpora").iterdir()) == [
            f"{path.stem}.jsonl" for path in mail]
        for path in mail:
            events, _ = oracles.reference_parse(path.read_bytes(), "csv", make_event,
                                                parse_timestamp, default_team=path.stem)
            expected = oracles.archive_bytes(
                oracles.reference_corpus(events, path.stem, period.start, period.end))
            assert (out / "corpora" / f"{path.stem}.jsonl").read_bytes() == expected


# ---------------------------------------------------------------------------
# corpus assembly


def test_corpus_filters_by_period_and_team(summer):
    inside = ev("2012-07-01 09:00", "a", "b")
    other_team = ev("2012-07-01 10:00", "a", "b", team="other")
    before = ev("2012-05-31 23:59", "a", "b")
    after = ev("2012-09-01 00:00", "a", "b")  # end is exclusive
    corpus = build_corpus([inside, other_team, before, after], "t", summer)
    assert corpus.events == (inside,)


def test_corpus_sorted_by_timestamp_then_fields(summer):
    expected = (
        ev("2012-07-01 08:59", "z", "b", subject="z"),
        ev("2012-07-01 09:00", "a", "b", subject="q"),
        ev("2012-07-01 09:00", "a", "b", cc="c", subject="p"),
        ev("2012-07-01 09:00", "a", "c", subject="p"),
        ev("2012-07-01 09:00", "b", "a", subject="a"),
    )
    assert build_corpus(expected[::-1], "t", summer).events == expected


def test_duplicate_rows_collapse_to_one(summer):
    event = ev("2012-07-01 09:00", "a", "b", subject="s")
    corpus = build_corpus([event, event, event], "t", summer)
    assert len(corpus.events) == 1


def test_dedup_retains_the_most_cc_information(summer):
    plain = ev("2012-07-01 09:00", "a", "b", subject="s")
    with_cc = ev("2012-07-01 09:00", "a", "b", cc="c", subject="s")
    for ordering in ([plain, with_cc], [with_cc, plain]):
        corpus = build_corpus(ordering, "t", summer)
        assert corpus.events == (with_cc,)


def test_empty_corpus_returns_without_a_warning(summer):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        corpus = build_corpus([], "t", summer)
    assert corpus.events == ()
    assert corpus.team_id == "t"


def test_team_corpus_rejects_unsorted_or_out_of_period_events(summer):
    first = ev("2012-06-01 00:00", "a", "b")
    same_time = ev("2012-06-01 00:00", "b", "a")
    last = ev("2012-08-31 23:59", "a", "b")
    assert TeamCorpus("t", (first, same_time, last), summer).events[-1] == last
    with pytest.raises(ValueError, match="timestamp order"):
        TeamCorpus("t", (last, first), summer)
    # same instant out of event order (sender b before a), and a duplicate
    for events in ((same_time, first), (first, first)):
        with pytest.raises(ValueError, match="event order"):
            TeamCorpus("t", events, summer)
    before, after = ev("2012-05-31 23:59", "a", "b"), ev("2012-09-01 00:00", "a", "b")
    for events in ((before,), (after,), (before, first), (first, after)):
        with pytest.raises(ValueError, match="outside the corpus period"):
            TeamCorpus("t", events, summer)


# few instants, senders and subjects, so runs at one instant and duplicates are common
_corpus_events = st.builds(
    ev, st.sampled_from(["2012-06-04 09:00", "2012-06-04 10:00", "2012-06-05 09:00"]),
    st.sampled_from("ab"), st.sampled_from("cd"), subject=st.sampled_from("xy"))


@given(events=st.lists(_corpus_events, max_size=8),
       arrange=st.sampled_from(["as drawn", "by event order", "by instant"]))
@settings(max_examples=300)
def test_team_corpus_accepts_exactly_strictly_increasing_event_order(events, arrange):
    if arrange == "by event order":
        events.sort(key=event_order)
    elif arrange == "by instant":
        events.sort(key=lambda e: e.timestamp)
    keys = [event_order(e) for e in events]
    try:
        TeamCorpus("t", tuple(events), Period(ts("2012-06-01 00:00"), ts("2012-09-01 00:00")))
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == all(earlier < later for earlier, later in zip(keys, keys[1:]))


@given(st.permutations(list(range(9))))
@settings(max_examples=30)
def test_corpus_is_order_invariant(order):
    # three events per hour, two pairs of them duplicates that differ in cc
    rows = [(8, "a", "c", ()), (8, "a", "c", ("e",)), (8, "b", "c", ()),
            (9, "a", "d", ()), (9, "a", "c", ()), (9, "b", "a", ("c",)),
            (10, "b", "c", ("e",)), (10, "b", "c", ("d",)), (10, "a", "b", ())]
    events = [ev(f"2012-06-04 {hour:02}:00", sender, to, cc, subject="s")
              for hour, sender, to, cc in rows]
    shuffled = [events[i] for i in order]
    corpus = corpus_of(events)
    assert len(corpus.events) == 7
    assert corpus_of(shuffled).events == corpus.events


_ACTORS = ("a@ex.com", "b@ex.com", "c@ex.com", "d@ex.com")


@st.composite
def _same_time_events(draw):
    """Events at three instants among four actors, so many share a timestamp."""
    sender = draw(st.sampled_from(_ACTORS))
    recipients = draw(st.lists(st.sampled_from([a for a in _ACTORS if a != sender]),
                               min_size=1, max_size=3, unique=True))
    split = draw(st.integers(1, len(recipients)))
    stamp = ts("2012-06-04 09:00") + timedelta(seconds=draw(st.integers(0, 2)))
    return make_event(stamp, sender, recipients[:split], recipients[split:],
                      draw(st.sampled_from(["s", "Re: s", "t"])), "t")


_JUNE = Period(ts("2012-06-01 00:00"), ts("2012-07-01 00:00"))


@given(st.lists(_same_time_events(), min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_archive_is_a_fixed_point_of_the_reload(events):
    """``analyze`` rebuilds the corpus ``ingest`` archived, byte for byte."""
    with tempfile.TemporaryDirectory() as tmp:
        mail = Path(tmp) / "mail.jsonl"
        mail.write_bytes(serialize_events(events, "jsonl"))
        assert main(["ingest", str(mail), "--format", "jsonl", "--period",
                     "2012-06-01..2012-07-01", "--out", f"{tmp}/out"]) == 0
        archive = Path(tmp) / "out" / "corpora" / "t.jsonl"
        archived = archive.read_bytes()
        loaded = load_corpus(archive, "t", _JUNE)
    reloaded = parse_events(io.BytesIO(archived), "jsonl", default_team="t", strict=True)
    corpus = build_corpus(reloaded.events, "t", _JUNE)
    assert serialize_events(corpus.events, "jsonl") == archived
    assert loaded == corpus


_UNNORMAL = (str.upper, "Ann Example <{}>".format, '"{}"'.format, "  {}\t".format)
#: Edits that keep each field's type, and fields set to a wrong type.
_EDITS = ("address", "repeat", "no-subject", "null-subject", "no-team", "other-team",
          "unsafe-team", "shuffle", "duplicate", "twin", "outside", "stamp")
_WRONG_TYPES = (("from", 5), ("from", ["a@ex.com"]), ("to", []), ("to", [7]), ("to", [1.0]),
                ("to", "b@ex.com"), ("to", {"b@ex.com": 1}), ("cc", None), ("cc", [True]),
                ("cc", [["c@ex.com"]]), ("timestamp", 1338800400), ("subject", ["s"]),
                ("team_id", ["t"]), ("team_id", None))


@st.composite
def _archive_lines(draw):
    """An archive ``ingest`` could write, then edited by hand or by another
    writer, in the writer's form or with ``json.dumps``'s spaces."""
    dumps = draw(st.sampled_from([_written_json, json.dumps]))
    events = draw(st.lists(_same_time_events(), max_size=10))
    if draw(st.booleans()):
        archived = build_corpus(events, "t", _JUNE).events if events else ()
    else:  # sorted, but with the duplicates build_corpus would drop
        archived = sorted(set(events), key=event_order)
    records = [json.loads(line) for line in serialize_events(archived, "jsonl").splitlines()]
    edits = draw(st.lists(st.sampled_from(_EDITS + _WRONG_TYPES), min_size=1, max_size=2))
    for edit in sorted(edits, key=lambda e: e in _WRONG_TYPES):
        if not records:
            break
        i = draw(st.integers(0, len(records) - 1))
        rec = records[i]
        if edit in _WRONG_TYPES:
            rec[edit[0]] = edit[1]
        elif edit == "address":
            field = draw(st.sampled_from(["from", "to", "cc"] if rec["cc"] else ["from", "to"]))
            spoil = draw(st.sampled_from(_UNNORMAL))
            if field == "from":
                rec["from"] = spoil(rec["from"])
            else:
                j = draw(st.integers(0, len(rec[field]) - 1))
                rec[field][j] = spoil(rec[field][j])
        elif edit == "repeat":
            rec["cc"].append(rec["to"][0])
        elif edit == "no-subject":
            rec.pop("subject", None)
        elif edit == "null-subject":
            rec["subject"] = None
        elif edit == "no-team":
            rec.pop("team_id", None)
        elif edit == "other-team":
            rec["team_id"] = "u"
        elif edit == "unsafe-team":
            rec["team_id"] = draw(st.sampled_from(["../escaped", "."]))
        elif edit == "shuffle":
            records = draw(st.permutations(records))
        elif edit == "duplicate":
            records.insert(draw(st.integers(0, len(records))), json.loads(json.dumps(rec)))
        elif edit == "twin":  # the same event at the same instant with another cc
            twin = json.loads(json.dumps(rec))
            spare = [a for a in _ACTORS if a not in rec["to"] + rec["cc"]]
            if draw(st.booleans()):
                twin["cc"] = []
                records.insert(i, twin)
            else:  # after it, maybe with another event of that instant between
                twin["cc"].extend(spare[:1])
                between = {**rec, "subject": "zz"}
                records[i + 1:i + 1] = [between, twin] if draw(st.booleans()) else [twin]
        elif edit == "outside":
            rec["timestamp"] = draw(st.sampled_from(
                ["2012-05-31T23:59:59Z", "2012-07-01T00:00:00Z"]))
        elif edit == "stamp":  # the same second, written another way
            stamp = parse_timestamp(rec["timestamp"])
            rec["timestamp"] = draw(st.sampled_from([
                stamp.astimezone(timezone(timedelta(hours=1))).isoformat(),
                rec["timestamp"][:-1] + ".75Z", rec["timestamp"][:-1] + ".000001+00:00"]))
    return "".join(dumps(rec) + "\n" for rec in records).encode("utf-8")


def _outcome(load) -> tuple:
    """The corpus ``load()`` returns, or its ``MalformedRecord``; a warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return ("corpus", load())
        except MalformedRecord as exc:
            return ("malformed", str(exc), exc.source, exc.line)


def _reference_build(events, team_id: str, period: Period) -> TeamCorpus:
    """``oracles.reference_corpus`` as a corpus."""
    return TeamCorpus(team_id, oracles.reference_corpus(events, team_id, period.start,
                                                        period.end), period)


#: Instants at, next to and between the bounds of ``_JUNE``.
_CORPUS_INSTANTS = (_JUNE.start - timedelta(seconds=1), _JUNE.start,
                    _JUNE.start + timedelta(seconds=1), ts("2012-06-15 12:00"),
                    _JUNE.end - timedelta(seconds=1), _JUNE.end)
_CORPUS_ACTORS = _ACTORS + ("e@ex.com",)


@st.composite
def _corpus_events(draw):
    sender = draw(st.sampled_from(_CORPUS_ACTORS))
    others = [a for a in _CORPUS_ACTORS if a != sender]
    recipients = draw(st.lists(st.sampled_from(others), min_size=1, max_size=3, unique=True))
    split = draw(st.integers(1, len(recipients)))
    return make_event(draw(st.sampled_from(_CORPUS_INSTANTS)), sender, recipients[:split],
                      recipients[split:], draw(st.sampled_from(["s", "t"])),
                      draw(st.sampled_from(["t", "t", "u"])))


@st.composite
def _corpus_inputs(draw):
    """Events of two teams around ``_JUNE``'s bounds, with twins that share an
    event's dedup key but list ``to`` in another order or carry another cc, shuffled."""
    events = draw(st.lists(_corpus_events(), max_size=12))
    for original in draw(st.lists(st.sampled_from(events), max_size=4)) if events else ():
        spare = [a for a in _CORPUS_ACTORS if a != original.sender and a not in original.to]
        cc = draw(st.lists(st.sampled_from(spare), max_size=2, unique=True)) if spare else []
        events.append(make_event(original.timestamp, original.sender,
                                 draw(st.permutations(original.to)), cc, original.subject,
                                 original.team_id))
    return draw(st.permutations(events))


@given(_corpus_inputs())
@settings(max_examples=400, deadline=None)
def test_build_corpus_equals_reference_corpus(events):
    """The same corpus as one dedup dict over every event and a sort by an
    independent key of all fields."""
    assert (_outcome(lambda: build_corpus(events, "t", _JUNE))
            == _outcome(lambda: _reference_build(events, "t", _JUNE)))


def test_dedup_keys_are_built_only_for_events_that_share_an_instant(monkeypatch):
    """An operation bound: ``build_corpus`` builds a dedup key (a ``frozenset`` of
    ``to``) only for an event of the team and period that shares its instant."""
    with open(FIXTURE / "mail" / "alpha.csv", "rb") as fh:
        events = parse_events(fh, "csv", default_team="t").events
    first = events[0]
    noon = "2012-06-20 12:00"
    twins = [make_event(first.timestamp, first.sender, first.to, ["z@ex.com"], first.subject, "t"),
             first, ev(noon, "a", "b", subject="one"), ev(noon, "b", "a", subject="two"),
             ev(noon, "b", "a"), ev(noon, "a", "b", team="u"), ev(noon, "a", "b", team="u")]
    events = events[::-1] + twins
    period = Period(first.timestamp, ts("2012-08-01 00:00"))
    instants = Counter(e.timestamp for e in events if e.team_id == "t" and e.timestamp in period)
    shared = sum(n for n in instants.values() if n > 1)
    built: list[frozenset] = []

    def counting_frozenset(items=()):
        built.append(frozenset(items))
        return built[-1]

    monkeypatch.setattr(ingest, "frozenset", counting_frozenset, raising=False)
    corpus = build_corpus(events, "t", period)
    assert len(built) == shared == 6
    assert len(corpus.events) > 4 * shared
    assert corpus.events == oracles.reference_corpus(events, "t", period.start, period.end)


@given(_archive_lines())
@example(b"")
# in event order, but the first and last share build_corpus's dedup key
@example(b"".join(json.dumps({**_RECORD, **edit}).encode() + b"\n"
                  for edit in ({}, {"subject": "zz"}, {"cc": ["c@ex.com"]})))
@_examples(*(line + _WRITTEN_LINE + line for line in _NEAR_WRITTEN))
@settings(max_examples=400, deadline=None)
def test_load_corpus_equals_parse_and_build(archived):
    """The same corpus and errors as reading every record through ``make_event``
    and building the corpus with ``oracles.reference_corpus``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        path.write_bytes(archived)

        def parse_and_build():
            events, issues = oracles.reference_parse(
                archived, "jsonl", make_event, parse_timestamp, default_team="t",
                source=path.name)
            if issues:
                source, line, message = issues[0]
                raise MalformedRecord(message, source=source, line=line)
            return _reference_build(events, "t", _JUNE)

        assert _outcome(lambda: load_corpus(path, "t", _JUNE)) == _outcome(parse_and_build)


@pytest.mark.parametrize("line, message", [
    (b"[1, 2]", "record is not an object"),
    (b'{"timestamp": "2012-06-04T09:00:00Z", "to": ["b@ex.com"], "cc": [], '
     b'"subject": "s", "team_id": "t"}', "missing key 'from'"),
])
def test_load_corpus_names_the_file_and_line_of_a_malformed_record(tmp_path, line, message):
    path = tmp_path / "t.jsonl"  # a good record, a blank line, the bad one
    path.write_bytes(serialize_events([ev("2012-06-04 09:00", "a", "b")], "jsonl")
                     + b"\n" + line + b"\n")
    with pytest.raises(MalformedRecord) as info:
        load_corpus(path, "t", _JUNE)
    assert (info.value.source, info.value.line) == ("t.jsonl", 3)
    assert str(info.value) == f"t.jsonl:3: {message}"


@given(st.lists(_events(), max_size=10))
@settings(max_examples=40)
def test_every_corpus_event_is_inside_the_period(events):
    period = Period(ts("2012-07-01 00:00"), ts("2012-08-01 00:00"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        corpus = build_corpus(events, "team", period)
    for event in corpus.events:
        assert event.timestamp in period


def test_period_rejects_naive_or_reversed_bounds():
    with pytest.raises(ValueError):
        Period(datetime(2012, 6, 1), ts("2012-07-01 00:00"))
    with pytest.raises(ValueError):
        Period(ts("2012-07-01 00:00"), ts("2012-06-01 00:00"))


@pytest.mark.parametrize("sender, to, cc, message", [
    ("", ("b@ex.com",), (), "sender must be nonempty"),
    ("a@ex.com", (), ("b@ex.com",), "to must contain at least one recipient"),
    ("a@ex.com", ("b@ex.com", "c@ex.com", "b@ex.com"), (), "to ∪ cc contains duplicates"),
    ("a@ex.com", ("b@ex.com",), ("c@ex.com", "c@ex.com"), "to ∪ cc contains duplicates"),
    ("a@ex.com", ("b@ex.com",), ("b@ex.com",), "to ∪ cc contains duplicates"),
], ids=["empty-sender", "empty-to", "within-to", "within-cc", "across-to-and-cc"])
def test_event_rejects_duplicate_recipients(sender, to, cc, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        EmailEvent(timestamp=ts("2012-06-01 00:00"), sender=sender, to=to, cc=cc,
                   subject="", team_id="t")


def test_events_are_frozen_and_replace_runs_the_checks():
    event = ev("2012-06-04 09:00", "a", ["b", "c"])
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.sender = "z@ex.com"
    with pytest.raises(ValueError, match="to ∪ cc contains duplicates"):
        dataclasses.replace(event, cc=event.to)
    assert dataclasses.replace(event, subject="s") == ev("2012-06-04 09:00", "a", ["b", "c"],
                                                         subject="s")


def test_make_event_drops_cc_already_in_to():
    event = ev("2012-06-04 09:00", "a", ["b", "c"], cc=["c", "d"])
    assert event.to == ("b@ex.com", "c@ex.com")
    assert event.cc == ("d@ex.com",)
