"""Parse e-mail logs into normalized, deduplicated, time-sorted per-team event streams.

Three wire formats are supported:

* CSV with header ``timestamp,from,to,cc,subject`` where ``to``/``cc`` are
  ``;``-separated address lists,
* JSONL with one object per line carrying
  ``timestamp,from,to,cc,subject,team_id`` (``to``/``cc`` arrays),
* classic ``From ``-delimited mbox, of which only the ``From``/``To``/``Cc``/
  ``Subject``/``Date`` headers are consumed.  A message is malformed if a
  ``From``/``To``/``Cc``/``Subject`` header holds raw bytes that are not
  UTF-8, or an encoded word whose bytes its charset cannot decode.  The mbox
  parser imports ``email`` on its first call, so importing this module does not.

Timestamps must carry an explicit UTC offset.  An instant is a UTC second:
:class:`EmailEvent` and :class:`Period` convert every aware instant they are
given to UTC and truncate it to the whole second, so no other module converts
one.  Written out an instant reads ``YYYY-MM-DDTHH:MM:SSZ``, the year always
four digits (``0999-01-02T03:04:05Z``): :func:`iso_utc` writes one instant, and
:func:`serialize_events` writes each event's stamp as it would, formatting a UTC
day's date text once per run of events on that day.  :func:`parse_timestamp`
reads that form back with one call and every other form by its general rules.
Addresses are lowercased with display names stripped.

Every record of every format goes through one party normalizer, memoized per
parse: a file's repeated ``from``/``to``/``cc`` fields are normalized once.
Every corpus, built from parsed mail or reloaded from an archive by
:func:`load_corpus`, comes from :func:`build_corpus`: the team's events sorted
by instant, deduplicated only where several share one instant.

Each archive line (:func:`serialize_events`) is written from one template,
every string field escaped by ``json``'s own string escaper: byte for byte
``json.dumps(..., ensure_ascii=False, separators=(",", ":"))`` of the event.
Each distinct ``(sender, to, cc, team_id)`` is escaped once per call, and
each line escapes only its subject.
A JSONL record whose address, subject or team id decodes to a lone surrogate
(``"\\ud800"``), which UTF-8 cannot encode, is malformed.

A JSONL line in that writer's form, in any file, can skip most of its decoding.
Inside a JSON string every ``"`` is escaped, so its party text runs from the
stamp's closing quote to its first ``,"subject":``.  Where that text and the
text after the subject both equal those of an earlier line of the same parse,
decoded whole into an event, only the stamp and the subject are decoded; they
still pass :func:`parse_timestamp` and the lone-surrogate check.  Every other
line, and one whose stamp or subject fails, is decoded whole and checked field
by field, so each line gives the same event or message either way.
"""

from __future__ import annotations

import json
import os
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from functools import lru_cache
from itertools import compress, count
from json.encoder import encode_basestring as _quote
from operator import attrgetter, eq, ge
from typing import BinaryIO, Callable, Iterable, Iterator

from ._text import csv_line, read_csv
from .errors import FormatError, MalformedAddress, MalformedRecord, UnsupportedFormat

#: Actor identity: a normalized lowercase e-mail address string.
ActorId = str

CSV_HEADER = ("timestamp", "from", "to", "cc", "subject")

#: A lone surrogate, as a JSON ``\ud800`` escape decodes to: UTF-8 cannot
#: encode it, so no address, team id or subject may hold one.
_SURROGATE_RE = re.compile(r"[\ud800-\udfff]")
_ADDR_RE = re.compile(r"^[^@\s<>,;\ud800-\udfff]+@[^@\s<>,;\ud800-\udfff]+$")
_ANGLE_RE = re.compile(r"<([^<>]*)>")
#: A team id names its corpus file, so it must be one path component.
_UNSAFE_TEAM_RE = re.compile(r"[/\\\x00]|\A\.\.?\Z")


@lru_cache(maxsize=1 << 16)
def normalize_address(raw: str) -> ActorId:
    """Normalize one address to its lowercase ``local@domain`` form.

    Display names and angle brackets are stripped, surrounding whitespace and
    quotes removed, and the whole address lowercased.  Plus-addressing is
    deliberately not folded.  Results are cached, so each distinct address
    string is normalized once.

    Raises
    ------
    MalformedAddress
        If no ``local@domain`` token can be extracted, or it holds a lone
        surrogate.
    """
    candidate = raw.strip()
    angles = _ANGLE_RE.findall(candidate)
    if angles:
        candidate = angles[-1].strip()
    candidate = candidate.strip("'\" \t").lower()
    if not _ADDR_RE.match(candidate):
        raise MalformedAddress(f"not a local@domain address: {raw!r}")
    return candidate


_SUBSECOND_OFFSET_RE = re.compile(r"([+-])00:?00:?00[.,](\d{1,6})$")


def parse_timestamp(raw: str) -> datetime:
    """Parse an ISO-8601 instant with explicit offset into UTC, second resolution.

    Raises ``ValueError`` for a malformed or offset-free text, and for an
    instant that falls outside years 1–9999 in UTC.

    A 20-character text ending in ``Z``, the form :func:`iso_utc` writes, is
    parsed with one call and returned where that gives a whole UTC second.
    Every other text, and one that fails there, is read by the general rules
    below, and either way a text gives the one result or message of the rules.
    """
    if len(raw) == 20 and raw[19] == "Z":
        try:
            stamp = datetime.fromisoformat(raw[:19] + "+00:00")
        except ValueError:
            pass
        else:  # 3.11+ reads a fraction (2012-06-04T090000.5Z): the rules truncate it
            if stamp.tzinfo is timezone.utc and not stamp.microsecond:
                return stamp
    text = raw.strip()
    subsecond = None
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    else:
        # CPython 3.11's fromisoformat reads an offset under one second, such
        # as +00:00:00.5, as UTC; such an offset is taken from the text
        subsecond = _SUBSECOND_OFFSET_RE.search(text)
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError as exc:
        raise ValueError(f"bad timestamp {raw!r}: {exc}") from None
    if stamp.tzinfo is timezone.utc and not stamp.microsecond and not subsecond:
        return stamp
    if stamp.tzinfo is None:
        raise ValueError(f"timestamp {raw!r} has no UTC offset")
    if subsecond:
        micros = int(subsecond[2].ljust(6, "0"))
        stamp = stamp.replace(tzinfo=timezone(
            timedelta(microseconds=-micros if subsecond[1] == "-" else micros)))
    return _utc_second(stamp)


def _utc_second(stamp: datetime) -> datetime:
    """``stamp`` in UTC at second resolution; ``ValueError`` for a naive stamp
    and outside years 1–9999."""
    if stamp.tzinfo is timezone.utc and not stamp.microsecond:
        return stamp
    if stamp.tzinfo is None:
        raise ValueError(f"{stamp.isoformat()} must be timezone-aware")
    try:
        return stamp.astimezone(timezone.utc).replace(microsecond=0)
    except OverflowError:
        raise ValueError(f"{stamp.isoformat()} falls outside years 1-9999 in UTC") from None


def iso_utc(stamp: datetime) -> str:
    """``YYYY-MM-DDTHH:MM:SSZ`` of an instant as :class:`EmailEvent` and
    :class:`Period` hold it (UTC, whole seconds), the year always four digits."""
    return f"{stamp.date().isoformat()}T{stamp.time().isoformat()}Z"


@dataclass(frozen=True, slots=True, init=False)
class EmailEvent:
    """One logged message, fully normalized.

    ``to`` and ``cc`` are ordered and, taken together, duplicate-free.
    Events are ordered by timestamp, then by their fields (:func:`event_order`).
    The timestamp is held in UTC at whole seconds: an aware instant in any
    zone is converted and truncated; a naive one raises ``ValueError``.
    """

    timestamp: datetime
    sender: ActorId
    to: tuple[ActorId, ...]
    cc: tuple[ActorId, ...]
    subject: str
    team_id: str

    def __init__(self, timestamp: datetime, sender: ActorId, to: tuple[ActorId, ...],
                 cc: tuple[ActorId, ...], subject: str, team_id: str) -> None:
        if not sender:
            raise ValueError("sender must be nonempty")
        if not to:
            raise ValueError("to must contain at least one recipient")
        if cc or len(to) > 1:  # one recipient cannot repeat
            combined = to + cc
            if len(set(combined)) != len(combined):
                raise ValueError("to ∪ cc contains duplicates")
        if timestamp.tzinfo is not timezone.utc or timestamp.microsecond:
            timestamp = _utc_second(timestamp)
        # each slot is stored by its own descriptor, past the frozen __setattr__
        _set_timestamp(self, timestamp)
        _set_sender(self, sender)
        _set_to(self, to)
        _set_cc(self, cc)
        _set_subject(self, subject)
        _set_team_id(self, team_id)

    @property
    def recipients(self) -> tuple[ActorId, ...]:
        """All recipients (to then cc), duplicate-free by construction."""
        return self.to + self.cc


_set_timestamp, _set_sender, _set_to, _set_cc, _set_subject, _set_team_id = (
    EmailEvent.__dict__[name].__set__ for name in EmailEvent.__slots__)


def event_order(ev: EmailEvent) -> tuple:
    """The one sort key of events: timestamp, then every other field.

    Two events with equal keys are identical.
    """
    return (ev.timestamp, ev.sender, ev.to, ev.cc, ev.subject, ev.team_id)


@lru_cache(maxsize=1 << 10)
def _team_error(team_id: str) -> str | None:
    """Why ``team_id`` cannot name a corpus file, or ``None`` when it can (cached)."""
    if _UNSAFE_TEAM_RE.search(team_id):
        return f"team_id {team_id!r} is not a single path component"
    if _SURROGATE_RE.search(team_id):
        return f"team_id {team_id!r} holds a lone surrogate"
    return None


def _parties(sender: str, to: Iterable[str],
             cc: Iterable[str]) -> tuple[ActorId, tuple[ActorId, ...], tuple[ActorId, ...]]:
    """The normalized ``(sender, to, cc)`` of :func:`make_event`.

    Raises :class:`MalformedAddress` for an address that is not a string or
    has no ``local@domain``, and for a ``to`` left empty.
    """
    try:
        sender_n = normalize_address(sender)
        to_n = dict.fromkeys(map(normalize_address, to))
        cc_n = tuple(addr for addr in dict.fromkeys(map(normalize_address, cc))
                     if addr not in to_n)
    except (TypeError, AttributeError):  # unhashable, or without str's methods
        raise MalformedAddress("from, to and cc addresses must be strings") from None
    if not to_n:
        raise MalformedAddress("empty to list after normalization")
    return sender_n, tuple(to_n), cc_n


def make_event(timestamp: datetime, sender: str, to: Iterable[str],
               cc: Iterable[str] = (), subject: str = "", team_id: str = "") -> EmailEvent:
    """Build an :class:`EmailEvent` from raw strings, normalizing as it goes.

    Recipient lists are normalized and deduplicated while preserving order;
    addresses already present in ``to`` are dropped from ``cc``.  A team id
    that is not a single path component (``/``, ``\\``, NUL, ``.``, ``..``) or
    holds a lone surrogate raises ``ValueError``, as does a timestamp outside
    years 1–9999 in UTC.
    """
    error = _team_error(team_id)
    if error:
        raise ValueError(error)
    sender, to, cc = _parties(sender, to, cc)
    return EmailEvent(timestamp, sender, to, cc, subject, team_id)


@dataclass(frozen=True, slots=True)
class ParseIssue:
    """One malformed record, reported rather than silently dropped."""

    source: str
    line: int
    message: str


@dataclass(slots=True)
class ParseResult:
    events: list[EmailEvent]
    issues: list[ParseIssue] = field(default_factory=list)


def parse_events(source: BinaryIO, format: str, *, default_team: str = "",
                 source_name: str = "<stream>", strict: bool = False) -> ParseResult:
    """Parse a byte stream of the given format into events.

    In lenient mode (default) malformed records are skipped and reported in
    ``ParseResult.issues`` with their line numbers; in strict mode the first
    malformed record raises :class:`MalformedRecord`.

    Raises
    ------
    UnsupportedFormat
        For a format name outside :data:`FORMATS`.
    FormatError
        When the stream framing itself is unparseable.
    """
    try:
        parse = _PARSERS[format]
    except KeyError:
        raise UnsupportedFormat(f"unknown mail format: {format!r}") from None
    return parse(source, default_team, source_name, strict)


class _Records:
    """One parse's events and issues, each record built as :func:`make_event` builds it.

    The memo maps each distinct raw party key to ``parties(*key)`` or to the
    text of its error.  A cached error is still reported once per record, with
    that record's own line.

    A JSONL parse keeps two text memos in front of it (:func:`_parse_jsonl`):
    ``party_texts`` maps the party text of a line in the writer's form,
    ``","from":…,"cc":[…]``, to its normalized parties, and ``tail_texts``
    maps the text after its subject, ``,"team_id":…}``, to its team.  Each is
    filled only from a line whose event was built, and only with the pieces
    :func:`serialize_events` writes for that record.  A text hit skips decoding
    and hashing the record's fields; the key memo stays for every other
    record: JSONL not in the writer's form, text misses, CSV and mbox.
    """

    def __init__(self, name: str, strict: bool, parties: Callable[..., tuple]) -> None:
        self.name, self.strict, self._parties = name, strict, parties
        self.result = ParseResult(events=[])
        self._memo: dict[tuple, tuple | str] = {}
        self.party_texts: dict[str, tuple] = {}
        self.tail_texts: dict[str, str] = {}

    def issue(self, line: int, message: str) -> None:
        if self.strict:
            raise MalformedRecord(message, source=self.name, line=line)
        self.result.issues.append(ParseIssue(source=self.name, line=line, message=message))

    def _normalized(self, key: tuple) -> tuple | str:
        try:
            return self._parties(*key)
        except MalformedAddress as exc:
            return str(exc)

    def add(self, line: int, stamp: datetime, key: tuple, subject: str,
            team: str) -> tuple | None:
        """Add the event of a record with this stamp and raw party key, or its
        issue; the event's normalized parties, ``None`` for an issue."""
        try:
            parties = self._memo[key]
        except KeyError:
            parties = self._memo[key] = self._normalized(key)
        except TypeError:  # a JSON array or object among the parties: no memo key
            parties = self._normalized(key)
        error = _team_error(team) or parties
        if isinstance(error, str):
            self.issue(line, error)
            return None
        self.result.events.append(EmailEvent(stamp, *parties, subject, team))
        return parties


def _csv_parties(sender: str, to: str, cc: str) -> tuple:
    """:func:`_parties` of a CSV row's ``from`` cell and ``;``-separated ``to``/``cc`` cells."""
    split = [[part for part in map(str.strip, cell.split(";")) if part] for cell in (to, cc)]
    return _parties(sender, *split)


def _parse_csv(source: BinaryIO, default_team: str, name: str, strict: bool) -> ParseResult:
    records = _Records(name, strict, _csv_parties)
    for line, row in read_csv(source, name, CSV_HEADER):
        if not row:
            continue
        if len(row) != 5:
            records.issue(line, f"expected 5 fields, got {len(row)}")
            continue
        try:
            records.add(line, parse_timestamp(row[0]), tuple(row[1:4]), row[4], default_team)
        except ValueError as exc:
            records.issue(line, str(exc))
    return records.result


#: One JSON value at an index of a text, and the index after it; ``json.loads``
#: also strips whitespace and refuses a BOM and trailing data.
_scan_json = json.JSONDecoder().scan_once


def _parse_jsonl(source: BinaryIO, default_team: str, name: str, strict: bool) -> ParseResult:
    records = _Records(name, strict, _parties)
    events, party_texts, tail_texts = records.result.events, records.party_texts, records.tail_texts
    for lineno, raw in enumerate(source, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        try:
            text = stripped.decode("utf-8")
        except UnicodeDecodeError as exc:
            records.issue(lineno, f"bad JSON: {exc}")
            continue
        # a '"' inside a JSON string is escaped, so in a line in the writer's
        # form the first ',"subject":' ends the party text
        cut = text.find(',"subject":', 34)
        parties = party_texts.get(text[34:cut]) if cut > 0 else None
        if parties:
            event = _written_event(text, cut, parties, tail_texts)
            if event:
                events.append(event)
                continue
        try:
            try:
                record, end = _scan_json(text, 0)
            except (StopIteration, json.JSONDecodeError, RecursionError):
                end = -1
            if end != len(text):  # not one JSON value: json.loads says why
                record = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            records.issue(lineno, f"bad JSON: {exc}")
            continue
        if not isinstance(record, dict):
            records.issue(lineno, "record is not an object")
            continue
        team = record.get("team_id", default_team)
        if not isinstance(team, str):
            records.issue(lineno, "team_id must be a string")
            continue
        team = team or default_team
        if not team:
            records.issue(lineno, "missing team_id")
            continue
        try:
            stamp = record["timestamp"]
            if not isinstance(stamp, str):
                raise ValueError("timestamp must be a string")
            stamp = parse_timestamp(stamp)
            to, cc = record.get("to"), record.get("cc")  # absent or null: no one
            if (to is not None and not isinstance(to, list)
                    or cc is not None and not isinstance(cc, list)):
                raise ValueError("to/cc must be arrays")
            # the addresses' types are checked by _parties, once per distinct key
            key = (record["from"], tuple(to or ()), tuple(cc or ()))
            subject = record.get("subject")
            if subject is None:
                subject = ""
            elif not isinstance(subject, str):
                raise ValueError("subject must be a string or null")
            if not subject.isascii() and _SURROGATE_RE.search(subject):
                raise ValueError(f"subject {subject!r} holds a lone surrogate")
            parties = records.add(lineno, stamp, key, subject, team)
        except KeyError as exc:
            records.issue(lineno, f"missing key {exc}")
            continue
        except ValueError as exc:
            records.issue(lineno, str(exc))
            continue
        if parties:
            _remember(text, cut, record, parties, team, records)
    return records.result


#: The start of a JSONL line in the writer's form; its stamp takes offsets 14–34.
_WRITTEN_HEAD = '{"timestamp":"'


def _written_parties(sender: str, to: Iterable[str], cc: Iterable[str]) -> str:
    """The party text of a JSONL line as :func:`serialize_events` writes it:
    ``","from":…,"to":[…],"cc":[…]``, from the stamp's closing quote."""
    return (f'","from":{_quote(sender)},"to":[{",".join(map(_quote, to))}],'
            f'"cc":[{",".join(map(_quote, cc))}]')


def _written_tail(team_id: str) -> str:
    """The text after the subject of a JSONL line as :func:`serialize_events`
    writes it, without the newline."""
    return f',"team_id":{_quote(team_id)}}}'


def _remember(text: str, cut: int, record: dict, parties: tuple, team: str,
              records: _Records) -> None:
    """Cache the party and tail texts of a line whose ``record`` was built
    with these ``parties`` and ``team``, if the line is the one the writer
    writes for that record, its party text ending at ``cut``."""
    if len(record) != 6 or cut < 0 or text[14:34] != record["timestamp"]:
        return
    try:
        party, tail = (_written_parties(record["from"], record["to"], record["cc"]),
                       _written_tail(record["team_id"]))
    except (KeyError, TypeError):  # another key, or a null cc or team id
        return
    if text[34:cut] == party and text.endswith(tail):
        records.party_texts[party] = parties
        records.tail_texts[tail] = team


def _written_event(text: str, cut: int, parties: tuple,
                   tail_texts: dict[str, str]) -> EmailEvent | None:
    """The event of a JSONL line in the writer's form whose party text, ending
    at ``cut``, has these ``parties``; ``None`` leaves the line to the record path.

    The stamp and the subject must each be one JSON string, the stamp ending
    where the party text starts, and the text after the subject a cached tail.
    A stamp or subject that the record path refuses is left to it to report.
    """
    # the subject follows the 11 characters of ',"subject":'
    if not (text.startswith(_WRITTEN_HEAD) and text.startswith('"', cut + 11)):
        return None
    try:  # a JSONDecodeError is a ValueError
        stamp, stamp_end = _scan_json(text, 13)
        subject, end = _scan_json(text, cut + 11)
        team = tail_texts.get(text[end:])
        if team and stamp_end == 35 and (subject.isascii() or not _SURROGATE_RE.search(subject)):
            return EmailEvent(parse_timestamp(stamp), *parties, subject, team)
    except ValueError:
        pass
    return None


def _header(msg, name: str) -> str:
    """The text of a message's first ``name`` header, ``""`` if it has none.

    ``ValueError`` if its raw bytes are not UTF-8, or an encoded word's bytes
    do not decode in its charset: ``email`` would read them as U+FFFD.
    """
    header = msg.get(name)
    if header is None:
        return ""
    try:  # the parse tree holds each undecodable byte as a lone surrogate
        str(header._parse_tree).encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"{name} header {str(header)!r} is not UTF-8") from None
    return str(header)


def _parse_mbox(source: BinaryIO, default_team: str, name: str, strict: bool) -> ParseResult:
    # imported on first use: nothing else needs `email` and the ~30 modules it loads
    from email import message_from_bytes, policy
    from email.utils import getaddresses, parsedate_to_datetime

    messages: list[tuple[int, bytes]] = []
    current: list[bytes] = []
    start_line = 1
    saw_any = False
    for lineno, raw in enumerate(source, start=1):
        if raw.startswith(b"From "):
            if current:
                messages.append((start_line, b"".join(current)))
            current = []
            start_line = lineno
            saw_any = True
        elif not saw_any:
            if raw.strip():
                raise FormatError(f"{name}: line {lineno}: expected 'From ' delimiter")
        else:
            current.append(raw)
    if current:
        messages.append((start_line, b"".join(current)))
    records = _Records(name, strict, _parties)
    for lineno, blob in messages:
        msg = message_from_bytes(blob, policy=policy.default)
        try:
            raw_date = msg.get("Date")
            if raw_date is None:
                raise ValueError("missing Date header")
            stamp = parsedate_to_datetime(str(raw_date))
            if stamp.tzinfo is None:
                raise ValueError(f"Date {raw_date!r} has no UTC offset")
            stamp = _utc_second(stamp)
            froms = getaddresses([_header(msg, "From")])
            if not froms or not froms[0][1]:
                raise ValueError("missing From header")
            to = tuple(addr for _, addr in getaddresses([_header(msg, "To")]) if addr)
            cc = tuple(addr for _, addr in getaddresses([_header(msg, "Cc")]) if addr)
            records.add(lineno, stamp, (froms[0][1], to, cc), _header(msg, "Subject"),
                        default_team)
        # Python 3.10's parsedate_to_datetime raises TypeError on a bad Date
        except (ValueError, TypeError) as exc:
            records.issue(lineno, str(exc))
    return records.result


_PARSERS = {"csv": _parse_csv, "jsonl": _parse_jsonl, "mbox": _parse_mbox}

#: The mail formats :func:`parse_events` reads, one name per parser.
FORMATS = tuple(_PARSERS)

#: The formats whose files hold one team's mail each, named by the file stem;
#: a JSONL record names its own team.
TEAM_PER_FILE_FORMATS = ("csv", "mbox")


def serialize_events(events: Iterable[EmailEvent], format: str) -> bytes:
    """Serialize events back to CSV or JSONL wire bytes.

    Parsing the output reproduces the events (parse→serialize→parse is a
    fixed point).  Fields containing ``,``, ``;``, quotes, or newlines are
    double-quoted in CSV.  A JSONL line fills one template, each string field
    escaped by ``json``'s escaper, as ``json.dumps`` would write the event.
    In both formats each stamp is :func:`iso_utc` of the event's instant, in
    any event order; its date text is formatted once per run of one UTC day.
    """
    if format == "csv":
        out = [csv_line(CSV_HEADER)]
        for stamp, ev in _stamped(events):
            out.append(csv_line((stamp, ev.sender, ";".join(ev.to), ";".join(ev.cc), ev.subject)))
        return "".join(out).encode("utf-8")
    if format == "jsonl":
        # mail repeats a few (sender, to, cc, team) parties: each is escaped
        # once per call into the pieces before and after the subject
        parties: dict[tuple, tuple[str, str]] = {}
        lines = []
        for stamp, ev in _stamped(events):
            key = (ev.sender, ev.to, ev.cc, ev.team_id)
            pieces = parties.get(key)
            if pieces is None:
                pieces = parties[key] = (
                    f'{_written_parties(ev.sender, ev.to, ev.cc)},"subject":',
                    f'{_written_tail(ev.team_id)}\n')
            # each line is encoded on its own: no archive-sized str beside the bytes
            lines.append(f'{_WRITTEN_HEAD}{stamp}{pieces[0]}'
                         f'{_quote(ev.subject)}{pieces[1]}'.encode())
        return b"".join(lines)
    raise UnsupportedFormat(f"cannot serialize format: {format!r}")


def _stamped(events: Iterable[EmailEvent]) -> Iterator[tuple[str, EmailEvent]]:
    """Each event with :func:`iso_utc` of its instant.  A corpus is in time
    order, so the date text of a UTC day is formatted again only where the day
    differs from the previous event's; any order gives the same texts."""
    day = head = None
    for ev in events:
        stamp = ev.timestamp
        if stamp.date() != day:
            day = stamp.date()
            head = f"{day.isoformat()}T"
        yield f"{head}{stamp.time().isoformat()}Z", ev


@dataclass(frozen=True, slots=True)
class Period:
    """Half-open UTC interval ``[start, end)``.

    Each bound is held as :class:`EmailEvent` holds its timestamp: in UTC at
    whole seconds.  A naive bound, or a start not before the end once both are
    truncated, raises ``ValueError``.
    """

    start: datetime
    end: datetime

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", _utc_second(self.start))
        object.__setattr__(self, "end", _utc_second(self.end))
        if not self.start < self.end:
            raise ValueError("period start must precede end")

    def __contains__(self, stamp: datetime) -> bool:
        return self.start <= stamp < self.end


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


_instant = attrgetter("timestamp")


@dataclass(frozen=True, slots=True)
class TeamCorpus:
    """Immutable event stream for one team within a period.

    Raises ``ValueError`` unless ``events`` are strictly increasing in
    :func:`event_order` (so sorted and duplicate-free) and lie within ``period``.
    Where timestamps strictly increase, so does :func:`event_order`; its keys
    are built only for the pairs whose later timestamp is not later.
    """

    team_id: str
    events: tuple[EmailEvent, ...]
    period: Period

    def __post_init__(self) -> None:
        events = self.events
        stamps = list(map(_instant, events))
        for i in compress(count(), map(ge, stamps, stamps[1:])):
            if event_order(events[i + 1]) <= event_order(events[i]):
                raise ValueError(
                    "corpus events are not in event order (timestamp order, then fields)")
        if stamps and not (stamps[0] in self.period and stamps[-1] in self.period):
            raise ValueError("corpus events lie outside the corpus period")


def build_corpus(events: Iterable[EmailEvent], team_id: str, period: Period) -> TeamCorpus:
    """Filter, deduplicate, and sort events into a :class:`TeamCorpus`.

    The team's events are sorted by timestamp and the period is cut out by
    bisection.  Duplicates share ``(timestamp, sender, to-set, subject)``, so
    only a run of events at one instant is deduplicated, keeping the record
    with the most cc information, and sorted by :func:`event_order`.  The
    corpus does not depend on input order.  Zero surviving events make an
    empty corpus.
    """
    ordered = sorted((ev for ev in events if ev.team_id == team_id), key=_instant)
    stamps = list(map(_instant, ordered))
    start = bisect_left(stamps, period.start)
    end = bisect_left(stamps, period.end, start)
    kept: list[EmailEvent] = []
    # each i whose event shares its instant with the next opens or continues a run
    for i in compress(count(start), map(eq, stamps[start:end], stamps[start + 1:end])):
        if i < start:  # inside the run already deduplicated
            continue
        stop = i + 2
        while stop < end and stamps[stop] == stamps[i]:
            stop += 1
        kept += ordered[start:i]
        kept += _distinct(ordered[i:stop])
        start = stop
    kept += ordered[start:end]
    return TeamCorpus(team_id=team_id, events=tuple(kept), period=period)


def _distinct(run: list[EmailEvent]) -> list[EmailEvent]:
    """Per dedup key of a same-instant run, the event of highest :func:`_retention_rank`
    (written last), in :func:`event_order`."""
    chosen = {(ev.sender, frozenset(ev.to), ev.subject): ev
              for ev in sorted(run, key=_retention_rank)}
    return sorted(chosen.values(), key=event_order)


def _retention_rank(ev: EmailEvent) -> tuple:
    return (len(ev.cc), ev.cc, ev.to)


def load_corpus(path: str | os.PathLike, team_id: str, period: Period) -> TeamCorpus:
    """Read one archived corpus file (``corpora/<team>.jsonl``) into a :class:`TeamCorpus`.

    The file is parsed strictly: a malformed line raises :class:`MalformedRecord`
    naming the file and line.  Lines as :func:`serialize_events` wrote them
    mostly repeat an earlier line's parties and team, and decode only their
    stamp and subject (see the module notes); every other line is read as any
    JSONL record is.  The events then go through :func:`build_corpus`, as any
    other parsed events do.
    """
    with open(path, "rb") as fh:
        events = _parse_jsonl(fh, team_id, os.path.basename(path), strict=True).events
    return build_corpus(events, team_id, period)
