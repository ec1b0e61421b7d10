"""The tests' one mail generator: messages, their writer, drawn mail and one
fixed mail.  It imports nothing from ``commscore``, so the mail a test feeds
the package is not written by the code under test."""

from __future__ import annotations

import csv
import io
import json
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from hypothesis import strategies as st


class Message(NamedTuple):
    """One message of ``team``; ``stamp`` is aware, at the offset it is written at."""

    stamp: datetime
    sender: str
    to: tuple[str, ...]
    cc: tuple[str, ...]
    subject: str
    team: str


def iso_stamp(stamp: datetime) -> str:
    """ISO 8601 at the stamp's own offset, with ``Z`` for UTC."""
    return stamp.isoformat().replace("+00:00", "Z")


def write_mail(messages: Iterable[Message], folder: Path, format: str,
               stamp: Callable[[datetime], str] = iso_stamp) -> list[Path]:
    """Write ``messages`` into ``folder`` in ``format``; return the files, sorted.

    CSV and mbox get one file per team, named after it, and JSONL one
    ``mail.jsonl`` whose records name their team.  ``stamp`` writes a CSV or
    JSONL timestamp; an mbox ``Date`` is ``format_datetime`` at the stamp's
    own offset.
    """
    files: dict[Path, io.StringIO] = {}
    for m in messages:
        out = files.setdefault(
            folder / ("mail.jsonl" if format == "jsonl" else f"{m.team}.{format}"), io.StringIO())
        if format == "csv":
            if not out.tell():
                out.write("timestamp,from,to,cc,subject\n")
            csv.writer(out, lineterminator="\n").writerow(
                (stamp(m.stamp), m.sender, ";".join(m.to), ";".join(m.cc), m.subject))
        elif format == "jsonl":
            out.write(json.dumps({"timestamp": stamp(m.stamp), "from": m.sender, "to": m.to,
                                  "cc": m.cc, "subject": m.subject, "team_id": m.team}) + "\n")
        else:
            out.write(f"From x\nFrom: {m.sender}\nTo: {', '.join(m.to)}\nCc: {', '.join(m.cc)}\n"
                      f"Subject: {m.subject}\nDate: {format_datetime(m.stamp)}\n\nbody\n")
    folder.mkdir(parents=True, exist_ok=True)
    for path, out in files.items():
        path.write_bytes(out.getvalue().encode())
    return sorted(files)


#: Month starts from November 2012: a period of two or more months crosses a year.
MONTHS = [datetime(year, month, 1, tzinfo=timezone.utc)
          for year, month in ((2012, 11), (2012, 12), (2013, 1), (2013, 2), (2013, 3))]


def period(months: int) -> str:
    """The ``--period`` of the first ``months`` months of :data:`MONTHS`."""
    return f"{MONTHS[0]:%Y-%m-%d}..{MONTHS[months]:%Y-%m-%d}"


@st.composite
def team_mail(draw) -> tuple[int, list[Message]]:
    """(months, messages) of 3–5 teams ``t0``, ``t1``, … of 2–8 actors over 1–4 months.

    Each team writes on a few days at a few hours, so same-instant messages,
    replies and exact repeats are common; ``to`` may hold the sender and
    ``cc`` may repeat ``to``.  Subjects recur under ``Re:`` and ``RE: Fwd:``.
    An address may be upper-case or carry a display name, and a stamp may be
    at an offset other than UTC.
    """
    months = draw(st.integers(1, 4))
    days = (MONTHS[months] - MONTHS[0]).days
    messages: list[Message] = []
    for team in [f"t{i}" for i in range(draw(st.integers(3, 5)))]:
        addresses = [f"a{i}@{team}.example" for i in range(draw(st.integers(2, 8)))]
        party = st.sampled_from([form for a in addresses for form in (a, a.upper(), f"A <{a}>")])
        when = st.builds(lambda day, hour, offset: (
            MONTHS[0] + timedelta(days=day, hours=hour)).astimezone(offset),
            st.sampled_from(draw(st.lists(st.integers(0, days - 1), min_size=1, max_size=4,
                                          unique=True))),
            st.sampled_from([9, 10, 17]),
            st.sampled_from([timezone.utc, timezone(timedelta(hours=5, minutes=30)),
                             timezone(timedelta(hours=-8))]))
        rows = draw(st.lists(st.builds(
            Message, when, party, st.lists(party, min_size=1, max_size=3).map(tuple),
            st.lists(party, max_size=2).map(tuple),
            st.sampled_from(["plan", "Re: plan", "RE: Fwd:  Plan", "thanks, great work",
                             "Re: thanks, great work", "a problem"]), st.just(team)),
            min_size=1, max_size=16))
        messages += rows + draw(st.lists(st.sampled_from(rows), max_size=2))
    return months, messages


#: (months, messages) of one team ``t`` that take every normalizing path:
#: display names, upper-case addresses, cc lists of two or more, UTC offsets
#: other than ``Z``, a same-instant duplicate ("plan" again, its ``to``
#: reordered, with less cc) and a same-instant message of another subject.
EVERY_PATH_MAIL = (3, [Message(datetime.fromisoformat(stamp), sender, to, cc, subject, "t")
                       for stamp, sender, to, cc, subject in (
    ("2012-12-03T09:00:00+01:00", "Ann Lee <ANN@x.com>",
     ("bob@x.com", "Cy <cy@x.com>", "dee@x.com", "eve@x.com", "fay@x.com"), (), "kickoff"),
    ("2012-12-10T10:00:00+00:00", "bob@x.com", ("ann@x.com",),
     ("cy@x.com", "Dee <DEE@x.com>", "eve@x.com"), "Re: kickoff thanks"),
    ("2012-12-28T09:00:00+02:00", "Ann Lee <ANN@x.com>", ("bob@x.com", "Cy <cy@x.com>"),
     ("dee@x.com", "eve@x.com", "fay@x.com"), "plan"),
    ("2012-12-28T07:00:00+00:00", "ann@x.com", ("cy@x.com", "BOB@x.com"), ("eve@x.com",), "plan"),
    ("2012-12-28T07:00:00+00:00", "bob@x.com", ("ann@x.com",),
     ("fay@x.com", "cy@x.com", "dee@x.com"), "Re: plan"),
    ("2012-12-31T23:30:00-05:00", "Dee <Dee@X.com>", ("ann@x.com", "bob@x.com", "cy@x.com"),
     ("fay@x.com", "eve@x.com"), "Re: plan great"),
    ("2013-01-02T10:00:00+00:00", "eve@x.com", ("fay@x.com", "ann@x.com", "bob@x.com"),
     ("cy@x.com", "dee@x.com"), "budget"),
    ("2013-01-09T14:00:00+05:30", "Fay <FAY@x.com>", ("eve@x.com",),
     ("dee@x.com", "cy@x.com", "bob@x.com"), "Re: budget"),
    ("2013-01-15T08:00:00+00:00", "CY@X.COM",
     ("dee@x.com", "eve@x.com", "fay@x.com", "ann@x.com"), (), "delay problem"),
    ("2013-01-22T16:45:00-08:00", "bob@x.com", ("cy@x.com", "dee@x.com"),
     ("ann@x.com", "fay@x.com", "eve@x.com"), "Re: delay problem"),
)])
