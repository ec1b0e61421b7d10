"""Independent reference implementations used to cross-check the package.

Nothing in here imports from ``commscore``: betweenness is computed by
exhaustive shortest-path enumeration, and by dependency accumulation in one
``Fraction`` per predecessor edge instead of integers over a common
denominator; p-values come from mpmath's incomplete beta instead of the finite
Student's t series; AWVCI is a population variance of ``Fraction`` indices;
reply matching compares every reply with every event of its thread; the
Pearson sums take one ``Fraction`` per element instead of integers over a
common denominator; the survey scores are written straight from their
defining formulas, KPD as a mean of per-respondent means; archive
lines come from ``json.dumps`` per event with the timestamp formatted field by
field; UTC conversion always converts; mail files are parsed record by
record, each through one call of the ``make_event`` the caller passes in, with
nothing remembered between records; an mbox header's UTF-8 is checked on its
raw bytes and on each encoded word instead of on the ``email`` parse tree; a
corpus is deduplicated in one dict over every event and sorted by a key of all
fields; the score-card mean and variance are sums of one ``Fraction`` per
value; a lexicon is read line by line from its bytes, and a subject's words
are its runs of ``str.isalnum`` characters.

:func:`metrics_csv` and :func:`reports` compose these oracles into the bytes
of ``metrics.csv``, ``correlation.csv`` and ``scorecard.json``; the golden
files are written from them by ``make_golden.py``.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import io
import json
import re
import statistics
from collections import deque
from datetime import date, datetime, timedelta, timezone
from email import message_from_bytes, policy
from email.header import decode_header
from email.utils import getaddresses, parsedate_to_datetime
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import mpmath


# ---------------------------------------------------------------------------
# graph oracles


def enumeration_betweenness(
    nodes: Iterable[str], edges: Iterable[tuple[str, str]]
) -> dict[str, Fraction]:
    """Betweenness by brute-force enumeration of every shortest path.

    For each ordered pair (s, t) all shortest s→t paths are generated
    explicitly; interior vertices of each path earn sigma_st(v)/sigma_st.
    Normalization is by (N-1)(N-2); fewer than three nodes gives all zeros.
    """
    node_list = sorted(set(nodes))
    adj: dict[str, list[str]] = {v: [] for v in node_list}
    for src, dst in set(edges):
        adj[src].append(dst)
    for v in adj:
        adj[v].sort()

    score = {v: Fraction(0) for v in node_list}
    for s in node_list:
        dist = _bfs_levels(adj, s)
        for t in node_list:
            if t == s or t not in dist:
                continue
            paths = _all_shortest_paths(adj, dist, s, t)
            sigma = len(paths)
            for path in paths:
                for interior in path[1:-1]:
                    score[interior] += Fraction(1, sigma)
    n = len(node_list)
    if n < 3:
        return {v: Fraction(0) for v in node_list}
    denom = (n - 1) * (n - 2)
    return {v: s / denom for v, s in score.items()}


def accumulation_betweenness(
    nodes: Iterable[str], edges: Iterable[tuple[str, str]]
) -> dict[str, Fraction]:
    """Brandes dependency accumulation with one ``Fraction`` per predecessor edge.

    δ(v) = Σ σ(v)/σ(w)·(1 + δ(w)) over the shortest-path successors w of v,
    summed per source; normalization as in :func:`enumeration_betweenness`.
    Unlike enumeration it stays polynomial, so it reaches graphs whose path
    counts run past 2⁶⁴.
    """
    adj: dict[str, list[str]] = {v: [] for v in sorted(set(nodes))}
    for src, dst in sorted(set(edges)):
        adj[src].append(dst)
    score = {v: Fraction(0) for v in adj}
    for source in adj:
        dist = {source: 0}
        sigma = {source: 1}
        preds: dict[str, list[str]] = {v: [] for v in adj}
        order: list[str] = []
        queue = deque([source])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] = sigma.get(w, 0) + sigma[v]
                    preds[w].append(v)
        delta = {v: Fraction(0) for v in order}
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += Fraction(sigma[v], sigma[w]) * (1 + delta[w])
            if w != source:
                score[w] += delta[w]
    n = len(adj)
    if n < 3:
        return {v: Fraction(0) for v in adj}
    denom = (n - 1) * (n - 2)
    return {v: s / denom for v, s in score.items()}


def _bfs_levels(adj: Mapping[str, list[str]], source: str) -> dict[str, int]:
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def _all_shortest_paths(adj: Mapping[str, list[str]], dist: Mapping[str, int],
                        s: str, t: str) -> list[list[str]]:
    """Every s→t path that only ever steps one BFS level deeper."""
    out: list[list[str]] = []

    def walk(v: str, trail: list[str]) -> None:
        if v == t:
            out.append(trail)
            return
        for w in adj[v]:
            if dist.get(w) == dist[v] + 1 and dist[w] <= dist[t]:
                walk(w, trail + [w])

    walk(s, [s])
    return out


def merge_edges(edge_maps: Iterable[Mapping[tuple[str, str], int]]) -> dict[tuple[str, str], int]:
    """Union of directed edge counts over several windows' ``edges`` mappings."""
    merged: dict[tuple[str, str], int] = {}
    for edges in edge_maps:
        for pair, count in edges.items():
            merged[pair] = merged.get(pair, 0) + count
    return merged


# ---------------------------------------------------------------------------
# windowing oracles: a full scan of the events per window, over plain event
# attributes (``timestamp``, ``sender``, ``to``, ``cc``)


def _edge_counts(events: Iterable) -> dict[tuple[str, str], int]:
    edges: dict[tuple[str, str], int] = {}
    for ev in events:
        for recipient in ev.to + ev.cc:
            if recipient != ev.sender:
                edges[(ev.sender, recipient)] = edges.get((ev.sender, recipient), 0) + 1
    return edges


def window_edges(events: Iterable, start: datetime, end: datetime) -> dict[tuple[str, str], int]:
    """Directed edge counts of the messages sent in ``[start, end)``."""
    return _edge_counts(ev for ev in events if start <= ev.timestamp < end)


def month_key(stamp: datetime) -> tuple[int, int]:
    """The stamp's UTC calendar month."""
    utc = stamp.astimezone(timezone.utc)
    return (utc.year, utc.month)


def week_key(stamp: datetime) -> date:
    """The Monday that starts the stamp's UTC calendar week."""
    day = stamp.astimezone(timezone.utc).date()
    return day - timedelta(days=day.weekday())


def calendar_keys(start: datetime, end: datetime,
                  key: Callable[[datetime], Hashable]) -> list[Hashable]:
    """The calendar buckets that ``[start, end)`` touches, found a day at a time."""
    keys: list[Hashable] = []
    days = [start + timedelta(days=i) for i in range((end - start).days + 1)]
    for stamp in days + [end - timedelta(seconds=1)]:
        if stamp < end and key(stamp) not in keys:
            keys.append(key(stamp))
    return keys


def calendar_edges(events: Sequence, start: datetime, end: datetime,
                   key: Callable[[datetime], Hashable]) -> list[tuple[Hashable, dict]]:
    """(bucket, edge counts) for each calendar bucket of ``[start, end)``, in order."""
    inside = [ev for ev in events if start <= ev.timestamp < end]
    return [(k, _edge_counts(ev for ev in inside if key(ev.timestamp) == k))
            for k in calendar_keys(start, end, key)]


def gap_months(events: Sequence, start: datetime, end: datetime) -> list[str]:
    """``YYYY-MM`` of each month of ``[start, end)`` without any message at all."""
    busy = {month_key(ev.timestamp) for ev in events if start <= ev.timestamp < end}
    return [f"{y:04d}-{m:02d}" for y, m in calendar_keys(start, end, month_key)
            if (y, m) not in busy]


def daily_tallies(events: Iterable) -> list[tuple[date, dict, dict, int]]:
    """(UTC day, sent, received, total edges) per day with a counted message."""
    per_day: dict[date, tuple[dict[str, int], dict[str, int], int]] = {}
    for ev in events:
        recipients = [r for r in ev.to + ev.cc if r != ev.sender]
        if not recipients:
            continue
        day = ev.timestamp.astimezone(timezone.utc).date()
        sent, received, total = per_day.get(day, ({}, {}, 0))
        sent[ev.sender] = sent.get(ev.sender, 0) + len(recipients)
        for r in recipients:
            received[r] = received.get(r, 0) + 1
        per_day[day] = (sent, received, total + len(recipients))
    return [(d, s, r, t) for d, (s, r, t) in sorted(per_day.items())]


def freeman_centralization(values: Mapping[str, Fraction], kind: str) -> Fraction:
    n = len(values)
    if n <= 2:
        return Fraction(0)
    c_max = max(values.values())
    spread = sum((c_max - v for v in values.values()), start=Fraction(0))
    return spread / (n - 1 if kind == "betweenness" else n - 2)


def turning_points(series: Sequence[Fraction]) -> int:
    """Strict direction changes of a series: with each run of equal values
    merged into one, the interior values that are a strict maximum or minimum."""
    merged = [v for i, v in enumerate(series) if i == 0 or v != series[i - 1]]
    return sum(1 for before, v, after in zip(merged, merged[1:], merged[2:])
               if (v - before) * (after - v) < 0)


def degree_map(nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> dict[str, Fraction]:
    node_list = sorted(set(nodes))
    neighbors: dict[str, set[str]] = {v: set() for v in node_list}
    for src, dst in edges:
        neighbors[src].add(dst)
        neighbors[dst].add(src)
    n = len(node_list)
    if n <= 1:
        return {v: Fraction(0) for v in node_list}
    return {v: Fraction(len(nb), n - 1) for v, nb in neighbors.items()}


# ---------------------------------------------------------------------------
# reply oracle, over plain event attributes (``timestamp``, ``sender``, ``to``,
# ``cc``, ``subject``, ``team_id``)


def thread_subject(subject: str) -> str:
    """The subject without its leading ``Re:``/``Fw:``/``Fwd:`` prefixes, any
    case, whitespace collapsed and lowercased."""
    text = subject
    while True:
        head, colon, rest = text.partition(":")
        if not colon or head.strip().lower() not in ("re", "fw", "fwd"):
            return " ".join(text.split()).lower()
        text = rest


def _event_key(ev) -> tuple:
    return (ev.timestamp, ev.sender, ev.to, ev.cc, ev.subject, ev.team_id)


def reply_pairs(events: Sequence, reply_cap: int) -> list[tuple[object, object, int]]:
    """(original, reply, latency) per reply, by comparing every pair of events.

    An original qualifies if it shares the reply's thread subject, is strictly
    earlier by at most ``reply_cap`` seconds, addressed the reply's sender (to
    or cc), and its own sender is in the reply's ``to``.  Of those the one with
    the largest event key wins.  Pairs come in the event-key order of replies.
    """
    pairs = []
    for reply in sorted(events, key=_event_key):
        eligible = [
            original for original in events
            if thread_subject(original.subject) == thread_subject(reply.subject)
            and 0 < (reply.timestamp - original.timestamp).total_seconds() <= reply_cap
            and reply.sender in original.to + original.cc
            and original.sender in reply.to]
        if eligible:
            best = max(eligible, key=_event_key)
            pairs.append((best, reply, int((reply.timestamp - best.timestamp).total_seconds())))
    return pairs


# ---------------------------------------------------------------------------
# statistics oracles


def pearson_r(x: Sequence[float], y: Sequence[float]) -> float:
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / (vx * vy) ** 0.5


def pearson_parts(x: Sequence[float],
                  y: Sequence[float]) -> tuple[Fraction, Fraction, Fraction]:
    """n·Σxy − Σx·Σy, n·Σx² − (Σx)² and n·Σy² − (Σy)², one ``Fraction`` per element."""
    n = len(x)
    xs = [Fraction(v) for v in x]
    ys = [Fraction(v) for v in y]
    sx, sy = sum(xs), sum(ys)
    sxy = sum(a * b for a, b in zip(xs, ys))
    sxx = sum(a * a for a in xs)
    syy = sum(b * b for b in ys)
    return n * sxy - sx * sy, n * sxx - sx * sx, n * syy - sy * sy


def student_t_p(r: float, n: int) -> float:
    """Two-tailed p for a Pearson r: the regularized incomplete beta
    I_{1-r²}((n-2)/2, 1/2), evaluated by mpmath at 40 digits from the exact
    binary value of ``r`` (1-r² rounded to a double would cost up to 1e-8
    for |r| near 1e-8)."""
    if abs(r) == 1:
        return 0.0
    with mpmath.workdps(40):
        r2 = mpmath.mpf(r) ** 2
        return float(mpmath.betainc(mpmath.mpf(n - 2) / 2, mpmath.mpf(1) / 2,
                                    0, 1 - r2, regularized=True))


# ---------------------------------------------------------------------------
# survey / contribution oracles


def reichheld_nps(answers: Sequence[int]) -> Fraction:
    promoters = sum(1 for a in answers if a in (9, 10))
    detractors = sum(1 for a in answers if 0 <= a <= 6)
    return Fraction(100 * (promoters - detractors), len(answers))


def respondent_mean_kpd(answers: Sequence[Sequence[Fraction]]) -> Fraction:
    """KPD: the mean over respondents of each respondent's mean answer."""
    per_respondent = [sum(row, start=Fraction(0)) / len(row) for row in answers]
    return sum(per_respondent, start=Fraction(0)) / len(per_respondent)


def ci_formula(sent: int, received: int) -> Fraction:
    return Fraction(sent - received, sent + received)


def weighted_variance_mean(pairs: Sequence[tuple[Fraction, int]]) -> Fraction:
    """AWVCI from (daily variance, weight) pairs: Σ v·w / Σ w."""
    num = sum((v * w for v, w in pairs), start=Fraction(0))
    den = sum(w for _, w in pairs)
    return num / den


def population_variance(values: Sequence[Fraction]) -> Fraction:
    n = len(values)
    mean = sum(values, start=Fraction(0)) / n
    return sum(((v - mean) ** 2 for v in values), start=Fraction(0)) / n


def mean_and_variance(values: Sequence[float]) -> tuple[Fraction, Fraction]:
    """Population mean and variance of floats, one ``Fraction`` per value."""
    exact = [Fraction(v) for v in values]
    return sum(exact, start=Fraction(0)) / len(exact), population_variance(exact)


def over_root(numerator: Fraction, square: Fraction) -> float:
    """numerator / √square for a positive ``square``, at 50 digits and an
    unbounded exponent, so a result near the ends of the float range neither
    underflows nor overflows before its one rounding."""
    with mpmath.workdps(50):
        return float(mpmath.mpf(numerator.numerator) / numerator.denominator
                     / mpmath.sqrt(mpmath.mpf(square.numerator) / square.denominator))


def z_score(value: float, values: Sequence[float]) -> float:
    """(value − mean) / σ of ``values``, from :func:`mean_and_variance` through
    :func:`over_root`; 0 for a constant column."""
    mean, var = mean_and_variance(values)
    if var == 0:
        return 0.0
    return over_root(Fraction(value) - mean, var)


# ---------------------------------------------------------------------------
# archive oracles


def utc_second(stamp: datetime) -> datetime:
    """``stamp`` converted to UTC and truncated to the second, whatever its zone."""
    return stamp.astimezone(timezone.utc).replace(microsecond=0)


def archive_bytes(events: Iterable) -> bytes:
    """The JSONL archive of ``events``: one ``json.dumps`` line per event, the
    timestamp ``YYYY-MM-DDTHH:MM:SSZ`` in UTC with a zero-padded year."""
    lines = []
    for ev in events:
        t = ev.timestamp.astimezone(timezone.utc)
        stamp = (f"{t.year:04d}-{t.month:02d}-{t.day:02d}"
                 f"T{t.hour:02d}:{t.minute:02d}:{t.second:02d}Z")
        lines.append(json.dumps(
            {"timestamp": stamp, "from": ev.sender, "to": list(ev.to), "cc": list(ev.cc),
             "subject": ev.subject, "team_id": ev.team_id},
            ensure_ascii=False, separators=(",", ":")) + "\n")
    return "".join(lines).encode("utf-8")


def reference_corpus(events: Iterable, team_id: str, start: datetime, end: datetime) -> tuple:
    """The corpus of ``team_id`` in ``[start, end)``, over plain event attributes.

    One dict over every event keeps, per ``(timestamp, sender, to-set,
    subject)``, the event with the most cc addresses, then the larger ``cc``,
    then the larger ``to``; the survivors are sorted by :func:`_event_key`.
    """
    chosen: dict[tuple, object] = {}
    for ev in events:
        if ev.team_id != team_id or not start <= ev.timestamp < end:
            continue
        key = (ev.timestamp, ev.sender, frozenset(ev.to), ev.subject)
        rank = (len(ev.cc), ev.cc, ev.to)
        if key not in chosen or rank > (len(chosen[key].cc), chosen[key].cc, chosen[key].to):
            chosen[key] = ev
    return tuple(sorted(chosen.values(), key=_event_key))


# ---------------------------------------------------------------------------
# mail oracle: the record rules of each format, one ``make_event`` per record


def _csv_records(blob: bytes, make_event, parse_timestamp, team: str):
    rows = csv.reader(io.TextIOWrapper(io.BytesIO(blob), encoding="utf-8-sig", newline=""))
    next(rows)  # the header
    for row in rows:
        if not row:
            continue
        if len(row) != 5:
            yield rows.line_num, ValueError(f"expected 5 fields, got {len(row)}")
            continue

        def build(row=row):
            split = [[a.strip() for a in cell.split(";") if a.strip()] for cell in row[2:4]]
            return make_event(parse_timestamp(row[0]), row[1], *split, row[4], team)
        yield rows.line_num, build


def _jsonl_records(blob: bytes, make_event, parse_timestamp, default_team: str):
    for line, raw in enumerate(io.BytesIO(blob), start=1):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw.strip().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            yield line, ValueError(f"bad JSON: {exc}")
            continue
        if not isinstance(record, dict):
            yield line, ValueError("record is not an object")
            continue
        team = record.get("team_id", default_team)
        if not isinstance(team, str):
            yield line, ValueError("team_id must be a string")
            continue
        team = team or default_team
        if not team:
            yield line, ValueError("missing team_id")
            continue

        def build(record=record, team=team):
            stamp = record["timestamp"]
            if not isinstance(stamp, str):
                raise ValueError("timestamp must be a string")
            stamp = parse_timestamp(stamp)
            to, cc = record.get("to"), record.get("cc")
            if any(v is not None and not isinstance(v, list) for v in (to, cc)):
                raise ValueError("to/cc must be arrays")  # only absent or null means none
            to, cc = to or [], cc or []
            sender, subject = record["from"], record.get("subject")
            if subject is None:
                subject = ""
            elif not isinstance(subject, str):
                raise ValueError("subject must be a string or null")
            try:
                subject.encode("utf-8")
            except UnicodeEncodeError:  # a \u escape of a lone surrogate
                raise ValueError(f"subject {subject!r} holds a lone surrogate") from None
            # make_event refuses an address that is not a string
            return make_event(stamp, sender, to, cc, subject, team)
        yield line, build


_ENCODED_WORD = re.compile(r"=\?[^?]*\?[qQbB]\?[^?]*\?=")


def _utf8_header(msg, name: str) -> str:
    """The text of the first ``name`` header, ``""`` if there is none; a
    ``ValueError`` unless its raw bytes are UTF-8 and each encoded word in it
    decodes in its own charset."""
    raw = next((value for key, value in msg.raw_items() if key.lower() == name.lower()), None)
    if raw is None:
        return ""
    try:
        raw.encode("utf-8", "surrogateescape").decode("utf-8")
        for word in _ENCODED_WORD.findall(raw):
            ((data, charset),) = decode_header(word)
            data.decode(charset)
    except (UnicodeError, LookupError):
        raise ValueError(f"{name} header {str(msg[name])!r} is not UTF-8") from None
    return str(msg[name])


def _mbox_records(blob: bytes, make_event, parse_timestamp, team: str):
    lines = io.BytesIO(blob).readlines()
    starts = [i for i, raw in enumerate(lines) if raw.startswith(b"From ")]
    for start, end in zip(starts, starts[1:] + [len(lines)]):
        msg = message_from_bytes(b"".join(lines[start + 1:end]), policy=policy.default)

        def build(msg=msg):
            if msg.get("Date") is None:
                raise ValueError("missing Date header")
            stamp = parsedate_to_datetime(str(msg["Date"]))
            if stamp.tzinfo is None:
                raise ValueError(f"Date {msg['Date']!r} has no UTC offset")
            try:
                stamp = utc_second(stamp)
            except OverflowError:
                raise ValueError(
                    f"{stamp.isoformat()} falls outside years 1-9999 in UTC") from None
            sender = getaddresses([_utf8_header(msg, "From")])
            if not sender or not sender[0][1]:
                raise ValueError("missing From header")
            to, cc = ([a for _, a in getaddresses([_utf8_header(msg, h)]) if a] for h in ("To", "Cc"))
            return make_event(stamp, sender[0][1], to, cc, _utf8_header(msg, "Subject"), team)
        yield start + 1, build


def reference_parse(blob: bytes, format: str, make_event: Callable, parse_timestamp: Callable,
                    *, default_team: str = "", source: str = "<stream>") -> tuple[list, list]:
    """The events of a well-framed CSV, JSONL or mbox file and its issues as
    ``(source, line, message)``, each record built by its own ``make_event`` call.

    A record's checks run in the order of its format's rules: the timestamp
    and its conversion to UTC, JSONL's array types, the ``from`` field, a JSONL
    subject free of lone surrogates, then ``make_event``'s team id and
    addresses.
    """
    reader = {"csv": _csv_records, "jsonl": _jsonl_records, "mbox": _mbox_records}[format]
    events, issues = [], []
    for line, build in reader(blob, make_event, parse_timestamp, default_team):
        try:
            if isinstance(build, Exception):
                raise build
            events.append(build())
        except KeyError as exc:
            issues.append((source, line, f"missing key {exc}"))
        except Exception as exc:  # every other error is the record's issue
            issues.append((source, line, str(exc)))
    return events, issues


# ---------------------------------------------------------------------------
# sentiment oracle


def lexicon_words(data: bytes) -> tuple[set[str], set[str]]:
    """The positive and negative words of a well-formed lexicon file.

    The bytes are UTF-8 after an optional BOM; lines end at CR LF, CR or LF.
    Each stripped, lowercased line that is not blank or a ``#`` comment is a
    ``[positive]``/``[negative]`` header or a word of the last header's section.
    """
    sections: dict[str, set[str]] = {"[positive]": set(), "[negative]": set()}
    words = None
    for line in re.split("\r\n|\r|\n", data.removeprefix(codecs.BOM_UTF8).decode("utf-8")):
        entry = line.strip().lower()
        if not entry or entry.startswith("#"):
            continue
        if entry in sections:
            words = sections[entry]
        else:
            words.add(entry)
    return sections["[positive]"], sections["[negative]"]


def positive_subject(subject: str, positive: set[str], negative: set[str]) -> bool:
    """More positive than negative words in the lowercased subject, a word
    being a maximal run of ``str.isalnum`` characters."""
    words = "".join(c if c.isalnum() else " " for c in subject.lower()).split()
    return sum(w in positive for w in words) > sum(w in negative for w in words)


# ---------------------------------------------------------------------------
# the whole pipeline: the report bytes of ``analyze`` and ``correlate``

METRIC_LABELS = ("Avg GBC", "Avg GDC", "Avg Density", "Avg. New Actors",
                 "Sum of Oscillation", "ART Median", "AWVCI (weighted by #actors)",
                 "Emotionality (cumulated pos. sentiment)")
METRIC_FIELDS = ("avg_gbc", "avg_gdc", "avg_density", "avg_new_actors",
                 "oscillation_sum", "art_median", "awvci", "emotionality")
#: The score card's expected direction of each metric.
DIRECTIONS = ("+", "+", "+", "-", "-", "-", "+", "-")


def _csv_line(fields: Sequence[str]) -> str:
    """One report line: a field holding ``,;"``, CR or LF is quoted, with ``"`` doubled."""
    return ",".join('"' + f.replace('"', '""') + '"' if any(c in f for c in ',;"\r\n') else f
                    for f in fields) + "\n"


def _mean(values: Sequence[Fraction]) -> Fraction | None:
    return sum(values, start=Fraction(0)) / len(values) if values else None


def _graph(edges: Mapping[tuple[str, str], int]) -> tuple[set[str], Mapping]:
    return {v for pair in edges for v in pair}, edges


def _team_metrics(corpus: Sequence, start: datetime, end: datetime, *, reply_cap: int,
                  oscillation_window: str, awvci_weighting: str, emotionality_mode: str,
                  lexicon: tuple[set[str], set[str]]) -> tuple:
    """The eight metrics of one :func:`reference_corpus` of ``[start, end)``,
    ``None`` where undefined, in :data:`METRIC_FIELDS` order.

    GBC, GDC and density average over the months with an edge, and are
    undefined without one; new actors count every month, and need two;
    oscillation needs three windows; ART and AWVCI need a reply pair and a day
    with an edge.
    """
    months = [_graph(e) for _, e in calendar_edges(corpus, start, end, month_key)]
    betweenness = [enumeration_betweenness(nodes, edges) for nodes, edges in months]
    active = [(nodes, edges, b) for (nodes, edges), b in zip(months, betweenness) if edges]
    gbc = _mean([freeman_centralization(b, "betweenness") for _, _, b in active])
    gdc = _mean([freeman_centralization(degree_map(nodes, edges), "degree")
                 for nodes, edges, _ in active])
    density = _mean([Fraction(len(edges), len(nodes) * (len(nodes) - 1))
                     for nodes, edges, _ in active])
    new_actors = None
    if len(months) >= 2:
        new = [len(nodes - set().union(*[seen for seen, _ in months[:i]]))
               for i, (nodes, _) in enumerate(months) if i]
        new_actors = Fraction(sum(new), len(new))
    if oscillation_window == "weekly":
        betweenness = [enumeration_betweenness(*_graph(e))
                       for _, e in calendar_edges(corpus, start, end, week_key)]
    oscillation = None
    if len(betweenness) >= 3:
        oscillation = sum(turning_points([b.get(actor, Fraction(0)) for b in betweenness])
                          for actor in set().union(*betweenness))
    latencies = [latency for _, _, latency in reply_pairs(corpus, reply_cap)]
    art = statistics.median(latencies) if latencies else None
    days = []
    for _, sent, received, total in daily_tallies(corpus):
        actors = set(sent) | set(received)
        variance = population_variance([ci_formula(sent.get(a, 0), received.get(a, 0))
                                        for a in actors])
        days.append((variance, total if awvci_weighting == "edges" else len(actors)))
    awvci = weighted_variance_mean(days) if days else None
    positives = sum(positive_subject(ev.subject, *lexicon) for ev in corpus)
    if emotionality_mode == "normalized":
        positives = Fraction(positives, len(corpus)) if corpus else 0
    return gbc, gdc, density, new_actors, oscillation, art, awvci, positives


def metrics_csv(events: Sequence, start: datetime, end: datetime, *, reply_cap: int,
                oscillation_window: str, awvci_weighting: str, emotionality_mode: str,
                lexicon: bytes) -> bytes:
    """``metrics.csv`` of every team of ``events`` over ``[start, end)``: one row
    per team id in sorted order, each value to six decimals, undefined empty."""
    words = lexicon_words(lexicon)
    lines = [_csv_line(("team_id",) + METRIC_LABELS)]
    for team in sorted({ev.team_id for ev in events}):
        values = _team_metrics(reference_corpus(events, team, start, end), start, end,
                               reply_cap=reply_cap, oscillation_window=oscillation_window,
                               awvci_weighting=awvci_weighting,
                               emotionality_mode=emotionality_mode, lexicon=words)
        lines.append(_csv_line([team] + ["" if v is None else f"{float(v):.6f}"
                                         for v in values]))
    return "".join(lines).encode("utf-8")


def _correlation_cells(pairs: Sequence[tuple[float, float]]) -> tuple[str, str, str]:
    """Pearson, Sig. (2-tailed) and N of one metric × target cell."""
    n = len(pairs)
    if n < 3:
        return "", "", str(n)
    cov, var_x, var_y = pearson_parts([x for x, _ in pairs], [y for _, y in pairs])
    if var_x == 0 or var_y == 0:
        return "", "", str(n)
    if cov * cov == var_x * var_y:
        r = 1.0 if cov > 0 else -1.0
    else:
        r = over_root(cov, var_x * var_y)
    p = student_t_p(r, n)
    return f"{r:.3f}" + ("*" if p < 0.05 else ""), f"{p:.3f}", str(n)


def reports(metrics: bytes, survey: bytes, *, eligibility_min: int,
            alert_sigma: float) -> tuple[bytes, bytes]:
    """``correlation.csv`` and ``scorecard.json`` of ``correlate`` on a
    ``metrics.csv`` and a survey, at the default ``--generated-at``.

    Correlation runs over the teams with metrics and more than
    ``eligibility_min`` respondents, each cell dropping the teams whose metric
    is undefined.  Score cards standardize every team of ``metrics.csv``
    against all of them.  The report's settings are the defaults of every
    setting ``correlate`` has no option for.
    """
    values = {row[0]: [None if cell == "" else float(cell) for cell in row[1:]]
              for row in list(csv.reader(io.StringIO(metrics.decode("utf-8"))))[1:]}
    answers: dict[str, list[tuple[int, tuple[Fraction, ...]]]] = {}
    for row in csv.DictReader(io.StringIO(survey.decode("utf-8-sig"))):
        answers.setdefault(row["team_id"], []).append(
            (int(row["nps"]), tuple(Fraction(row[f"kpd_{i}"]) for i in range(1, 9))))
    targets = {team: (float(reichheld_nps([nps for nps, _ in given])),
                      float(respondent_mean_kpd([kpd for _, kpd in given])))
               for team, given in answers.items() if len(given) > eligibility_min}

    lines = [_csv_line(("target",) + METRIC_LABELS)]
    for column, target in enumerate(("NPS", "KPD")):
        cells = [_correlation_cells([(row[i], targets[team][column])
                                     for team, row in values.items()
                                     if team in targets and row[i] is not None])
                 for i in range(len(METRIC_FIELDS))]
        lines.append(_csv_line((target,) + ("",) * len(METRIC_FIELDS)))
        for label, part in zip(("Pearson", "Sig. (2-tailed)", "N"), zip(*cells)):
            lines.append(_csv_line((label,) + part))

    cards = []
    for team in sorted(values):
        scores = {}
        for i, (field, direction) in enumerate(zip(METRIC_FIELDS, DIRECTIONS)):
            value = values[team][i]
            column = [row[i] for row in values.values() if row[i] is not None]
            if value is None or len(column) < 2:
                scores[field] = {"value": None if value is None else round(value, 3),
                                 "z": None, "favorable": None, "alert": None}
                continue
            mean, variance = mean_and_variance(column)
            deviation = Fraction(value) - mean
            favorable = deviation >= 0 if direction == "+" else deviation <= 0
            scores[field] = {
                "value": round(value, 3),
                "z": round(z_score(value, column), 3),
                "favorable": favorable,
                "alert": not favorable and deviation ** 2 > Fraction(alert_sigma) ** 2 * variance,
            }
        cards.append({"team_id": team,
                      "survey_eligible": len(answers[team]) > eligibility_min
                      if team in answers else None,
                      "metrics": scores})
    settings = {"period": None, "format": "csv", "reply_cap": 7 * 86400,
                "oscillation_window": "weekly", "awvci_weighting": "edges",
                "emotionality_mode": "cumulative", "eligibility_min": eligibility_min,
                "alert_sigma": alert_sigma, "strict": False, "lexicon": "builtin"}
    blob = json.dumps(settings, sort_keys=True, separators=(",", ":")).encode("utf-8")
    config = {"fingerprint": hashlib.sha256(blob).hexdigest()[:12], **settings}
    payload = {"generated_at": "1970-01-01T00:00:00Z",
               "config": dict(sorted(config.items())), "teams": cards}
    scorecard = json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    return "".join(lines).encode("utf-8"), scorecard.encode("utf-8")
