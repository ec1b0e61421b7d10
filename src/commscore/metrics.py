"""The eight communication score-card metrics for one team corpus.

Graph-structural metrics (centralities, centralization, density) are exact
rationals (:class:`fractions.Fraction`) on the directed unweighted structure of
each window graph; edge multiplicities never affect them.  Sums are carried as
integers over a common denominator, and one ``Fraction`` is built per metric
value, not one per term or per actor: a :class:`CentralityMap` holds integer
numerators over one denominator per graph, centralization reads them as
integers, and oscillation compares them as integers.  AWVCI sums its daily
variances the same way.  Reply latencies are in seconds, and their median
is exact too.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from datetime import timedelta
from fractions import Fraction
from importlib import resources
from itertools import chain
from math import lcm
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import FormatError, InsufficientWindows, NoActivity, OutOfRange
from .ingest import ActorId, EmailEvent, TeamCorpus
from .tempograph import (
    DayTally,
    WindowGraph,
    daily_activity,
    month_periods,
    week_periods,
    window_graphs,
)

#: Canonical metric field order and their fixed report column labels.
METRIC_LABELS: dict[str, str] = {
    "avg_gbc": "Avg GBC",
    "avg_gdc": "Avg GDC",
    "avg_density": "Avg Density",
    "avg_new_actors": "Avg. New Actors",
    "oscillation_sum": "Sum of Oscillation",
    "art_median": "ART Median",
    "awvci": "AWVCI (weighted by #actors)",
    "emotionality": "Emotionality (cumulated pos. sentiment)",
}

METRIC_FIELDS: tuple[str, ...] = tuple(METRIC_LABELS)

DEFAULT_REPLY_CAP = 7 * 86400  # seconds

#: The definitions each configurable metric can take, the default first.
METRIC_CHOICES: dict[str, tuple[str, ...]] = {
    "oscillation_window": ("weekly", "monthly"),
    "awvci_weighting": ("edges", "actors"),
    "emotionality_mode": ("cumulative", "normalized"),
}


# --------------------------------------------------------------------------
# centrality / structure


@dataclass(frozen=True)
class CentralityMap:
    """Normalized per-actor centralities in [0, 1] for one graph.

    Each actor's centrality is its integer numerator over the one
    ``denominator`` that the whole graph shares, not necessarily in lowest
    terms; ``values`` reads them as exact rationals.  Two maps of equal values
    may hold them over different denominators.
    """

    kind: str  # "betweenness" | "degree"
    numerators: Mapping[ActorId, int]
    denominator: int

    @property
    def values(self) -> Mapping[ActorId, Fraction]:
        """Each actor's centrality as an exact ``Fraction``, read-only."""
        den = self.denominator
        return MappingProxyType({v: Fraction(num, den) for v, num in self.numerators.items()})


def betweenness_centrality(g: WindowGraph) -> CentralityMap:
    """Brandes betweenness on the directed unweighted graph, in exact integers.

    For each node, the fraction of ordered-pair shortest paths passing through
    it, normalized by ``(N-1)(N-2)``.  Fewer than three nodes yields all
    zeros.

    Per BFS source s (Brandes 2001, 2008), the dependency δ(v) of s on v obeys
    δ(v) = Σ σ(v)/σ(w)·(1 + δ(w)) over the successors w of v on shortest
    paths, σ being the shortest-path counts from s.  The BFS runs from every
    source first.  With L the lcm of every σ from every source, the integer
    D(v) = L·δ(v)/σ(v) obeys D(v) = Σ (L/σ(w) + D(w)), so L·δ(v) = D(v)·σ(v)
    is an integer too.  Each node sums these over the sources, and its
    betweenness is that sum over ``L·(N-1)(N-2)``, the graph's one
    denominator.
    """
    nodes = sorted(g.nodes)
    n = len(nodes)
    if n < 3:
        return CentralityMap("betweenness", dict.fromkeys(nodes, 0), 1)
    index = {v: i for i, v in enumerate(nodes)}
    adj: list[list[int]] = [[] for _ in nodes]
    for src, dst in g.edges:
        adj[index[src]].append(index[dst])
    searches = []  # per source: (dist, sigma, BFS order)
    path_counts: set[int] = set()
    for source in range(n):
        if not adj[source]:
            continue
        # single-source shortest paths with integer path counts
        dist = [-1] * n
        sigma = [0] * n
        dist[source], sigma[source] = 0, 1
        order = [source]
        for v in order:  # grows while walked: the BFS queue
            next_dist, paths = dist[v] + 1, sigma[v]
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w], sigma[w] = next_dist, paths
                    order.append(w)
                elif dist[w] == next_dist:
                    sigma[w] += paths
        searches.append((dist, sigma, order))
        path_counts.update(sigma)
    path_counts.discard(0)  # σ of a node the source does not reach
    common = lcm(*path_counts)
    totals = [0] * n  # per node: Σ over sources of L·δ(v)
    for dist, sigma, order in searches:
        # dependency accumulation, back to front: share[w] = L/σ(w) + D(w)
        share = [0] * n
        for v in reversed(order[1:]):  # the source depends on itself for nothing
            next_dist = dist[v] + 1
            dependency = 0
            for w in adj[v]:
                if dist[w] == next_dist:
                    dependency += share[w]
            share[v] = common // sigma[v] + dependency
            if dependency:
                totals[v] += dependency * sigma[v]
    return CentralityMap("betweenness", dict(zip(nodes, totals)),
                         common * (n - 1) * (n - 2))


def degree_centrality(g: WindowGraph) -> CentralityMap:
    """Distinct-neighbor count over ``N-1``; a single node scores 0."""
    neighbors: dict[ActorId, set[ActorId]] = {v: set() for v in g.nodes}
    for src, dst in g.edges:
        neighbors[src].add(dst)
        neighbors[dst].add(src)
    n = len(neighbors)
    if n <= 1:
        return CentralityMap("degree", dict.fromkeys(neighbors, 0), 1)
    return CentralityMap("degree", {v: len(nb) for v, nb in neighbors.items()}, n - 1)


def group_centralization(c: CentralityMap) -> Fraction:
    """Freeman centralization: Σ(c_max − c_v) over its star-graph maximum.

    The maximum sum is ``N-1`` for normalized betweenness and ``N-2`` for
    normalized degree.  Two or fewer nodes centralize to 0.  Over the map's
    one denominator d the spread is (N·max − Σ)/d in numerators, so the
    result is one ``Fraction``.
    """
    numerators = c.numerators.values()
    n = len(numerators)
    if n <= 2:
        return Fraction(0)
    normalizer = n - 1 if c.kind == "betweenness" else n - 2
    return Fraction(n * max(numerators) - sum(numerators), c.denominator * normalizer)


def density(g: WindowGraph) -> Fraction:
    """Distinct directed edges over ``N(N-1)``; trivial graphs score 0."""
    n = len(g.nodes)
    if n <= 1:
        return Fraction(0)
    return Fraction(len(g.edges), n * (n - 1))


def avg_new_actors(windows: Sequence[WindowGraph]) -> Fraction:
    """Mean count of never-before-seen actors over windows 2..M.

    The first window is excluded — every actor there is trivially new.
    """
    if len(windows) < 2:
        raise InsufficientWindows("avg_new_actors needs at least 2 windows")
    seen = set(windows[0].nodes)
    total = 0
    for g in windows[1:]:
        total += len(g.nodes - seen)
        seen |= g.nodes
    return Fraction(total, len(windows) - 1)


# --------------------------------------------------------------------------
# leadership oscillation


def direction_changes(series: Sequence[Fraction | int | float]) -> int:
    """Count strict direction changes of a series; plateaus are not extrema."""
    last_sign = 0
    changes = 0
    for prev, cur in zip(series, series[1:]):
        if cur == prev:
            continue
        sign = 1 if cur > prev else -1
        if last_sign and sign != last_sign:
            changes += 1
        last_sign = sign
    return changes


def leadership_oscillation(series: Sequence[CentralityMap]) -> int:
    """The "Sum of Oscillation": each actor's direction changes of betweenness
    across consecutive windows, summed over actors.

    ``series`` holds the betweenness of each window graph in time order.  An
    actor absent from a window has betweenness 0 there.  The windows'
    numerators are scaled to the lcm of their denominators, so they compare
    as integers, and an equal value over two denominators is a plateau.
    """
    if len(series) < 3:
        raise InsufficientWindows(f"oscillation needs ≥ 3 windows, got {len(series)}")
    common = lcm(*[c.denominator for c in series])
    maps = []
    for c in series:
        scale = common // c.denominator
        maps.append({v: num * scale for v, num in c.numerators.items()})
    return sum(direction_changes([m.get(actor, 0) for m in maps])
               for actor in set().union(*maps))


# --------------------------------------------------------------------------
# responsiveness

#: The whole leading run of reply/forward prefixes, matched in one call.
_PREFIXES_RE = re.compile(r"^(?:\s*(?:re|fw|fwd)\s*:\s*)+", re.IGNORECASE)


def normalize_subject(subject: str) -> str:
    """Strip the leading reply/forward prefixes, collapse whitespace, lowercase."""
    return " ".join(_PREFIXES_RE.sub("", subject, count=1).split()).lower()


_SECOND = timedelta(seconds=1)


@dataclass(frozen=True)
class ReplyPair:
    original: EmailEvent
    reply: EmailEvent
    latency: int  # seconds


def match_replies(corpus: TeamCorpus, reply_cap: int = DEFAULT_REPLY_CAP) -> list[ReplyPair]:
    """Pair each reply with the latest eligible earlier original.

    B replies to A iff B's sender was addressed by A (to or cc), A's sender is
    in B's ``to``, B is strictly later, the normalized subjects match, and the
    latency does not exceed ``reply_cap`` seconds.  A subject that normalizes
    to ``""`` (empty, or only ``Re:``/``Fwd:`` prefixes) is a thread like any
    other.  Each distinct raw subject is normalized once, when it is first
    seen; its later events find their thread by the raw subject alone.

    One pass over the corpus, which is in ``event_order``: each event walks
    back over the earlier events of its thread, skipping those sent at the
    same instant and stopping at the first sent before the reply's instant
    minus ``reply_cap``, clipped at the corpus period's start, before which no
    event lies.  The walk compares instants only; an
    :class:`~commscore.ingest.EmailEvent` holds its instant at a whole UTC
    second, so the latency of the one pair kept is an exact integer.
    The first eligible original is the latest in ``event_order``, and pairs
    come in the order of their replies, so the matching does not depend on the
    order of the input events.
    """
    start = corpus.period.start
    span = timedelta(seconds=min(reply_cap, (corpus.period.end - start) // _SECOND))
    threads: dict[str, list[EmailEvent]] = {}  # normalized subject → its events so far
    by_subject: dict[str, list[EmailEvent]] = {}  # raw subject → its thread
    pairs: list[ReplyPair] = []
    for reply in corpus.events:
        thread = by_subject.get(reply.subject)
        if thread is None:
            thread = by_subject[reply.subject] = threads.setdefault(
                normalize_subject(reply.subject), [])
        if thread:
            stamp, sender, to = reply.timestamp, reply.sender, reply.to
            oldest = stamp - span if stamp - start > span else start
            for original in reversed(thread):
                sent = original.timestamp
                if sent < oldest:
                    break
                if (original.sender in to and sent != stamp
                        and (sender in original.to or sender in original.cc)):
                    pairs.append(ReplyPair(original, reply, (stamp - sent) // _SECOND))
                    break
        thread.append(reply)
    return pairs


@dataclass(frozen=True)
class ResponseTimes:
    art_median: Fraction | None


def response_times(pairs: Sequence[ReplyPair]) -> ResponseTimes:
    """Median reply latency, exact: the middle latency, or the sum of the middle
    two over 2; undefined (None) when there are no pairs."""
    if not pairs:
        return ResponseTimes(art_median=None)
    latencies = sorted(p.latency for p in pairs)
    middle = len(latencies) // 2
    if len(latencies) % 2:
        return ResponseTimes(art_median=Fraction(latencies[middle]))
    return ResponseTimes(art_median=Fraction(latencies[middle - 1] + latencies[middle], 2))


# --------------------------------------------------------------------------
# contribution index


def _traffic(sent: int, received: int) -> int:
    """sent + received, the contribution index's denominator, checked."""
    if sent < 0 or received < 0:
        raise OutOfRange("message counts must be non-negative")
    if sent + received == 0:
        raise NoActivity("contribution index undefined without activity")
    return sent + received


def contribution_index(sent: int, received: int) -> Fraction:
    """(sent − received)/(sent + received): +1 pure sender, −1 pure receiver."""
    return Fraction(sent - received, _traffic(sent, received))


def spread_parts(ratios: Sequence[tuple[int, int]]) -> tuple[list[int], int, int]:
    """Integers ``k`` over one denominator ``d``, the lcm of the ``q``, with
    ``k[i]/d == p/q`` for the i-th ratio ``(p, q)``; and the spread
    n·Σk² − (Σk)², which is n²·d² times the ratios' population variance.

    AWVCI's daily variances, Pearson r and the score-card z are all read from it.
    """
    d = lcm(*[q for _, q in ratios])
    ks = [p * (d // q) for p, q in ratios]
    return ks, d, len(ks) * sum([k * k for k in ks]) - sum(ks) ** 2


def awvci(days: Iterable[DayTally],
          weighting: str = METRIC_CHOICES["awvci_weighting"][0]) -> Fraction:
    """Weighted mean of daily contribution-index variances.

    ``days`` are UTC-day tallies ``(date, {(sender, recipient): count})``, as
    :func:`~commscore.tempograph.daily_activity` returns them.  Per day: the
    population variance of the contribution index across the actors of its
    edges, whose sends and receipts are their out- and in-edge counts.  Day
    weights are the day's total edge count (``weighting="edges"``, the
    default) or its actor count (``weighting="actors"``).

    The sums are exact integers.  With q = sent + received per actor, each
    day's indices (sent − received)/q go through :func:`spread_parts`: over
    their common denominator L, the variance of k indices is its spread over
    k²L².  The weighted numerators are summed per denominator, and divided once.
    """
    if weighting not in METRIC_CHOICES["awvci_weighting"]:
        raise ValueError(f"unknown AWVCI weighting: {weighting!r}")
    parts: dict[int, int] = {}  # {k²L²: Σ weight·spread}
    total_weight = 0
    for _, edges in days:
        sent = dict.fromkeys(chain.from_iterable(edges), 0)
        received = sent.copy()
        for (sender, recipient), count in edges.items():
            sent[sender] += count
            received[recipient] += count
        counts = [(s - received[a], _traffic(s, received[a])) for a, s in sent.items()]
        if not counts:
            continue
        _, common, spread = spread_parts(counts)
        k = len(counts)
        weight = sum(edges.values()) if weighting == "edges" else k
        den = k * k * common * common
        parts[den] = parts.get(den, 0) + weight * spread
        total_weight += weight
    if total_weight == 0:
        raise NoActivity("no day with active actors")
    common = lcm(*parts)
    return Fraction(sum(num * (common // den) for den, num in parts.items()),
                    common * total_weight)


# --------------------------------------------------------------------------
# sentiment / emotionality


#: A subject's words, as :func:`sentiment` reads them from the lowercased subject.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class SentimentLexicon:
    """Disjoint positive/negative sets of lowercase words.

    Each entry must be one word as :func:`sentiment` reads a subject: letters
    and digits only.  Any other entry, such as ``well-done``, ``thank you`` or
    ``a_b``, could never match and raises ``FormatError``.
    """

    positive: frozenset[str]
    negative: frozenset[str]

    def __post_init__(self) -> None:
        overlap = self.positive & self.negative
        if overlap:
            raise ValueError(f"lexicon words in both sections: {sorted(overlap)[:5]}")
        for word in sorted(self.positive | self.negative):
            if word != word.lower():
                raise ValueError(f"lexicon entry not lowercase: {word!r}")
            if not _TOKEN_RE.fullmatch(word):
                raise FormatError(f"lexicon entry {word!r} is not one word of letters and "
                                  "digits, so no subject could match it")


def load_lexicon(data: bytes) -> SentimentLexicon:
    """Read a lexicon file's bytes: UTF-8 (a leading BOM is dropped), one word
    per line (ending at LF, CR LF or CR) under ``[positive]``/``[negative]``.

    Entries are lowercased, and each must be one word (see
    :class:`SentimentLexicon`); any other raises ``FormatError``.
    """
    section = None
    positive: set[str] = set()
    negative: set[str] = set()
    for raw in data.decode("utf-8-sig").replace("\r\n", "\n").replace("\r", "\n").split("\n"):
        word = raw.strip()
        if not word or word.startswith("#"):
            continue
        entry = word.lower()
        if entry == "[positive]":
            section = positive
            continue
        if entry == "[negative]":
            section = negative
            continue
        if word.startswith("["):
            raise FormatError(f"unknown lexicon section: {word}")
        if section is None:
            raise FormatError("lexicon word before any section header")
        section.add(entry)
    return SentimentLexicon(positive=frozenset(positive), negative=frozenset(negative))


def default_lexicon() -> SentimentLexicon:
    data = resources.files("commscore").joinpath("data/default_lexicon.txt").read_bytes()
    return load_lexicon(data)


def sentiment(subject: str, lexicon: SentimentLexicon) -> str:
    """Classify a subject line as positive/negative/neutral by lexicon hits."""
    tokens = _TOKEN_RE.findall(subject.lower())
    if lexicon.positive.isdisjoint(tokens):  # most subjects: no positive word
        return "neutral" if lexicon.negative.isdisjoint(tokens) else "negative"
    pos = sum(map(lexicon.positive.__contains__, tokens))
    neg = sum(map(lexicon.negative.__contains__, tokens))
    if pos > neg:
        return "positive"
    if neg > pos:
        return "negative"
    return "neutral"


def emotionality(corpus: TeamCorpus, lexicon: SentimentLexicon,
                 mode: str = METRIC_CHOICES["emotionality_mode"][0]) -> int | Fraction:
    """Count of positive-classified subjects; ``normalized`` divides by volume.

    Each distinct raw subject is classified once, and counts as often as it
    occurs.
    """
    if mode not in METRIC_CHOICES["emotionality_mode"]:
        raise ValueError(f"unknown emotionality mode: {mode!r}")
    occurrences = Counter(map(attrgetter("subject"), corpus.events))
    count = sum([n for subject, n in occurrences.items()
                 if sentiment(subject, lexicon) == "positive"])
    if mode == "cumulative":
        return count
    if not corpus.events:
        return 0
    return Fraction(count, len(corpus.events))


# --------------------------------------------------------------------------
# the full vector


@dataclass(frozen=True)
class MetricConfig:
    """Knobs for the configurable metric definitions (each default the first of
    its :data:`METRIC_CHOICES`)."""

    oscillation_window: str = METRIC_CHOICES["oscillation_window"][0]
    reply_cap: int = DEFAULT_REPLY_CAP
    awvci_weighting: str = METRIC_CHOICES["awvci_weighting"][0]
    emotionality_mode: str = METRIC_CHOICES["emotionality_mode"][0]
    lexicon: SentimentLexicon | None = None

    def __post_init__(self) -> None:
        for name, label in (("oscillation_window", "oscillation granularity"),
                            ("awvci_weighting", "AWVCI weighting"),
                            ("emotionality_mode", "emotionality mode")):
            if getattr(self, name) not in METRIC_CHOICES[name]:
                raise ValueError(f"unknown {label}: {getattr(self, name)!r}")
        if type(self.reply_cap) is not int or self.reply_cap < 1:  # a bool is no cap
            raise ValueError(f"reply cap must be a positive whole number of seconds, "
                             f"got {self.reply_cap!r}")

    def resolved_lexicon(self) -> SentimentLexicon:
        return self.lexicon if self.lexicon is not None else default_lexicon()


@dataclass(frozen=True)
class MetricVector:
    """The eight score-card metric values for one team; None marks undefined."""

    team_id: str
    avg_gbc: Fraction | None
    avg_gdc: Fraction | None
    avg_density: Fraction | None
    avg_new_actors: Fraction | None
    oscillation_sum: int | None
    art_median: Fraction | None
    awvci: Fraction | None
    emotionality: int | Fraction | None

    def value(self, field_name: str) -> float | None:
        raw = getattr(self, field_name)
        return None if raw is None else float(raw)


def _mean(parts: Sequence[Fraction]) -> Fraction:
    return sum(parts, start=Fraction(0)) / len(parts)


def compute_metric_vector(corpus: TeamCorpus, config: MetricConfig = MetricConfig()) -> MetricVector:
    """All eight metrics for one corpus; per-metric boundary cases yield None.

    Monthly means (GBC, GDC, density) skip months without e-mail; a metric
    whose preconditions cannot be met is reported as undefined rather than
    aborting the vector.  Month and week graphs are sums of the day tallies,
    and each window graph's betweenness is computed once.
    """
    days = daily_activity(corpus)
    months = window_graphs(days, month_periods(corpus.period))
    month_betweenness = [betweenness_centrality(g) for g in months]
    active = [(g, c) for g, c in zip(months, month_betweenness) if g.nodes]
    gbc = gdc = dens = None
    if active:
        gbc = _mean([group_centralization(c) for _, c in active])
        gdc = _mean([group_centralization(degree_centrality(g)) for g, _ in active])
        dens = _mean([density(g) for g, _ in active])
    try:
        new_actors = avg_new_actors(months)
    except InsufficientWindows:
        new_actors = None
    if config.oscillation_window == "monthly":
        series = month_betweenness
    else:
        series = [betweenness_centrality(g)
                  for g in window_graphs(days, week_periods(corpus.period))]
    try:
        oscillation = leadership_oscillation(series)
    except InsufficientWindows:
        oscillation = None
    art = response_times(match_replies(corpus, config.reply_cap)).art_median
    try:
        variance = awvci(days, config.awvci_weighting)
    except NoActivity:
        variance = None
    lexicon = config.resolved_lexicon()
    emo = emotionality(corpus, lexicon, config.emotionality_mode)
    return MetricVector(
        team_id=corpus.team_id,
        avg_gbc=gbc,
        avg_gdc=gdc,
        avg_density=dens,
        avg_new_actors=new_actors,
        oscillation_sum=oscillation,
        art_median=art,
        awvci=variance,
        emotionality=emo,
    )
