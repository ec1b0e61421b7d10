"""Per-team NPS and KPD from survey responses, with eligibility filtering."""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import BinaryIO, Sequence

from ._text import read_csv
from .errors import MalformedRecord, NoResponses, OutOfRange

SURVEY_HEADER = (
    "team_id", "respondent_id", "nps",
    "kpd_1", "kpd_2", "kpd_3", "kpd_4", "kpd_5", "kpd_6", "kpd_7", "kpd_8",
)

#: Teams need strictly more than this many respondents to enter correlation.
DEFAULT_ELIGIBILITY_MIN = 20


@dataclass(frozen=True, slots=True, init=False)
class SurveyResponse:
    team_id: str
    respondent_id: str
    nps_answer: int
    kpd_answers: tuple[Fraction, ...]

    def __init__(self, team_id: str, respondent_id: str, nps_answer: int,
                 kpd_answers: tuple[Fraction, ...]) -> None:
        if not isinstance(nps_answer, int):
            raise OutOfRange(f"nps answer must be an integer in 0..10, got {nps_answer!r}")
        if not 0 <= nps_answer <= 10:
            raise OutOfRange(f"nps answer {nps_answer} outside 0..10")
        if len(kpd_answers) != 8:
            raise ValueError("kpd_answers must have exactly 8 entries")
        # each slot is stored by its own descriptor, past the frozen __setattr__
        _set_team_id(self, team_id)
        _set_respondent_id(self, respondent_id)
        _set_nps_answer(self, nps_answer)
        _set_kpd_answers(self, kpd_answers)


_set_team_id, _set_respondent_id, _set_nps_answer, _set_kpd_answers = (
    SurveyResponse.__dict__[name].__set__ for name in SurveyResponse.__slots__)


@dataclass(frozen=True)
class TeamSatisfaction:
    team_id: str
    nps: Fraction
    kpd: Fraction
    n_respondents: int
    eligible: bool


def classify_respondent(nps_answer: int) -> str:
    """9-10 promoter, 7-8 passive, 0-6 detractor."""
    if not isinstance(nps_answer, int) or not 0 <= nps_answer <= 10:
        raise OutOfRange(f"nps answer must be an integer in 0..10, got {nps_answer!r}")
    if nps_answer >= 9:
        return "promoter"
    if nps_answer >= 7:
        return "passive"
    return "detractor"


def nps(responses: Sequence[SurveyResponse]) -> Fraction:
    """100 · (#promoters − #detractors) / #responses."""
    if not responses:
        raise NoResponses("nps over zero responses")
    # every answer is an int (SurveyResponse checks it), so each distinct
    # value is tallied and classified once
    kinds: Counter[str] = Counter()
    for answer, k in Counter(r.nps_answer for r in responses).items():
        kinds[classify_respondent(answer)] += k
    return Fraction(100 * (kinds["promoter"] - kinds["detractor"]), len(responses))


def kpd(responses: Sequence[SurveyResponse]) -> Fraction:
    """Mean over respondents of each respondent's mean of 8 answers.

    Every respondent gives exactly 8 answers, so this is Σ answers / (8·n).
    The numerators are summed as integers per denominator and put over
    their lcm once.  An answer that is not an ``int`` or ``Fraction`` in 1..5
    raises ``OutOfRange``.
    """
    if not responses:
        raise NoResponses("kpd over zero responses")
    numerators: dict[int, int] = {}
    for r in responses:
        for answer in r.kpd_answers:
            try:
                den, num = answer.denominator, answer.numerator
            except AttributeError:  # not a rational, such as a float
                raise OutOfRange(f"kpd answer must be an int or Fraction, "
                                 f"got {answer!r}") from None
            if not den <= num <= 5 * den:
                raise OutOfRange(f"kpd answer {answer} outside 1..5")
            numerators[den] = numerators.get(den, 0) + num
    common = lcm(*numerators)
    total = sum(num * (common // den) for den, num in numerators.items())
    return Fraction(total, 8 * len(responses) * common)


def team_satisfaction(responses: Sequence[SurveyResponse], team_id: str,
                      eligibility_min: int = DEFAULT_ELIGIBILITY_MIN) -> TeamSatisfaction:
    """Combine NPS/KPD with the strict more-than-``eligibility_min`` rule."""
    if not responses:
        raise NoResponses(f"no survey responses for team {team_id!r}")
    for r in responses:
        if r.team_id != team_id:
            raise ValueError(f"response for {r.team_id!r} passed to team {team_id!r}")
    return TeamSatisfaction(
        team_id=team_id,
        nps=nps(responses),
        kpd=kpd(responses),
        n_respondents=len(responses),
        eligible=len(responses) > eligibility_min,
    )


def load_survey(source: BinaryIO, *, source_name: str = "<stream>") -> list[SurveyResponse]:
    """Parse the survey CSV; malformed or incomplete rows are rejected outright.

    Missing answers are treated as malformed, never imputed.  An NPS answer
    is an integer 0..10 written in ASCII digits, a KPD answer an ASCII
    decimal text (``4``, ``3.5``) in 1..5, and each ``(team_id,
    respondent_id)`` pair may appear only once.
    """
    out: list[SurveyResponse] = []
    seen: set[tuple[str, str]] = set()
    # each distinct answer text is checked and converted once; texts that
    # fail are never stored, so every row holding one is rejected
    nps_of: dict[str, int] = {}
    answer_of: dict[str, Fraction] = {}
    for line, row in read_csv(source, source_name, SURVEY_HEADER):
        if not row:
            continue
        if len(row) != len(SURVEY_HEADER):
            raise MalformedRecord(
                f"expected {len(SURVEY_HEADER)} fields, got {len(row)}",
                source=source_name, line=line,
            )
        team, respondent, raw_nps, *raw_kpd = map(str.strip, row)
        if not team or not respondent:
            raise MalformedRecord("empty team_id or respondent_id",
                                  source=source_name, line=line)
        if (team, respondent) in seen:
            raise MalformedRecord(f"duplicate respondent {respondent!r} for team {team!r}",
                                  source=source_name, line=line)
        seen.add((team, respondent))
        try:
            if raw_nps not in nps_of:
                nps_of[raw_nps] = _nps_answer(raw_nps)
            answer = nps_of[raw_nps]
            try:
                answers = tuple(map(answer_of.__getitem__, raw_kpd))
            except KeyError:  # a text not seen before: convert the row's new ones
                for v in raw_kpd:
                    if v not in answer_of:
                        answer_of[v] = _kpd_answer(v)
                answers = tuple(map(answer_of.__getitem__, raw_kpd))
            response = SurveyResponse(team, respondent, answer, answers)
        except (ValueError, OutOfRange) as exc:
            raise MalformedRecord(str(exc), source=source_name, line=line) from None
        out.append(response)
    return out


#: The answer texts read: ASCII digits, and for KPD maybe a decimal point.
_INTEGER_RE = re.compile(r"[0-9]+")
_DECIMAL_RE = re.compile(r"[0-9]+(?:\.[0-9]*)?|\.[0-9]+")


def _nps_answer(raw: str) -> int:
    """One NPS answer as written: ASCII digits only (its range is checked by
    :class:`SurveyResponse`)."""
    if not _INTEGER_RE.fullmatch(raw):
        raise ValueError(f"nps answer {raw!r} is not an integer 0..10")
    return int(raw)


def _kpd_answer(raw: str) -> Fraction:
    """One KPD answer in 1..5, written as an ASCII decimal text.

    The range is checked on a float first, so that an answer of many digits
    is rejected before it builds a huge exact ``Fraction``.
    """
    if _DECIMAL_RE.fullmatch(raw) and 1 <= float(raw) <= 5:
        answer = Fraction(raw)
        # the exact check, on integers: comparing Fractions costs far more
        if answer.denominator <= answer.numerator <= 5 * answer.denominator:
            return answer
    raise OutOfRange(f"kpd answer {raw!r} outside 1..5")


def group_by_team(responses: Sequence[SurveyResponse]) -> dict[str, list[SurveyResponse]]:
    grouped: dict[str, list[SurveyResponse]] = {}
    for r in responses:
        grouped.setdefault(r.team_id, []).append(r)
    return {team: grouped[team] for team in sorted(grouped)}
