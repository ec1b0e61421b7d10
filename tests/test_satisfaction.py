"""NPS, KPD, and the eligibility rule."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import gc
import io
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from commscore import satisfaction
from commscore._text import read_csv
from commscore.errors import FormatError, MalformedRecord, NoResponses, OutOfRange
from commscore.ingest import parse_events
from commscore.satisfaction import (
    SURVEY_HEADER,
    SurveyResponse,
    classify_respondent,
    group_by_team,
    kpd,
    load_survey,
    nps,
    team_satisfaction,
)

import oracles


def resp(answer: int, team: str = "t", rid: str = "r1", kpd_value: float = 4.0):
    return SurveyResponse(team_id=team, respondent_id=rid, nps_answer=answer,
                          kpd_answers=tuple(Fraction(kpd_value).limit_denominator()
                                            for _ in range(8)))


# ---------------------------------------------------------------------------
# classification


@pytest.mark.parametrize("answer,expected", [
    (0, "detractor"), (5, "detractor"), (6, "detractor"),
    (7, "passive"), (8, "passive"),
    (9, "promoter"), (10, "promoter"),
])
def test_classification_boundaries(answer, expected):
    assert classify_respondent(answer) == expected


def test_every_answer_maps_to_exactly_one_class():
    classes = [classify_respondent(a) for a in range(11)]
    assert classes.count("detractor") == 7
    assert classes.count("passive") == 2
    assert classes.count("promoter") == 2


@pytest.mark.parametrize("bad", [-1, 11, 9.5, "9"])
def test_classification_rejects_out_of_range(bad):
    with pytest.raises(OutOfRange):
        classify_respondent(bad)


# ---------------------------------------------------------------------------
# NPS


def test_nps_extremes_and_mixture():
    assert nps([resp(9), resp(10), resp(10)]) == 100
    assert nps([resp(0), resp(3), resp(6)]) == -100
    assert nps([resp(9), resp(10), resp(7), resp(3)]) == 25


@given(st.lists(st.integers(0, 10), min_size=1, max_size=40))
@example([9, 10, 7, 3, 6, 8, 9, 0, 10])
def test_nps_matches_reichheld_formula_on_samples(answers):
    assert nps([resp(a, rid=f"r{i}") for i, a in enumerate(answers)]) == \
        oracles.reichheld_nps(answers)


@given(st.lists(st.integers(0, 10), min_size=1, max_size=12),
       st.integers(2, 4))
def test_nps_invariant_under_duplication(answers, k):
    responses = [resp(a, rid=f"r{i}") for i, a in enumerate(answers)]
    assert nps(responses * k) == nps(responses)


@given(st.permutations([9, 10, 7, 3, 6, 8, 0, 5]))
def test_nps_is_order_invariant(answers):
    permuted = nps([resp(a, rid=f"r{i}") for i, a in enumerate(answers)])
    baseline = nps([resp(a, rid=f"r{i}") for i, a in enumerate(sorted(answers))])
    assert permuted == baseline == Fraction(100 * (2 - 4), 8)


def test_nps_classifies_each_distinct_answer_once(monkeypatch):
    classified: list[object] = []
    real = satisfaction.classify_respondent
    monkeypatch.setattr(satisfaction, "classify_respondent",
                        lambda answer: classified.append(answer) or real(answer))
    answers = [9, 3, 9, 10, 3, 3, 7, 9]
    assert nps([resp(a, rid=f"r{i}") for i, a in enumerate(answers)]) == \
        oracles.reichheld_nps(answers)
    assert classified == [9, 3, 10, 7]


@pytest.mark.parametrize("answers,bad", [([9, 1, 1.0, 9.5], "1.0"), ([9, 9.5, 1.0], "9.5"),
                                         ([1.0, 1], "1.0"), ([3, True, 9.0], "9.0")])
def test_nps_raises_on_the_first_bad_answer_in_response_order(answers, bad):
    """An NPS answer equal to a valid one but not an ``int`` (``1.0 == 1``) is
    refused when its response is made, so responses made in order name the
    first bad answer; ``True`` is an ``int`` and is accepted."""
    with pytest.raises(OutOfRange, match=rf"got {bad}$"):
        [resp(a, rid=f"r{i}") for i, a in enumerate(answers)]


def test_responses_are_frozen_and_replace_runs_the_checks():
    r = resp(9)
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.nps_answer = 3  # type: ignore[misc]
    assert not hasattr(r, "__dict__")
    assert dataclasses.replace(r, respondent_id="r2") == resp(9, rid="r2")
    with pytest.raises(OutOfRange, match="nps answer 11 outside 0..10"):
        dataclasses.replace(r, nps_answer=11)
    with pytest.raises(ValueError, match="exactly 8 entries"):
        dataclasses.replace(r, kpd_answers=r.kpd_answers[:7])


def test_nps_requires_responses():
    with pytest.raises(NoResponses):
        nps([])


# ---------------------------------------------------------------------------
# KPD


def test_kpd_single_respondent_mean():
    r = SurveyResponse("t", "r1", 9, tuple(Fraction(k) for k in (1, 2, 3, 4, 5, 5, 4, 3)))
    assert kpd([r]) == Fraction(27, 8)


def test_kpd_constant_answers():
    assert kpd([resp(9, kpd_value=5.0)]) == 5


def test_kpd_averages_respondent_means():
    low = SurveyResponse("t", "a", 9, tuple(Fraction(2) for _ in range(8)))
    high = SurveyResponse("t", "b", 9, tuple(Fraction(4) for _ in range(8)))
    assert kpd([low, high]) == 3


@given(st.permutations(list(range(6))))
def test_kpd_is_respondent_order_invariant(order):
    responses = [resp(9, rid=f"r{i}", kpd_value=1.0 + i * 0.5) for i in range(6)]
    assert kpd([responses[i] for i in order]) == kpd(responses)


#: KPD answers in 1..5 with denominators 1, 2, 5 and 10, as survey texts such
#: as ``3``, ``2.5``, ``4.2`` and ``1.7`` give them.
_answer = st.sampled_from([1, 2, 5, 10]).flatmap(
    lambda den: st.integers(den, 5 * den).map(lambda num: Fraction(num, den)))


@given(st.lists(st.tuples(*[_answer] * 8), min_size=1, max_size=30))
@example([(Fraction(1),) * 7 + (Fraction(5, 2),), (Fraction(21, 5),) * 8,
          (Fraction(17, 10),) * 8])
def test_kpd_equals_mean_of_respondent_means(rows):
    responses = [SurveyResponse("t", f"r{i}", 9, answers) for i, answers in enumerate(rows)]
    assert kpd(responses) == oracles.respondent_mean_kpd(rows)


@pytest.mark.parametrize("answer", [Fraction(100), 0, Fraction(1, 2), 3.5, "3"])
def test_kpd_refuses_an_answer_that_is_not_a_number_in_1_to_5(answer):
    with pytest.raises(OutOfRange):
        kpd([SurveyResponse("t", "r", 5, (Fraction(3),) * 7 + (answer,))])


def test_kpd_requires_eight_answers():
    with pytest.raises(ValueError):
        SurveyResponse("t", "r", 9, (Fraction(1),) * 7)


# ---------------------------------------------------------------------------
# team aggregation / eligibility


def test_eligibility_strict_boundary():
    twenty_one = [resp(9, rid=f"r{i}") for i in range(21)]
    twenty = twenty_one[:20]
    assert team_satisfaction(twenty_one, "t").eligible is True
    assert team_satisfaction(twenty, "t").eligible is False


def test_single_respondent_is_ineligible_but_scored():
    sat = team_satisfaction([resp(9)], "t")
    assert sat.eligible is False
    assert sat.nps == 100
    assert sat.n_respondents == 1


def test_eligibility_threshold_is_configurable():
    five = [resp(9, rid=f"r{i}") for i in range(5)]
    assert team_satisfaction(five, "t", eligibility_min=4).eligible is True
    assert team_satisfaction(five, "t", eligibility_min=5).eligible is False


def test_team_mismatch_rejected():
    with pytest.raises(ValueError):
        team_satisfaction([resp(9, team="other")], "t")
    with pytest.raises(NoResponses):
        team_satisfaction([], "t")


# ---------------------------------------------------------------------------
# survey file parsing


SURVEY = (b"team_id,respondent_id,nps,kpd_1,kpd_2,kpd_3,kpd_4,kpd_5,kpd_6,kpd_7,kpd_8\n"
          b"alpha,r1,9,4,4,4,4,4,4,4,4\n"
          b"alpha,r2,3,2.5,2.5,2.5,2.5,2.5,2.5,2.5,2.5\n"
          b"bravo,r1,7,3,3,3,3,3,3,3,3\n")


def test_survey_csv_parses_and_groups():
    rows = load_survey(io.BytesIO(SURVEY))
    grouped = group_by_team(rows)
    assert sorted(grouped) == ["alpha", "bravo"]
    assert nps(grouped["alpha"]) == 0        # one promoter, one detractor
    assert kpd(grouped["bravo"]) == 3


def test_csv_readers_leave_the_callers_stream_open():
    """Survey and CSV mail parsing read a caller's stream without closing it,
    as JSONL parsing does, whether they finish or raise; a reader whose
    stream its caller closed first still closes cleanly."""
    mail = b"timestamp,from,to,cc,subject\n2012-06-04T09:00:00Z,a@x.com,b@x.com,,hi\n"
    for data, read in ((SURVEY, load_survey), (b"bad header\n", load_survey),
                       (mail, lambda source: parse_events(source, "csv", default_team="t"))):
        stream = io.BytesIO(data)
        with contextlib.suppress(FormatError):
            read(stream)
        gc.collect()
        assert not stream.closed
        stream.seek(0)
        assert stream.read() == data
    stream = io.BytesIO(SURVEY)
    rows = read_csv(stream, "survey.csv", SURVEY_HEADER)
    next(rows)
    stream.close()
    rows.close()


def test_each_distinct_kpd_text_is_converted_once(monkeypatch):
    """An operation bound: parsing the fixture survey builds at most one
    ``Fraction`` per distinct KPD answer text, and every answer equals its text."""
    path = Path(__file__).parent / "data" / "fixture" / "survey.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        texts = [[cell.strip() for cell in row[3:]] for row in list(csv.reader(fh))[1:]]
    built: list[str] = []

    def counting_fraction(text: str) -> Fraction:
        built.append(text)
        return Fraction(text)

    monkeypatch.setattr(satisfaction, "Fraction", counting_fraction)
    with open(path, "rb") as fh:
        rows = load_survey(fh)
    assert 0 < len(built) <= len({t for row in texts for t in row})
    assert [r.kpd_answers for r in rows] == [tuple(map(Fraction, row)) for row in texts]


def test_survey_rejects_missing_answers():
    doc = SURVEY + b"bravo,r2,8,3,3,3\n"
    with pytest.raises(MalformedRecord):
        load_survey(io.BytesIO(doc))


def test_survey_rejects_bad_values():
    doc = SURVEY + b"bravo,r2,eleven,3,3,3,3,3,3,3,3\n"
    with pytest.raises(MalformedRecord):
        load_survey(io.BytesIO(doc))
    doc = SURVEY + b"bravo,r2,11,3,3,3,3,3,3,3,3\n"
    with pytest.raises(MalformedRecord):
        load_survey(io.BytesIO(doc))


@pytest.mark.parametrize("answer", ["99", "-3", "0.5", "5.0000000000000000001",
                                    "nan", "inf", "1e1000000", "-1e1000000",
                                    # not ASCII decimal text, though float reads each
                                    "4_0e-1", "3e0", "\u0663", "+3", "0x3", "7/2"])
def test_survey_rejects_kpd_answers_outside_1_to_5(answer):
    doc = SURVEY + f"bravo,r2,8,3,3,3,3,3,3,3,{answer}\n".encode()
    with pytest.raises(MalformedRecord, match=r":5: kpd answer .* outside 1\.\.5"):
        load_survey(io.BytesIO(doc))
    bounds = SURVEY + b"bravo,r2,8,1,5,1.0,5.0,3.,4.50,05,3\n"
    assert load_survey(io.BytesIO(bounds))[-1].kpd_answers == (1, 5, 1, 5, 3, Fraction(9, 2), 5, 3)


@pytest.mark.parametrize("text", ["1_0", "\u0663", "\uff17", "+5", "-0", " 7e0", "10.0"])
def test_survey_nps_answers_are_ascii_digits(text):
    """``int`` would read ``1_0`` as 10 and the Arabic-Indic ``٣`` or the
    full-width ``７`` as 3 or 7; an NPS answer is written in ASCII digits."""
    doc = SURVEY + f"bravo,r2,{text},3,3,3,3,3,3,3,3\n".encode()
    with pytest.raises(MalformedRecord, match=r":5: nps answer .* is not an integer 0\.\.10"):
        load_survey(io.BytesIO(doc))
    leading_zero = SURVEY + b"bravo,r2,08,3,3,3,3,3,3,3,3\n"
    assert load_survey(io.BytesIO(leading_zero))[-1].nps_answer == 8


def test_each_distinct_nps_text_is_converted_once(monkeypatch):
    path = Path(__file__).parent / "data" / "fixture" / "survey.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        texts = [row[2].strip() for row in list(csv.reader(fh))[1:]]
    converted: list[str] = []
    real = satisfaction._nps_answer
    monkeypatch.setattr(satisfaction, "_nps_answer",
                        lambda text: converted.append(text) or real(text))
    with open(path, "rb") as fh:
        rows = load_survey(fh)
    assert sorted(converted) == sorted(set(texts)) and len(texts) > len(set(texts))
    assert [r.nps_answer for r in rows] == [int(t) for t in texts]


def test_survey_rejects_duplicate_respondents():
    doc = SURVEY + b"alpha,r1,9,4,4,4,4,4,4,4,4\n"
    with pytest.raises(MalformedRecord, match=r":5: duplicate respondent 'r1'"):
        load_survey(io.BytesIO(doc))


def test_survey_that_is_not_utf8_is_a_format_error():
    with pytest.raises(FormatError, match=r"survey\.csv: line 5: not UTF-8"):
        load_survey(io.BytesIO(SURVEY + b"alpha,r\xff,9,3,3,3,3,3,3,3,3\n"),
                    source_name="survey.csv")


def test_survey_rejects_wrong_header():
    with pytest.raises(FormatError):
        load_survey(io.BytesIO(b"team,who,nps\n"))
