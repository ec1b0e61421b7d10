"""The seeded corpus generator: reproducibility and spec validation."""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from fractions import Fraction

import pytest

from commscore.ingest import build_corpus
from commscore.metrics import METRIC_FIELDS
from commscore.synth import (
    SynthSpec,
    generate_survey_rows,
    generate_team_events,
    planted_effects,
    write_outputs,
)


def test_same_seed_reproduces_files_byte_for_byte(tmp_path):
    spec = SynthSpec(teams=3, months=2, seed=42)
    first = tmp_path / "one"
    second = tmp_path / "two"
    write_outputs(spec, first)
    write_outputs(spec, second)
    for name in ["survey.csv", "synth_manifest.json", "mail/team01.csv",
                 "mail/team02.csv", "mail/team03.csv"]:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_different_seeds_differ():
    a = generate_team_events(SynthSpec(teams=2, months=1, seed=1), 0)
    b = generate_team_events(SynthSpec(teams=2, months=1, seed=2), 0)
    assert a != b


def test_planted_effects_cover_every_metric():
    effects = planted_effects()
    assert set(effects) == set(METRIC_FIELDS)
    assert all(0 < v <= 1 for v in effects.values())


def test_events_stay_within_the_declared_period():
    spec = SynthSpec(teams=2, months=2, seed=5, effects=planted_effects())
    period = spec.period()
    for index in range(spec.teams):
        for event in generate_team_events(spec, index):
            assert event.timestamp in period


def test_generated_events_build_clean_corpora():
    spec = SynthSpec(teams=2, months=2, seed=11)
    corpus = build_corpus(generate_team_events(spec, 0), "team01", spec.period())
    assert corpus.events
    stamps = [e.timestamp for e in corpus.events]
    assert stamps == sorted(stamps)


def test_survey_rows_have_configured_shape():
    spec = SynthSpec(teams=2, months=1, respondents=4, seed=3)
    rows = generate_survey_rows(spec)
    assert len(rows) == 8
    for team, respondent, answer, kpd_answers in rows:
        assert team in ("team01", "team02")
        assert 0 <= answer <= 10
        assert len(kpd_answers) == 8


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(teams=1)
    with pytest.raises(ValueError):
        SynthSpec(actors=3)
    for key in ("not_a_metric", "avg_gbc:x", "oscillation_sum:NPS"):
        with pytest.raises(ValueError, match="unknown effect key"):
            SynthSpec(effects={key: 0.5})
    with pytest.raises(ValueError):
        SynthSpec(effects={"avg_gbc": 1.5})
    for size in ("0.5", " 1 ", b"1", True, None, Fraction(1, 2)):
        with pytest.raises(ValueError, match="not a number"):
            SynthSpec(effects={"avg_gbc": size})
    assert SynthSpec(effects={"avg_gbc": 1, "awvci": 0.5}).any_effect()


def test_an_effect_is_read_by_its_metric_name():
    spec = SynthSpec(effects={"oscillation_sum": 0.8})
    assert spec.effect("oscillation_sum") == 0.8
    assert spec.effect("avg_gbc") == 0.0
    assert spec.any_effect()


#: SHA-256 of each file ``write_outputs`` writes for a 15-month spec whose
#: hierarchical teams run the weekly core sync across the end of 2012.
_YEAR_BOUNDARY_DIGESTS = {
    "mail/team01.csv": "30dd9fb364d64c89c042140acd0c3871959288cee2724b31e772ce7212233700",
    "mail/team02.csv": "8eacd532a1d8149a86980bf875374220c7dfc6e070b5fd554ff882b2b785425e",
    "mail/team03.csv": "faec6a6baac0eb970f4880ba1efec2c809c0abd20c6e05d7c9d1533c04d0a54f",
    "survey.csv": "19096bffa1e01cc5b7f07ebb55ff6a3366e747cf2031e34036e98e6ee8b56d0f",
    "synth_manifest.json": "8c362f750c0cdf2fbd512c4bc909975b57724b9d3c6bfceb2be0e1c6a5e5617d",
}


def test_a_spec_across_a_year_boundary_writes_its_pinned_bytes(tmp_path):
    """Any slip in the months and weeks the generator lays mail over changes
    these bytes."""
    write_outputs(SynthSpec(teams=3, months=15, seed=3, effects=planted_effects()), tmp_path)
    written = {path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.rglob("*")) if path.is_file()}
    assert written == _YEAR_BOUNDARY_DIGESTS


def test_manifest_records_the_generator_inputs(tmp_path):
    spec = SynthSpec(teams=2, months=1, seed=9, effects={"art_median": 0.4})
    write_outputs(spec, tmp_path)
    manifest = json.loads((tmp_path / "synth_manifest.json").read_text())
    assert manifest["seed"] == 9
    assert manifest["effects"] == {"art_median": 0.4}
    assert manifest["period"] == {"start": "2012-06-01T00:00:00Z",
                                  "end": "2012-07-01T00:00:00Z"}
    assert set(manifest["events"]) == {"team01", "team02"}


def test_a_long_team_holds_little_beyond_its_events():
    """Staffing is walked month by month, never stored: with one message a
    month the pool grows every month, and copies of it per month would cost
    more than the events themselves (a peak over twice their size at 600
    months, against about 1.4 times with the walk)."""
    spec = SynthSpec(teams=2, months=600, actors=10, messages_per_month=1, seed=1)
    tracemalloc.start()
    try:
        events = generate_team_events(spec, 0)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(events) > 16_000
    assert peak < 1.75 * held, (peak, held)
