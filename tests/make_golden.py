"""Regenerate the golden pipeline outputs for the bundled fixture.

Every byte written comes from ``oracles.metrics_csv`` and ``oracles.reports``,
which compose the reference implementations in oracles.py; this script only
reads the fixture and writes the files.  Neither imports the package under
test.  The acceptance suite then demands that the real pipeline reproduces
these files byte for byte.

Run from the repository root:  python3 tests/make_golden.py
"""

from __future__ import annotations

import sys
from collections import namedtuple
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402

TESTS = Path(__file__).resolve().parent
FIXTURE = TESTS / "data" / "fixture"
GOLDEN = TESTS / "data" / "golden"
LEXICON = TESTS.parent / "src" / "commscore" / "data" / "default_lexicon.txt"

PERIOD_START = datetime(2012, 6, 1, tzinfo=timezone.utc)
PERIOD_END = datetime(2012, 9, 1, tzinfo=timezone.utc)

Record = namedtuple("Record", "timestamp sender to cc subject team_id")


def make_event(stamp: datetime, sender: str, to: list[str], cc: list[str],
               subject: str, team: str) -> Record:
    """A plain mail record.  The fixture's addresses are already in normal
    form, so only repeats go: within ``to``, and from ``cc`` those in ``to``."""
    to = tuple(dict.fromkeys(to))
    return Record(stamp, sender, to, tuple(a for a in dict.fromkeys(cc) if a not in to),
                  subject, team)


def parse_timestamp(text: str) -> datetime:
    return oracles.utc_second(datetime.fromisoformat(text.replace("Z", "+00:00")))


def main() -> None:
    events = []
    for path in sorted((FIXTURE / "mail").glob("*.csv")):
        parsed, issues = oracles.reference_parse(path.read_bytes(), "csv", make_event,
                                                 parse_timestamp, default_team=path.stem,
                                                 source=path.name)
        if issues:
            sys.exit(f"malformed fixture records: {issues}")
        events += parsed
    metrics = oracles.metrics_csv(events, PERIOD_START, PERIOD_END, reply_cap=7 * 86400,
                                  oscillation_window="weekly", awvci_weighting="edges",
                                  emotionality_mode="cumulative", lexicon=LEXICON.read_bytes())
    correlation, scorecard = oracles.reports(metrics, (FIXTURE / "survey.csv").read_bytes(),
                                             eligibility_min=20, alert_sigma=1.0)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, blob in (("metrics.csv", metrics), ("correlation.csv", correlation),
                       ("scorecard.json", scorecard)):
        (GOLDEN / name).write_bytes(blob)
        print(f"wrote {GOLDEN / name}")


if __name__ == "__main__":
    main()
