"""Exception types shared across the package."""

from __future__ import annotations


class CommscoreError(Exception):
    """Base class for all errors raised by this package."""


class MalformedAddress(CommscoreError):
    """An e-mail address string has no extractable local@domain token."""


class FormatError(CommscoreError):
    """Input framing is unparseable (bad header row, broken mbox, ...)."""


class MalformedRecord(CommscoreError):
    """A single input record is invalid; carries its location."""

    def __init__(self, message: str, *, source: str = "", line: int = 0):
        self.source = source
        self.line = line
        where = f"{source or '<stream>'}:{line}" if line else (source or "<stream>")
        super().__init__(f"{where}: {message}")


class UnsupportedFormat(CommscoreError):
    """An unknown format name was requested."""


class InsufficientWindows(CommscoreError):
    """Not enough time windows for a windowed metric."""


class NoActivity(CommscoreError):
    """No message activity to compute from (sent + received = 0)."""


class NoResponses(CommscoreError):
    """A survey aggregate was requested over zero responses."""


class OutOfRange(CommscoreError):
    """A value lies outside its documented range."""


class DegenerateSeries(CommscoreError):
    """A series is constant or too short for correlation."""


class LengthMismatch(CommscoreError):
    """Paired series have different lengths."""


class DegenerateInput(CommscoreError):
    """A statistic was requested outside its defined domain."""


class CohortTooSmall(CommscoreError):
    """Too few teams for cohort standardization or correlation."""
