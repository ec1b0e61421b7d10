"""Small deterministic text helpers shared by the file readers and writers."""

from __future__ import annotations

import csv
import io
from contextlib import suppress
from fractions import Fraction
from typing import BinaryIO, Iterator

from .errors import FormatError

_QUOTE_TRIGGERS = (",", ";", '"', "\n", "\r")


def csv_field(value: str) -> str:
    if any(ch in value for ch in _QUOTE_TRIGGERS):
        return '"' + value.replace('"', '""') + '"'
    return value


def csv_line(fields: list[str] | tuple[str, ...]) -> str:
    return ",".join(csv_field(f) for f in fields) + "\n"


def fmt6(value: float | Fraction | int | None) -> str:
    """Six-decimal cell; undefined values render as the empty field."""
    if value is None:
        return ""
    return f"{float(value):.6f}"


def fmt3(value: float | Fraction | int | None) -> str:
    if value is None:
        return ""
    return f"{float(value):.3f}"


def read_csv(source: BinaryIO, name: str,
             header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """``(line, row)`` pairs of the data rows of a UTF-8 CSV byte stream.

    The first row must equal ``header`` (cells stripped; a leading BOM is
    dropped).  A missing or different header, bytes that are not UTF-8 and
    broken CSV framing raise :class:`FormatError` naming ``name`` and the line.
    ``source`` is left open.
    """
    text = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
    reader = csv.reader(text)
    seen_header = False
    try:
        while True:
            try:
                row = next(reader)
            except StopIteration:
                if not seen_header:
                    raise FormatError(f"{name}: empty CSV (header row required)") from None
                return
            except csv.Error as exc:
                raise FormatError(f"{name}: line {reader.line_num}: {exc}") from None
            except UnicodeDecodeError as exc:
                raise FormatError(f"{name}: line {_undecodable_line(source)}: "
                                  f"not UTF-8 ({exc.reason})") from None
            if seen_header:
                yield reader.line_num, row
            elif tuple(cell.strip() for cell in row) == header:
                seen_header = True
            else:
                raise FormatError(f"{name}: bad header {row!r}, expected {','.join(header)}")
    finally:
        # a collected wrapper would close the caller's stream
        with suppress(ValueError):  # the caller closed it already
            text.detach()


def _undecodable_line(source: BinaryIO) -> int | str:
    """First line of ``source`` that is not UTF-8, found by reading it again.

    The text decoder reads ahead in blocks, so the CSV reader's own line count
    can lag behind the bad byte.
    """
    try:
        source.seek(0)
        for lineno, raw in enumerate(source, start=1):
            raw.decode("utf-8")
    except UnicodeDecodeError:
        return lineno
    except (OSError, ValueError):  # not seekable
        pass
    return "?"
