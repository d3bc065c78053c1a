"""Strict two-column CSV reading and writing.

Every series in the package moves through the same shape: a one-line
header naming the two columns, then one `x,y` row per line, decimal
point '.', rows terminated by '\\n'. Values are written with 12
significant digits, which gives the same bytes on every platform;
parsing returns the value rounded to 12 digits, not the float that was
written. Errors carry 1-based row and column positions.
"""

from __future__ import annotations

import math

from .errors import CsvFormatError

__all__ = ["finite_float", "parse_pairs", "format_pairs"]


def finite_float(text) -> float:
    """float(text), raising ValueError for anything but a finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def parse_pairs(text: str, expected_header: str) -> list[tuple[int, float, float]]:
    """Parse two-column CSV text into (row number, x, y) triples.

    The header row must match expected_header exactly and every cell
    must be a finite number. Row numbers are 1-based file line numbers
    (the header is row 1), kept so callers can locate their own
    validation errors.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise CsvFormatError(f"empty input: expected header {expected_header!r}")
    if lines[0] != expected_header:
        raise CsvFormatError(f"row 1: header must be exactly {expected_header!r}, got {lines[0]!r}")
    out = []
    for row, line in enumerate(lines[1:], 2):
        cells = line.split(",")
        if len(cells) != 2:
            raise CsvFormatError(f"row {row}: expected 2 columns, got {len(cells)}")
        values = []
        for col, cell in enumerate(cells, 1):
            try:
                values.append(finite_float(cell))
            except ValueError:
                raise CsvFormatError(f"row {row}, column {col}: {cell!r} is not a finite number") from None
        out.append((row, values[0], values[1]))
    return out


def format_pairs(pairs, header: str) -> str:
    """Render (x, y) pairs as CSV text under the given header."""
    lines = [header]
    lines.extend(f"{x:.12g},{y:.12g}" for x, y in pairs)
    return "\n".join(lines) + "\n"
