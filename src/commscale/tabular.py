"""Strict two-column CSV reading and writing.

Every series in the package moves through the same shape: a one-line
header naming the two columns, then one `x,y` row per line, decimal
point '.', rows terminated by '\\n'. Values are written with 12
significant digits, which gives the same bytes on every platform;
parsing returns the value rounded to 12 digits, not the float that was
written. Errors carry 1-based row and column positions.

Both directions take the two columns, not rows. Formatting writes all
rows by one '%' format over the interleaved cells. Parsing converts the
cells by one float() over all of them, checks them finite in one pass,
and reads only input that fails again row by row, to name the first bad
row and column, so it gives the values and messages of a row reader.
"""

from __future__ import annotations

import math
from itertools import repeat

from .errors import CsvFormatError, DomainError

__all__ = ["finite_float", "parse_pairs", "format_pairs"]


def finite_float(text) -> float:
    """float(text), raising ValueError for anything but a finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def parse_pairs(text: str, expected_header: str) -> tuple[list, list]:
    """Parse two-column CSV text into its x and y columns.

    The header row must match expected_header exactly and every cell
    must be a finite number. Index i of each column is row i + 2 of the
    file (the header is row 1), so callers can name the row of their own
    validation errors. All cells are converted in one pass; only when
    that pass fails does a row-by-row pass run, to name the first bad
    row and column.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise CsvFormatError(f"empty input: expected header {expected_header!r}")
    if lines[0] != expected_header:
        raise CsvFormatError(f"row 1: header must be exactly {expected_header!r}, got {lines[0]!r}")
    body = lines[1:]
    try:
        if set(map(str.count, body, repeat(","))) != {1}:
            raise ValueError("a row without exactly two cells")
        values = list(map(float, ",".join(body).split(",")))
        if not all(map(math.isfinite, values)):
            raise ValueError("a non-finite cell")
    except ValueError:
        values = _parse_rows(body)
    return values[0::2], values[1::2]


def _parse_rows(body: list) -> list:
    """Cells of the rows after the header, in file order; raises at the first bad row and column."""
    values = []
    for row, line in enumerate(body, 2):
        cells = line.split(",")
        if len(cells) != 2:
            raise CsvFormatError(f"row {row}: expected 2 columns, got {len(cells)}")
        for col, cell in enumerate(cells, 1):
            try:
                values.append(finite_float(cell))
            except ValueError:
                raise CsvFormatError(f"row {row}, column {col}: {cell!r} is not a finite number") from None
    return values


def format_pairs(xs, ys, header: str) -> str:
    """Render the x and y columns, of equal length, as CSV text under the given header.

    DomainError unless the columns are equal in length and every cell is
    a number that '%g' formats: no text, no int beyond the float range.
    """
    try:
        cells = [0.0] * (2 * len(xs))
        cells[0::2], cells[1::2] = xs, ys
        return header + "\n" + ("%.12g,%.12g\n" * len(xs)) % tuple(cells)
    except (TypeError, ValueError, OverflowError):
        raise DomainError("x and y columns must be equal in length and hold only numbers in the float range") from None
