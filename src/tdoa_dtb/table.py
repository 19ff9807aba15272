"""The one CSV table layer behind every file format of the package.

Each format is a header row naming its columns, then one row per record; the
rules all formats share are stated once in the README's "File formats".
"""

from __future__ import annotations

import csv
import math

from .errors import ParseError


def _float(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {cell!r}")
    return value


_CONVERT = {float: _float, int: int, str: str.strip}


def read_csv(path, required: dict, optional: dict | None = None
             ) -> list[tuple[int, tuple]]:
    """Rows of a CSV table as (line, values) pairs, lines counted from 1.

    required and optional map column names to float, int or str; values come
    in that order. Text is stripped, floats must be finite, and a blank or
    absent optional cell is None. Any failure is a ParseError at its line.
    """
    optional = optional or {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader, None)
            missing = [name for name in required if header is None or name not in header]
            if missing:
                wanted = ",".join(required) + "".join(f"[,{n}]" for n in optional)
                raise ParseError(path, 1, f"expected header {wanted}; "
                                          f"missing {','.join(missing)}")
            # an absent optional column reads as the blank cell past the header
            columns = [(name, header.index(name) if name in header else len(header),
                        _CONVERT[kind], name in optional) for name, kind in
                       [*required.items(), *optional.items()]]
            width = max(index for _, index, _, _ in columns) + 1
            rows = []
            for row in reader:
                if not row:
                    continue
                if len(row) < width:
                    row += [""] * (width - len(row))
                try:
                    values = tuple([None if blank_ok and row[i] == "" else convert(row[i])
                                    for _, i, convert, blank_ok in columns])
                except ValueError:
                    raise _cell_error(path, reader.line_num, row, columns) from None
                rows.append((reader.line_num, values))
        except csv.Error as exc:
            raise ParseError(path, reader.line_num, f"malformed CSV: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(path, reader.line_num + 1, f"not a text file: {exc}") from None
    return rows


def _cell_error(path, line: int, row: list[str], columns) -> ParseError:
    """ParseError naming the first cell of a row that does not convert."""
    for name, index, convert, blank_ok in columns:
        try:
            if not (blank_ok and row[index] == ""):
                convert(row[index])
        except ValueError as exc:
            return ParseError(path, line, f"bad {name}: {exc}")
    return ParseError(path, line, "bad row")


def write_csv(path, header: list[str], rows) -> None:
    """Write a header row, then the rows: floats in full repr, None as a blank cell."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)
