"""The one file layer behind every format of the package: CSV tables and JSON outputs.

Each table is a header row naming its columns, then one row per record; the
rules all tables share are stated once in the README's "File formats".
A table without a quote, whose rows are all as long as its header, is taken
apart by one split at its commas, the whole file decoded at once; any other
is read by csv.reader. Either way it is read as columns, each converted in
one pass; only a column that fails sends the reader back over the rows, in
file order, for the first bad row and that row's first bad column.

Writing mirrors reading: a table is formatted as text in one pass and
written at once; only a table with a cell that csv must quote, or a row not
as long as its header, is written by csv.writer.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import operator

from .errors import ParseError

_NOT_COMMA_CR_LF = bytes(set(range(256)) - set(b",\r\n"))   # deleted by the split path's row check


class Record:
    """A record: equality, hash and repr over the fields named in _fields."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


def read_csv(path, required: dict, optional: dict | None = None, rule=None) -> list[list]:
    """Columns of a CSV table, required then optional, one value per row.

    required and optional map column names to float, int or str. Text is
    stripped, floats must be finite, and a blank optional cell, or every
    cell of an absent optional column, is None. Any failure is a ParseError
    at its line. rule, a reader's own check of its rows, is called with the
    columns of the rows before the table's first failure, and raises the
    ParseError of the first row it refuses (see row_error): the error is
    always the first problem in file order.
    """
    optional = optional or {}
    data, text, failure = _text(path)
    split = failure is None and _split(data, required)
    header, cells = split or ([], [])
    if not split:   # csv.reader's rows, then columns
        rows, reader = [], csv.reader(text)
        try:
            header = next(reader, None)
            if failure and reader.line_num >= failure.line:   # a byte of the header is not UTF-8
                raise failure
            header = [cell.strip() for cell in header or ()]
            missing = [name for name in required if name not in header]
            if missing:
                wanted = ",".join(required) + "".join(f"[,{n}]" for n in optional)
                raise ParseError(path, 1, f"expected header {wanted}; "
                                          f"missing {','.join(missing)}")
            # the rows before a malformed line, and those ending before a byte not UTF-8
            rows.extend(filter(None, reader) if failure is None else itertools.takewhile(
                lambda row: reader.line_num < failure.line, filter(None, reader)))
        except csv.Error as exc:
            if failure is None or reader.line_num < failure.line:
                failure = ParseError(path, reader.line_num, f"malformed CSV: {exc}")
        # past a short row's end cells read blank; cells past the header are never read
        cells = list(itertools.zip_longest(*rows, fillvalue=""))
        cells += [("",) * len(rows)] * (len(header) - len(cells))
    columns = [(name, header.index(name), kind, name in optional)
               for name, kind in [*required.items(), *optional.items()] if name in header]
    count = len(cells[0]) if cells else 0
    try:
        values = _convert(cells, columns)
    except ValueError:   # the rows before the first bad cell convert
        count, message = _first_bad_cell(cells, columns)
        failure = row_error(path, count, message)
        values = _convert([column[:count] for column in cells], columns)
    table = [values[name] if name in values else [None] * count
             for name in [*required, *optional]]
    if rule:
        rule(*table)
    if failure:   # the first bad cell or row, or a malformed or undecodable line
        raise failure
    return table


def _split(data: bytes, required) -> tuple[list, list] | None:
    """The header and the cells, column by column, of a UTF-8 table; None unless
    csv.reader would read the same: no quote, NUL or line past csv's field
    limit, every required column, and rows, each as long as the header."""
    lines = data.splitlines()   # split where csv splits: \r, \n and \r\n
    if not lines or b'"' in data or b"\0" in data or max(map(len, lines)) > csv.field_size_limit():
        return None
    header = [cell.strip() for cell in lines[0].decode().split(",")]
    rows, commas = list(filter(None, lines[1:])), b"," * (len(header) - 1)
    # all but commas and line ends deleted: the same lines, each not blank the header's commas
    if (not rows or any(name not in header for name in required)
            or data.translate(None, _NOT_COMMA_CR_LF).splitlines()
            != [commas if line else b"" for line in lines]):
        return None
    text = b",".join(rows).decode()
    del lines, rows   # a lower peak of memory: the lines go before the text is split
    cells = text.split(",")
    return header, [cells[index::len(header)] for index in range(len(header))]


def _convert(cells, columns) -> dict:
    """Each named column converted in one pass; ValueError if any cell fails."""
    return {name: _column(cells[index], kind, blank_ok) for name, index, kind, blank_ok in columns}


def _column(cells, kind, blank_ok: bool) -> list:
    """One column converted in one pass; ValueError if any cell fails."""
    if blank_ok and "" in cells:
        converted = iter(_column(filter(None, cells), kind, False))
        return [next(converted) if cell else None for cell in cells]
    values = list(map(str.strip if kind is str else kind, cells))
    if kind is float and not all(map(math.isfinite, values)):
        raise ValueError("non-finite number")
    return values


def _first_bad_cell(cells, columns) -> tuple[int, str]:
    """Index of the first row, in file order, with a cell that does not
    convert, and a message naming that row's first such column."""
    for index in range(len(cells[0])):
        for name, column, kind, blank_ok in columns:
            cell = cells[column][index]
            if blank_ok and cell == "":
                continue
            try:
                (finite_float if kind is float else kind)(cell)
            except ValueError as exc:
                return index, f"bad {name}: {exc}"


def finite_float(value) -> float:
    """value as a float, which must be finite: the rule for every number read."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"non-finite number {value!r}")
    return number


def _text(path) -> tuple[bytes, io.TextIOWrapper, ParseError | None]:
    """A file's bytes, less a leading UTF-8 byte order mark, which holds no line
    end; its text for csv.reader, decoded as UTF-8 whatever the locale, a chunk
    at a time (io.StringIO would hold the whole file at 4 bytes a character; the
    split path decodes the whole file at once), with U+FFFD for a byte that is
    not UTF-8; and a ParseError at the first such byte, or None."""
    with open(path, "rb") as f:
        data = f.read().removeprefix(b"\xef\xbb\xbf")
    failure = None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:   # bytes.splitlines ends lines where csv does
        failure = ParseError(path, len(data[:exc.start + 1].splitlines()),
                             f"not a text file: {exc}")
    return data, io.TextIOWrapper(io.BytesIO(data), "utf-8", "replace", newline=""), failure


def row_error(path, index: int, message: str) -> ParseError:
    """ParseError at the line on which row index (from 0, past the header and
    blank lines) of a CSV table ends."""
    reader = csv.reader(_text(path)[1])
    next(itertools.islice(filter(None, reader), index + 1, None))
    return ParseError(path, reader.line_num, message)


def write_csv(path, header: list[str], rows, formats: list[str] | None = None) -> None:
    """Write a header row, then the rows, in UTF-8, byte for byte as csv.writer
    writes them once each cell is text by its column's %-format in formats (by
    default %s, csv.writer's own str: floats in full repr): None as a blank cell,
    a cell quoted exactly when it holds a comma, a double quote or a line end.
    The table is written at once, unless csv.writer would write it otherwise."""
    formats = formats or ["%s"] * len(header)
    rows = [tuple(header), *map(tuple, rows)]
    text = _format(rows, formats)
    with open(path, "w", encoding="utf-8", newline="") as f:
        if text is None:   # each cell of a formatted column as its text, None still blank
            csv.writer(f).writerows([rows[0], *(
                [cell if cell is None or form == "%s" else form % cell
                 for cell, form in itertools.zip_longest(row, formats[:len(row)], fillvalue="%s")]
                for row in rows[1:])])
        else:
            f.write(text)


def _format(rows: list[tuple], formats: list[str]) -> str | None:
    """The header by %s and each row by formats as text, None as a blank cell;
    None where csv.writer writes otherwise: a row not as wide as the header or a
    cell its format refuses, a one-column table (a lone empty cell is written ""),
    or a cell holding a comma, a quote, a line end or a NUL (which csv refuses
    before 3.11). The distinct cells of the text columns (those whose last cell is
    a str, as ids are) are checked first, so a table to quote is not formatted twice."""
    width = len(formats)
    try:
        texts = "".join(map(str, {cell for index, last in enumerate(rows[-1])
                                  if isinstance(last, str)
                                  for cell in set(map(operator.itemgetter(index), rows))}))
    except (IndexError, TypeError):   # a row shorter than the last, an unhashable cell
        return None
    if width < 2 or any(map(texts.__contains__, ',"\r\n\0')):
        return None
    plain, template = ",".join(["%s"] * width) + "\r\n", ",".join(formats) + "\r\n"
    try:
        lines = [plain % rows[0], *map(template.__mod__, rows[1:])]
    except TypeError:   # a row not as wide as the header, or a None in a formatted column
        return None
    text = "".join(lines)
    if "None" in text:   # the rows that may hold a None, again with "" for it
        for index in itertools.compress(itertools.count(), map(str.__contains__, lines,
                                                               itertools.repeat("None"))):
            lines[index] = (template if index else plain) % tuple(
                "" if cell is None else cell for cell in rows[index])
        text = "".join(lines)
    count = len(rows)
    # only the template's commas and line ends: no cell to quote
    if (text.count(",") == count * (width - 1) and '"' not in text
            and text.count("\r") == text.count("\n") == count and "\0" not in text):
        return text
    return None


def write_json(path, value) -> None:
    """Write value as JSON in UTF-8: keys sorted, indented by 2, a final newline; nan refused."""
    text = json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")
