"""Whole-file CSV reading and writing on column arrays.

``read_table`` splits a file's text into lines once and parses them into
typed columns, keeping the line and reason of its first malformed row;
``write_rows`` writes text columns in the csv module's default dialect (CRLF
line ends, minimal quoting), byte-identical to a row-by-row ``csv.writer``
loop. ``read_json`` reads the JSON inputs with the same line-numbered errors.
``vocabulary`` and ``code_index`` turn code columns into int32 indices through
one int64 key per code and one ``np.unique`` pass.
"""
from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParseError

_DTYPE = {int: "i8", float: "f8"}
_TEXT_WIDTH = 16  # longest text field the array parser takes
_SPACES = " \t\x0b\x0c\x1c\x1d\x1e\x1f"  # ASCII whitespace str.strip drops, line ends aside
_WRITE_CHUNK = 1 << 16


@dataclass
class Table:
    """Typed columns of a CSV file's data rows, cut before the first malformed row.

    ``line`` holds each row's line number (the header is line 1). A row with
    the wrong field count or an unparseable number is held back as
    ``pending`` (line, reason), so that ``check`` can still report an
    earlier row that fails one of the caller's own tests. ``raw_line(n)``
    gives line n as the csv module reads it: its fields joined by commas.
    """

    path: str
    columns: dict
    line: np.ndarray
    pending: tuple | None
    raw_line: object

    def __getitem__(self, name):
        return self.columns[name]

    def __len__(self):
        return self.line.size

    def check(self, *tests):
        """Raise ParseError at the first row failing a test, else at the pending row.

        ``tests`` are (mask, reason) pairs in the order they apply within a
        row; ``reason(i)`` words the failure of row i.
        """
        limit, failed = len(self), None
        for mask, reason in tests:
            hits = np.flatnonzero(mask[:limit])
            if hits.size:
                limit, failed = int(hits[0]), reason
        if failed is not None:
            raise ParseError(self.path, int(self.line[limit]), failed(limit))
        if self.pending:
            raise ParseError(self.path, *self.pending)

    def raw(self, rows):
        """Text of the given rows as the csv module reads them."""
        return [self.raw_line(int(self.line[i])) for i in rows]


def read_table(path, fields, numeric=(), exact=True):
    """Parse a CSV file with a header line into a Table.

    ``fields`` maps each Table column name to its header name (a sequence
    of names maps each to itself). With ``exact`` the stripped header must
    equal those names in order; otherwise it must contain them and may hold
    others. ``numeric`` maps Table names to ``int`` or ``float``, in the
    order their parse failures take precedence within a row; other columns
    are text with surrounding whitespace stripped. Blank lines are skipped
    but counted.

    The text is split at its line feeds once. The header is the first line,
    and the list of lines goes to ``np.loadtxt``, which accepts a strict
    subset of what Python's int and float accept and gives the same values,
    and refuses a CR anywhere but at the end of a line. A file with a quote,
    a blank line before its last row or a text field of 16 characters or
    more goes to the csv module and Python's int and float instead, as does
    any file ``np.loadtxt`` refuses; they find the exact line and reason of
    a malformed row.
    """
    path = str(path)
    fields = fields if isinstance(fields, dict) else dict(zip(fields, fields))
    text = _read_text(path)
    if not text:
        raise ParseError(path, 1, "empty file, header required")
    lines = text.split("\n")
    first = lines[0].removesuffix("\r")
    plain = '"' not in text and "\r" not in first
    if plain:
        header = first.split(",") if first else []
    else:
        header = next(csv.reader(io.StringIO(text, newline="")))
    header = [h.strip() for h in header]
    if exact and header != list(fields.values()):
        raise ParseError(path, 1, f"expected header {','.join(fields.values())}")
    for name, column in fields.items():
        if column not in header:
            raise ParseError(path, 1, f"missing column '{column}' for field '{name}'")
    position = {name: header.index(column) for name, column in fields.items()}
    numbers = [(position[name], name, kind) for name, kind in dict(numeric).items()]
    columns, line, pending, raw = ((plain and _read_array(text, lines, len(header), numbers))
                                   or _read_records(text, len(header), numbers))
    return Table(path, {name: columns[i] for name, i in position.items()}, line, pending, raw)


def _read_array(text, lines, width, numbers):
    """np.loadtxt parse of the lines, or None where it could differ from the csv module."""
    kinds = {j: kind for j, _, kind in numbers}
    dtype = [(f"c{j}", _DTYPE[kinds[j]] if j in kinds else f"U{_TEXT_WIDTH}")
             for j in range(width)]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a header-only file is "empty input"
            parsed = np.loadtxt(lines, dtype=dtype, delimiter=",", skiprows=1, comments=None,
                                ndmin=1)
    except ValueError:
        return None
    if parsed.size != len(lines) - 1 - (lines[-1] == ""):
        return None  # blank lines moved the line numbers
    # an ASCII text without _SPACES has no field to strip
    spaced = not text.isascii() or any(ch in text for ch in _SPACES)
    columns = []
    for j in range(width):
        column = parsed[f"c{j}"]
        if j not in kinds:
            longest = int(np.strings.str_len(column).max(initial=1))
            if longest >= _TEXT_WIDTH:
                return None  # possibly cut at the field width
            column = np.strings.strip(column) if spaced else column
        columns.append(np.ascontiguousarray(column, dtype=None if j in kinds else f"U{longest}"))
    return columns, np.arange(2, parsed.size + 2), None, \
        lambda line_no: lines[line_no - 1].removesuffix("\r")


def _read_records(text, width, numbers):
    """csv module parse with Python's int and float."""
    records = list(csv.reader(io.StringIO(text, newline="")))
    keep = [i for i in range(1, len(records)) if records[i]]
    pending = None
    for n, i in enumerate(keep):
        if len(records[i]) != width:
            pending = (i + 1, f"expected {width} fields, got {len(records[i])}")
            del keep[n:]
            break
    fields = list(zip(*(records[i] for i in keep))) or [()] * width
    values = {}
    for j, name, kind in numbers:
        values[j] = []
        try:
            for field in fields[j][:len(keep)]:
                values[j].append(kind(field))
        except ValueError:
            n = len(values[j])
            pending = (keep[n] + 1, f"unparseable {name} '{fields[j][n].strip()}'")
            del keep[n:]
    n = len(keep)
    kinds = {j: kind for j, _, kind in numbers}
    columns = [np.array(values[j][:n], dtype=_DTYPE[kinds[j]]) if j in kinds
               else np.array([f.strip() for f in fields[j][:n]], dtype=str)
               for j in range(width)]
    return columns, np.array(keep, dtype=np.int64) + 1, pending, \
        lambda line_no: ",".join(records[line_no - 1])


def read_json(path):
    """Parse a JSON file; malformed JSON raises ParseError at its line."""
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, exc.msg) from None


def _read_text(path):
    """A file's UTF-8 text, a leading byte-order mark dropped; any other
    byte that is not UTF-8 raises ParseError at its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object is the text after the mark
        raise ParseError(path, exc.object.count(b"\n", 0, exc.start) + 1,
                         "not UTF-8 text") from None


def write_rows(path, header, columns):
    """Write a header line and rows built from equal-length text columns.

    Header names are quoted here; column text must come quoted already
    (``quoted``, ``code_text``) where it can hold a comma, quote or line end.
    """
    n = len(columns[0]) if columns else 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(quoted(header)) + "\r\n")
        for lo in range(0, n, _WRITE_CHUNK):
            chunk = [c[lo:lo + _WRITE_CHUNK] for c in columns]
            fh.write("\r\n".join(map(",".join, zip(*chunk))) + "\r\n")


def float_text(values):
    """Shortest round-trip text of each value, as ``repr(float)`` gives it."""
    return list(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def quoted(texts):
    """Each text quoted where csv.writer would quote it."""
    return ['"' + t.replace('"', '""') + '"' if any(ch in t for ch in ',"\r\n') else t
            for t in texts]


def code_text(vocab, index):
    """Quoted text of vocab[index] for each index."""
    return np.array(quoted(vocab), dtype=object)[np.asarray(index)]


def vocabulary(*columns):
    """Sorted distinct codes over text columns, and each column's int32 indices."""
    codes, index = _distinct_codes(np.concatenate([np.asarray(c, dtype=str) for c in columns]))
    ends = np.cumsum([len(c) for c in columns[:-1]])
    return tuple(codes), np.split(index.astype(np.int32), ends)


def code_index(vocab, codes):
    """Index of each code in a vocabulary (in any order), -1 for unknown codes."""
    found, index = _distinct_codes(np.asarray(codes, dtype=str))
    position = {code: i for i, code in enumerate(vocab)}
    return np.array([position.get(code, -1) for code in found], dtype=np.int32)[index]


def _distinct_codes(codes):
    """Sorted distinct codes of a text array, as a list, and each code's index in it.

    A code is packed into one int64 key, its characters big-end first, so the
    keys sort like the codes, about three times as fast as the text sorts;
    codes too wide for that are sorted as text.
    """
    width = codes.dtype.itemsize // 4
    chars = np.ascontiguousarray(codes).view(np.uint32).reshape(codes.size, width)
    bits = int(chars.max(initial=0)).bit_length()
    if bits * width > 63:
        text, index = np.unique(codes, return_inverse=True)
        return text.tolist(), index
    key = np.zeros(codes.size, dtype=np.int64)
    for j in range(width):
        key <<= bits
        key |= chars[:, j]
    keys, index = np.unique(key, return_inverse=True)
    shifts = bits * np.arange(width - 1, -1, -1)
    chars = ((keys[:, None] >> shifts) & ((1 << bits) - 1)).astype(np.uint32)
    return chars.view(f"U{width}").ravel().tolist(), index


def ascending(key):
    """Whether the keys rise strictly: already sorted, and no key repeats."""
    return bool(np.all(key[1:] > key[:-1]))


def repeats(key):
    """Mask of rows whose key already appeared on an earlier row."""
    seen = np.zeros(key.size, dtype=bool)
    if not ascending(key):
        order = np.argsort(key, kind="stable")
        seen[order[1:]] = key[order[1:]] == key[order[:-1]]
    return seen
