"""CSV reading and writing on column arrays, one block of lines at a time.

``read_table`` parses a file's data rows into typed columns, keeping the line
and reason of its first malformed row. It reads the file in blocks of whole
lines (``_READ_BLOCK`` bytes, cut at the last line feed) and hands each block
to ``np.loadtxt``, so a read holds the columns it returns and about one
block, never the file's text or a record array of all its rows; a file the
array parser could read differently from the csv module is read whole by the
csv module instead. ``write_rows`` writes rows in the csv module's default
dialect (CRLF line ends, minimal quoting), byte-identical to a row-by-row
``csv.writer`` loop, formatting ``_ROW_BLOCK`` rows at a time from typed
columns. ``read_json`` reads the JSON inputs with the same line-numbered
errors. ``vocabulary`` and ``code_index`` turn code columns into int32 indices
through one int64 key per code, ``_ROW_BLOCK`` rows at a time.
"""
from __future__ import annotations

import bisect
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
_READ_BLOCK = 1 << 18  # bytes of whole lines parsed at a time
_ROW_BLOCK = 1 << 14  # rows formatted and written, or keyed, at a time


@dataclass
class Table:
    """Typed columns of a CSV file's data rows, cut before the first malformed row.

    ``line`` holds each row's line number (the header is line 1), a range when
    the rows are lines 2 onward. A row with the wrong field count or an
    unparseable number is held back as ``pending`` (line, reason), so that
    ``check`` can still report an earlier row that fails one of the caller's
    own tests. ``raw_lines(ns)`` gives each line n of ns as the csv module
    reads it: its fields joined by commas.
    """

    path: str
    columns: dict
    line: object
    pending: tuple | None
    raw_lines: object

    def __getitem__(self, name):
        return self.columns[name]

    def __len__(self):
        return len(self.line)

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
        return self.raw_lines([int(self.line[i]) for i in rows])


def read_table(path, fields, numeric=(), exact=True):
    """Parse a CSV file with a header line into a Table.

    ``fields`` maps each Table column name to its header name (a sequence
    of names maps each to itself). With ``exact`` the stripped header must
    equal those names in order; otherwise it must contain them and may hold
    others. ``numeric`` maps Table names to ``int`` or ``float``, in the
    order their parse failures take precedence within a row; other columns
    are text with surrounding whitespace stripped. Blank lines are skipped
    but counted. A byte that is not UTF-8 is reported at its line before any
    other fault of the file.

    The header is the first line. The data lines go to ``np.loadtxt`` one
    block at a time; it accepts a strict subset of what Python's int and
    float accept, gives the same values, and refuses a CR anywhere but at
    the end of a line. Each block keeps only the Table's columns, text
    columns stripped and cut to their longest field, so a read holds the
    columns it returns, one block of lines and its parse. A file with a
    quote, a blank line before its last row or a text field of 16 characters
    or more goes whole to the csv module and Python's int and float instead,
    as does any file with a block ``np.loadtxt`` refuses; they find the exact
    line and reason of a malformed row. ``Table.raw`` of a block-read file
    reads the lines it is asked for again.
    """
    path = str(path)
    fields = fields if isinstance(fields, dict) else dict(zip(fields, fields))
    with open(path, "rb") as fh:
        first = _decode(fh.readline(), path, 1, "utf-8-sig")
        if not first:
            raise ParseError(path, 1, "empty file, header required")
        first = first.removesuffix("\n").removesuffix("\r")
        plain = '"' not in first and "\r" not in first
        text = None if plain else _read_text(path)
        header = ((first.split(",") if first else []) if plain else next(_csv_records(path, text)))
        header = [h.strip() for h in header]
        if plain and ((exact and header != list(fields.values()))
                      or not set(fields.values()) <= set(header)):
            _read_text(path)  # a byte that is not UTF-8 is reported before the header
        if exact and header != list(fields.values()):
            raise ParseError(path, 1, f"expected header {','.join(fields.values())}")
        for name, column in fields.items():
            if column not in header:
                raise ParseError(path, 1, f"missing column '{column}' for field '{name}'")
        position = {name: header.index(column) for name, column in fields.items()}
        numbers = [(position[name], name, kind) for name, kind in dict(numeric).items()]
        parsed = plain and _read_array(fh, path, len(header), numbers, set(position.values()))
    columns, line, pending, raw = parsed or _read_records(path, text or _read_text(path),
                                                          len(header), numbers)
    return Table(path, {name: columns[i] for name, i in position.items()}, line, pending, raw)


def _read_array(fh, path, width, numbers, keep):
    """np.loadtxt parse of the data lines left in fh, one block at a time, or None where
    it could differ from the csv module. Only the columns in ``keep`` are returned."""
    kinds = {j: kind for j, _, kind in numbers}
    dtype = [(f"c{j}", _DTYPE[kinds[j]] if j in kinds else f"U{_TEXT_WIDTH}")
             for j in range(width)]
    parts, n = {j: [] for j in keep}, 0
    for _, text in _blocks(fh, path, 2):
        if '"' in text:
            return None
        lines = text.split("\n")
        if not lines[-1]:
            lines.pop()  # the last line's end
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a block of blank lines is "empty input"
                parsed = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except ValueError:
            return None
        if parsed.size != len(lines):
            return None  # blank lines moved the line numbers
        n += parsed.size
        # an ASCII text without _SPACES has no field to strip
        spaced = not text.isascii() or any(ch in text for ch in _SPACES)
        del text, lines
        for j in keep:
            column = parsed[f"c{j}"]
            if j not in kinds:
                longest = int(np.strings.str_len(column).max())
                if longest >= _TEXT_WIDTH:
                    return None  # possibly cut at the field width
                if spaced:
                    column = np.strings.strip(column)
                    longest = int(np.strings.str_len(column).max())
                column = column.astype(f"U{max(longest, 1)}")
            parts[j].append(np.ascontiguousarray(column))
    columns = {}
    for j in keep:
        empty = np.empty(0, dtype=_DTYPE[kinds[j]] if j in kinds else "U1")
        columns[j] = np.concatenate(parts.pop(j) or [empty])
    return columns, range(2, n + 2), None, lambda numbers: _read_lines(path, numbers)


def _blocks(fh, path, line_no):
    """(first line number, text) of each block of whole lines left in a binary file,
    line_no being the number of its next line. Blocks are cut at the last line feed
    of each _READ_BLOCK bytes; a longer line makes one block."""
    rest = []
    while chunk := fh.read(_READ_BLOCK):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            block = b"".join(rest + [chunk[:cut]])
            rest = []
            yield line_no, _decode(block, path, line_no)
            line_no += block.count(b"\n")
        rest.append(chunk[cut:])
    block = b"".join(rest)
    if block:
        yield line_no, _decode(block, path, line_no)


def _read_lines(path, numbers):
    """Line n of a file, without its line end, for each n in numbers (2 or more)."""
    wanted, found = sorted(set(numbers)), {}
    with open(path, "rb") as fh:
        fh.readline()
        for line_no, text in _blocks(fh, path, 2):
            if len(found) == len(wanted):
                break
            lines = text.split("\n")
            end = line_no + len(lines) - (not lines[-1])
            for n in wanted[len(found):bisect.bisect_left(wanted, end)]:
                found[n] = lines[n - line_no].removesuffix("\r")
    return [found[n] for n in numbers]


def _csv_records(path, text):
    """The csv module's records of text; one it refuses raises ParseError at its first line."""
    reader, line = csv.reader(io.StringIO(text, newline="")), 1
    try:
        for record in reader:
            yield record
            line = reader.line_num + 1
    except csv.Error as exc:  # a field over the csv module's size limit
        raise ParseError(path, line, str(exc)) from None


def _read_records(path, text, width, numbers):
    """csv module parse with Python's int and float."""
    records = list(_csv_records(path, text))
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
        lambda numbers: [",".join(records[n - 1]) for n in numbers]


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
        return _decode(fh.read(), path, 1, "utf-8-sig")


def _decode(data, path, line_no, encoding="utf-8"):
    """The text of bytes that start at line line_no of a file; a byte that is not
    UTF-8 raises ParseError at its line."""
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:  # exc.object is the bytes after any mark
        raise ParseError(path, line_no + exc.object.count(b"\n", 0, exc.start),
                         "not UTF-8 text") from None


@dataclass(frozen=True)
class Column:
    """A column written from typed values: ``text(values[lo:hi])`` is the text of
    rows lo to hi."""

    text: object
    values: object

    def __len__(self):
        return len(self.values)


def floats(values):
    """A column of floats at round-trip precision."""
    return Column(float_text, np.asarray(values, dtype=np.float64))


def codes(vocab, index):
    """A column of the codes vocab[index], quoted where csv.writer would quote them."""
    return Column(np.array(quoted(vocab), dtype=object).__getitem__, np.asarray(index))


def repeated(text, n):
    """A column of n rows that all read text."""
    return Column(lambda rows: [text] * len(rows), range(n))


def write_rows(path, header, parts):
    """Write a header line, then the rows of each part in turn.

    A part is a list of equal-length columns: sequences of text, or Columns,
    whose text is formatted ``_ROW_BLOCK`` rows at a time, so that no
    column of a Column is ever held as text. Header names are quoted here;
    a text sequence must come quoted already (``quoted``) where it can hold
    a comma, quote or line end.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(quoted(header)) + "\r\n")
        for columns in parts:
            n = len(columns[0]) if columns else 0
            for lo in range(0, n, _ROW_BLOCK):
                block = [c.text(c.values[lo:lo + _ROW_BLOCK]) if isinstance(c, Column)
                         else c[lo:lo + _ROW_BLOCK] for c in columns]
                fh.write("\r\n".join(map(",".join, zip(*block))) + "\r\n")
            columns = block = None  # a generator's next part replaces this one, not joins it


def float_text(values):
    """Shortest round-trip text of each value, as ``repr(float)`` gives it."""
    return list(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def quoted(texts):
    """Each text quoted where csv.writer would quote it."""
    return ['"' + t.replace('"', '""') + '"' if any(ch in t for ch in ',"\r\n') else t
            for t in texts]


def vocabulary(*columns):
    """Sorted distinct codes over text columns, and each column's int32 indices.

    Each block of ``_ROW_BLOCK`` rows is keyed and made distinct on its own,
    and the blocks' distinct keys merge into the vocabulary, so the work holds
    the indices and about one block's keys.
    """
    columns = [np.asarray(c, dtype=str) for c in columns]
    form = _key_form(*columns)
    blocks = []  # (column, first row, the block's distinct keys, each row's place in them)
    for j, c in enumerate(columns):
        for lo in range(0, c.size, _ROW_BLOCK):
            key, at = np.unique(_keys(c[lo:lo + _ROW_BLOCK], *form), return_inverse=True)
            blocks.append((j, lo, key, at.astype(np.int32)))
    keys = np.unique(np.concatenate([_keys(c[:0], *form) for c in columns]
                                    + [key for _, _, key, _ in blocks]))
    index = [np.empty(c.size, dtype=np.int32) for c in columns]
    for j, lo, key, at in blocks:
        index[j][lo:lo + at.size] = np.searchsorted(keys, key)[at]
    return tuple(_codes_of(keys, *form)), index


def code_index(vocab, codes):
    """Index of each code in a vocabulary (in any order), -1 for unknown codes."""
    codes, vocab = np.asarray(codes, dtype=str), np.array(vocab, dtype=str)
    form = _key_form(codes, vocab)
    keys = _keys(vocab, *form)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    index = np.full(codes.size, -1, dtype=np.int32)
    for lo in range(0, codes.size, _ROW_BLOCK):
        found, at = lookup(keys, _keys(codes[lo:lo + _ROW_BLOCK], *form))
        index[lo:lo + _ROW_BLOCK][found] = order[at[found]]
    return index


def _key_form(*columns):
    """(width, bits) that pack every code of the text columns into one int64 key,
    ``bits`` a character, or bits 0 where a code does not fit in 63 bits."""
    width = max(c.dtype.itemsize // 4 for c in columns)
    bits = max(int(np.ascontiguousarray(c).view(np.uint32).max(initial=0)).bit_length()
               for c in columns)
    return width, bits if bits * width <= 63 else 0


def _keys(codes, width, bits):
    """Keys that sort like the codes: their characters packed big-end first into
    one int64, about three times as fast to sort as the text, or the text itself
    where ``bits`` is 0."""
    codes = codes.astype(f"U{width}", copy=False)
    if not bits:
        return codes
    chars = np.ascontiguousarray(codes).view(np.uint32).reshape(codes.size, width)
    key = np.zeros(codes.size, dtype=np.int64)
    for j in range(width):
        key <<= bits
        key |= chars[:, j]
    return key


def _codes_of(keys, width, bits):
    """The codes that ``_keys`` packed, as a list."""
    if not bits:
        return keys.tolist()
    shifts = bits * np.arange(width - 1, -1, -1)
    chars = ((keys[:, None] >> shifts) & ((1 << bits) - 1)).astype(np.uint32)
    return chars.view(f"U{width}").ravel().tolist()


def lookup(sorted_keys, keys):
    """Where each key sits in an ascending key array: (found mask, index or 0)."""
    pos = np.searchsorted(sorted_keys, keys)
    # a key past the last one reads the last one, which differs from it
    found = (sorted_keys.take(pos, mode="clip") == keys) if sorted_keys.size else pos < 0
    pos *= found
    return found, pos


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
