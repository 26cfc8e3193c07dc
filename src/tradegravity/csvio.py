"""CSV reading and writing on column arrays, one block of lines at a time.

``read_table`` parses a file's data rows into typed columns, keeping the line
and reason of its first malformed row. It hands blocks of whole lines
(``_READ_BLOCK`` bytes, cut at the last line feed) to ``np.loadtxt``, or
streams a file the array parser could read differently through the csv
module (``_records``). A block's codes become int32 ids as it is parsed, by one
int64 key a code (``_index``), and integers take their narrowest type, so a
read holds its columns and about one block, never the file's text, a whole
text column or a list of its records. ``write_rows`` writes rows in the csv
module's default dialect (CRLF line ends, minimal quoting), byte-identical to
a row-by-row ``csv.writer`` loop, formatting ``_ROW_BLOCK`` rows at a time
from typed columns. ``read_json`` reads the JSON inputs with the same
line-numbered errors.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import warnings
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import ParseError

_DTYPE = {int: "i8", float: "f8"}
_TEXT_WIDTH = 16  # longest text field the array parser takes
_SPACES = " \t\x0b\x0c\x1c\x1d\x1e\x1f"  # ASCII whitespace str.strip drops, line ends aside
_READ_BLOCK = 1 << 18  # bytes of whole lines parsed at a time
_ROW_BLOCK = 1 << 14  # rows formatted and written at a time
_RECORD_BLOCK = 1 << 8  # csv records typed at a time; at 1 << 14 GC passes doubled the read


@dataclass
class Table:
    """Typed columns of a CSV file's data rows, cut before the first malformed row.

    A text column is its distinct codes, as a list, and each row's int32
    position in them; ``codes`` gives them sorted. ``line`` holds the line
    each row starts on (the header is line 1), a range when the rows are
    lines 2 onward. A row with the wrong field count or an unparseable number
    is held back as ``pending`` (line, reason), so that ``check`` can still
    report an earlier row that fails one of the caller's own tests.
    """

    path: str
    columns: dict
    line: object
    pending: tuple | None

    def __getitem__(self, name):
        return self.columns[name]

    def __len__(self):
        return len(self.line)

    def codes(self, *names):
        """One sorted vocabulary for the named text columns, and each column's int32
        index into it; the columns take that vocabulary, their indices rewritten in place."""
        vocab = sorted(set().union(*(self.columns[name][0] for name in names)))
        for name in names:  # a column named twice is remapped by its own codes, then vocab
            codes, index = self.columns[name]
            remap(index, positions(codes, vocab))
            codes[:] = vocab
        return (tuple(vocab), *(self.columns[name][1] for name in names))

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
        """Text of the given rows as the csv module reads them, their fields joined by
        commas. Where every CR ends a line, every record starts a line: a row's record is
        then the first of the text from its line to the next record's line, and only those
        lines are read again. Otherwise the file's records are read again up to the last
        row asked for."""
        wanted = sorted(set(rows := [int(i) for i in rows]))
        with open(self.path, "rb") as fh:  # a block-read file has a CR only at a line's end
            if isinstance(self.line, range) or all(
                    t.count("\r") == t.count("\r\n") for t in _blocks(fh, self.path, 1)):
                data, at, line = [], fh.seek(0) + 1, self.line  # at: the line fh reads next
                for i in wanted:
                    end = line[i + 1] if i + 1 < len(line) else (self.pending or (None,))[0]
                    data += itertools.islice(fh, int(line[i]) - at, end and int(end) - at)
                    at = end
                records = csv.reader(io.StringIO(b"".join(data).decode(), newline=""))
            else:  # the header, then row i as data record i
                fh.seek(0)
                records = map(itemgetter(1), _records(fh, self.path))
                wanted = range(-1, max(wanted, default=-2) + 1)
            text = dict(zip(wanted, filter(None, records)))
        return [",".join(text[i]) for i in rows]


def read_table(path, fields, numeric=(), exact=True):
    """Parse a CSV file with a header line into a Table.

    ``fields`` maps each Table column name to its header name (a sequence
    of names maps each to itself). With ``exact`` the stripped header must
    equal those names in order; otherwise it must contain them and may hold
    others. ``numeric`` maps Table names to ``int`` or ``float``, in the
    order their parse failures take precedence within a row, an int column
    in the narrowest type that holds it; other columns are codes, stripped
    of surrounding whitespace and read through ``Table.codes``. Blank lines
    are skipped but counted. A byte that is not UTF-8 is reported at its line
    before any other fault of the file.

    The header is the first line. The data lines go to ``np.loadtxt`` one
    block at a time; it accepts a strict subset of what Python's int and
    float accept, gives the same values, and refuses a CR anywhere but at
    the end of a line. Each block keeps only the Table's columns, its codes
    stripped and keyed. A file with a quote, a blank line before its last
    row or a text field of 16 characters or more streams through the csv
    module and Python's int and float instead, as does any file with a block
    ``np.loadtxt`` refuses, after a pass that only decodes it; a row's line is
    then the one its record starts on. Either way a read holds the columns it
    returns and about one block.
    """
    path = str(path)
    fields = fields if isinstance(fields, dict) else dict(zip(fields, fields))
    with open(path, "rb") as fh:
        first = _decode(fh.readline(), path, 1)
        if not first:
            raise ParseError(path, 1, "empty file, header required")
        first = first.removesuffix("\n").removesuffix("\r")
        plain = '"' not in first and "\r" not in first
        records = None if plain else _records(_decoded(fh, path), path)
        header = [h.strip() for h in (first.split(",") if plain else next(records)[1])]
        faults = [f"missing column '{column}' for field '{name}'"
                  for name, column in fields.items() if column not in header]
        if exact and header != list(fields.values()):
            faults = [f"expected header {','.join(fields.values())}"]
        if faults:
            if plain:  # a byte that is not UTF-8 is reported before the header
                _decoded(fh, path)
            raise ParseError(path, 1, faults[0])
        position = {name: header.index(column) for name, column in fields.items()}
        numbers = [(position[name], name, kind) for name, kind in dict(numeric).items()]
        keep, kinds = set(position.values()), {j: kind for j, _, kind in numbers}
        columns, line, pending = (plain and _read_array(fh, path, len(header), kinds, keep)) or \
            _read_records(records or itertools.islice(_records(_decoded(fh, path), path), 1, None),
                          len(header), numbers, kinds, keep)
    return Table(path, {name: columns[i] for name, i in position.items()}, line, pending)


def _read_array(fh, path, width, kinds, keep):
    """np.loadtxt parse of the data lines left in fh, one block at a time, or None where
    it could differ from the csv module: the columns in ``keep``, typed by ``kinds``."""
    dtype = [(f"c{j}", _DTYPE[kinds[j]] if j in kinds else f"U{_TEXT_WIDTH}")
             for j in range(width)]
    parts, ids, n = {j: [] for j in keep}, {j: {} for j in keep if j not in kinds}, 0
    for text in _blocks(fh, path, 2):
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
            if kinds.get(j) is int:
                column = _narrow(column)
            elif j not in kinds:
                longest = int(np.strings.str_len(column).max())
                if longest >= _TEXT_WIDTH:
                    return None  # possibly cut at the field width
                if spaced:
                    column = np.strings.strip(column)
                    longest = int(np.strings.str_len(column).max())
                column = _index(ids[j], column.astype(f"U{max(longest, 1)}"))
            parts[j].append(np.ascontiguousarray(column))
        del parsed, column  # before the next block is parsed
    return _joined(parts, ids, kinds), range(2, n + 2), None


def _read_records(records, width, numbers, kinds, keep):
    """The csv module's data records, blank lines aside, typed ``_RECORD_BLOCK`` at a time
    by Python's int and float and cut before the first with the wrong field count or an
    unparseable number: the columns in ``keep``, and the line each row starts on."""
    parts, ids = {j: [] for j in keep}, {j: {} for j in keep if j not in kinds}
    lines, pending, rows = [np.empty(0, np.int8)], None, filter(itemgetter(1), records)
    for batch in iter(lambda: list(itertools.islice(rows, _RECORD_BLOCK)), []):
        if pending:
            continue  # a later record the csv module refuses is still reported
        line, batch = zip(*batch)
        n = len(list(itertools.takewhile(width.__eq__, map(len, batch))))
        if n < len(batch):
            pending = (line[n], f"expected {width} fields, got {len(batch[n])}")
        fields = {j: list(map(str.strip, map(itemgetter(j), batch[:n]))) for j in keep}
        for j, name, kind in numbers:
            fields[j] = _numbers(fields[j][:n], kind)
            if kind is int:
                fields[j] = _narrow(fields[j])
            if fields[j].size < n:
                n = fields[j].size
                pending = (line[n], f"unparseable {name} '{batch[n][j].strip()}'")
        for j in keep:
            parts[j].append(fields[j][:n] if j in kinds else _ids(ids[j], fields[j][:n]))
        lines.append(_narrow(np.array(line[:n], dtype=np.int64)))
    return _joined(parts, ids, kinds), np.concatenate(lines), pending


def _narrow(column):
    """Integers in the narrowest signed type that holds them."""
    top = max(-int(column.min(initial=0)) - 1, int(column.max(initial=0)))
    return column.astype(np.min_scalar_type(-top - 1))


def _index(ids, column):
    """Each code of a text array as its int32 id in ids (``_ids``), made distinct by one int64
    key a code (its characters packed big-end first: a third of the text's sort time)."""
    width = column.dtype.itemsize // 4
    chars = np.ascontiguousarray(column).view(np.uint32).reshape(column.size, width)
    bits, key = int(chars.max(initial=0)).bit_length(), column
    if bits * width <= 63:
        key = np.zeros(column.size, dtype=np.int64)
        for j in range(width):
            key <<= bits
            key |= chars[:, j]
    key, at = np.unique(key, return_inverse=True)
    row = np.empty(key.size, dtype=np.intp)
    row[at] = np.arange(at.size)  # a row of each distinct code
    return _ids(ids, column[row].tolist())[at]


def _ids(ids, codes):
    """Each code's int32 id in ids, a dict a new code joins; trailing NULs drop, as in numpy."""
    return np.array([ids.setdefault(c.rstrip("\x00"), len(ids)) for c in codes], np.int32)


def _joined(parts, ids, kinds):
    """Each column's blocks joined in place, one column at a time, after an empty array of
    its narrowest type; a text column is (its codes in id order, each row's id)."""
    lead = {int: np.int8, float: np.float64}
    for j, blocks in parts.items():
        column = np.concatenate([np.empty(0, lead.get(kinds.get(j), np.int32))] + blocks)
        parts[j] = (list(ids[j]), column) if j in ids else column
    return parts


def _numbers(fields, kind):
    """Python's kind of each field as one array, cut before the first field that kind
    refuses or whose value does not fit in 64 bits."""
    for n in range(len(fields), -1, -1):  # all of them, else the longest head that converts
        try:
            return np.array(list(map(kind, fields[:n])), dtype=_DTYPE[kind])
        except (ValueError, OverflowError):
            pass


def _decoded(fh, path):
    """fh at its start after a pass that only decodes it, so that a byte that is not
    UTF-8 is reported before any other fault of the file."""
    fh.seek(0)
    for _ in _blocks(fh, path, 1):
        pass
    fh.seek(0)
    return fh


def _records(fh, path):
    """(line, fields) of each record the csv module reads from a binary file at its
    start, line being the one the record starts on; a blank line has no fields."""
    line, at = 1, [1]  # at[0]: the line of the next piece of text the csv module takes

    def pieces():  # the text cut where the csv module's own file reading cuts it
        for text in _blocks(fh, path, 1):
            for piece in io.StringIO(text, newline=""):
                at[0] += piece[-1] == "\n"
                yield piece
    try:
        for fields in csv.reader(pieces()):
            yield line, fields
            line = at[0]
    except csv.Error as exc:  # a field over the csv module's size limit, at its record's line
        raise ParseError(path, line, str(exc)) from None


def _blocks(fh, path, line_no):
    """The text of each block of whole lines left in a binary file, line_no being the
    number of its next line. Blocks are cut at the last line feed of each _READ_BLOCK
    bytes; a longer line makes one block."""
    rest = []
    while chunk := fh.read(_READ_BLOCK):
        cut = chunk.rfind(b"\n") + 1
        if cut:  # only the text is held while it is parsed
            text = _decode(b"".join(rest + [chunk[:cut]]), path, line_no)
            chunk, line_no, rest = chunk[cut:], line_no + text.count("\n"), []
            yield text
        rest.append(chunk)
    block = b"".join(rest)
    if block:
        yield _decode(block, path, line_no)


def read_json(path):
    """Parse a JSON file; malformed JSON raises ParseError at its line."""
    try:
        with open(path, "rb") as fh:
            return json.loads(_decode(fh.read(), path, 1))
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, exc.msg) from None


def _decode(data, path, line_no):
    """The text of bytes that start at line line_no of a file, a byte-order mark dropped
    at line 1; a byte that is not UTF-8 raises ParseError at its line."""
    try:
        return data.decode("utf-8-sig" if line_no == 1 else "utf-8")
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


def positions(codes, known):
    """Each code's int32 position in the sequence known; code j that known lacks gets ~j < 0."""
    at = {code: i for i, code in enumerate(known)}
    return np.array([at.get(code, ~j) for j, code in enumerate(codes)], dtype=np.int32)


def remap(index, table):
    """``index`` with each entry i replaced by ``table[i]`` in place, a block at a time."""
    for part in np.split(index, range(_ROW_BLOCK, index.size, _ROW_BLOCK)):  # views
        part[:] = table[part]
    return index


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
