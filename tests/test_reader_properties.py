"""Property tests of the CSV readers.

A seeded fuzz mutates a small valid file of every CSV input and runs the CLI
stage that reads it: each case exits 0, or 1 with a message naming the file,
the streamed csv-module parser gives the table and reason of a whole-text
csv-module parse (``referee.csv_table``), and the array parser gives the
streamed parser's. A file that its reader accepts may still leave the stage
too little data to standardize; that refusal names the column, not the file.
The same mutations of the results JSON that ``trend`` reads and of a stage's
``--config`` file exit 0, or 1 naming the file. The fuzz, with the read block
cut to a line or a few, checks both parsers against the referee wherever a
block edge falls. The vocabulary tests check the keyed code columns and the
skipped sorts against plain Python, and the memory tests check that a large
read holds twice the arrays it returns and about one block, and a large write
one block, not the file's text, quoted or not.
"""
import contextlib
import io
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tradegravity as tg
from tradegravity import complexity, csvio, gravity, ingest, relatedness
from tradegravity.cli import main

from conftest import write_lall_concordance
from referee import csv_table, tensor_from_arrays

FUZZ = settings(max_examples=40, derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])
TOKENS = (b"\xff", b'"', b"\r", b",", b"\n", b" ")
NON_FINITE = (b"nan", b"inf", b"-inf", b"NaN", b"Infinity")


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Valid input files of a small synthetic world, and the tensor they index."""
    root = tmp_path_factory.mktemp("fuzz")
    files = root / "files"
    assert main(["synth", "-o", str(files), "--countries", "6", "--products", "8",
                 "--years", "3", "--sparsity", "0.6", "--seed", "5",
                 "--forward-mode", "persist"]) == 0
    assert main(["ingest", "-o", str(files), "--trade", str(files / "trade.csv")]) == 0
    assert main(["proximity", "-o", str(files), "--trade", str(files / "reconciled.csv"),
                 "--window", "2000-2000"]) == 0
    assert main(["relatedness", "-o", str(files), "--trade", str(files / "reconciled.csv"),
                 "--proximity", str(files / "proximity.csv"),
                 "--dyad-csv", str(files / "dyad.csv"), "--threads", "1"]) == 0
    tensor = ingest.read_tensor_csv(files / "reconciled.csv")
    write_lall_concordance(files / "lall.csv", tensor.products,
                           [("PP", "RB", "LT", "MT", "HT", "SP")[i % 6]
                            for i in range(len(tensor.products))])
    assert main(["gravity", "-o", str(files), "--trade", str(files / "reconciled.csv"),
                 "--relatedness", str(files / "relatedness.csv"),
                 "--country-csv", str(files / "country.csv"), "--dyad-csv", str(files / "dyad.csv"),
                 "--split", "lall", "--concordance", str(files / "lall.csv")]) == 0
    (files / "proximity.json").write_text(json.dumps(
        {"window": "2000-2000", "rca-threshold": 1.0, "bins": 20, "log-level": "ERROR"},
        indent=2))
    return root, files, tensor


def _inputs(files, tensor):
    """Per CSV input: its file name, the table it parses to, its library reader, and the
    CLI stage that reads it (with ``{}`` for the mutated file)."""
    f = {name: str(files / name) for name in
         ("trade.csv", "reconciled.csv", "proximity.csv", "relatedness.csv", "country.csv",
          "dyad.csv")}
    meta = ["--country-csv", f["country.csv"], "--dyad-csv", f["dyad.csv"]]
    return {
        "trade": ("trade.csv", (ingest.TRADE_COLUMNS, {"year": int, "value": float}, False),
                  ingest.load_trade_csv, ["ingest", "--trade", "{}"]),
        "tensor": ("reconciled.csv", (ingest.TENSOR_COLUMNS, {"year": int, "value": float}),
                   ingest.read_tensor_csv, ["proximity", "--trade", "{}"]),
        "proximity": ("proximity.csv", (("product_i", "product_j", "phi"), {"phi": float}),
                      lambda p: complexity.read_proximity_csv(p, tensor.products),
                      ["relatedness", "--trade", f["reconciled.csv"], "--proximity", "{}",
                       "--dyad-csv", f["dyad.csv"], "--threads", "1"]),
        "relatedness": ("relatedness.csv",
                        (relatedness.RELATEDNESS_COLUMNS,
                         {"year": int, "omega": float, "omega_d": float, "omega_o": float}),
                        lambda p: relatedness.read_relatedness_csv(p, tensor.countries,
                                                                   tensor.products),
                        ["summary", "--trade", f["reconciled.csv"], "--relatedness", "{}",
                         *meta]),
        "country": ("country.csv",
                    (ingest.COUNTRY_COLUMNS,
                     {"year": int, "population": float, "gdp_per_capita": float}),
                    ingest.CountryMeta.from_csv,
                    ["summary", "--trade", f["reconciled.csv"], "--relatedness",
                     f["relatedness.csv"], "--country-csv", "{}", "--dyad-csv", f["dyad.csv"]]),
        "dyad": ("dyad.csv",
                 (ingest.DYAD_COLUMNS, {"distance_km": float, "border": int, "colony": int,
                                        "language": int, "lang_proximity": float}),
                 ingest.DyadMeta.from_csv,
                 ["relatedness", "--trade", f["reconciled.csv"], "--proximity",
                  f["proximity.csv"], "--dyad-csv", "{}", "--threads", "1"]),
        "concordance": ("lall.csv", (("hs4", "sitc3", "category"), {}),
                        gravity.LallConcordance.from_csv,
                        ["gravity", "--trade", f["reconciled.csv"], "--relatedness",
                         f["relatedness.csv"], *meta, "--split", "lall", "--concordance", "{}"]),
    }


@st.composite
def mutated(draw, data):
    """A file's bytes after one mutation: a cut, an inserted byte (a line feed or a space
    too: blank lines and padded fields), a non-finite number, a duplicated line, a
    dropped field or a quoted field that holds a line feed."""
    lines = data.split(b"\n")
    body = range(1, max(len(lines) - 1, 2))  # data lines; the last element is empty
    kind = draw(st.sampled_from(("truncate", "insert", "nonfinite", "duplicate", "drop",
                                 "multiline")))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data)))]
    if kind == "insert":
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(st.sampled_from(TOKENS)) + data[at:]
    n = min(draw(st.sampled_from(body)), len(lines) - 1)
    if kind == "duplicate":
        lines.insert(n, lines[n])
        return b"\n".join(lines)
    fields = lines[n].split(b",")
    j = draw(st.integers(0, len(fields) - 1))
    if kind == "drop":
        del fields[j]
    elif kind == "multiline":  # every later record starts a line further down
        text = fields[j].removesuffix(b"\r")
        at = draw(st.integers(0, len(text)))
        fields[j] = b'"' + text[:at] + b"\n" + text[at:] + b'"' + fields[j][len(text):]
    else:
        end = b"\r" if fields[j].endswith(b"\r") else b""
        fields[j] = draw(st.sampled_from(NON_FINITE)) + end
    lines[n] = b",".join(fields)
    return b"\n".join(lines)


def _outcome(fn, path, *args, **kwargs):
    """("ok", value) or ("error", message) of a reader call."""
    try:
        return "ok", fn(path, *args, **kwargs)
    except tg.TradeDataError as exc:
        return "error", str(exc)


def _table_rows(table):
    """A table's cells as text (NaN equals NaN; a code as the text it keys), lines,
    pending row and raw lines."""
    return ({name: [repr(column[0][k]) for k in column[1].tolist()] if isinstance(column, tuple)
             else list(map(repr, column.tolist())) for name, column in table.columns.items()},
            list(table.line), table.pending, table.raw(range(len(table))))


def _assert_refereed(outcome, referee):
    """A read_table outcome is the referee's: the same table rows, or the same error."""
    assert outcome[0] == referee[0]
    assert (_table_rows(outcome[1]) if outcome[0] == "ok" else outcome[1]) == referee[1]


@pytest.mark.parametrize("name", ["trade", "tensor", "proximity", "relatedness", "country",
                                  "dyad", "concordance"])
@FUZZ
@given(data=st.data())
def test_mutated_inputs_exit_cleanly_and_parse_alike(world, name, data):
    root, files, tensor = world
    file_name, (fields, numeric, *exact), reader, argv = _inputs(files, tensor)[name]
    path = root / f"mutated_{file_name}"
    path.write_bytes(data.draw(mutated((files / file_name).read_bytes())))

    # the array parser and the csv module give one table, and one reader outcome
    fast = _outcome(csvio.read_table, path, fields, numeric, *exact)
    fast_read = _outcome(reader, path)
    with mock.patch.object(csvio, "_read_array", return_value=None):
        slow = _outcome(csvio.read_table, path, fields, numeric, *exact)
        slow_read = _outcome(reader, path)
    _assert_refereed(slow, _outcome(csv_table, path, fields, numeric, *exact))
    assert fast[0] == slow[0]
    if fast[0] == "ok":
        assert _table_rows(fast[1]) == _table_rows(slow[1])
    else:
        assert fast == slow and fast[1].startswith(f"{path}:")
    assert fast_read[0] == slow_read[0]
    if fast_read[0] == "error":
        assert fast_read == slow_read and str(path) in fast_read[1]

    # the CLI stage that reads it exits 0, or 1 naming the file; never a traceback
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([str(path) if a == "{}" else a for a in argv]
                    + ["-o", str(root / f"out_{name}")])
    message = stderr.getvalue()
    assert code in (0, 1)
    if fast_read[0] == "error":
        assert code == 1 and fast_read[1] in message
    elif code == 1:  # a file that reads can leave too few rows, or a constant column, to fit
        assert str(path) in message or "standardize" in message, message


@pytest.mark.parametrize("name, argv", [
    ("gravity_lall.json", ["trend", "--input", "{}"]),
    ("proximity.json", ["proximity", "--trade", "reconciled.csv", "--config", "{}"]),
])
@FUZZ
@given(data=st.data())
def test_mutated_json_inputs_exit_cleanly(world, name, argv, data):
    # the results file trend reads, and a stage's --config: exit 0, or 1 naming the file
    root, files, _ = world
    path = root / f"mutated_{name}"
    path.write_bytes(data.draw(mutated((files / name).read_bytes())))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([str(path) if a == "{}" else str(files / a) if a.endswith(".csv") else a
                     for a in argv] + ["-o", str(root / "out_json")])
    assert code == 0 or (code == 1 and str(path) in stderr.getvalue()), stderr.getvalue()


# read blocks (bytes) that cut every line into its own block, or a few lines into one,
# so that a mutation lands before, on and after a block edge
BLOCKS = (7, 100)


@pytest.mark.parametrize("name", ["trade", "tensor", "proximity", "relatedness", "country",
                                  "dyad", "concordance"])
@FUZZ
@given(data=st.data())
def test_block_edges_read_like_the_csv_module(world, name, data):
    root, files, tensor = world
    file_name, (fields, numeric, *exact), reader, _ = _inputs(files, tensor)[name]
    path = root / f"blocks_{file_name}"
    head = (files / file_name).read_bytes().split(b"\n")[:41]  # the header and 40 rows
    path.write_bytes(data.draw(mutated(b"\n".join(head) + b"\n")))
    referee = _outcome(csv_table, path, fields, numeric, *exact)
    with mock.patch.object(csvio, "_read_array", return_value=None):
        slow = _outcome(csvio.read_table, path, fields, numeric, *exact)
        slow_read = _outcome(reader, path)
    for block in BLOCKS:
        with mock.patch.object(csvio, "_READ_BLOCK", block):
            fast = _outcome(csvio.read_table, path, fields, numeric, *exact)
            assert fast[0] == slow[0]
            if fast[0] == "ok":  # Table.raw reads the lines again, in blocks of this size
                assert _table_rows(fast[1]) == _table_rows(slow[1])
            else:
                assert fast == slow
            # the streamed records, a few at a time, across block edges
            with mock.patch.object(csvio, "_read_array", return_value=None), \
                    mock.patch.object(csvio, "_RECORD_BLOCK", 3):
                _assert_refereed(_outcome(csvio.read_table, path, fields, numeric, *exact),
                                 referee)
    # the reader's codes, keyed a few lines at a time
    with mock.patch.object(csvio, "_READ_BLOCK", BLOCKS[-1]):
        fast_read = _outcome(reader, path)
    assert fast_read[0] == slow_read[0]
    if fast_read[0] == "error":
        assert fast_read == slow_read


def test_late_block_names_its_line(world, tmp_path):
    _, files, tensor = world
    fields, numeric = ingest.TENSOR_COLUMNS, {"year": int, "value": float}
    lines = (files / "reconciled.csv").read_bytes().split(b"\n")
    with mock.patch.object(csvio, "_READ_BLOCK", 64):
        table = csvio.read_table(files / "reconciled.csv", fields, numeric)
        rows = [len(table) - 1, 0, len(table) // 2, 1, len(table) - 1]
        assert table.raw(rows) == [lines[r + 1].decode().removesuffix("\r") for r in rows]
        for k in (1, len(lines) // 2, len(lines) - 2):  # a line near the end, in a late block
            path = tmp_path / f"bad{k}.csv"
            path.write_bytes(b"\n".join(lines[:k] + [lines[k][:6] + b"\xff" + lines[k][6:]]
                                        + lines[k + 1:]))
            for head in (lines[0], b"year,origin\r"):  # reported before a wrong header too
                path.write_bytes(path.read_bytes().replace(lines[0], head, 1))
                with pytest.raises(tg.ParseError) as exc:
                    csvio.read_table(path, fields, numeric)
                assert str(exc.value) == f"{path}:{k + 1}: not UTF-8 text"


TRADE_HEAD = "year,origin,destination,product,value,reporter\n"


def test_integer_past_int64_is_unparseable(tmp_path, capsys):
    big = "99999999999999999999"
    trade = tmp_path / "trade.csv"
    trade.write_text(TRADE_HEAD + f"2000,KOR,USA,0101,5,exporter\n{big},KOR,USA,0101,5,exporter\n")
    assert main(["ingest", "-o", str(tmp_path / "out"), "--trade", str(trade)]) == 1
    assert f"{trade}:3: unparseable year '{big}'" in capsys.readouterr().err
    country = tmp_path / "country.csv"
    country.write_text(f"code,year,population,gdp_per_capita\nKOR,{big},5,5\n")
    with pytest.raises(tg.ParseError) as exc:
        ingest.CountryMeta.from_csv(country)
    assert str(exc.value) == f"{country}:2: unparseable year '{big}'"


def test_rows_after_a_field_that_spans_lines_name_their_own_line(tmp_path):
    path = tmp_path / "ml.csv"
    path.write_text(TRADE_HEAD + '2000,"KO\nR",USA,0101,5,exporter\n'
                    "2000,KOR,USA,0101,x,exporter\n")
    with pytest.raises(tg.ParseError) as exc:
        ingest.load_trade_csv(path)
    assert str(exc.value) == f"{path}:4: unparseable value 'x'"
    path.write_text(TRADE_HEAD + '2000,"KO\nR",USA,0101,5,exporter\n2000,KOR,USA,0101,0,exporter\n'
                    "2000,KOR,USA,0101,7,exporter\n")
    _, rejects = ingest.load_trade_csv(path)
    assert [(r.line_no, r.raw) for r in rejects] == [(2, "2000,KO\nR,USA,0101,5,exporter"),
                                                     (4, "2000,KOR,USA,0101,0,exporter")]


# (a,b) files whose rows do not all start a line, or whose records run past one
RAW_FILES = (
    b'a,b\n"x\ny",2\r"x\ny",4\nbad\n',  # a record ends after a lone CR, mid-line
    b"a,b\n x,1\ry,2\r\rz,3\n",  # three rows on one line
    b"\xef\xbb\xbfa,b\rx,1\n y,2\n",  # a row on the header's line
    b"a,b\nx,1\rbad\n",  # the pending row on the last row's line
    b'a,b\n"x\ny",1\n\n\n"p\r\nq",2\nz,3',  # fields over lines, blank lines, no last line end
    b'a,b\nx,1\n"open\n,2',  # a quote left open
    b"a,b\r\nx,1\r\n\xef\xbb\xbfy,2\r\nz,3\r",  # a mark at a later line's start
    b"a,b\nx,1\n y ,2\nz,3\n",  # read by the array parser
)


@pytest.mark.parametrize("data", RAW_FILES)
def test_raw_of_some_rows_reads_like_the_referee(tmp_path, data):
    path = tmp_path / "raw.csv"
    path.write_bytes(data)
    raw = csv_table(path, ("a", "b"), {"b": int})[3]
    for block in BLOCKS:
        with mock.patch.object(csvio, "_READ_BLOCK", block):
            table = csvio.read_table(path, ("a", "b"), {"b": int})
        n = len(table)
        for rows in (range(n), range(n - 1, -1, -2), [n - 1, 0, n - 1], []):
            assert table.raw(rows) == [raw[i] for i in rows]


# numpy text drops trailing NULs only, which CODE_CHARS leaves out; a read strips a code
CODE_CHARS = st.characters(exclude_categories=("Cs",), exclude_characters="\x00")
CODE = st.text(CODE_CHARS, min_size=1, max_size=20).filter(lambda c: c == c.strip())


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(rows=st.lists(st.tuples(CODE, CODE), max_size=40), ascending=st.booleans())
def test_vocabulary_matches_sorted_set(tmp_path_factory, rows, ascending):
    # codes of 16 characters or more, or that csv.writer quotes, take the csv module
    rows = sorted(rows) if ascending else rows
    first, second = [r[0] for r in rows], [r[1] for r in rows]
    path = tmp_path_factory.mktemp("codes") / "codes.csv"
    csvio.write_rows(path, ("a", "b"), [[csvio.quoted(first), csvio.quoted(second)]])
    for array in (csvio._read_array, lambda *args: None):
        with mock.patch.object(csvio, "_read_array", array), \
                mock.patch.object(csvio, "_READ_BLOCK", 64), \
                mock.patch.object(csvio, "_RECORD_BLOCK", 3):
            vocab, index, other = csvio.read_table(path, ("a", "b")).codes("a", "b")
        assert vocab == tuple(sorted(set(first + second)))
        assert [vocab[i] for i in index] == first and [vocab[i] for i in other] == second
        assert index.dtype == other.dtype == np.int32
    known = vocab[::2]
    position = {c: i for i, c in enumerate(known)}
    assert csvio.positions(vocab, known).tolist() == [position.get(c, -1) for c in vocab]


BASE_CODE = st.text(st.characters(exclude_categories=("Cs", "Cc", "Zs", "Zl", "Zp"),
                                  exclude_characters=',"\x00\x1c\x1d\x1e\x1f\x85'),
                    min_size=1, max_size=15)
PAD = st.sampled_from(["", " ", "\t", "　", "  "])


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(countries=st.lists(BASE_CODE, min_size=2, max_size=5, unique=True),
       products=st.lists(BASE_CODE, min_size=1, max_size=4, unique=True),
       picks=st.lists(st.tuples(st.integers(2000, 2002), st.integers(0, 4), st.integers(0, 3),
                                st.integers(0, 4), st.floats(1e-3, 1e9), PAD, PAD),
                      min_size=1, max_size=30),
       seed=st.integers(0, 2 ** 16))
def test_shuffled_tensor_file_reads_like_sorted(tmp_path_factory, countries, products, picks,
                                                seed):
    cells = {}
    for year, o, p, d, value, pad, pad2 in picks:
        o, p, d = o % len(countries), p % len(products), d % len(countries)
        if o != d:
            cells[(year, countries[o], products[p], countries[d])] = (value, pad, pad2)
    if not cells:
        return
    rows = [f"{y},{pad}{o}{pad2},{d},{pad2}{p},{v!r}"
            for (y, o, p, d), (v, pad, pad2) in sorted(cells.items())]
    order = np.random.default_rng(seed).permutation(len(rows))
    root = tmp_path_factory.mktemp("shuffled")
    tensors = []
    for name, lines in (("sorted", rows), ("shuffled", [rows[i] for i in order])):
        path = root / f"{name}.csv"
        path.write_text("year,origin,destination,product,value\r\n"
                        + "".join(line + "\r\n" for line in lines), encoding="utf-8")
        tensors.append(ingest.read_tensor_csv(path))
        with mock.patch.object(csvio, "_read_array", return_value=None):
            tensors.append(ingest.read_tensor_csv(path))
    years = tuple(sorted({k[0] for k in cells}))
    for tensor in tensors:
        assert (tensor.countries, tensor.products, tensor.years) == \
            (tuple(sorted({k[1] for k in cells} | {k[3] for k in cells})),
             tuple(sorted({k[2] for k in cells})), years)
        for year in years:
            flows = tensor.flows(year)
            keys = [(tensor.countries[o], tensor.products[p], tensor.countries[d], v)
                    for o, p, d, v in zip(*(a.tolist() for a in flows))]
            assert keys == sorted((k[1], k[2], k[3], v) for k, (v, _, _) in cells.items()
                                  if k[0] == year)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(keys=st.lists(st.integers(-3, 12), max_size=30), ascending=st.booleans())
def test_repeats_match_python(keys, ascending):
    keys = sorted(keys) if ascending else keys
    key = np.array(keys, dtype=np.int64)
    assert csvio.ascending(key) == all(a < b for a, b in zip(keys, keys[1:]))
    assert csvio.repeats(key).tolist() == [k in keys[:i] for i, k in enumerate(keys)]


COUNTRIES = tuple(f"C{i:02d}" for i in range(40))
PRODUCTS = tuple(f"{i:04d}" for i in range(500))


def _world(n):
    """A two-year tensor of n random cells, and a relatedness for every cell."""
    rng = np.random.default_rng(n)
    nc, n_products = len(COUNTRIES), len(PRODUCTS)
    cell = np.sort(rng.choice(nc * (nc - 1) * n_products, n, replace=False))
    o, rest = np.divmod(cell, (nc - 1) * n_products)
    p, d = np.divmod(rest, nc - 1)
    d += d >= o
    year = np.where(np.arange(n) < n // 2, 2000, 2001)
    tensor = tensor_from_arrays(COUNTRIES, PRODUCTS, year, o, p, d, rng.uniform(1, 1e6, n))
    rel = [relatedness.RelatednessValues(y, *tensor.flows(y)[:3],
                                         *rng.uniform(0, 1, (3, tensor.n_cells(y))),
                                         COUNTRIES, PRODUCTS) for y in tensor.years]
    return tensor, rel


def _peak(fn):
    """Peak bytes that fn allocates while it runs, what it returns included, and what it
    returns."""
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


BLOCK_BYTES = 1 << 19  # what one small block of reading or writing may hold, at any row count


def _returned(read):
    """Bytes of the arrays a tensor or relatedness read returns."""
    if isinstance(read, dict):
        return sum(a.nbytes for r in read.values()
                   for a in (r.o, r.p, r.d, r.omega, r.omega_d, r.omega_o))
    return sum(a.nbytes for year in read.years for a in read.flows(year))


def _quoted_copy(path, numeric):
    """A copy of a CSV file beside it whose every field outside ``numeric`` is quoted."""
    lines = path.read_bytes().split(b"\r\n")
    text = [name.decode() not in numeric for name in lines[0].split(b",")]
    copy = path.with_name(f"quoted_{path.name}")
    copy.write_bytes(b"\r\n".join(
        [lines[0]] + [b",".join(b'"%s"' % f if q else f for f, q in zip(line.split(b","), text))
                      if line else line for line in lines[1:]]))
    return copy


@pytest.mark.parametrize("n", [5_000, 30_000])
def test_large_reads_and_writes_hold_their_columns_and_one_block(tmp_path, n):
    # reading a file's text whole held 400-530 bytes a row besides what the read kept
    tensor, rel = _world(n)
    tensor_path, rel_path = tmp_path / "reconciled.csv", tmp_path / "relatedness.csv"
    with mock.patch.object(csvio, "_READ_BLOCK", 1 << 14), \
            mock.patch.object(csvio, "_ROW_BLOCK", 1 << 8):
        # a write holds one block of text above the arrays it is given
        assert _peak(lambda: ingest.write_tensor_csv(tensor, tensor_path))[0] < BLOCK_BYTES
        assert _peak(lambda: relatedness.write_relatedness_csv(rel, rel_path))[0] < BLOCK_BYTES
        for path, fields, numeric, read in (
                (tensor_path, ingest.TENSOR_COLUMNS, {"year": int, "value": float},
                 ingest.read_tensor_csv),
                (rel_path, relatedness.RELATEDNESS_COLUMNS,
                 {"year": int, "omega": float, "omega_d": float, "omega_o": float},
                 lambda p: relatedness.read_relatedness_csv(p, COUNTRIES, PRODUCTS))):
            # a copy that quotes every text field, as R's write.csv does, streams through
            # the csv module
            for path in (path, _quoted_copy(path, numeric)):
                assert len(csvio.read_table(path, fields, numeric)) == n
                # a read holds twice the arrays it returns, and one block
                peak, returned = _peak(lambda: read(path))
                assert peak < 2 * _returned(returned) + BLOCK_BYTES
    # the undefined omega of a cell drops its row
    rel[0].omega[[0, 5]] = np.nan
    assert relatedness.write_relatedness_csv(rel, rel_path) == 2
    again = relatedness.read_relatedness_csv(rel_path, COUNTRIES, PRODUCTS)
    assert again[2000].n == rel[0].n - 2
    assert np.array_equal(again[2000].omega_d, np.delete(rel[0].omega_d, [0, 5]))
