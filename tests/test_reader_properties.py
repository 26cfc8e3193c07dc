"""Property tests of the CSV readers.

A seeded fuzz mutates a small valid file of every CSV input and runs the CLI
stage that reads it: each case exits 0, or 1 with a message naming the file,
and the array parser gives the csv-module parser's table and reason. A file
that its reader accepts may still leave the stage too little data to
standardize; that refusal names the column, not the file. The
vocabulary tests check the integer-key code indices and the skipped sorts
against plain Python.
"""
import contextlib
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tradegravity as tg
from tradegravity import complexity, csvio, ingest, relatedness
from tradegravity.cli import main

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
    return root, files, ingest.read_tensor_csv(files / "reconciled.csv")


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
    }


@st.composite
def mutated(draw, data):
    """A file's bytes after one mutation: a cut, an inserted byte (a line feed or a space
    too: blank lines and padded fields), a non-finite number, a duplicated line or a
    dropped field."""
    lines = data.split(b"\n")
    body = range(1, max(len(lines) - 1, 2))  # data lines; the last element is empty
    kind = draw(st.sampled_from(("truncate", "insert", "nonfinite", "duplicate", "drop")))
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
    """A table's cells as text (NaN equals NaN), lines, pending row and raw lines."""
    return ({name: list(map(repr, column.tolist())) for name, column in table.columns.items()},
            table.line.tolist(), table.pending, table.raw(range(len(table))))


@pytest.mark.parametrize("name", ["trade", "tensor", "proximity", "relatedness", "country",
                                  "dyad"])
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


CODE_CHARS = st.characters(exclude_categories=("Cs",), exclude_characters="\x00")


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(codes=st.lists(st.text(CODE_CHARS, min_size=1, max_size=15), min_size=0, max_size=40),
       more=st.lists(st.text(CODE_CHARS, min_size=1, max_size=15), max_size=10),
       ascending=st.booleans())
def test_vocabulary_matches_sorted_set(codes, more, ascending):
    # numpy text drops trailing NULs only, which CODE_CHARS leaves out
    codes = sorted(codes) if ascending else codes
    vocab, (index, other) = csvio.vocabulary(np.array(codes, dtype=str),
                                             np.array(more, dtype=str))
    assert vocab == tuple(sorted(set(codes + more)))
    assert [vocab[i] for i in index] == codes and [vocab[i] for i in other] == more
    assert index.dtype == np.int32
    known = vocab[::2]
    position = {c: i for i, c in enumerate(known)}
    assert csvio.code_index(known, np.array(codes, dtype=str)).tolist() == \
        [position.get(c, -1) for c in codes]


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
