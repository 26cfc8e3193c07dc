import csv

import numpy as np
import pytest

import tradegravity as tg
from tradegravity.ingest import load_trade_csv, write_rejects_report

from referee import cell_value, tensor_from_cells

HEADER = "year,origin,destination,product,value,reporter\n"


def write(tmp_path, body, name="trade.csv"):
    path = tmp_path / name
    path.write_text(HEADER + body)
    return path


def test_load_basic_row(tmp_path):
    path = write(tmp_path, "2003,KOR,CHL,6201,152000,exporter\n")
    batch, rejects = load_trade_csv(path)
    assert rejects == []
    assert len(batch) == 1
    assert (batch.year.tolist(), batch.origin.tolist(), batch.destination.tolist(),
            batch.product.tolist(), batch.value.tolist(), batch.importer.tolist()) == \
        ([2003], ["KOR"], ["CHL"], ["6201"], [152000.0], [False])


def test_load_negative_value_raises_with_line(tmp_path):
    path = write(tmp_path, "2003,KOR,CHL,6201,100,exporter\n2003,KOR,CHL,6202,-5,exporter\n")
    with pytest.raises(tg.ParseError) as exc:
        load_trade_csv(path)
    assert exc.value.line_no == 3


def test_load_short_product_rejected_not_raised(tmp_path):
    path = write(tmp_path, "2003,KOR,CHL,62,100,exporter\n2003,KOR,CHL,6201,100,importer\n")
    records, rejects = load_trade_csv(path)
    assert len(records) == 1
    assert len(rejects) == 1
    assert rejects[0].reason == "bad_product_code"
    assert rejects[0].line_no == 2


def test_load_rejects_bad_codes_and_self_trade(tmp_path):
    body = ("2003,K,CHL,6201,1,exporter\n"
            "2003,KOR,ch,6201,1,exporter\n"
            "2003,KOR,KOR,6201,1,exporter\n"
            "2003,KOR,CHL,6201,0,exporter\n")
    _, rejects = load_trade_csv(write(tmp_path, body))
    assert [r.reason for r in rejects] == [
        "bad_origin_code", "bad_destination_code", "self_trade", "zero_value"]


def test_load_unparseable_year_and_reporter_raise(tmp_path):
    with pytest.raises(tg.ParseError):
        load_trade_csv(write(tmp_path, "20x3,KOR,CHL,6201,1,exporter\n"))
    with pytest.raises(tg.ParseError):
        load_trade_csv(write(tmp_path, "2003,KOR,CHL,6201,1,customs\n"))


def test_load_schema_mapping(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("yr,origin,destination,product,value,reporter\n"
                    "2003,KOR,CHL,6201,5,exporter\n")
    batch, _ = load_trade_csv(path, schema={"year": "yr"})
    assert batch.year[0] == 2003
    with pytest.raises(tg.ParseError):
        load_trade_csv(path)  # default schema misses the renamed column


def test_rejects_report_roundtrip(tmp_path):
    _, rejects = load_trade_csv(write(tmp_path, "2003,KOR,KOR,6201,1,exporter\n"))
    out = tmp_path / "rejects.csv"
    write_rejects_report(rejects, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "line,reason,row"
    assert lines[1].startswith("2,self_trade,")


def test_rejects_report_keeps_commas_and_quotes(tmp_path):
    path = write(tmp_path, '2003,"KO,R",CHL,6201,1,exporter\n'
                           '2003,KOR,"C""L",6201,1,importer\n')
    _, rejects = load_trade_csv(path)
    out = tmp_path / "rejects.csv"
    write_rejects_report(rejects, out)
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["line", "reason", "row"],
                    ["2", "bad_origin_code", "2003,KO,R,CHL,6201,1,exporter"],
                    ["3", "bad_destination_code", '2003,KOR,C"L,6201,1,importer']]


def _batch(rows):
    """TradeBatch from (year, origin, destination, product, value, importer) rows."""
    return tg.TradeBatch(*(list(col) for col in zip(*rows)))


THREE_ROWS = [
    (2000, "AAA", "BBB", "0101", 100.0, False),
    (2000, "AAA", "BBB", "0102", 100.0, False),
    (2000, "AAA", "BBB", "0102", 120.0, True),
]


def test_reconcile_agreement_and_single_source():
    batch = _batch(THREE_ROWS + [
        (2000, "AAA", "BBB", "0103", 50.0, False),
        (2000, "AAA", "BBB", "0103", 50.0, True),
    ])
    tensor, audit = tg.reconcile(batch)
    assert cell_value(tensor, 2000, "AAA", "0101", "BBB") == 100.0  # single source
    assert cell_value(tensor, 2000, "AAA", "0103", "BBB") == 50.0   # agreement
    assert cell_value(tensor, 2000, "BBB", "0101", "AAA") == 0.0    # absent cell
    assert cell_value(tensor, 2001, "AAA", "0101", "BBB") == 0.0    # absent year
    assert audit.exporter_only == 1
    assert audit.both_agree == 1
    assert audit.both_discrepant == 1


@pytest.mark.parametrize("policy,expected", [
    ("importer", 120.0), ("exporter", 100.0), ("max", 120.0), ("mean", 110.0)])
def test_reconcile_policies(policy, expected):
    tensor, _ = tg.reconcile(_batch(THREE_ROWS), policy=policy)
    assert cell_value(tensor, 2000, "AAA", "0102", "BBB") == expected


def test_reconcile_is_idempotent(small_world):
    tensor = small_world.tensor
    rows = []
    for year in tensor.years:
        o, p, d, v = tensor.flows(year)
        for i in range(o.size):
            rows.append((year, tensor.countries[o[i]], tensor.countries[d[i]],
                         tensor.products[p[i]], float(v[i]), False))
    again, audit = tg.reconcile(_batch(rows))
    assert audit.both_agree == 0 and audit.both_discrepant == 0
    assert again.countries == tensor.countries
    for year in tensor.years:
        for a, b in zip(tensor.flows(year), again.flows(year)):
            assert np.array_equal(a, b)


def _filter_fixture():
    # BIG and MED pass every rule; SML fails population; LOW fails trade; IRQ is listed
    cells = {}
    for i, (o, v) in enumerate([("BIG", 3e9), ("MED", 2e9), ("SML", 2e9),
                                ("LOW", 0.4e9), ("IRQ", 3e9)]):
        d = "BIG" if o != "BIG" else "MED"
        cells[(2008, o, f"010{i + 1}", d)] = v
    tensor = tensor_from_cells(
        ["BIG", "MED", "SML", "LOW", "IRQ"], [f"010{i}" for i in range(1, 6)], cells)
    meta = tg.CountryMeta()
    for c, pop in [("BIG", 50e6), ("MED", 8e6), ("SML", 1.0e6), ("LOW", 9e6),
                   ("IRQ", 30e6)]:
        meta.add(c, 2008, pop, 10000.0)
    return tensor, meta


def test_filter_rules():
    tensor, meta = _filter_fixture()
    filtered, removed = tg.filter_countries(tensor, meta)
    assert removed == {"SML": "population", "LOW": "trade_volume", "IRQ": "excluded"}
    assert set(filtered.countries) == {"BIG", "MED"}
    for year in filtered.years:
        o, _, d, _ = filtered.flows(year)
        assert set(np.concatenate([o, d])) <= set(range(filtered.n_countries))


def test_filter_conservation():
    tensor, meta = _filter_fixture()
    filtered, removed = tg.filter_countries(tensor, meta)
    kept = set(filtered.countries)
    expected = sum(v for (y, o, p, d), v in _iter_cells(tensor)
                   if o in kept and d in kept)
    assert filtered.flows(2008)[3].sum() == pytest.approx(expected, rel=1e-12)
    assert filtered.flows(2008)[3].sum() <= tensor.flows(2008)[3].sum()


def _iter_cells(tensor):
    for year in tensor.years:
        o, p, d, v = tensor.flows(year)
        for i in range(o.size):
            yield (year, tensor.countries[o[i]], tensor.products[p[i]],
                   tensor.countries[d[i]]), float(v[i])


def test_filter_missing_reference_year():
    tensor, meta = _filter_fixture()
    with pytest.raises(tg.TradeDataError, match="2009"):
        tg.filter_countries(tensor, meta, tg.FilterConfig(trade_year=2009))


def test_filter_missing_population_names_country():
    tensor, meta = _filter_fixture()
    sparse_meta = tg.CountryMeta()
    sparse_meta.add("BIG", 2008, 50e6, 10000.0)
    with pytest.raises(tg.CoverageError, match="IRQ|LOW|MED|SML"):
        tg.filter_countries(tensor, sparse_meta,
                            tg.FilterConfig(exclude=()))


def test_marginals_match_bruteforce_exactly(small_world):
    tensor = small_world.tensor
    year = tensor.years[0]
    o, p, d, v = tensor.flows(year)
    nc, np_ = tensor.n_countries, tensor.n_products
    xod = np.zeros((nc, nc))
    xop = np.zeros((nc, np_))
    xpd = np.zeros((np_, nc))
    for i in range(o.size):  # same entry order as the cached computation
        xod[o[i], d[i]] += v[i]
        xop[o[i], p[i]] += v[i]
        xpd[p[i], d[i]] += v[i]
    assert np.array_equal(xod, tensor.x_od(year))
    assert np.array_equal(xop, tensor.x_op(year))
    assert np.array_equal(xpd, tensor.x_pd(year))


def test_tensor_rejects_bad_cells():
    with pytest.raises(tg.TradeDataError):
        tensor_from_cells(["AAA", "BBB"], ["0101"], {(2000, "AAA", "0101", "BBB"): 0.0})
    with pytest.raises(tg.TradeDataError):
        tensor_from_cells(["AAA", "BBB"], ["0101"], {(2000, "AAA", "0101", "AAA"): 5.0})
    with pytest.raises(tg.TradeDataError, match="year 2000: .*non-finite"):
        tg.TradeTensor(["AAA", "BBB"], ["0101"], [2000], {2000: ([0], [0], [1], [np.inf])})


def test_tensor_rejects_nan_flow():
    with pytest.raises(tg.TradeDataError, match="non-positive"):
        tg.TradeTensor(["AAA", "BBB"], ["0101"], [2000], {2000: ([0], [0], [1], [np.nan])})


def test_tensor_csv_roundtrip(tmp_path, small_world):
    tensor = small_world.tensor
    path = tmp_path / "reconciled.csv"
    tg.ingest.write_tensor_csv(tensor, path)
    again = tg.ingest.read_tensor_csv(path)
    assert again.countries == tensor.countries
    assert again.products == tensor.products
    for year in tensor.years:
        for a, b in zip(tensor.flows(year), again.flows(year)):
            assert np.array_equal(a, b)


def test_meta_csv_roundtrip(tmp_path, small_world):
    cpath = tmp_path / "country.csv"
    small_world.country_meta.write_csv(cpath)
    meta = tg.CountryMeta.from_csv(cpath)
    c = small_world.tensor.countries[0]
    assert meta.population(c, 2000) == small_world.country_meta.population(c, 2000)

    dpath = tmp_path / "dyad.csv"
    small_world.dyad_meta.write_csv(dpath)
    dyads = tg.DyadMeta.from_csv(dpath)
    pair = small_world.tensor.countries[:2]
    assert dyads.distance_matrix(pair)[0, 1] == small_world.dyad_meta.distance_matrix(pair)[0, 1]
    assert dyads.distance_matrix(pair[::-1])[0, 1] == dyads.distance_matrix(pair)[0, 1]


@pytest.mark.parametrize("bad,reason", [
    ("AAA,2000,2e7,300\n", "conflicting duplicate country row (AAA,2000)"),
    ("BBB,2000,nan,50\n", "BBB/2000: population must be positive, got nan"),
    ("BBB,2000,1e6,0\n", "BBB/2000: gdp_per_capita must be positive, got 0.0"),
    ("BBB,2000,inf,50\n", "BBB/2000: population must be finite, got inf"),
    ("BBB,2000,1e6,inf\n", "BBB/2000: gdp_per_capita must be finite, got inf"),
])
def test_country_reader_names_line_and_reason(tmp_path, bad, reason):
    path = tmp_path / "country.csv"
    # an identical repeat is accepted; the row after the bad one is broken too
    path.write_text("code,year,population,gdp_per_capita\n"
                    "AAA,2000,1e7,100\n" + bad + "AAA,2000,1e7,100\nx\n")
    with pytest.raises(tg.ParseError) as exc:
        tg.CountryMeta.from_csv(path)
    assert (exc.value.line_no, str(exc.value)) == (3, f"{path}:3: {reason}")
    path.write_text("code,year,population,gdp_per_capita\n"
                    "AAA,2000,1e7,100\nAAA,2000,1e7,100\n")
    assert tg.CountryMeta.from_csv(path).population("AAA", 2000) == 1e7


@pytest.mark.parametrize("bad,reason", [
    ("AAA,CCC,nan,0,0,0,0.5\n", "dyad (AAA,CCC): distance must be positive"),
    ("AAA,CCC,10,0,0,0,nan\n", "dyad (AAA,CCC): lang_proximity must be non-negative"),
    ("AAA,CCC,inf,0,0,0,0.5\n", "dyad (AAA,CCC): distance must be finite, got inf"),
    ("AAA,CCC,10,0,0,0,inf\n", "dyad (AAA,CCC): lang_proximity must be finite, got inf"),
    ("BBB,AAA,10,0,0,0,0.5\n", "conflicting duplicate dyad (BBB,AAA)"),
])
def test_dyad_reader_names_line_and_reason(tmp_path, bad, reason):
    path = tmp_path / "dyad.csv"
    path.write_text(",".join(tg.ingest.DYAD_COLUMNS) + "\n"
                    "AAA,BBB,5,1,0,0,0.5\n" + bad + "x\n")
    with pytest.raises(tg.ParseError) as exc:
        tg.DyadMeta.from_csv(path)
    assert (exc.value.line_no, str(exc.value)) == (3, f"{path}:3: {reason}")


def test_dyad_missing_pair_names_pair():
    dyads = tg.DyadMeta()
    dyads.add("AAA", "BBB", 100.0, 1, 0, 0, 0.0)
    with pytest.raises(tg.CoverageError, match=r"AAA.*CCC|CCC.*AAA"):
        dyads.distance_matrix(("AAA", "CCC"))


TENSOR_HEADER = "year,origin,destination,product,value\n"
GOOD_CELL = "2000,AAA,BBB,0101,1.5\n"


@pytest.mark.parametrize("bad,reason", [
    ("2000,AAA,BBB,0102\n", "expected 5 fields, got 4"),
    ("2000,AAA,BBB,0102,1.5,x\n", "expected 5 fields, got 6"),
    ("20x0,AAA,BBB,0102,1.5\n", "unparseable year '20x0'"),
    ("2000,AAA,BBB,0102,abc\n", "unparseable value 'abc'"),
    ("2000,AAA,BBB,0102,0\n", "non-positive value 0.0"),
    ("2000,AAA,BBB,0102,-2\n", "non-positive value -2.0"),
    ("2000,AAA,BBB,0102,nan\n", "non-positive value nan"),
    ("2000,AAA,BBB,0102,inf\n", "non-finite value inf"),
    ("2000,AAA,AAA,0102,1\n", "origin equals destination AAA"),
    (GOOD_CELL, "duplicate cell (2000, 'AAA', '0101', 'BBB')"),
])
def test_tensor_reader_names_line_and_reason(tmp_path, bad, reason):
    path = tmp_path / "reconciled.csv"
    # the bad row is line 4; the row after it fails too, but later
    path.write_text(TENSOR_HEADER + GOOD_CELL + "2001,BBB,AAA,0101,2\n" + bad + "x\n")
    with pytest.raises(tg.ParseError) as exc:
        tg.ingest.read_tensor_csv(path)
    assert (exc.value.line_no, str(exc.value)) == (4, f"{path}:4: {reason}")


@pytest.mark.parametrize("bad,reason", [
    ("2003,KOR,CHL,6201,1\n", "expected 6 fields, got 5"),
    ("2003,KOR,CHL,6201,1,exporter,x\n", "expected 6 fields, got 7"),
    ("20x3,KOR,CHL,6201,1,exporter\n", "unparseable year '20x3'"),
    ("2003,KOR,CHL,6201, one ,exporter\n", "unparseable value 'one'"),
    ("2003,KOR,CHL,6201,-1,exporter\n", "negative trade value -1.0"),
    ("2003,KOR,CHL,6201,inf,exporter\n", "non-finite value inf"),
    ("2003,KOR,CHL,6201,nan,exporter\n", "non-finite value nan"),
    ("2003,KOR,CHL,6201,1, customs \n", "unknown reporter 'customs'"),
])
def test_trade_reader_names_line_and_reason(tmp_path, bad, reason):
    # a rejected row (self trade) comes first; a row after the bad one is broken too
    path = write(tmp_path, "2003,KOR,KOR,6201,1,exporter\n" + bad + "2003,KOR\n")
    with pytest.raises(tg.ParseError) as exc:
        load_trade_csv(path)
    assert (exc.value.line_no, str(exc.value)) == (3, f"{path}:3: {reason}")


def test_field_over_the_csv_size_limit_names_its_line(tmp_path):
    # line 4 opens a quote that never closes, so its field runs past the csv module's limit
    path = write(tmp_path, "2003,KOR,CHL,6201,1,exporter\n" * 2 + '2003,"KOR\n'
                 + "2003,KOR,CHL,6201,1,exporter\n" * 6000)
    with pytest.raises(tg.ParseError) as exc:
        load_trade_csv(path)
    assert str(exc.value) == f"{path}:4: field larger than field limit ({csv.field_size_limit()})"


def test_quoted_and_bare_files_parse_alike(tmp_path, small_world):
    # quotes and lone CR line ends take the csv-module parser; the result is the same
    bare = tmp_path / "bare.csv"
    tg.ingest.write_tensor_csv(small_world.tensor, bare)
    lines = bare.read_text().splitlines()
    quoted = tmp_path / "quoted.csv"
    quoted.write_bytes("\r".join([lines[0], ""] + [
        ",".join(f'"{f}"' for f in line.split(",")) for line in lines[1:]]).encode())
    a, b = tg.ingest.read_tensor_csv(bare), tg.ingest.read_tensor_csv(quoted)
    assert (a.countries, a.products, a.years) == (b.countries, b.products, b.years)
    for year in a.years:
        for x, y in zip(a.flows(year), b.flows(year)):
            assert np.array_equal(x, y)
    raw = tmp_path / "raw.csv"
    raw.write_text(HEADER + '2003,"KOR",CHL,6201,1,exporter\n\n2003,KOR,CHL,62,1,importer\n')
    batch, rejects = load_trade_csv(raw)
    assert batch.origin.tolist() == ["KOR"]
    assert [(r.line_no, r.reason, r.raw) for r in rejects] == [
        (4, "bad_product_code", "2003,KOR,CHL,62,1,importer")]
