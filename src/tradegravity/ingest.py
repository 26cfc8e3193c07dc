"""Loading, reconciliation, filtering, and indexing of raw bilateral trade flows.

Raw rows arrive as exporter- or importer-reported values for the same
(year, origin, product, destination) cell. Reconciliation collapses the two
reports into one value per cell under a configurable policy and the result is
frozen into an immutable sparse TradeTensor with dense integer indices for
countries and products. Zero and missing flows are both represented as absent
cells, so no log-of-zero can ever reach the math layers.
"""
from __future__ import annotations

import enum
import logging
import re
from dataclasses import dataclass

import numpy as np

from .csvio import (ascending, codes, floats, lookup, quoted, read_table, repeated,
                    repeats, write_rows)
from .errors import CoverageError, ParseError, TradeDataError

log = logging.getLogger(__name__)

PRODUCT_RE = re.compile(r"^[0-9]{4}$")
COUNTRY_RE = re.compile(r"^[A-Z]{3}$")

TRADE_COLUMNS = ("year", "origin", "destination", "product", "value", "reporter")
TENSOR_COLUMNS = TRADE_COLUMNS[:5]
REJECT_REASONS = ("bad_origin_code", "bad_destination_code", "self_trade",
                  "bad_product_code", "zero_value")
COUNTRY_COLUMNS = ("code", "year", "population", "gdp_per_capita")
DYAD_COLUMNS = ("country_a", "country_b", "distance_km", "border", "colony",
                "language", "lang_proximity")


class Reporter(enum.Enum):
    EXPORTER = "exporter"
    IMPORTER = "importer"


class ReconcilePolicy(str, enum.Enum):
    """How to pick a cell value when both trade partners report it."""

    IMPORTER = "importer"
    EXPORTER = "exporter"
    MAX = "max"
    MEAN = "mean"


@dataclass(frozen=True)
class TradeBatch:
    """Accepted raw trade rows as parallel columns, in file order.

    ``o``, ``p`` and ``d`` are int32 positions in ``countries`` and ``products``, which
    are sorted and hold only the codes these rows use. ``importer`` is True where the
    importer reported the row, ``value`` is float64 and ``year`` as narrow as read: 23
    bytes a row, which ``load_trade_csv`` builds at a 53.2-byte peak (seed-1 cli-chain file).
    """

    countries: tuple
    products: tuple
    year: np.ndarray
    o: np.ndarray
    p: np.ndarray
    d: np.ndarray
    value: np.ndarray
    importer: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "countries", tuple(self.countries))
        object.__setattr__(self, "products", tuple(self.products))
        for name, dtype in (("year", None), ("o", np.int32), ("p", np.int32),
                            ("d", np.int32), ("value", np.float64), ("importer", bool)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))

    def __len__(self):
        return self.year.size


@dataclass(frozen=True, slots=True)
class RejectedRow:
    line_no: int
    reason: str
    raw: str


@dataclass
class ReconcileAudit:
    """Counts of how cells were sourced during reconciliation."""

    exporter_only: int = 0
    importer_only: int = 0
    both_agree: int = 0
    both_discrepant: int = 0


@dataclass
class FilterConfig:
    """Country exclusion rules applied after reconciliation.

    A country is dropped when its population is below ``min_population``, or
    its total trade (exports plus imports) in ``trade_year`` is below
    ``min_trade_value``, or it appears in ``exclude``. ``population_year``
    defaults to ``trade_year``.
    """

    min_population: float = 1.2e6
    min_trade_value: float = 1e9
    trade_year: int = 2008
    population_year: int | None = None
    exclude: tuple[str, ...] = ("IRQ", "TCD", "MAC")


def _locked(a):
    a.flags.writeable = False
    return a


class TradeTensor:
    """Sparse positive trade flows keyed by (year, origin, product, destination).

    Flows are stored per year as parallel coordinate arrays sorted by
    (origin, product, destination) index. All stored values are strictly
    positive; a zero flow is simply absent. Instances are immutable and safe
    to share across threads.
    """

    def __init__(self, countries, products, years, flows):
        self.countries = tuple(countries)
        self.products = tuple(products)
        self.years = tuple(sorted(years))
        self.country_index = {c: i for i, c in enumerate(self.countries)}
        self._flows = {}
        self._marginals = {}
        for year, (o, p, d, v) in flows.items():
            o = _locked(np.ascontiguousarray(o, dtype=np.int32))
            p = _locked(np.ascontiguousarray(p, dtype=np.int32))
            d = _locked(np.ascontiguousarray(d, dtype=np.int32))
            v = _locked(np.ascontiguousarray(v, dtype=np.float64))
            if not ((v > 0) & (v < np.inf)).all():
                raise TradeDataError(f"year {year}: non-positive or non-finite flow in tensor")
            if np.any(o == d):
                raise TradeDataError(f"year {year}: origin equals destination in tensor cell")
            if not ascending(cell_keys(o, p, d, self.n_countries, self.n_products)):
                raise TradeDataError(f"year {year}: tensor cells not sorted or not unique")
            self._flows[int(year)] = (o, p, d, v)

    @property
    def n_countries(self):
        return len(self.countries)

    @property
    def n_products(self):
        return len(self.products)

    def flows(self, year):
        """Coordinate arrays (o_idx, p_idx, d_idx, value) for one year."""
        try:
            return self._flows[int(year)]
        except KeyError:
            raise TradeDataError(f"no trade flows for year {year}") from None

    def has_year(self, year):
        return int(year) in self._flows

    def n_cells(self, year):
        return self._flows[int(year)][0].size if self.has_year(year) else 0

    def cell_keys(self, year):
        o, p, d, _ = self.flows(year)
        return cell_keys(o, p, d, self.n_countries, self.n_products)

    def _marginal(self, year, which):
        """Dense totals of one year's flows over two coordinates, e.g. "od"; cached."""
        key = (int(year), which)
        if key not in self._marginals:
            o, p, d, v = self.flows(year)
            coords = {"o": (o, self.n_countries), "p": (p, self.n_products),
                      "d": (d, self.n_countries)}
            (a, n_a), (b, n_b) = coords[which[0]], coords[which[1]]
            totals = np.bincount(a.astype(np.int64) * n_b + b, weights=v, minlength=n_a * n_b)
            self._marginals[key] = _locked(totals.reshape(n_a, n_b))
        return self._marginals[key]

    def x_od(self, year):
        """Dense origin-by-destination totals for one year."""
        return self._marginal(year, "od")

    def x_op(self, year):
        """Dense origin-by-product export totals for one year."""
        return self._marginal(year, "op")

    def x_pd(self, year):
        """Dense product-by-destination import totals for one year."""
        return self._marginal(year, "pd")

    def country_trade_totals(self, year):
        """Exports plus imports per country for one year."""
        xod = self.x_od(year)
        return xod.sum(axis=1) + xod.sum(axis=0)

    def subset_countries(self, keep):
        """New tensor restricted to flows whose origin and destination are kept.

        The country vocabulary shrinks to ``keep``; the product vocabulary is
        left untouched.
        """
        keep = sorted(set(keep))
        missing = [c for c in keep if c not in self.country_index]
        if missing:
            raise TradeDataError(f"unknown countries in keep set: {missing}")
        old_idx = np.array([self.country_index[c] for c in keep], dtype=np.int64)
        remap = np.full(len(self.countries), -1, dtype=np.int64)
        remap[old_idx] = np.arange(len(keep))
        flows = {}
        for year in self.years:
            o, p, d, v = self.flows(year)
            mask = (remap[o] >= 0) & (remap[d] >= 0)
            no, npd, nd, nv = remap[o[mask]], p[mask], remap[d[mask]], v[mask]
            order = np.lexsort((nd, npd, no))
            flows[year] = (no[order], npd[order], nd[order], nv[order])
        return TradeTensor(keep, self.products, self.years, flows)


class CountryMeta:
    """Per country and year: population and GDP per capita."""

    def __init__(self):
        self._pop = {}
        self._gdp = {}
        self.source = None  # the file read into it, named by a coverage error

    @classmethod
    def from_csv(cls, path):
        table = read_table(path, COUNTRY_COLUMNS,
                           numeric={"year": int, "population": float, "gdp_per_capita": float})
        return _add_rows(cls(), table, COUNTRY_COLUMNS, 1)

    def add(self, code, year, population, gdp_per_capita):
        for name, value in (("population", population), ("gdp_per_capita", gdp_per_capita)):
            if not value > 0:
                raise TradeDataError(f"{code}/{year}: {name} must be positive, got {value}")
            if value == np.inf:
                raise TradeDataError(f"{code}/{year}: {name} must be finite, got {value}")
        key = (code, int(year))
        if key in self._pop and (self._pop[key], self._gdp[key]) != (population, gdp_per_capita):
            raise TradeDataError(f"conflicting duplicate country row ({code},{year})")
        self._pop[key] = float(population)
        self._gdp[key] = float(gdp_per_capita)

    def population(self, code, year):
        try:
            return self._pop[(code, int(year))]
        except KeyError:
            raise _uncovered(self, f"no population for country {code} in year {year}") from None

    def gdp_per_capita(self, code, year):
        try:
            return self._gdp[(code, int(year))]
        except KeyError:
            raise _uncovered(self, f"no gdp_per_capita for country {code} in year {year}") \
                from None

    def write_csv(self, path):
        keys = sorted(self._pop)
        write_rows(path, COUNTRY_COLUMNS,
                   [[quoted(k[0] for k in keys), [str(k[1]) for k in keys],
                     floats([self._pop[k] for k in keys]),
                     floats([self._gdp[k] for k in keys])]])


def _add_rows(meta, table, columns, n_codes):
    """Add each row of a table to a metadata object, then raise for a malformed row.

    The first ``n_codes`` columns are codes of one vocabulary. An add that
    fails raises ParseError at its row's line; it comes first because the
    table holds only the rows above the first malformed one.
    """
    meta.source = table.path
    vocab, *index = table.codes(*columns[:n_codes])
    rows = [[vocab[k] for k in i.tolist()] for i in index] + \
        [table[name].tolist() for name in columns[n_codes:]]
    for line_no, *row in zip(map(int, table.line), *rows):
        try:
            meta.add(*row)
        except TradeDataError as exc:
            raise ParseError(table.path, line_no, str(exc)) from None
    table.check()
    return meta


def _uncovered(meta, message):
    """CoverageError for metadata, naming the file it was read from."""
    return CoverageError(f"{meta.source}: {message}" if meta.source else message)


@dataclass(frozen=True, slots=True)
class DyadRecord:
    distance_km: float
    border: int
    colony: int
    language: int
    lang_proximity: float


class DyadMeta:
    """Symmetric pairwise country attributes: distance and cultural ties."""

    def __init__(self):
        self._records = {}
        self.source = None  # the file read into it, named by a coverage error

    @classmethod
    def from_csv(cls, path):
        table = read_table(path, DYAD_COLUMNS,
                           numeric={"distance_km": float, "border": int, "colony": int,
                                    "language": int, "lang_proximity": float})
        return _add_rows(cls(), table, DYAD_COLUMNS, 2)

    def add(self, a, b, distance_km, border, colony, language, lang_proximity):
        if a == b:
            raise TradeDataError(f"self-dyad {a}")
        if not distance_km > 0:
            raise TradeDataError(f"dyad ({a},{b}): distance must be positive")
        for name, val in (("border", border), ("colony", colony), ("language", language)):
            if val not in (0, 1):
                raise TradeDataError(f"dyad ({a},{b}): {name} must be 0 or 1, got {val}")
        if not lang_proximity >= 0:
            raise TradeDataError(f"dyad ({a},{b}): lang_proximity must be non-negative")
        for name, val in (("distance", distance_km), ("lang_proximity", lang_proximity)):
            if val == np.inf:
                raise TradeDataError(f"dyad ({a},{b}): {name} must be finite, got {val}")
        rec = DyadRecord(float(distance_km), int(border), int(colony),
                         int(language), float(lang_proximity))
        key = (a, b) if a <= b else (b, a)
        old = self._records.get(key)
        if old is not None and old != rec:
            raise TradeDataError(f"conflicting duplicate dyad ({a},{b})")
        self._records[key] = rec

    def missing(self, a, b):
        """CoverageError for a pair with no record, naming the file."""
        return _uncovered(self, f"no dyad data for country pair ({a},{b})")

    def distance_matrix(self, countries):
        """Dense symmetric distance matrix over the sample, zero diagonal.

        A missing pair raises CoverageError, naming the first in row order.
        """
        dist = self.field_matrices(countries)["distance"]
        missing = np.argwhere(np.isnan(dist))
        if missing.size:
            raise self.missing(*(countries[k] for k in missing[0]))
        return dist

    def field_matrices(self, countries):
        """Dense symmetric matrices for every dyad field; NaN marks missing pairs.

        Keys are the DyadRecord field names, with ``distance`` for distance_km.
        """
        index = {c: i for i, c in enumerate(countries)}
        pairs = [(index[a], index[b], rec) for (a, b), rec in self._records.items()
                 if a in index and b in index]
        i, j = (np.array([pair[k] for pair in pairs], dtype=np.intp) for k in (0, 1))
        out = {}
        for name in DyadRecord.__slots__:
            m = np.full((len(countries), len(countries)), np.nan)
            np.fill_diagonal(m, 0.0)
            m[i, j] = m[j, i] = [getattr(pair[2], name) for pair in pairs]
            out[name.removesuffix("_km")] = m
        return out

    def write_csv(self, path):
        keys = sorted(self._records)
        records = [self._records[k] for k in keys]
        write_rows(path, DYAD_COLUMNS,
                   [[quoted(k[0] for k in keys), quoted(k[1] for k in keys),
                     floats([r.distance_km for r in records]),
                     *([str(getattr(r, name)) for r in records]
                       for name in ("border", "colony", "language")),
                     floats([r.lang_proximity for r in records])]])


def load_trade_csv(path, schema=None):
    """Parse a raw trade CSV into a TradeBatch plus a list of rejected rows.

    ``schema`` maps the logical column names (year, origin, destination,
    product, value, reporter) to the actual header names; identity by default.

    Structurally malformed rows (wrong field count, unparseable numbers,
    negative values, unknown reporter) raise ParseError with the line number.
    Rows violating vocabulary rules (bad product or country code, self trade)
    are collected as rejects, as are zero-value rows, which are dropped.
    """
    schema = dict(schema or {})
    table = read_table(path, {name: schema.get(name, name) for name in TRADE_COLUMNS},
                       numeric={"year": int, "value": float}, exact=False)
    value, (reporters, reporter) = table["value"], table.codes("reporter")
    sides = {r.value: int(r is Reporter.IMPORTER) for r in Reporter}
    side = np.array([sides.get(c.lower(), -1) for c in reporters], dtype=np.int8)[reporter]
    table.check((value < 0, lambda i: f"negative trade value {float(value[i])}"),
                (~np.isfinite(value), lambda i: f"non-finite value {float(value[i])}"),
                (side < 0, lambda i: f"unknown reporter '{reporters[reporter[i]]}'"))
    countries, o, d = table.codes("origin", "destination")
    products, p = table.codes("product")
    country = np.array([bool(COUNTRY_RE.match(c)) for c in countries], dtype=bool)
    reason = np.select([~country[o], ~country[d], o == d,
                        ~np.array([bool(PRODUCT_RE.match(c)) for c in products], dtype=bool)[p],
                        value == 0], list(range(1, len(REJECT_REASONS) + 1)), 0).astype(np.int8)
    bad = np.flatnonzero(reason)
    rejects = [RejectedRow(int(table.line[i]), REJECT_REASONS[reason[i] - 1], raw)
               for i, raw in zip(bad, table.raw(bad))]
    ok = reason == 0
    (countries, o, d), (products, p) = _used(countries, ok, o, d), _used(products, ok, p)
    batch = TradeBatch(countries, products, table["year"][ok], o, p, d, value[ok], side[ok] == 1)
    if rejects:
        log.info("load_trade_csv: %d records parsed, %d rows rejected", len(batch), len(rejects))
    return batch, rejects


def _used(vocab, ok, *indices):
    """The codes of a vocabulary that the rows ``ok`` use, and those rows' indices into them."""
    kept = [index[ok] for index in indices]  # each index copied once, renumbered in place
    used = np.zeros(len(vocab), dtype=bool)
    for index in kept:
        used[index] = True
    rank = np.cumsum(used, dtype=np.int32) - 1
    for index in kept:
        np.take(rank, index, out=index, mode="clip")  # the take reads an intp copy of index
    return (tuple(c for c, u in zip(vocab, used) if u), *kept)


def write_rejects_report(rejects, path):
    write_rows(path, ("line", "reason", "row"),
               [[[str(r.line_no) for r in rejects], [r.reason for r in rejects],
                 quoted(r.raw for r in rejects)]])


def reconcile(batch, policy=ReconcilePolicy.IMPORTER):
    """Collapse exporter- and importer-reported rows into one value per cell.

    Multiple reports from the same side of the same cell are summed, in file
    order, before the policy applies. Returns the reconciled TradeTensor and
    an audit of {exporter-only, importer-only, agreeing, discrepant} cell
    counts. Discrepancies are data, not failures.
    """
    policy = ReconcilePolicy(policy)
    if not len(batch):
        raise TradeDataError("no records to reconcile")
    countries, products, o, p, d = batch.countries, batch.products, batch.o, batch.p, batch.d
    key = year_cell_keys(batch.year, o, p, d, len(countries), len(products))
    key, first, cell = np.unique(key, return_index=True, return_inverse=True)
    imp = batch.importer
    exp_val = np.bincount(cell[~imp], weights=batch.value[~imp], minlength=first.size)
    imp_val = np.bincount(cell[imp], weights=batch.value[imp], minlength=first.size)
    has_exp = exp_val > 0
    both = has_exp & (imp_val > 0)
    agree = both & (exp_val == imp_val)
    audit = ReconcileAudit(exporter_only=int(np.sum(has_exp & ~both)),
                           importer_only=int(np.sum(~has_exp)),
                           both_agree=int(agree.sum()),
                           both_discrepant=int(np.sum(both & ~agree)))
    chosen = {ReconcilePolicy.IMPORTER: imp_val, ReconcilePolicy.EXPORTER: exp_val,
              ReconcilePolicy.MAX: np.maximum(exp_val, imp_val),
              ReconcilePolicy.MEAN: 0.5 * (exp_val + imp_val)}[policy]
    value = np.where(both, chosen, np.where(has_exp, exp_val, imp_val))
    flows = by_year(key, batch.year[first], o[first], p[first], d[first], value)
    return TradeTensor(countries, products, sorted(flows), flows), audit


def cell_keys(o, p, d, n_countries, n_products):
    """One int64 key per (origin, product, destination) cell, ordered like the tuple."""
    return _fold(o.astype(np.int64), (p, n_products), (d, n_countries))


def year_cell_keys(year, o, p, d, n_countries, n_products):
    """One int64 key per (year, origin, product, destination) cell, ordered like the tuple."""
    rank = np.searchsorted(np.unique(year), year).astype(np.int64, copy=False)
    return _fold(rank, (o, n_countries), (p, n_products), (d, n_countries))


def _fold(key, *digits):
    """key, then each (digit, base) pair appended as a lower digit, in place."""
    for digit, base in digits:
        key *= base
        key += digit
    return key


def by_year(key, year, *arrays):
    """{year: the arrays' slices for that year}, each slice in key order.

    Arrays whose keys already rise strictly are sliced as they are, not sorted."""
    order = slice(None) if ascending(key) else np.argsort(key, kind="stable")
    year, *arrays = (np.asarray(a)[order] for a in (year, *arrays))
    starts = np.append(0, np.flatnonzero(year[1:] != year[:-1]) + 1)[:year.size]
    return {y: [a[s:e] for a in arrays]
            for y, s, e in zip(year[starts].tolist(), starts, np.append(starts[1:], year.size))}


def filter_countries(tensor, meta, rules=None):
    """Drop countries failing the population, trade-volume, or exclusion rules.

    Returns the filtered tensor and a {country: reason} map of removals.
    Every tensor country must have population coverage at the reference year.
    """
    rules = rules or FilterConfig()
    if not tensor.has_year(rules.trade_year):
        raise TradeDataError(
            f"trade-volume rule needs year {rules.trade_year}, which is absent from the data")
    pop_year = rules.population_year if rules.population_year is not None else rules.trade_year
    totals = tensor.country_trade_totals(rules.trade_year)
    removed = {}
    keep = []
    excluded = set(rules.exclude)
    for i, country in enumerate(tensor.countries):
        if country in excluded:
            removed[country] = "excluded"
            continue
        pop = meta.population(country, pop_year)
        if pop < rules.min_population:
            removed[country] = "population"
            continue
        if totals[i] < rules.min_trade_value:
            removed[country] = "trade_volume"
            continue
        keep.append(country)
    if len(keep) < 2:
        raise TradeDataError("fewer than two countries survive the filter rules")
    if removed:
        log.info("filter_countries: removed %d of %d countries", len(removed),
                 tensor.n_countries)
    return tensor.subset_countries(keep), removed


def write_tensor_csv(tensor, path, reporter=None):
    """Persist a tensor as year,origin,destination,product,value rows.

    With ``reporter`` ("exporter" or "importer") every row also carries that
    reporter column: the raw trade format that load_trade_csv reads.
    """
    side = None if reporter is None else Reporter(reporter).value

    def parts():
        for year in tensor.years:
            o, p, d, v = tensor.flows(year)
            columns = [repeated(str(year), v.size), codes(tensor.countries, o),
                       codes(tensor.countries, d), codes(tensor.products, p), floats(v)]
            yield columns if side is None else columns + [repeated(side, v.size)]
    write_rows(path, TENSOR_COLUMNS if side is None else TRADE_COLUMNS, parts())


def read_tensor_csv(path):
    """Load a tensor previously written by write_tensor_csv."""
    table = read_table(path, TENSOR_COLUMNS, numeric={"year": int, "value": float})
    year, value = table["year"], table["value"]
    countries, o, d = table.codes("origin", "destination")
    products, p = table.codes("product")
    key = year_cell_keys(year, o, p, d, len(countries), len(products))
    table.check(
        (~(value > 0), lambda i: f"non-positive value {float(value[i])}"),
        (~np.isfinite(value), lambda i: f"non-finite value {float(value[i])}"),
        (o == d, lambda i: f"origin equals destination {countries[o[i]]}"),
        (repeats(key), lambda i: "duplicate cell "
         f"{(int(year[i]), countries[o[i]], products[p[i]], countries[d[i]])}"))
    if not len(table):
        raise TradeDataError(f"{path}: no flows")
    flows = by_year(key, year, o, p, d, value)
    return TradeTensor(countries, products, sorted(flows), flows)
