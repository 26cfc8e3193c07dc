"""Loading, reconciliation, filtering, and indexing of raw bilateral trade flows.

Raw rows arrive as exporter- or importer-reported values for the same
(year, origin, product, destination) cell. Reconciliation collapses the two
reports into one value per cell under a configurable policy and the result is
frozen into an immutable sparse TradeTensor with dense integer indices for
countries and products. Zero and missing flows are both represented as absent
cells, so no log-of-zero can ever reach the math layers.
"""
from __future__ import annotations

import csv
import enum
import logging
import re
from dataclasses import dataclass

import numpy as np

from .csvio import code_index, code_text, float_text, read_table, repeats, vocabulary, write_rows
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

    ``importer`` is True where the importer reported the row. Codes are text
    arrays; ``value`` is float64 and ``year`` int64.
    """

    year: np.ndarray
    origin: np.ndarray
    destination: np.ndarray
    product: np.ndarray
    value: np.ndarray
    importer: np.ndarray

    def __post_init__(self):
        for name, dtype in (("year", np.int64), ("origin", str), ("destination", str),
                            ("product", str), ("value", np.float64), ("importer", bool)):
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

    @property
    def cells(self):
        return self.exporter_only + self.importer_only + self.both_agree + self.both_discrepant


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
        self.product_index = {p: i for i, p in enumerate(self.products)}
        self._flows = {}
        self._marginals = {}
        for year, (o, p, d, v) in flows.items():
            o = _locked(np.ascontiguousarray(o, dtype=np.int32))
            p = _locked(np.ascontiguousarray(p, dtype=np.int32))
            d = _locked(np.ascontiguousarray(d, dtype=np.int32))
            v = _locked(np.ascontiguousarray(v, dtype=np.float64))
            if v.size and v.min() <= 0:
                raise TradeDataError(f"year {year}: non-positive flow value stored in tensor")
            if np.any(o == d):
                raise TradeDataError(f"year {year}: origin equals destination in tensor cell")
            key = cell_keys(o, p, d, self.n_countries, self.n_products)
            if key.size > 1 and np.any(np.diff(key) <= 0):
                raise TradeDataError(f"year {year}: tensor cells not sorted or not unique")
            self._flows[int(year)] = (o, p, d, v)

    @classmethod
    def from_arrays(cls, countries, products, year, o, p, d, v):
        """Build from parallel cell arrays in any order; o, p, d index the vocabularies."""
        order = np.argsort(year_cell_keys(year, o, p, d, len(countries), len(products)),
                           kind="stable")
        year, o, p, d, v = (np.asarray(a)[order] for a in (year, o, p, d, v))
        years, starts = np.unique(year, return_index=True)
        ends = np.append(starts[1:], year.size)
        flows = {int(y): (o[s:e], p[s:e], d[s:e], v[s:e])
                 for y, s, e in zip(years, starts, ends)}
        return cls(countries, products, sorted(flows), flows)

    @classmethod
    def from_cells(cls, countries, products, cells):
        """Build from a mapping (year, origin, product, destination) -> value."""
        countries, products = tuple(sorted(countries)), tuple(sorted(products))
        keys = np.array(list(cells), dtype=object).reshape(-1, 4)
        o, p, d = (code_index(vocab, keys[:, j].astype(str))
                   for vocab, j in ((countries, 1), (products, 2), (countries, 3)))
        if min(o.min(initial=0), p.min(initial=0), d.min(initial=0)) < 0:
            raise TradeDataError("cell code missing from the vocabularies")
        return cls.from_arrays(countries, products, keys[:, 0].astype(np.int64), o, p, d,
                               np.array(list(cells.values()), dtype=np.float64))

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

    def value(self, year, origin, product, destination):
        """Flow value for a single cell, 0.0 when absent."""
        if not self.has_year(year):
            return 0.0
        cell = np.array([[self.country_index[origin]], [self.product_index[product]],
                         [self.country_index[destination]]])
        found, pos = lookup(self.cell_keys(year),
                            cell_keys(*cell, self.n_countries, self.n_products))
        return float(self.flows(year)[3][pos[0]]) if found[0] else 0.0

    def _marginal(self, year, which):
        cache = self._marginals.setdefault(int(year), {})
        if which in cache:
            return cache[which]
        o, p, d, v = self.flows(year)
        nc, np_ = len(self.countries), len(self.products)
        if which == "od":
            m = np.zeros((nc, nc))
            np.add.at(m, (o, d), v)
        elif which == "op":
            m = np.zeros((nc, np_))
            np.add.at(m, (o, p), v)
        elif which == "pd":
            m = np.zeros((np_, nc))
            np.add.at(m, (p, d), v)
        else:
            raise ValueError(which)
        cache[which] = _locked(m)
        return m

    def x_od(self, year):
        """Dense origin-by-destination totals for one year."""
        return self._marginal(year, "od")

    def x_op(self, year):
        """Dense origin-by-product export totals for one year."""
        return self._marginal(year, "op")

    def x_pd(self, year):
        """Dense product-by-destination import totals for one year."""
        return self._marginal(year, "pd")

    def total(self, year):
        return float(self.flows(year)[3].sum())

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

    @classmethod
    def from_csv(cls, path):
        table = read_table(path, COUNTRY_COLUMNS,
                           numeric={"year": int, "population": float, "gdp_per_capita": float})
        pop, gdp = table["population"], table["gdp_per_capita"]
        table.check((~(pop > 0), lambda i: f"population must be positive, got {pop[i]}"),
                    (~(gdp > 0), lambda i: f"gdp_per_capita must be positive, got {gdp[i]}"))
        meta = cls()
        for row in zip(table["code"].tolist(), table["year"].tolist(), pop.tolist(), gdp.tolist()):
            meta.add(*row)
        return meta

    def add(self, code, year, population, gdp_per_capita):
        if population <= 0 or gdp_per_capita <= 0:
            raise TradeDataError(f"{code}/{year}: population and gdp_per_capita must be positive")
        self._pop[(code, int(year))] = float(population)
        self._gdp[(code, int(year))] = float(gdp_per_capita)

    def population(self, code, year):
        try:
            return self._pop[(code, int(year))]
        except KeyError:
            raise CoverageError(f"no population for country {code} in year {year}") from None

    def gdp_per_capita(self, code, year):
        try:
            return self._gdp[(code, int(year))]
        except KeyError:
            raise CoverageError(f"no gdp_per_capita for country {code} in year {year}") from None

    def has(self, code, year):
        return (code, int(year)) in self._pop and (code, int(year)) in self._gdp

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(COUNTRY_COLUMNS)
            for code, year in sorted(self._pop):
                w.writerow([code, year, repr(self._pop[(code, year)]),
                            repr(self._gdp[(code, year)])])


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

    @staticmethod
    def _key(a, b):
        return (a, b) if a <= b else (b, a)

    @classmethod
    def from_csv(cls, path):
        table = read_table(path, DYAD_COLUMNS,
                           numeric={"distance_km": float, "border": int, "colony": int,
                                    "language": int, "lang_proximity": float})
        table.check()
        dyads = cls()
        for line_no, *row in zip(table.line.tolist(),
                                 *(table[name].tolist() for name in DYAD_COLUMNS)):
            try:
                dyads.add(*row)
            except TradeDataError as exc:
                raise ParseError(path, line_no, str(exc)) from None
        return dyads

    def add(self, a, b, distance_km, border, colony, language, lang_proximity):
        if a == b:
            raise TradeDataError(f"self-dyad {a}")
        if distance_km <= 0:
            raise TradeDataError(f"dyad ({a},{b}): distance must be positive")
        for name, val in (("border", border), ("colony", colony), ("language", language)):
            if val not in (0, 1):
                raise TradeDataError(f"dyad ({a},{b}): {name} must be 0 or 1, got {val}")
        if lang_proximity < 0:
            raise TradeDataError(f"dyad ({a},{b}): lang_proximity must be non-negative")
        rec = DyadRecord(float(distance_km), int(border), int(colony),
                         int(language), float(lang_proximity))
        key = self._key(a, b)
        old = self._records.get(key)
        if old is not None and old != rec:
            raise TradeDataError(f"conflicting duplicate dyad ({a},{b})")
        self._records[key] = rec

    def record(self, a, b):
        try:
            return self._records[self._key(a, b)]
        except KeyError:
            raise CoverageError(f"no dyad data for country pair ({a},{b})") from None

    def distance(self, a, b):
        return self.record(a, b).distance_km

    def distance_matrix(self, countries):
        """Dense symmetric distance matrix over the sample, zero diagonal.

        A missing pair raises CoverageError, naming the first in row order.
        """
        dist = self.field_matrices(countries)["distance"]
        missing = np.argwhere(np.isnan(dist))
        if missing.size:
            self.record(*(countries[k] for k in missing[0]))  # raises for that pair
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
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(DYAD_COLUMNS)
            for (a, b) in sorted(self._records):
                r = self._records[(a, b)]
                w.writerow([a, b, repr(r.distance_km), r.border, r.colony,
                            r.language, repr(r.lang_proximity)])


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
    value, reporter = table["value"], table["reporter"]
    sides = {r.value for r in Reporter}
    table.check((value < 0, lambda i: f"negative trade value {float(value[i])}"),
                (~_per_code(reporter, lambda c: c.lower() in sides),
                 lambda i: f"unknown reporter '{reporter[i]}'"))
    origin, destination, product = table["origin"], table["destination"], table["product"]
    reason = np.select([~_per_code(origin, COUNTRY_RE.match),
                        ~_per_code(destination, COUNTRY_RE.match),
                        origin == destination,
                        ~_per_code(product, PRODUCT_RE.match),
                        value == 0], list(range(1, len(REJECT_REASONS) + 1)), 0)
    bad = np.flatnonzero(reason)
    rejects = [RejectedRow(int(table.line[i]), REJECT_REASONS[reason[i] - 1], raw)
               for i, raw in zip(bad, table.raw(bad))]
    ok = reason == 0
    importer = _per_code(reporter, lambda c: c.lower() == Reporter.IMPORTER.value)
    batch = TradeBatch(table["year"][ok], origin[ok], destination[ok], product[ok],
                       value[ok], importer[ok])
    if rejects:
        log.info("load_trade_csv: %d records parsed, %d rows rejected", len(batch), len(rejects))
    return batch, rejects


def _per_code(codes, test):
    """Truth of test(code), evaluated once per distinct code, for each row."""
    codes = codes.tolist()
    result = {c: bool(test(c)) for c in set(codes)}
    return np.fromiter(map(result.__getitem__, codes), dtype=bool, count=len(codes))


def write_rejects_report(rejects, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["line", "reason", "row"])
        for r in rejects:
            w.writerow([r.line_no, r.reason, r.raw])


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
    countries, (o, d) = vocabulary(batch.origin, batch.destination)
    products, (p,) = vocabulary(batch.product)
    key = year_cell_keys(batch.year, o, p, d, len(countries), len(products))
    _, first, cell = np.unique(key, return_index=True, return_inverse=True)
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
    tensor = TradeTensor.from_arrays(countries, products, batch.year[first], o[first],
                                     p[first], d[first], value)
    return tensor, audit


def cell_keys(o, p, d, n_countries, n_products):
    """One int64 key per (origin, product, destination) cell, ordered like the tuple."""
    return (o.astype(np.int64) * n_products + p) * n_countries + d


def year_cell_keys(year, o, p, d, n_countries, n_products):
    """One int64 key per (year, origin, product, destination) cell, ordered like the tuple."""
    _, y = np.unique(year, return_inverse=True)
    return (y.astype(np.int64) * (n_countries * n_products * n_countries)
            + cell_keys(o, p, d, n_countries, n_products))


def lookup(sorted_keys, keys):
    """Where each key sits in an ascending key array: (found mask, index or 0)."""
    pos = np.searchsorted(sorted_keys, keys)
    found = pos < sorted_keys.size
    found[found] = sorted_keys[pos[found]] == keys[found]
    return found, np.where(found, pos, 0)


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
    flows = [tensor.flows(year) for year in tensor.years]
    o, p, d, v = (np.concatenate([f[j] for f in flows] or [np.empty(0, dtype=np.int64)])
                  for j in range(4))
    columns = [np.repeat(np.array([str(y) for y in tensor.years], dtype=object),
                         [f[0].size for f in flows]),
               code_text(tensor.countries, o), code_text(tensor.countries, d),
               code_text(tensor.products, p), float_text(v)]
    header = TENSOR_COLUMNS
    if reporter is not None:
        header, columns = TRADE_COLUMNS, columns + [[Reporter(reporter).value] * v.size]
    write_rows(path, header, columns)


def read_tensor_csv(path):
    """Load a tensor previously written by write_tensor_csv."""
    table = read_table(path, TENSOR_COLUMNS, numeric={"year": int, "value": float})
    year, value = table["year"], table["value"]
    origin, destination, product = table["origin"], table["destination"], table["product"]
    countries, (o, d) = vocabulary(origin, destination)
    products, (p,) = vocabulary(product)
    table.check(
        (~(value > 0), lambda i: f"non-positive value {float(value[i])}"),
        (o == d, lambda i: f"origin equals destination {origin[i]}"),
        (repeats(year_cell_keys(year, o, p, d, len(countries), len(products))),
         lambda i: "duplicate cell "
                   f"{(int(year[i]), str(origin[i]), str(product[i]), str(destination[i]))}"))
    if not len(table):
        raise TradeDataError(f"{path}: no flows")
    return TradeTensor.from_arrays(countries, products, year, o, p, d, value)
