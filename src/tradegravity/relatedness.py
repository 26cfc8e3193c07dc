"""The three relatedness measures evaluated on active trade cells.

For an active flow of product p from origin o to destination d in a year:

  * product relatedness: the proximity-weighted share of o's exports to d
    that lie in products related to p,
  * importer relatedness: the inverse-distance-weighted share of o's exports
    of p that go to d's neighbors,
  * exporter relatedness: the inverse-distance-weighted share of d's imports
    of p supplied by o's neighbors.

Each is a convex-style average of trade shares, so every value lies in
[0, 1]. Self terms never contribute: the proximity diagonal and the weight
matrix diagonal are both zero.
"""
from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .csvio import code_index, code_text, float_text, read_table, repeats, write_rows
from .errors import TradeDataError
from .ingest import cell_keys, year_cell_keys

log = logging.getLogger(__name__)

_BOUND_SLACK = 1e-9
RELATEDNESS_COLUMNS = ("year", "origin", "product", "destination", "omega", "omega_d", "omega_o")


class DistanceWeights:
    """Row-stochastic inverse-distance weights over a country sample.

    weight(c, c') = (1/D_cc') / sum_{c'' != c} (1/D_cc''), zero diagonal.
    """

    def __init__(self, countries, matrix):
        self.countries = tuple(countries)
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.matrix.flags.writeable = False

    @classmethod
    def from_dyads(cls, countries, dyads):
        countries = tuple(countries)
        if len(countries) < 2:
            raise TradeDataError("distance weights need at least two countries")
        dist = dyads.distance_matrix(countries)
        inv = np.zeros_like(dist)
        off = ~np.eye(len(countries), dtype=bool)
        inv[off] = 1.0 / dist[off]
        rows = inv.sum(axis=1)
        return cls(countries, inv / rows[:, None])

    def weight(self, c_from, c_to):
        i = self.countries.index(c_from)
        j = self.countries.index(c_to)
        return float(self.matrix[i, j])


@dataclass
class RelatednessValues:
    """Per-cell relatedness for one year, aligned with the active cell arrays.

    ``omega`` is NaN for cells whose product has a zero proximity marginal
    (no related products anywhere); such cells are dropped when written out.
    """

    year: int
    o: np.ndarray
    p: np.ndarray
    d: np.ndarray
    omega: np.ndarray
    omega_d: np.ndarray
    omega_o: np.ndarray
    countries: tuple
    products: tuple

    @property
    def n(self):
        return self.o.size

    def cell_keys(self):
        return cell_keys(self.o, self.p, self.d, len(self.countries), len(self.products))


def _check_bounds(values, label):
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return values
    lo, hi = finite.min(), finite.max()
    if lo < -_BOUND_SLACK or hi > 1.0 + _BOUND_SLACK:
        raise TradeDataError(f"{label} out of [0,1]: min={lo!r} max={hi!r}")
    return np.clip(values, 0.0, 1.0)


def _weighted_share(group, col, v, weights, denom, chunk_rows, threads):
    """Each cell's weighted share of its group's flows, aligned with the input cells.

    For a cell c with group key g the value is
    sum over cells c' of g of v[c'] * weights[col[c'], col[c]], divided by
    denom[c]: the entry (g, col[c]) of S @ weights, where S is the
    (groups x weights.shape[0]) sparse matrix of the group flows by column.
    The product runs over chunks of ``chunk_rows`` groups, on ``threads``
    threads, with the cells sorted by group so that each chunk's gather is
    local; keys that are already ascending keep their order. A zero
    denominator gives NaN.
    """
    import scipy.sparse as sp  # here: CLI stages that never evaluate relatedness skip its import

    ascending = np.all(group[1:] >= group[:-1])
    order = slice(None) if ascending else np.argsort(group, kind="stable")
    group, col, v = group[order], col[order], v[order]
    inverse = np.zeros(group.size, dtype=np.int64)
    inverse[1:] = np.cumsum(group[1:] != group[:-1])
    n_groups = int(inverse[-1]) + 1 if group.size else 0
    starts = np.arange(0, n_groups + chunk_rows, chunk_rows)
    bounds = np.searchsorted(inverse, starts)
    numer = np.empty(group.size)

    def work(ci):
        sel = slice(bounds[ci], bounds[ci + 1])
        rows = inverse[sel] - starts[ci]
        s = sp.csr_matrix((v[sel], (rows, col[sel])),
                          shape=(min(chunk_rows, n_groups - starts[ci]), weights.shape[0]))
        numer[sel] = s.dot(weights)[rows, col[sel]]

    chunks = range(starts.size - 1)
    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, chunks))
    else:
        for ci in chunks:
            work(ci)
    in_cell_order = np.empty(group.size)
    in_cell_order[order] = numer
    return np.divide(in_cell_order, denom, out=np.full(group.size, np.nan), where=denom > 0)


def product_relatedness(tensor, prox, year, chunk_rows=4096, threads=1):
    """Values for every active cell of the year, aligned with tensor.flows(year).

    Cells whose product has a zero proximity marginal are returned as NaN and
    logged: their relatedness is undefined (0/0).
    """
    o, p, d, v = tensor.flows(year)
    if tensor.n_products == 1:
        return np.zeros(o.size)  # the sum over other products is empty
    phi_p = prox.marginals[p]
    omega = _weighted_share(o.astype(np.int64) * tensor.n_countries + d, p, v, prox.phi,
                            phi_p * tensor.x_od(year)[o, d], chunk_rows, threads)
    undefined = ~(phi_p > 0)
    if undefined.any():
        log.warning("product_relatedness year %s: %d cells skipped, %d products "
                    "have zero proximity marginal", year, int(undefined.sum()),
                    np.unique(p[undefined]).size)
    return _check_bounds(omega, "product relatedness")


def importer_relatedness(tensor, weights, year, chunk_rows=65536, threads=1):
    """Values for every active cell of the year, aligned with tensor.flows(year)."""
    o, p, d, v = tensor.flows(year)
    values = _weighted_share(o.astype(np.int64) * tensor.n_products + p, d, v,
                             weights.matrix.T, tensor.x_op(year)[o, p], chunk_rows, threads)
    return _check_bounds(values, "importer relatedness")


def exporter_relatedness(tensor, weights, year, chunk_rows=65536, threads=1):
    """Values for every active cell of the year, aligned with tensor.flows(year)."""
    o, p, d, v = tensor.flows(year)
    values = _weighted_share(p.astype(np.int64) * tensor.n_countries + d, o, v,
                             weights.matrix.T, tensor.x_pd(year)[p, d], chunk_rows, threads)
    return _check_bounds(values, "exporter relatedness")


def compute_relatedness(tensor, prox, weights, year, threads=1):
    """All three measures for the active cells of one year."""
    if tuple(weights.countries) != tuple(tensor.countries):
        raise TradeDataError("distance weights were built for a different country sample")
    if tuple(prox.products) != tuple(tensor.products):
        raise TradeDataError("proximity matrix was built for a different product vocabulary")
    o, p, d, _ = tensor.flows(year)
    return RelatednessValues(
        year=int(year),
        o=o, p=p, d=d,
        omega=product_relatedness(tensor, prox, year, threads=threads),
        omega_d=importer_relatedness(tensor, weights, year, threads=threads),
        omega_o=exporter_relatedness(tensor, weights, year, threads=threads),
        countries=tensor.countries,
        products=tensor.products,
    )


def write_relatedness_csv(values_by_year, path):
    """Write year,origin,product,destination,omega,omega_d,omega_o rows.

    Values are printed at round-trip precision. Cells with undefined product
    relatedness are dropped (and counted in the return value) rather than
    written with holes.
    """
    columns = [[] for _ in RELATEDNESS_COLUMNS]
    dropped = 0
    for rel in sorted(values_by_year, key=lambda r: r.year):
        keep = np.isfinite(rel.omega)
        dropped += int((~keep).sum())
        parts = ([str(rel.year)] * int(keep.sum()), code_text(rel.countries, rel.o[keep]),
                 code_text(rel.products, rel.p[keep]), code_text(rel.countries, rel.d[keep]),
                 float_text(rel.omega[keep]), float_text(rel.omega_d[keep]),
                 float_text(rel.omega_o[keep]))
        for column, part in zip(columns, parts):
            column.extend(part)
    write_rows(path, RELATEDNESS_COLUMNS, columns)
    if dropped:
        log.info("write_relatedness_csv: dropped %d cells with undefined omega", dropped)
    return dropped


def read_relatedness_csv(path, countries, products):
    """Load per-year RelatednessValues previously written by write_relatedness_csv."""
    countries = tuple(countries)
    products = tuple(products)
    measures = RELATEDNESS_COLUMNS[4:]
    table = read_table(path, RELATEDNESS_COLUMNS,
                       numeric={"year": int, "omega": float, "omega_d": float, "omega_o": float})
    year = table["year"]
    origin, product, destination = table["origin"], table["product"], table["destination"]
    o, d = code_index(countries, origin), code_index(countries, destination)
    p = code_index(products, product)
    key = year_cell_keys(year, o, p, d, len(countries), len(products))
    table.check(
        (o < 0, lambda i: f"unknown origin '{origin[i]}'"),
        (p < 0, lambda i: f"unknown product '{product[i]}'"),
        (d < 0, lambda i: f"unknown destination '{destination[i]}'"),
        *[(~((table[m] >= 0) & (table[m] <= 1)),
           lambda i, m=m: f"{m} {float(table[m][i])} outside [0, 1]") for m in measures],
        (repeats(key), lambda i: f"duplicate cell {int(year[i])},{origin[i]},{product[i]},"
                                 f"{destination[i]}"))
    order = np.argsort(key, kind="stable")
    years, starts = np.unique(year[order], return_index=True)
    ends = np.append(starts[1:], order.size)
    out = {}
    for y, s, e in zip(years.tolist(), starts, ends):
        rows = order[s:e]
        out[y] = RelatednessValues(
            year=y, o=o[rows], p=p[rows], d=d[rows],
            omega=table["omega"][rows], omega_d=table["omega_d"][rows],
            omega_o=table["omega_o"][rows], countries=countries, products=products)
    return out
