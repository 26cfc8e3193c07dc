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

import ctypes
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .csvio import codes, floats, positions, read_table, repeated, repeats, write_rows
from .errors import TradeDataError
from .ingest import by_year, cell_keys, year_cell_keys

log = logging.getLogger(__name__)

_BOUND_SLACK = 1e-9
_CHUNK_GROUPS = 4096  # about this many groups make one chunk of _weighted_share
RELATEDNESS_COLUMNS = ("year", "origin", "product", "destination", "omega", "omega_d", "omega_o")
# glibc's malloc_trim: worker threads free their chunks into their own malloc arenas,
# which the main thread never reuses, so their free pages go back to the OS
_MALLOC_TRIM = getattr(ctypes.CDLL(None), "malloc_trim", None) if os.name == "posix" else None
if _MALLOC_TRIM is not None:
    _MALLOC_TRIM.argtypes, _MALLOC_TRIM.restype = [ctypes.c_size_t], ctypes.c_int


class DistanceWeights:
    """Row-stochastic inverse-distance weights over a country sample.

    matrix[c, c'] = (1/D_cc') / sum_{c'' != c} (1/D_cc''), zero diagonal.
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
    finite = np.isfinite(values)
    if not finite.any():
        return values
    lo = np.min(values, where=finite, initial=np.inf)
    hi = np.max(values, where=finite, initial=-np.inf)
    if lo < -_BOUND_SLACK or hi > 1.0 + _BOUND_SLACK:
        raise TradeDataError(f"{label} out of [0,1]: min={lo!r} max={hi!r}")
    return np.clip(values, 0.0, 1.0, out=values)  # in place: callers pass their own arrays


def usable_cpus():
    """The CPUs this process may run on: the default relatedness thread count."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _weighted_share(lead, second, n_second, col, v, weights, scale, threads, order=None):
    """Each cell's weighted share of its group's flows, aligned with the input cells.

    A cell's group is (lead, second); ``order`` lists the cells sorted by lead
    (default: as given). For a cell c the value is the sum over the cells c'
    of its group of v[c'] * weights[col[c'], col[c]], divided by the group's
    total flow times scale[col[c]] (None: 1): the entry (group, col[c]) of
    S @ weights, where S is the sparse matrix of the group flows by column.
    The product runs over chunks of whole lead values, about ``_CHUNK_GROUPS``
    groups each and each one slice of ``order``, on ``threads`` threads
    (None: ``usable_cpus()``). Every entry and every group total sums its
    group's cells in column order whatever the chunks, so neither chunks nor
    threads change a bit. A denominator that is not positive gives NaN; one
    that overflows raises.
    """
    import scipy.sparse as sp  # here: CLI stages that never evaluate relatedness skip its import

    leads = max(_CHUNK_GROUPS // n_second, 1)
    n_lead = int(lead.max()) + 1 if lead.size else 0
    starts = np.append(np.arange(0, n_lead, leads), n_lead).astype(lead.dtype)  # no int64 lead
    bounds = np.searchsorted(lead, starts, sorter=order)
    weights = np.ascontiguousarray(weights)  # one copy, not one per chunk's product
    share = np.empty(lead.size)

    def work(ci):
        lo, hi = bounds[ci], bounds[ci + 1]
        cells = slice(lo, hi) if order is None else order[lo:hi]
        rows = (lead[cells] - int(starts[ci])) * n_second + second[cells]  # int(): lead's dtype
        c, x = col[cells], v[cells]
        groups = (starts[ci + 1] - starts[ci]) * n_second
        s = sp.csr_matrix((x, (rows, c)), shape=(groups, weights.shape[0]))
        total = np.bincount(rows, weights=x, minlength=groups)[rows]
        if scale is not None:
            with np.errstate(over="ignore"):  # not a warning: the check below raises
                total *= scale[c]
        if not np.isfinite(total).all():
            raise TradeDataError("relatedness denominator overflows the float range")
        share[cells] = np.divide(s.dot(weights)[rows, c], total,
                                 out=np.full(c.size, np.nan), where=total > 0)

    with ThreadPoolExecutor(usable_cpus() if threads is None else threads) as pool:
        list(pool.map(work, range(starts.size - 1)))
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)
    return share


def product_relatedness(tensor, prox, year, threads=None):
    """Values for every active cell of the year, aligned with tensor.flows(year).

    Cells whose product has a zero proximity marginal are returned as NaN and
    logged: their relatedness is undefined (0/0).
    """
    o, p, d, v = tensor.flows(year)
    if tensor.n_products == 1:
        return np.zeros(o.size)  # the sum over other products is empty
    omega = _weighted_share(o, d, tensor.n_countries, p, v, prox.phi, prox.marginals, threads)
    isolated = ~(prox.marginals > 0)
    skipped = p[isolated[p]] if isolated.any() else p[:0]
    if skipped.size:
        log.warning("product_relatedness year %s: %d cells skipped, %d products "
                    "have zero proximity marginal", year, skipped.size,
                    np.unique(skipped).size)
    return _check_bounds(omega, "product relatedness")


def importer_relatedness(tensor, weights, year, threads=None):
    """Values for every active cell of the year, aligned with tensor.flows(year)."""
    o, p, d, v = tensor.flows(year)
    values = _weighted_share(o, p, tensor.n_products, d, v, weights.matrix.T, None, threads)
    return _check_bounds(values, "importer relatedness")


def exporter_relatedness(tensor, weights, year, threads=None):
    """Values for every active cell of the year, aligned with tensor.flows(year)."""
    o, p, d, v = tensor.flows(year)
    values = _weighted_share(p, d, tensor.n_countries, o, v, weights.matrix.T, None, threads,
                             np.argsort(p, kind="stable"))  # the cells come sorted by o
    return _check_bounds(values, "exporter relatedness")


def compute_relatedness(tensor, prox, weights, year, threads=None):
    """All three measures for the active cells of one year; threads default to usable_cpus()."""
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

    Years are written in the order given, each dropped before the next is
    taken. Values are printed at round-trip precision. Cells with undefined
    product relatedness are dropped (and counted in the return value) rather
    than written with holes.
    """
    dropped = 0

    def parts():
        nonlocal dropped
        for rel in values_by_year:
            finite = np.isfinite(rel.omega.sum())  # every omega finite: no mask, no copies
            keep = slice(None) if finite else np.isfinite(rel.omega)
            n = rel.omega.size if finite else int(keep.sum())
            dropped += rel.omega.size - n
            yield [repeated(str(rel.year), n), codes(rel.countries, rel.o[keep]),
                   codes(rel.products, rel.p[keep]), codes(rel.countries, rel.d[keep]),
                   floats(rel.omega[keep]), floats(rel.omega_d[keep]),
                   floats(rel.omega_o[keep])]
            del rel, keep  # before the next year is computed
    write_rows(path, RELATEDNESS_COLUMNS, parts())
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
    read_countries, origin, destination = table.codes("origin", "destination")
    read_products, product = table.codes("product")
    at = positions(read_countries, countries)
    o, d, p = at[origin], at[destination], positions(read_products, products)[product]
    key = year_cell_keys(year, o, p, d, len(countries), len(products))
    table.check(
        (o < 0, lambda i: f"unknown origin '{read_countries[origin[i]]}'"),
        (p < 0, lambda i: f"unknown product '{read_products[product[i]]}'"),
        (d < 0, lambda i: f"unknown destination '{read_countries[destination[i]]}'"),
        *[(~((table[m] >= 0) & (table[m] <= 1)),
           lambda i, m=m: f"{m} {float(table[m][i])} outside [0, 1]") for m in measures],
        (repeats(key), lambda i: f"duplicate cell {int(year[i])},{read_countries[origin[i]]},"
                                 f"{read_products[product[i]]},{read_countries[destination[i]]}"))
    cells = by_year(key, year, o, p, d, *(table[m] for m in measures))
    return {y: RelatednessValues(y, *arrays, countries, products) for y, arrays in cells.items()}
