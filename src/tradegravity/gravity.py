"""Pooled two-year-ahead gravity regressions with streaming least squares.

The response is the log trade value of a cell two years ahead; the 15
regressors are the three relatedness measures, log initial flows and
marginals, log distance, log GDP per capita and population on both sides,
and four cultural dyad variables. Continuous variables are z-scored over the
regression sample (binary dummies are left alone; the response stays in log
levels unless asked otherwise).

The fitter keeps the count, column means and centered co-moments of [x | y]
per row block of a fixed size and merges them in block order along a fixed
pairwise reduction tree, so results depend neither on how the row stream was
chunked nor on how many threads read it, and the fit holds k x k numbers
per block, never a row-sized array. A split cell is z-scored on its own
moments, without copying its rows. A dataset row is its position in its base
year's cells, its response and its log flow; o, p, d and the relatedness are
read through that position, the other regressors from small per-year,
per-country and per-pair tables, one block at a time.
"""
from __future__ import annotations

import enum
import json
import logging
import math
from bisect import bisect_right
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import accumulate, zip_longest

import numpy as np

from .csvio import read_json, read_table, write_rows
from .errors import CoverageError, SingularDesignError, TradeDataError
from .ingest import _locked, cell_keys, lookup
from .relatedness import usable_cpus

log = logging.getLogger(__name__)

REGRESSOR_NAMES = (
    "omega", "omega_d", "omega_o",
    "log_x_opd", "log_x_op", "log_x_pd",
    "log_distance",
    "log_gdp_o", "log_gdp_d", "log_pop_o", "log_pop_d",
    "border", "colony", "language", "log_lang_proximity",
)
BINARY_COLUMNS = frozenset({"border", "colony", "language"})
RESPONSE_NAME = "log_x_fwd"
K_PARAMETERS = len(REGRESSOR_NAMES) + 1  # slopes plus intercept
_DESIGN_NAMES = ("const",) + REGRESSOR_NAMES
_MOMENT_NAMES = _DESIGN_NAMES + (RESPONSE_NAME,)  # the columns of [1 | x | y]
# the design-matrix columns standardize z-scores; the response is optional
_CONTINUOUS = np.array([False] + [name not in BINARY_COLUMNS for name in REGRESSOR_NAMES])

DEFAULT_PERIODS = ((2000, 2006), (2007, 2012), (2012, 2015))
HORIZON = 2  # years from a row's base year to the year of its response
_MEASURES = REGRESSOR_NAMES[:3]  # the relatedness measures, read per cell
# base-year cells the dataset build joins and writes per step
_JOIN_CELLS = 1 << 16
_BLOCK_ROWS = 1 << 12  # rows per block of every pass over a dataset; sets the fit's sum order


class ExporterClass(str, enum.Enum):
    NEW = "new"
    NASCENT = "nascent"
    EXPERIENCED = "experienced"


class LallCategory(str, enum.Enum):
    PRIMARY = "primary"
    RESOURCE_BASED = "resource_based"
    LOW_TECH = "low_tech"
    MEDIUM_TECH = "medium_tech"
    HIGH_TECH = "high_tech"
    EXCLUDED = "excluded"


# CSV code -> category, in LallCategory order: ascending sophistication, then EXCLUDED
LALL_CODES = dict(zip(("PP", "RB", "LT", "MT", "HT", "SP"), LallCategory))
LALL_RANK_ORDER = tuple(LallCategory)[:5]


class Columns(Mapping):
    """The regressor columns of a dataset's rows, read-only.

    Span k holds the rows of base year ``years[k]``: ``positions[k]`` are their
    int32 positions in the cell arrays ``cells[k]`` (o, p, d and any columns). A
    column is a stored row array, read from the cells through the positions, or
    gathered by the rows' keys from ``tables``: name -> (axes, table), the axes
    letters among t (counted from ``first_year``), o, p and d. ``design_matrix``
    gathers a block of rows at a time; ``columns[name]`` returns a stored array as
    is and builds any other column on its first read, then caches it.
    """

    def __init__(self, stored, cells, years, positions, tables=None, first_year=0):
        self._stored, self._tables, self._first_year = dict(stored), dict(tables or {}), first_year
        self._cells, self._years, self._pos = list(cells), list(years), list(positions)
        self._ends = list(accumulate(pos.size for pos in self._pos))
        self._starts, self._n, self._cache = [0] + self._ends[:-1], self._ends[-1], {}
        self._names = tuple(name for name in REGRESSOR_NAMES
                            if name in self._stored | cells[0] | self._tables)

    def __getitem__(self, name):
        if name not in self._cache:
            self._cache[name] = self._build(name)
        return self._cache[name]

    def __iter__(self):
        return iter(self._names)

    def __len__(self):
        return len(self._names)

    def column(self, name):
        """``name`` at every row, without filling the cache: for a one-off pass."""
        return self._cache[name] if name in self._cache else self._build(name)

    def read(self, spec):
        """``spec`` at every row as a read-only array, unscaled: a column, a row key
        (t, o, p or d), or an (axes, table) pair read by the rows' keys."""
        dtype = spec[1].dtype if isinstance(spec, tuple) else "i4" if len(spec) == 1 else "f8"
        out = np.empty(self._n, dtype=dtype)
        for lo in range(0, self._n, _BLOCK_ROWS):
            self._gather((spec,), slice(lo, lo + _BLOCK_ROWS), out[None, lo:lo + _BLOCK_ROWS])
        return _locked(out)

    def design_matrix(self, rows):
        """The intercept and the 15 regressors at ``rows`` (a slice or an index array)."""
        m = len(range(self._n)[rows]) if isinstance(rows, slice) else len(rows)
        return self._block(rows, np.empty((K_PARAMETERS, m))).T

    def _build(self, name):
        if name not in self._names:
            raise KeyError(name)
        return self._stored[name] if name in self._stored else self.read(name)

    def _block(self, rows, out):
        # one contiguous row per design-matrix column, so the gathers and the
        # z-scoring run along rows; only the first 16 rows of ``out`` are written
        out[0] = 1.0
        self._gather(REGRESSOR_NAMES, rows, out[1:K_PARAMETERS])
        return out

    def _gather(self, specs, rows, out):
        """Write each spec (as ``read`` takes it) at ``rows`` into its row of ``out``,
        a year at a time; positions ascend, so a run of them reads as a slice."""
        if not out.shape[1]:
            return out
        if isinstance(rows, slice) and rows.step in (None, 1):  # cut at the span edges
            lo, hi, _ = rows.indices(self._n)
            k, last = bisect_right(self._ends, lo), bisect_right(self._ends, hi - 1)
            parts = [(slice(a - lo, b - lo), slice(a, b)) for j in range(k, last + 1)
                     for a, b in [(max(lo, self._starts[j]), min(hi, self._ends[j]))]]
        else:
            rows = np.arange(self._n)[rows] if isinstance(rows, slice) else rows
            span = np.searchsorted(self._ends, rows, side="right")
            k, years = span[0], np.flatnonzero(np.bincount(span))
            parts = [(span == j, rows[span == j]) for j in years] if years.size > 1 else ()
        if len(parts) > 1:
            for part, sel in parts:
                out[:, part] = self._gather(specs, sel, np.array(out[:, part]))
            return out
        start = self._starts[k]
        pos = (self._pos[k][lo - start:hi - start] if isinstance(rows, slice)
               else self._pos[k].take(rows - start))
        pos = (slice(pos[0], pos[-1] + 1) if pos[-1] - pos[0] == pos.size - 1
               else pos.astype(np.intp))  # intp: numpy's fastest gather
        flat = {}
        key = cache(lambda axis: self._years[k] - self._first_year if axis == "t"
                    else self._cells[k][axis][pos])  # the block's t (from first_year), o, p or d
        for spec, dest in zip(specs, out):
            if isinstance(spec, tuple) or spec in self._tables:
                axes, table = spec if isinstance(spec, tuple) else self._tables[spec]
                if (axes, table.shape) not in flat:  # each table index once per call
                    index = np.intp(0)  # so an index of int32 keys is intp
                    for axis, size in zip(axes, table.shape):
                        index = index * size + key(axis)
                    flat[axes, table.shape] = index
                dest[:] = table.take(flat[axes, table.shape])
            elif spec in self._stored:
                dest[:] = self._stored[spec][rows]
            else:  # the base year, or an array of the cells
                dest[:] = self._years[k] if spec == "t" else key(spec)
        return out


class _ZScored(Columns):
    """``base`` with design-matrix column j read as (x - shift[j]) / scale[j];
    the shift 0 and scale 1 of the intercept and dummies leave them as they are."""

    def __init__(self, base, shift, scale):
        vars(self).update(vars(base), _cache={})
        self._base, self._shift, self._scale = base, shift, scale

    def _build(self, name):
        col = self._base.column(name)  # KeyError for a name the view lacks
        j = _DESIGN_NAMES.index(name)
        z = col - self._shift[j]
        z /= self._scale[j]
        return z

    def _block(self, rows, out):
        self._base._block(rows, out)
        out[:K_PARAMETERS] -= self._shift[:, None]
        out[:K_PARAMETERS] /= self._scale[:, None]
        return out


@dataclass
class GravityDataset:
    """Regression rows, stored year by year, and their response.

    ``columns`` reads their 15 regressors; ``t``, ``o``, ``p`` and ``d`` are gathered on
    each read into read-only int32 arrays. ``standardize`` sets ``moments``, those of
    the z-scored [1 | x | y], which the fit and the summaries read instead of the rows.
    """

    response: np.ndarray
    columns: Columns
    countries: tuple
    products: tuple
    moments: _Moments | None = field(default=None, init=False, repr=False)

    t, o, p, d = (property(lambda self, axis=axis: self.columns.read(axis)) for axis in "topd")

    @property
    def n(self):
        return self.response.size

    def design_matrix(self, rows=slice(None)):
        """The n x 16 matrix at ``rows`` (a slice or an index array), intercept first."""
        return self.columns.design_matrix(rows)


@dataclass(frozen=True)
class StandardizationSpec:
    """Mean and standard deviation used for each z-scored column."""

    means: dict
    stds: dict
    response_standardized: bool


@dataclass
class RegressionResult:
    names: tuple
    beta: np.ndarray
    se: np.ndarray
    tstat: np.ndarray
    pvalue: np.ndarray
    n: int
    r2: float
    adj_r2: float
    resid_se: float
    ortho_rel: float  # max |X'(y - Xb)| / max |X'y|, a fit health diagnostic

    def to_dict(self, split_key=None):
        return {
            "split_key": split_key,
            "n": int(self.n),
            "adj_r2": round(float(self.adj_r2), 6),
            "resid_se": round(float(self.resid_se), 6),
            "coefficients": [
                {"name": name,
                 "beta": round(float(self.beta[i]), 6),
                 "se": round(float(self.se[i]), 6),
                 "t": round(float(self.tstat[i]), 6),
                 "p": round(float(self.pvalue[i]), 6)}
                for i, name in enumerate(self.names)],
        }


@dataclass
class TrendResult:
    slope: float
    se: float
    pvalue: float
    significant: bool


def build_dataset(tensor, relatedness_by_year, country_meta, dyad_meta, period,
                  horizon=HORIZON, zeros="drop"):
    """Assemble pooled regression rows for one period.

    Rows are cells with a positive flow at t and, under the default
    ``zeros="drop"`` policy, a positive flow at t+horizon; ``zeros="log1p"``
    keeps exits and uses log1p of the forward value instead. All (t,
    t+horizon) pairs with both endpoints inside the inclusive period are
    stacked. Covariates are joined at year t; a missing covariate for a
    sampled row raises CoverageError naming the key.

    A row stores its int32 position in its base year's cells, its response and
    ``log_x_opd``; its o, p, d and relatedness are read through that position from
    the tensor's and the relatedness's arrays, held by reference, and the other 11
    regressors from per-year marginal, country and pair tables, logged.
    """
    if horizon < 1:
        raise TradeDataError(f"horizon must be at least 1, got {horizon}")
    start, end = int(period[0]), int(period[1])
    if end - horizon < start:
        raise TradeDataError(f"period ({start},{end}) shorter than horizon {horizon}")
    if zeros not in ("drop", "log1p"):
        raise TradeDataError(f"unknown zeros policy {zeros!r}")

    countries = tensor.countries
    products = tensor.products
    nc, np_ = len(countries), len(products)
    years = range(start, end - horizon + 1)
    fields = dyad_meta.field_matrices(countries)
    log_x_op = np.full((len(years), nc, np_), np.nan)
    log_x_pd = np.full((len(years), np_, nc), np.nan)
    log_gdp = np.full((len(years), nc), np.nan)
    log_pop = np.full((len(years), nc), np.nan)
    with np.errstate(divide="ignore"):  # the zero diagonal, which no row reads
        log_distance = np.log(fields["distance"])
    tables = {
        "log_x_op": ("top", log_x_op),
        "log_x_pd": ("tpd", log_x_pd),
        "log_distance": ("od", log_distance),
        "log_gdp_o": ("to", log_gdp),
        "log_gdp_d": ("td", log_gdp),
        "log_pop_o": ("to", log_pop),
        "log_pop_d": ("td", log_pop),
        "border": ("od", fields["border"]),
        "colony": ("od", fields["colony"]),
        "language": ("od", fields["language"]),
        "log_lang_proximity": ("od", np.log1p(fields["lang_proximity"])),
    }
    # the (year, origin, destination) entries some row reads
    reads = np.zeros((len(years), nc, nc), dtype=bool)
    dropped_omega = []  # per year

    def plan(t):
        """Check year t, fill its tables: (cells, t, kept cells, their forward cells or -1)."""
        if not tensor.has_year(t):
            raise TradeDataError(f"no flows for base year {t} in period ({start},{end})")
        rel = relatedness_by_year.get(t)
        if rel is None:
            raise TradeDataError(f"relatedness not computed for base year {t}")
        if tuple(rel.countries) != countries or tuple(rel.products) != products:
            raise TradeDataError(f"relatedness for year {t} uses a different vocabulary")
        if zeros == "drop" and not tensor.has_year(t + horizon):
            raise TradeDataError(f"no flows for forward year {t + horizon}")
        o, p, d, _ = tensor.flows(t)
        ahead = tensor.flows(t + horizon)[:3] if tensor.has_year(t + horizon) else [o[:0]] * 3

        # a file's relatedness lacks the undefined-omega cells its writer dropped:
        # it goes into the tensor's cell order once, NaN for those, which leave the sample
        cells = {"o": o, "p": p, "d": d, **{name: getattr(rel, name) for name in _MEASURES}}
        if not all(a is b or np.array_equal(a, b) for a, b in ((rel.o, o), (rel.p, p), (rel.d, d))):
            found, at = lookup(tensor.cell_keys(t), rel.cell_keys())
            if not found.all():  # the file was computed from other flows
                i = np.argmin(found)
                cell = (countries[rel.o[i]], products[rel.p[i]], countries[rel.d[i]])
                raise TradeDataError(f"relatedness cell {t},{','.join(cell)} has no trade flow")
            for name in _MEASURES:
                cells[name] = np.full(o.size, np.nan)
                cells[name][at] = getattr(rel, name)

        # chunks of cells, each joined to the forward cells in its key range: no year-sized key
        kept, fpos = np.empty(o.size, dtype=np.int32), np.empty(o.size, dtype=np.int32)
        n, first, dropped, yr = 0, 0, 0, t - start
        for lo in range(0, o.size, _JOIN_CELLS):
            chunk = slice(lo, lo + _JOIN_CELLS)
            keys = cell_keys(o[chunk], p[chunk], d[chunk], nc, np_)
            last = bisect_right(range(ahead[0].size), keys[-1], lo=first,
                                key=lambda i: cell_keys(*(a[i] for a in ahead), nc, np_))
            found, pos = lookup(cell_keys(*(a[first:last] for a in ahead), nc, np_), keys)
            at = np.where(found, pos + first, -1)  # forward positions
            first, keys, found, pos = last, None, None, None  # the join's temporaries go
            keep = at >= 0 if zeros == "drop" else np.ones(at.size, dtype=bool)
            defined = np.isfinite(cells["omega"][chunk])
            dropped += np.count_nonzero(keep & ~defined)
            keep &= defined
            for name in _MEASURES[1:]:  # every kept cell's value must be finite
                if not (keep <= np.isfinite(cells[name][chunk])).all():
                    raise TradeDataError(f"non-finite values in column {name}")
            cell = np.flatnonzero(keep)
            kept[n:n + cell.size], fpos[n:n + cell.size] = cell + lo, at[cell]
            n += cell.size
            reads[yr, o[chunk][cell], d[chunk][cell]] = True
        dropped_omega.append(dropped)
        if not n:
            return None
        for a in (kept, fpos):
            a.resize(n, refcheck=False)
        with np.errstate(divide="ignore"):  # log 0 = -inf: a marginal no row reads
            np.log(tensor.x_op(t), out=log_x_op[yr])
            np.log(tensor.x_pd(t), out=log_x_pd[yr])
        for c in np.flatnonzero(reads[yr].any(axis=1) | reads[yr].any(axis=0)):
            code = countries[c]
            log_gdp[yr, c] = country_meta.gdp_per_capita(code, t)
            log_pop[yr, c] = country_meta.population(code, t)
        np.log(log_gdp[yr], out=log_gdp[yr])
        np.log(log_pop[yr], out=log_pop[yr])
        return cells, t, kept, fpos

    plans = list(filter(None, map(plan, years)))  # the years' temporaries are gone
    if not plans:
        raise TradeDataError(f"no regression rows in period ({start},{end})")
    if sum(dropped_omega):
        log.info("build_dataset: dropped %d rows with undefined product relatedness",
                 sum(dropped_omega))
    # each pooled row is written once, into its year's slice of the two row arrays
    ends = list(accumulate(kept.size for *_, kept, _ in plans))
    response, log_x_opd = np.empty(ends[-1]), np.empty(ends[-1])
    for (_, t, kept, fpos), lo in zip(plans, [0] + ends):
        flows = tensor.flows(t)[3]
        forward = tensor.flows(t + horizon)[3] if tensor.has_year(t + horizon) else np.zeros(1)
        for at in range(0, kept.size, _JOIN_CELLS):  # chunks: np.take makes intp indices
            cell = slice(at, at + _JOIN_CELLS)
            rows = slice(lo + at, lo + min(at + _JOIN_CELLS, kept.size))
            np.take(flows, kept[cell], out=log_x_opd[rows])
            # -1 wraps to the last forward flow, set to 0 next
            np.take(forward, fpos[cell], out=response[rows], mode="wrap")
            response[rows][fpos[cell] < 0] = 0.0
    columns = Columns({"log_x_opd": log_x_opd}, *list(zip(*plans))[:3], tables, first_year=start)
    del plans  # the forward positions
    np.log(log_x_opd, out=log_x_opd)
    (np.log if zeros == "drop" else np.log1p)(response, out=response)

    reads = {"od": reads.any(axis=0), "to": reads.any(axis=2), "td": reads.any(axis=1)}
    hit = np.argwhere(reads["od"] & np.isnan(fields["distance"]))
    if hit.size:
        raise dyad_meta.missing(countries[hit[0, 0]], countries[hit[0, 1]])
    if not np.isfinite(log_x_opd).all():
        raise TradeDataError("non-finite values in column log_x_opd")
    for name, (axes, table) in tables.items():
        # x_op and x_pd are at least a kept cell's own flow: only an overflow, +inf, is read
        if (np.isposinf(table) if axes in ("top", "tpd")
                else reads[axes] & ~np.isfinite(table)).any():
            raise TradeDataError(f"non-finite values in column {name}")
    return GravityDataset(response, columns, countries, products)


def standardize(dataset, standardize_response=False):
    """Z-score every continuous column with the sample (n-1) deviation.

    Binary dummies are untouched. The response is z-scored only on request.
    A zero-variance continuous column is an error naming the column. The
    result shares the dataset's storage, z-scores its regressors as they are
    read and carries the moments of one pass over its rows, z-scored.
    """
    if dataset.n < 2:
        raise TradeDataError("cannot standardize fewer than two rows")
    moments, shift, scale = _zscored(_accumulate(dataset), standardize_response)
    scaled = np.flatnonzero(np.append(_CONTINUOUS, standardize_response))
    means, stds = ({_MOMENT_NAMES[j]: float(v[j]) for j in scaled} for v in (shift, scale))
    response = dataset.response
    if standardize_response:
        response = (response - shift[-1]) / scale[-1]
    out = replace(dataset, response=response,
                  columns=_ZScored(dataset.columns, shift[:-1], scale[:-1]))
    out.moments = moments
    return out, StandardizationSpec(means, stds, standardize_response)


class _Moments:
    """Payload of one reduction-tree node: the row count, the column means and
    the centered co-moment matrix C of [x | y]."""

    __slots__ = ("n", "mean", "c")

    def __init__(self, n, mean, c):
        self.n, self.mean, self.c = n, mean, c

    @classmethod
    def of(cls, block):
        """The moments of a block with one row per column, in any memory layout."""
        # dev is C-ordered for any block layout, so its row means and products sum in one
        # order; deviations from the first entry are exactly zero in a constant column,
        # so its C entries stay zero. np.dot(dev, dev.T) runs as a BLAS syrk whose bits do
        # not depend on the BLAS thread count (a subprocess test guards this). It is
        # dev @ dev.T's syrk, bit for bit, but releases the GIL, which numpy's @ holds,
        # so the workers of _accumulate overlap
        dev = np.subtract(block, block[:, :1], order="C")
        offset = dev.mean(axis=1)
        dev -= offset[:, None]
        return cls(block.shape[1], block[:, 0] + offset, np.dot(dev, dev.T))

    def __add__(self, other):
        # pairwise update of Chan, Golub & LeVeque (1979)
        n = self.n + other.n
        delta = other.mean - self.mean
        return _Moments(n, self.mean + delta * (other.n / n),
                        self.c + other.c + np.outer(delta, delta) * (self.n * other.n / n))

    def std(self):
        """Sample (n-1) standard deviation of each column; 0 for a constant one."""
        return np.sqrt(np.diag(self.c) / max(self.n - 1, 1))

    def solve(self, names):
        """OLS of the last column on the others."""
        return solve_normal_equations(self.c, self.mean, self.n, names)


def _push(nodes, moments, block_rows):
    """Append a block's moments to ``nodes``, its (whole blocks, _Moments) runs, and
    merge equal runs like a binary counter; a partial block counts 0, so stays last."""
    nodes.append((moments.n // block_rows, moments))
    while len(nodes) >= 2 and nodes[-2][0] == nodes[-1][0]:
        (blocks, a), (_, b) = nodes[-2:]
        nodes[-2:] = [(2 * blocks, a + b)]


def _total(nodes):
    """The sum of the runs in ``nodes``, added in block order."""
    if not nodes:
        raise TradeDataError("no rows accumulated")
    return sum((payload for _, payload in nodes[1:]), nodes[0][1])


def _checked(x, y, k):
    """x (m, k) and y (m,) as float64; a bad shape or a non-finite entry is an error."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != k or y.shape != (x.shape[0],):
        raise TradeDataError(f"bad chunk shape {x.shape}/{y.shape} for k={k}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise TradeDataError("non-finite entries in regression chunk")
    return x, y


class StreamingOLS:
    """One-pass least-squares accumulator over a fixed pairwise reduction tree.

    Rows fed through ``add`` are re-blocked internally to ``block_rows``, so
    the result is bitwise identical however the stream was chunked. Completed
    blocks combine in block order like the bits of a binary counter, so any
    producer that pushes the same blocks in the same order reproduces the
    single-stream result exactly. Memory is O(k^2 log n_blocks).
    """

    def __init__(self, names, block_rows=_BLOCK_ROWS):
        self.names = tuple(names)
        self.k = len(self.names)
        self.block_rows = int(block_rows)
        self._nodes = []  # (whole blocks, _Moments) runs, chronological
        self._buf = np.empty((self.k + 1, self.block_rows))  # [x | y] of the open block, by column
        self._buffered = 0

    def add(self, x, y):
        """Accumulate a chunk of rows; x is (m, k), y is (m,)."""
        x, y = _checked(x, y, self.k)
        pos, m = 0, x.shape[0]
        while pos < m:
            take = min(self.block_rows - self._buffered, m - pos)
            block = self._buf[:, self._buffered:self._buffered + take]
            block[:-1] = x[pos:pos + take].T
            block[-1] = y[pos:pos + take]
            self._buffered += take
            pos += take
            if self._buffered == self.block_rows:
                self._buffered = 0
                _push(self._nodes, _Moments.of(self._buf), self.block_rows)

    def result(self):
        """Solve the accumulated normal equations."""
        partial = [(0, _Moments.of(self._buf[:, :self._buffered]))] if self._buffered else []
        return _total(self._nodes + partial).solve(self.names)


def _cholesky_with_diagnostics(a, names, tol=1e-10):
    """Pivot-free Cholesky; raises SingularDesignError naming dependent columns."""
    k = a.shape[0]
    l = np.zeros_like(a)
    scale = float(np.max(np.abs(np.diag(a)))) or 1.0
    dependent = []
    for j in range(k):
        s = a[j, j] - l[j, :j] @ l[j, :j]
        if s <= tol * scale:
            dependent.append(names[j])
            l[j, j] = np.inf  # neutralize the column, keep scanning for more
            continue
        l[j, j] = np.sqrt(s)
        if j + 1 < k:
            l[j + 1:, j] = (a[j + 1:, j] - l[j + 1:, :j] @ l[j, :j]) / l[j, j]
    if dependent:
        raise SingularDesignError(dependent)
    return l


def t_pvalue(tstat, df):
    """Two-sided p-value of t statistics on df degrees of freedom.

    stdtr(df, -|t|) is the t distribution's survival function at |t|, the
    same kernel scipy.stats.t.sf calls, without importing scipy.stats.
    """
    from scipy.special import stdtr  # here: CLI stages that fit nothing skip its import
    return 2.0 * stdtr(df, -np.abs(tstat))


def solve_normal_equations(c, mean, n, names):
    """Classical homoskedastic OLS of the last column of [x | y] on the others,
    from the row count, the column means and the centered co-moment matrix C.

    The coefficients solve the normal equations G b = x'y with
    G = C + n m m'. The residual sum of squares is the residual's centered
    sum of squares plus n times its squared mean, which holds for any b and
    any design and keeps clear of the n m^2 terms whose cancellation loses
    digits when the response's mean is large against its residual spread.
    """
    k = len(names)
    if n <= k:
        raise TradeDataError(f"need more than k={k} rows, got n={n}")
    g = c + n * np.outer(mean, mean)
    xtx, xty = g[:k, :k], g[:k, k]
    l = _cholesky_with_diagnostics(xtx, names)
    z = np.linalg.solve(l, xty)
    beta = np.linalg.solve(l.T, z)
    inv = np.linalg.solve(l.T, np.linalg.solve(l, np.eye(k)))

    resid_mean = float(mean[k] - mean[:k] @ beta)
    rss = float(c[k, k] - 2.0 * beta @ c[:k, k] + beta @ (c[:k, :k] @ beta)
                + n * resid_mean * resid_mean)
    rss = max(rss, 0.0)
    tss = float(c[k, k])
    sigma2 = rss / (n - k)
    se = np.sqrt(np.maximum(sigma2 * np.diag(inv), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        tstat = np.where(se > 0, beta / se, np.where(beta == 0, 0.0, np.inf * np.sign(beta)))
    pvalue = t_pvalue(tstat, n - k)
    r2 = 1.0 - rss / tss if tss > 0 else 0.0
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - k)
    resid = xty - xtx @ beta
    denom = float(np.max(np.abs(xty))) or 1.0
    ortho = float(np.max(np.abs(resid))) / denom
    if ortho > 1e-6:
        log.warning("normal-equation residual %.2e exceeds 1e-6; "
                    "the design may be badly conditioned", ortho)
    return RegressionResult(names=tuple(names), beta=beta, se=se, tstat=tstat,
                            pvalue=pvalue, n=int(n), r2=float(r2),
                            adj_r2=float(adj_r2),
                            resid_se=float(np.sqrt(sigma2)), ortho_rel=ortho)


def _accumulate(dataset, rows=None, threads=None):
    """The moments of [1 | x | y] over ``rows`` (a range or an index array; None is
    every row, whose moments a dataset made by ``standardize`` carries), else streamed
    by blocks: worker j of ``threads`` (None: every usable CPU) reads blocks j,
    j + threads, ..., and their moments join in block order, so ``threads`` never
    changes the bits."""
    if rows is None and dataset.moments is not None:
        return dataset.moments
    rows = range(dataset.n) if rows is None else rows
    n = len(rows)
    threads = usable_cpus() if threads is None else threads

    def stride(j):
        # each worker gathers its blocks in place into one (17, _BLOCK_ROWS) buffer:
        # a fresh array per block made _Moments.of twice as slow
        buf, out = np.empty((K_PARAMETERS + 1, _BLOCK_ROWS)), []
        for lo in range(j * _BLOCK_ROWS, n, threads * _BLOCK_ROWS):
            block, sel = buf[:, :n - lo], rows[lo:lo + _BLOCK_ROWS]
            sel = slice(sel.start, sel.stop) if isinstance(sel, range) else sel
            dataset.columns._block(sel, block)
            block[-1] = dataset.response[sel]
            if not np.isfinite(block).all():
                raise TradeDataError("non-finite entries in regression chunk")
            out.append(_Moments.of(block))
        return out

    nodes = []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for blocks in zip_longest(*pool.map(stride, range(threads))):
            for moments in blocks:
                if moments is not None:
                    _push(nodes, moments, _BLOCK_ROWS)
    return _total(nodes)


def fit_ols(dataset, threads=None):
    """Fit the full 16-parameter model from the moments ``standardize`` left on the
    dataset, else streamed by blocks; ``threads`` (None: every usable CPU) never changes it."""
    return _accumulate(dataset, threads=threads).solve(_DESIGN_NAMES)


def _zscored(moments, standardize_response):
    """The moments of the same rows after ``standardize``, and the shift and scale
    that make every continuous column (and the response on request) a z-score."""
    scaled = np.append(_CONTINUOUS, standardize_response)
    std = moments.std()
    zero = np.flatnonzero(scaled & (std == 0))
    if zero.size:
        raise TradeDataError(
            f"zero-variance column {_MOMENT_NAMES[zero[0]]} cannot be standardized")
    shift, scale = np.where(scaled, moments.mean, 0.0), np.where(scaled, std, 1.0)
    z = _Moments(moments.n, np.where(scaled, 0.0, moments.mean),
                 moments.c / np.outer(scale, scale))
    return z, shift, scale


def check_exporter_thresholds(new_threshold, experienced_threshold):
    """Raise unless the thresholds give three ordered, finite exporter classes."""
    if not 0 <= new_threshold <= experienced_threshold < np.inf:
        raise TradeDataError(f"exporter thresholds need 0 <= new ({new_threshold}) "
                             f"<= experienced ({experienced_threshold}), both finite")


def _exporter_codes(r, new_threshold, experienced_threshold):
    """Positions in ``ExporterClass`` of RCA values r >= 0, a float or an array."""
    check_exporter_thresholds(new_threshold, experienced_threshold)
    return 0 + (r >= new_threshold) + (r > experienced_threshold)


_EXPORTER_CLASSES = tuple(ExporterClass)


def classify_exporter(rca_value, new_threshold=0.2, experienced_threshold=1.0):
    """Three-way exporter experience class from an RCA value."""
    if not (rca_value >= 0 and math.isfinite(rca_value)):
        raise TradeDataError(f"RCA must be finite and non-negative, got {rca_value}")
    return _EXPORTER_CLASSES[_exporter_codes(rca_value, new_threshold, experienced_threshold)]


def exporter_class_codes(dataset, rca, new_threshold=0.2, experienced_threshold=1.0):
    """Per-row positions in ``ExporterClass`` from a classification RCA matrix;
    countries it lacks (no exports in its window) count as RCA 0, hence new."""
    if tuple(rca.countries) != tuple(dataset.countries) or \
            tuple(rca.products) != tuple(dataset.products):
        raise TradeDataError("classification RCA uses a different vocabulary")
    return dataset.columns.read(("op", _exporter_codes(  # fmax takes the number over a NaN
        np.fmax(rca.values, 0.0), new_threshold, experienced_threshold).astype(np.uint8)))


class LallConcordance:
    """Product to technology-category mapping loaded from hs4,sitc3,category rows."""

    def __init__(self, mapping):
        self._mapping = dict(mapping)

    @classmethod
    def from_csv(cls, path):
        table = read_table(path, ("hs4", "sitc3", "category"))
        products = table["hs4"].tolist()
        codes = [code.upper() for code in table["category"].tolist()]
        categories = [LALL_CODES.get(code) for code in codes]
        first = {}
        for product, category in zip(products, categories):
            first.setdefault(product, category)
        table.check(
            (np.array([c is None for c in categories], dtype=bool),
             lambda i: f"unknown category code {codes[i]!r}"),
            (np.array([first[p] is not c for p, c in zip(products, categories)], dtype=bool),
             lambda i: f"conflicting category for {products[i]}"))
        return cls(zip(products, categories))

    def category(self, product):
        try:
            return self._mapping[product]
        except KeyError:
            raise CoverageError(f"product {product} missing from the concordance") from None

    def coverage_report(self, products):
        """Products with no concordance entry."""
        return sorted(p for p in products if p not in self._mapping)


def lall_codes(dataset, concordance):
    """Per-row positions in ``LallCategory``; every product a row reads must map."""
    unmapped = set(concordance.coverage_report(dataset.products))
    table = np.array([255 if name in unmapped else
                      tuple(LallCategory).index(concordance.category(name))
                      for name in dataset.products], dtype=np.uint8)
    codes = dataset.columns.read(("p", table))
    if codes.max(initial=0) == 255:  # 255 marks a product the concordance lacks
        missing = sorted({dataset.products[i] for i in dataset.p[codes == 255].tolist()})
        raise CoverageError(
            f"{len(missing)} products missing from the concordance: {missing[:10]}")
    return codes


def run_split_regressions(dataset, split, periods=None, horizon=HORIZON, rca=None,
                          concordance=None, new_threshold=0.2,
                          experienced_threshold=1.0, standardize_response=False,
                          threads=None):
    """Fit the model within each split cell, z-scored over the cell's own rows.

    ``split`` is one of "none", "period", "exporter", "lall". Period splits
    select rows by base year (overlapping periods are allowed and share
    rows); exporter splits need the classification ``rca``; lall splits need
    the ``concordance`` and drop the excluded category. Each cell is read in
    place and z-scored through its co-moments, as ``standardize`` would.
    Cells that are too small or degenerate are skipped with a warning.
    """
    def fit_cell(key, rows):
        n = dataset.n if rows is None else len(rows)
        if n <= K_PARAMETERS:
            log.warning("split %s cell %s skipped: n=%d <= k=%d", split, key,
                        n, K_PARAMETERS)
            return None
        try:
            moments = _accumulate(dataset, rows, threads=threads)
            return _zscored(moments, standardize_response)[0].solve(_DESIGN_NAMES)
        except TradeDataError as exc:
            log.warning("split %s cell %s skipped: %s", split, key, exc)
            return None

    # (key, rows) per cell, made lazily; None keeps every row
    if split == "none":
        cells = [("all", None)]
    elif split == "period":
        if not periods:
            raise TradeDataError("period split needs period definitions")
        t = dataset.t  # ascending, as rows are stored year by year: a cell is a run of rows
        cells = ((f"{a}-{b}", range(*np.searchsorted(t, (a, b - horizon + 1)))) for a, b in periods)
    elif split in ("exporter", "lall"):
        if split == "exporter":
            if rca is None:
                raise TradeDataError("exporter split needs a classification RCA matrix")
            codes = exporter_class_codes(dataset, rca, new_threshold, experienced_threshold)
        elif concordance is None:
            raise TradeDataError("lall split needs a concordance")
        else:
            codes = lall_codes(dataset, concordance)
        order = np.argsort(codes, kind="stable")  # each code's rows, ascending, as one slice
        bounds = np.arange(len(LallCategory) + 1, dtype=np.uint8)  # the codes' dtype: no copy
        edges = np.searchsorted(codes, bounds, sorter=order)
        if edges[-1] > edges[-2]:  # EXCLUDED, the last Lall code, joins no cell
            log.info("lall split: dropping %d special-transaction rows", edges[-1] - edges[-2])
        keys = tuple(ExporterClass) if split == "exporter" else LALL_RANK_ORDER
        cells = ((key.value, order[a:b]) for key, a, b in zip(keys, edges, edges[1:]))
    else:
        raise TradeDataError(f"unknown split {split!r}")
    results = {}
    for key, rows in cells:
        res = fit_cell(key, rows)
        if res is not None:
            results[key] = res
    return results


def summary_stats(dataset):
    """Per regressor: (name, n, mean, std, min, max); a constant column is flagged.
    n, mean and std come from the co-moments, min and max from one pass over
    blocks of rows gathered into one reused buffer."""
    moments = _accumulate(dataset)
    std = moments.std()
    buf = np.empty((K_PARAMETERS, _BLOCK_ROWS))
    low, high = np.full(K_PARAMETERS, np.inf), np.full(K_PARAMETERS, -np.inf)
    for lo in range(0, dataset.n, _BLOCK_ROWS):
        block = dataset.columns._block(slice(lo, lo + _BLOCK_ROWS), buf[:, :dataset.n - lo])
        np.minimum(low, block.min(axis=1), out=low)
        np.maximum(high, block.max(axis=1), out=high)
    rows = []
    for j, name in enumerate(REGRESSOR_NAMES, start=1):
        if std[j] == 0:
            log.warning("summary_stats: column %s has zero variance", name)
        rows.append((name, moments.n, float(moments.mean[j]), float(std[j]),
                     float(low[j]), float(high[j])))
    return rows


def correlation_matrix(dataset):
    """Pearson correlations of the 15 regressors, from the co-moments; unit diagonal."""
    c = _accumulate(dataset).c[1:-1, 1:-1]
    d = np.sqrt(np.diag(c))
    constant = np.flatnonzero(d == 0)
    if constant.size:
        raise TradeDataError(f"zero-variance column {REGRESSOR_NAMES[constant[0]]} "
                             "has no correlation")
    return REGRESSOR_NAMES, np.clip(c / d[:, None] / d, -1.0, 1.0)


def trend_test(coefficients, std_errors):
    """Weighted least-squares trend of five coefficients on category rank 1..5.

    Weights are inverse squared standard errors; the slope's standard error
    uses the weighted residual variance on 3 degrees of freedom, and the
    two-sided p-value comes from the t distribution. Significant means
    p < 0.1.
    """
    y = np.asarray(coefficients, dtype=np.float64)
    se = np.asarray(std_errors, dtype=np.float64)
    if y.shape != (5,) or se.shape != (5,):
        raise TradeDataError("trend test needs exactly five (coefficient, SE) pairs")
    if np.any(se <= 0):
        raise TradeDataError("all coefficient standard errors must be positive")
    x = np.arange(1.0, 6.0)
    w = 1.0 / se ** 2
    xbar = float(np.sum(w * x) / np.sum(w))
    ybar = float(np.sum(w * y) / np.sum(w))
    sxx = float(np.sum(w * (x - xbar) ** 2))
    slope = float(np.sum(w * (x - xbar) * (y - ybar)) / sxx)
    resid = y - (ybar + slope * (x - xbar))
    s2 = float(np.sum(w * resid ** 2) / 3.0)
    slope_se = float(np.sqrt(s2 / sxx))
    if slope_se == 0:
        pvalue = 1.0 if slope == 0 else 0.0
    else:
        pvalue = float(t_pvalue(slope / slope_se, 3))
    return TrendResult(slope=slope, se=slope_se, pvalue=pvalue,
                       significant=pvalue < 0.1)


def trend_over_lall(results_by_category):
    """Trend test for every coefficient across the five categories in rank order.

    ``results_by_category`` maps the five non-excluded category values to
    RegressionResult; all five must be present.
    """
    missing = [c.value for c in LALL_RANK_ORDER if c.value not in results_by_category]
    if missing:
        raise TradeDataError(f"trend needs all five categories, missing {missing}")
    ordered = [results_by_category[c.value] for c in LALL_RANK_ORDER]
    out = {}
    names = ordered[0].names
    for i, name in enumerate(names):
        if name == "const":
            continue
        coefs = [r.beta[i] for r in ordered]
        ses = [r.se[i] for r in ordered]
        out[name] = trend_test(coefs, ses)
    return out


def write_results_json(results, path):
    payload = [res.to_dict(split_key=key) for key, res in sorted(results.items())]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_results_json(path):
    """Rebuild {split_key: RegressionResult} from write_results_json output."""
    results = {}
    try:
        for entry in read_json(path):
            coefs = entry["coefficients"]
            beta, se, tstat, pvalue = (np.array([c[k] for c in coefs], dtype=np.float64)
                                       for k in ("beta", "se", "t", "p"))
            results[entry["split_key"]] = RegressionResult(
                names=tuple(c["name"] for c in coefs), beta=beta, se=se, tstat=tstat,
                pvalue=pvalue, n=entry["n"], r2=float("nan"), adj_r2=entry["adj_r2"],
                resid_se=entry["resid_se"], ortho_rel=float("nan"))
    except (KeyError, TypeError, ValueError) as exc:
        raise TradeDataError(f"{path}: not a gravity results file: "
                             f"{type(exc).__name__} {exc}") from None
    return results


def write_results_csv(results, path):
    """Table-style rendering: one coefficient row pair per variable and split."""
    keys = sorted(results)
    fits = [results[k] for k in keys]
    rows = []
    for i, name in enumerate(fits[0].names if fits else ()):
        rows.append([name] + [f"{r.beta[i]:.6f}" for r in fits])
        rows.append([f"{name}_se"] + [f"({r.se[i]:.6f})" for r in fits])
    rows.append(["n"] + [str(r.n) for r in fits])
    rows.append(["adj_r2"] + [f"{r.adj_r2:.6f}" for r in fits])
    rows.append(["resid_se"] + [f"{r.resid_se:.6f}" for r in fits])
    write_rows(path, ["variable"] + [str(k) for k in keys], [list(zip(*rows))])


def write_trend_csv(trends, path):
    rows = [(name, f"{t.slope:.6f}", f"{t.se:.6f}", f"{t.pvalue:.6f}", str(t.significant).lower())
            for name, t in sorted(trends.items())]
    write_rows(path, ("variable", "slope", "se", "p", "significant"), [list(zip(*rows))])


def write_summary_csv(rows, path):
    rows = [(name, str(n), *(f"{x:.6f}" for x in stats)) for name, n, *stats in rows]
    write_rows(path, ("variable", "n", "mean", "std", "min", "max"), [list(zip(*rows))])


def write_correlation_csv(names, matrix, path):
    rows = [[name] + [f"{matrix[i, j]:.6f}" for j in range(len(names))]
            for i, name in enumerate(names)]
    write_rows(path, ["variable"] + list(names), [list(zip(*rows))])
