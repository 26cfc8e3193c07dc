"""Pooled two-year-ahead gravity regressions with streaming least squares.

The response is the log trade value of a cell two years ahead; the 15
regressors are the three relatedness measures, log initial flows and
marginals, log distance, log GDP per capita and population on both sides,
and four cultural dyad variables. Continuous variables are z-scored over the
regression sample (binary dummies are left alone; the response stays in log
levels unless asked otherwise).

The fitter keeps the count, column means and centered co-moments of [x | y]
per row block of a fixed size and merges them along a fixed pairwise
reduction tree, so results do not depend on how the row stream was chunked,
and accumulator memory stays at k x k regardless of sample size. A split
cell is z-scored on its own moments, without copying its rows. A dataset
stores per row only what varies by row and gathers the other regressors
from small per-year, per-country and per-pair tables one block at a time.
"""
from __future__ import annotations

import enum
import json
import logging
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .csvio import read_json, read_table, write_rows
from .errors import CoverageError, SingularDesignError, TradeDataError
from .ingest import lookup

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


# CSV code -> category, ascending technological sophistication for the first five
LALL_CODES = {
    "PP": LallCategory.PRIMARY,
    "RB": LallCategory.RESOURCE_BASED,
    "LT": LallCategory.LOW_TECH,
    "MT": LallCategory.MEDIUM_TECH,
    "HT": LallCategory.HIGH_TECH,
    "SP": LallCategory.EXCLUDED,
}
LALL_RANK_ORDER = (LallCategory.PRIMARY, LallCategory.RESOURCE_BASED,
                   LallCategory.LOW_TECH, LallCategory.MEDIUM_TECH,
                   LallCategory.HIGH_TECH)


class Columns(Mapping):
    """The regressor columns of a dataset's rows, read-only.

    A column is stored as a row array, or gathered from a small table by the
    rows' keys: ``tables`` maps a name to (axes, table), where the axes are
    letters among t (base year, counted from ``first_year``), o, p and d, and
    ``keys`` holds the rows' t, o, p and d. ``design_matrix`` gathers one block
    of rows at a time; ``columns[name]`` returns a stored array as is and
    builds a gathered column on its first read, then caches it.
    """

    # rows gathered per step when a whole column is built: as fast as larger
    # steps, with temporaries well under one column
    _BUILD_ROWS = 1 << 14

    def __init__(self, stored, tables=None, keys=None, first_year=0):
        self._stored = dict(stored)
        self._tables = dict(tables or {})
        self._keys = keys
        self._first_year = first_year
        self._names = tuple(self._stored) + tuple(self._tables)
        self._n = (keys["o"] if keys else next(iter(self._stored.values()))).size
        self._cache = {}

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

    def design_matrix(self, rows):
        """The intercept and the 15 regressors at ``rows`` (a slice or an index array)."""
        return self._block(rows).T

    def _build(self, name):
        if name in self._stored:
            return self._stored[name]
        if name not in self._tables:
            raise KeyError(name)
        out = np.empty((1, self._n))
        for lo in range(0, self._n, self._BUILD_ROWS):
            rows = slice(lo, lo + self._BUILD_ROWS)
            self._gather((name,), rows, out[:, rows])
        return out[0]

    def _block(self, rows):
        # one contiguous row per design-matrix column, so the gathers and the
        # z-scoring run along rows
        m = len(range(self._n)[rows]) if isinstance(rows, slice) else len(rows)
        x = np.empty((K_PARAMETERS, m))
        x[0] = 1.0
        self._gather(REGRESSOR_NAMES, rows, x[1:])
        return x

    def _gather(self, names, rows, out):
        """Write each named column at ``rows`` into its row of ``out``."""
        keys, flat = {}, {}
        for name, dest in zip(names, out):
            if name in self._stored:
                dest[:] = self._stored[name][rows]
                continue
            axes, table = self._tables[name]
            if axes not in flat:  # each table index once per call
                index = 0
                for axis, size in zip(axes, table.shape):
                    if axis not in keys:
                        keys[axis] = self._keys[axis][rows].astype(np.intp)
                        if axis == "t":
                            keys[axis] -= self._first_year
                    index = index * size + keys[axis]
                flat[axes] = index
            dest[:] = table.take(flat[axes])


class _ZScored(Columns):
    """``base`` with design-matrix column j read as (x - shift[j]) / scale[j];
    the shift 0 and scale 1 of the intercept and dummies leave them as they are."""

    def __init__(self, base, shift, scale):
        self._base, self._shift, self._scale = base, shift, scale
        self._names, self._n, self._cache = base._names, base._n, {}

    def _build(self, name):
        col = self._base.column(name)  # KeyError for a name the view lacks
        j = _DESIGN_NAMES.index(name)
        z = col - self._shift[j]
        z /= self._scale[j]
        return z

    def _block(self, rows):
        x = self._base._block(rows)
        x -= self._shift[:, None]
        x /= self._scale[:, None]
        return x


@dataclass
class GravityDataset:
    """Regression rows keyed by (t, origin, product, destination).

    ``columns`` reads the 15 regressors; a plain mapping of row arrays is
    wrapped in ``Columns``. ``standardize`` sets ``moments``, those of the z-scored
    [1 | x | y], which the fit and the summaries read instead of the rows.
    """

    t: np.ndarray
    o: np.ndarray
    p: np.ndarray
    d: np.ndarray
    response: np.ndarray
    columns: Columns
    countries: tuple
    products: tuple
    moments: _Moments | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.columns, Columns):
            self.columns = Columns(self.columns)

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

    def coefficient(self, name):
        return float(self.beta[self.names.index(name)])

    def to_dict(self, split_key=None):
        out = {
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
        return out


@dataclass
class TrendResult:
    slope: float
    se: float
    pvalue: float
    significant: bool


def build_dataset(tensor, relatedness_by_year, country_meta, dyad_meta, period,
                  horizon=2, zeros="drop"):
    """Assemble pooled regression rows for one period.

    Rows are cells with a positive flow at t and, under the default
    ``zeros="drop"`` policy, a positive flow at t+horizon; ``zeros="log1p"``
    keeps exits and uses log1p of the forward value instead. All (t,
    t+horizon) pairs with both endpoints inside the inclusive period are
    stacked. Covariates are joined at year t; a missing covariate for a
    sampled row raises CoverageError naming the key.

    Each row stores its keys, the response, the three relatedness measures
    and ``log_x_opd``; the other 11 regressors are gathered from per-year
    marginal, country and pair tables, with the log already applied.
    """
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

    missing_pair = np.isnan(fields["distance"])
    chunks = []
    dropped_omega = 0
    for yr, t in enumerate(years):
        if not tensor.has_year(t):
            raise TradeDataError(f"no flows for base year {t} in period ({start},{end})")
        rel = relatedness_by_year.get(t)
        if rel is None:
            raise TradeDataError(f"relatedness not computed for base year {t}")
        if tuple(rel.countries) != countries or tuple(rel.products) != products:
            raise TradeDataError(f"relatedness for year {t} uses a different vocabulary")

        o, p, d, v = tensor.flows(t)
        keys = tensor.cell_keys(t)
        fwd, found = np.zeros(keys.size), np.zeros(keys.size, dtype=bool)
        if tensor.has_year(t + horizon):
            found, pos = lookup(tensor.cell_keys(t + horizon), keys)
            fwd[found] = tensor.flows(t + horizon)[3][pos[found]]
        elif zeros == "drop":
            raise TradeDataError(f"no flows for forward year {t + horizon}")
        keep = found if zeros == "drop" else np.ones(keys.size, dtype=bool)

        # relatedness computed from this tensor holds its cells in its order;
        # a file's cells lack the undefined-omega ones its writer dropped,
        # which leave the sample the same way
        if all(a is b or np.array_equal(a, b) for a, b in ((rel.o, o), (rel.p, p), (rel.d, d))):
            rpos, omega = None, rel.omega
        else:
            rel_found, rpos = lookup(rel.cell_keys(), keys)
            omega = np.where(rel_found, rel.omega[rpos], np.nan)
        omega_defined = np.isfinite(omega)
        dropped_omega += int((keep & ~omega_defined).sum())
        keep &= omega_defined

        if not keep.any():
            continue
        o, p, d, v, fwd = o[keep], p[keep], d[keep], v[keep], fwd[keep]
        rsel = keep if rpos is None else rpos[keep]
        chunks.append((np.full(o.size, t, dtype=np.int32), o, p, d,
                       np.log(fwd) if zeros == "drop" else np.log1p(fwd),
                       omega[keep], rel.omega_d[rsel], rel.omega_o[rsel], np.log(v)))

        with np.errstate(divide="ignore"):  # log 0 = -inf: a marginal no row reads
            np.log(tensor.x_op(t), out=log_x_op[yr])
            np.log(tensor.x_pd(t), out=log_x_pd[yr])
        seen = np.zeros(nc, dtype=bool)
        seen[o] = seen[d] = True
        for c in np.flatnonzero(seen):
            code = countries[c]
            log_gdp[yr, c] = country_meta.gdp_per_capita(code, t)
            log_pop[yr, c] = country_meta.population(code, t)
        np.log(log_gdp[yr], out=log_gdp[yr])
        np.log(log_pop[yr], out=log_pop[yr])
        if missing_pair.any():
            hit = np.flatnonzero(missing_pair[o, d])
            if hit.size:
                raise CoverageError(f"no dyad data for sampled pair "
                                    f"({countries[o[hit[0]]]},{countries[d[hit[0]]]})")

    if not chunks:
        raise TradeDataError(f"no regression rows in period ({start},{end})")
    if dropped_omega:
        log.info("build_dataset: dropped %d rows with undefined product relatedness",
                 dropped_omega)
    # a single-year pool skips the concatenate copy
    t, o, p, d, response, *stored = (c[0] if len(chunks) == 1 else np.concatenate(c)
                                     for c in zip(*chunks))
    stored = dict(zip(REGRESSOR_NAMES, stored))
    for name in REGRESSOR_NAMES:
        if name in stored:
            finite = np.isfinite(stored[name]).all()
        else:
            finite = not _reads_non_finite(*tables[name], chunks, start)
        if not finite:
            raise TradeDataError(f"non-finite values in column {name}")
    columns = Columns(stored, tables, {"t": t, "o": o, "p": p, "d": d}, first_year=start)
    return GravityDataset(t=t, o=o, p=p, d=d, response=response, columns=columns,
                          countries=countries, products=products)


def _reads_non_finite(axes, table, chunks, first_year):
    """Whether a row of ``chunks`` reads a non-finite entry of a gathered table."""
    for t, o, p, d, *_ in chunks:
        bad = ~np.isfinite(table[t[0] - first_year] if axes[0] == "t" else table)
        at = tuple({"o": o, "p": p, "d": d}[axis] for axis in axes.removeprefix("t"))
        if bad.any() and bad[at].any():
            return True
    return False


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
    def of(cls, rows):
        # deviations from the first row are exactly zero in a constant column, so
        # its C entries stay zero; unoptimized einsum stays off the BLAS
        # threading path, so block sums do not depend on the thread configuration
        dev = rows - rows[0]
        offset = dev.mean(axis=0)
        dev -= offset
        return cls(rows.shape[0], rows[0] + offset,
                   np.einsum("ni,nj->ij", dev, dev, optimize=False))

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


class StreamingOLS:
    """One-pass least-squares accumulator over a fixed pairwise reduction tree.

    Rows fed through ``add`` are re-blocked internally to ``block_rows``, so
    the result is bitwise identical however the stream was chunked. Completed
    blocks combine along a binary tree keyed by global block index, which
    makes ``merge`` of block-aligned partial accumulators reproduce the
    single-stream result exactly. Memory is O(k^2 log n_blocks).
    """

    def __init__(self, names, block_rows=4096, start_block=0):
        self.names = tuple(names)
        self.k = len(self.names)
        self.block_rows = int(block_rows)
        self.start_block = int(start_block)
        self._next_block = int(start_block)
        self._nodes = []  # (start_block, level, _Moments), chronological
        self._buf = np.empty((self.block_rows, self.k + 1))  # [x | y] of the open block
        self._buffered = 0

    def add(self, x, y):
        """Accumulate a chunk of rows; x is (m, k), y is (m,)."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.k or y.shape != (x.shape[0],):
            raise TradeDataError(
                f"bad chunk shape {x.shape}/{y.shape} for k={self.k}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise TradeDataError("non-finite entries in regression chunk")
        pos, m = 0, x.shape[0]
        while pos < m:
            take = min(self.block_rows - self._buffered, m - pos)
            block = self._buf[self._buffered:self._buffered + take]
            block[:, :-1] = x[pos:pos + take]
            block[:, -1] = y[pos:pos + take]
            self._buffered += take
            pos += take
            if self._buffered == self.block_rows:
                self._buffered = 0
                self._nodes.append((self._next_block, 0, _Moments.of(self._buf)))
                self._next_block += 1
                self._normalize()

    def _normalize(self):
        nodes = self._nodes
        while len(nodes) >= 2:
            (a, la, pa), (b, lb, pb) = nodes[-2], nodes[-1]
            if la == lb and b == a + 2 ** la and a % 2 ** (la + 1) == 0:
                nodes[-2:] = [(a, la + 1, pa + pb)]
            else:
                break

    def merge(self, other):
        """Absorb an accumulator covering the blocks right after this one."""
        if self._buffered:
            raise TradeDataError("cannot merge into an accumulator with a partial block")
        if other.start_block != self._next_block:
            raise TradeDataError(
                f"merge misaligned: expected start block {self._next_block}, "
                f"got {other.start_block}")
        if other.names != self.names or other.block_rows != self.block_rows:
            raise TradeDataError("merge of incompatible accumulators")
        for node in other._nodes:
            self._nodes.append(node)
            self._normalize()
        self._next_block = other._next_block
        self._buffered = other._buffered
        self._buf[:self._buffered] = other._buf[:self._buffered]
        return self

    def _total(self):
        parts = [payload for _, _, payload in self._nodes]  # chronological
        if self._buffered:
            parts.append(_Moments.of(self._buf[:self._buffered]))
        if not parts:
            raise TradeDataError("no rows accumulated")
        return sum(parts[1:], parts[0])

    def result(self):
        """Solve the accumulated normal equations."""
        return self._total().solve(self.names)


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


def _accumulate(dataset, rows=None, block_rows=4096, threads=1):
    """The moments of [1 | x | y] over ``rows`` (an index array; None is every
    row, whose moments a dataset made by ``standardize`` carries), else streamed
    by blocks; block-aligned ``threads`` spans merge to the one-thread bits."""
    if rows is None and dataset.moments is not None:
        return dataset.moments
    n = dataset.n if rows is None else rows.size

    def span(lo, hi):
        acc = StreamingOLS(_DESIGN_NAMES, block_rows=block_rows, start_block=lo // block_rows)
        for b in range(lo, hi, block_rows):
            sel = slice(b, min(b + block_rows, hi))
            sel = sel if rows is None else rows[sel]
            acc.add(dataset.design_matrix(sel), dataset.response[sel])
        return acc

    if threads <= 1 or n <= 2 * block_rows:
        return span(0, n)._total()
    n_blocks = -(-n // block_rows)
    rows_per = -(-n_blocks // threads) * block_rows
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(lambda lo: span(lo, min(lo + rows_per, n)),
                              range(0, n, rows_per)))
    for part in parts[1:]:
        parts[0].merge(part)
    return parts[0]._total()


def fit_ols(dataset, block_rows=4096, threads=1):
    """Fit the full 16-parameter model from the moments ``standardize`` left on the
    dataset, else streamed one block at a time; ``threads`` never changes the result."""
    return _accumulate(dataset, block_rows=block_rows, threads=threads).solve(_DESIGN_NAMES)


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


def _exporter_class(r, new_threshold, experienced_threshold):
    return np.where(r < new_threshold, ExporterClass.NEW.value,
                    np.where(r <= experienced_threshold, ExporterClass.NASCENT.value,
                             ExporterClass.EXPERIENCED.value))


def classify_exporter(rca_value, new_threshold=0.2, experienced_threshold=1.0):
    """Three-way exporter experience class from an RCA value."""
    if rca_value < 0 or not np.isfinite(rca_value):
        raise TradeDataError(f"RCA must be finite and non-negative, got {rca_value}")
    return ExporterClass(_exporter_class(rca_value, new_threshold, experienced_threshold).item())


def exporter_class_labels(dataset, rca, new_threshold=0.2, experienced_threshold=1.0):
    """Per-row exporter class labels from a classification RCA matrix.

    Countries absent from the RCA matrix (no exports in its window) count as
    RCA 0, hence new exporters.
    """
    if tuple(rca.countries) != tuple(dataset.countries) or \
            tuple(rca.products) != tuple(dataset.products):
        raise TradeDataError("classification RCA uses a different vocabulary")
    values = np.nan_to_num(rca.values, nan=0.0)
    return _exporter_class(values[dataset.o, dataset.p], new_threshold, experienced_threshold)


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


def lall_labels(dataset, concordance):
    """Per-row category labels; every product appearing in a row must map."""
    used = np.unique(dataset.p)
    codes = [dataset.products[i] for i in used]
    missing = concordance.coverage_report(codes)
    if missing:
        raise CoverageError(
            f"{len(missing)} products missing from the concordance: {missing[:10]}")
    per_used = np.array([concordance.category(code).value for code in codes], dtype=str)
    return per_used[np.searchsorted(used, dataset.p)]


def run_split_regressions(dataset, split, periods=None, horizon=2, rca=None,
                          concordance=None, new_threshold=0.2,
                          experienced_threshold=1.0, standardize_response=False,
                          threads=1):
    """Fit the model within each split cell, z-scored over the cell's own rows.

    ``split`` is one of "none", "period", "exporter", "lall". Period splits
    select rows by base year (overlapping periods are allowed and share
    rows); exporter splits need the classification ``rca``; lall splits need
    the ``concordance`` and drop the excluded category. Each cell is read in
    place and z-scored through its co-moments, as ``standardize`` would.
    Cells that are too small or degenerate are skipped with a warning.
    """
    def fit_cell(key, rows):
        n = dataset.n if rows is None else rows.size
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

    # (key, row mask) per cell, made lazily; None keeps every row
    if split == "none":
        cells = [("all", None)]
    elif split == "period":
        if not periods:
            raise TradeDataError("period split needs period definitions")
        cells = ((f"{start}-{end}", (dataset.t >= start) & (dataset.t <= end - horizon))
                 for start, end in periods)
    elif split == "exporter":
        if rca is None:
            raise TradeDataError("exporter split needs a classification RCA matrix")
        labels = exporter_class_labels(dataset, rca, new_threshold, experienced_threshold)
        cells = ((c.value, labels == c.value) for c in ExporterClass)
    elif split == "lall":
        if concordance is None:
            raise TradeDataError("lall split needs a concordance")
        labels = lall_labels(dataset, concordance)
        n_excluded = int((labels == LallCategory.EXCLUDED.value).sum())
        if n_excluded:
            log.info("lall split: dropping %d special-transaction rows", n_excluded)
        cells = ((c.value, labels == c.value) for c in LALL_RANK_ORDER)
    else:
        raise TradeDataError(f"unknown split {split!r}")
    results = {}
    for key, mask in cells:
        res = fit_cell(key, None if mask is None else np.flatnonzero(mask))
        if res is not None:
            results[key] = res
    return results


def summary_stats(dataset):
    """Per regressor: (name, n, mean, std, min, max); a constant column is flagged.
    n, mean and std come from the co-moments, min and max from one column read."""
    moments = _accumulate(dataset)
    std = moments.std()
    rows = []
    for j, name in enumerate(REGRESSOR_NAMES, start=1):
        if std[j] == 0:
            log.warning("summary_stats: column %s has zero variance", name)
        col = dataset.columns.column(name)
        rows.append((name, moments.n, float(moments.mean[j]), float(std[j]),
                     float(col.min()), float(col.max())))
        del col  # freed before the next column is built
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
    write_rows(path, ["variable"] + [str(k) for k in keys], list(zip(*rows)))


def write_trend_csv(trends, path):
    rows = [(name, f"{t.slope:.6f}", f"{t.se:.6f}", f"{t.pvalue:.6f}", str(t.significant).lower())
            for name, t in sorted(trends.items())]
    write_rows(path, ("variable", "slope", "se", "p", "significant"), list(zip(*rows)))


def write_summary_csv(rows, path):
    rows = [(name, str(n), *(f"{x:.6f}" for x in stats)) for name, n, *stats in rows]
    write_rows(path, ("variable", "n", "mean", "std", "min", "max"), list(zip(*rows)))


def write_correlation_csv(names, matrix, path):
    rows = [[name] + [f"{matrix[i, j]:.6f}" for j in range(len(names))]
            for i, name in enumerate(names)]
    write_rows(path, ["variable"] + list(names), list(zip(*rows)))
