"""Brute-force references the tests hold the pipeline to, and tensor builders.

The brute-force functions are deliberately naive transcriptions that share
nothing with the production code paths beyond numpy primitives. ``csv_table``
is the CSV readers' referee: the csv module over a file's whole text, one row
at a time.
"""
import csv
import io
import itertools

import numpy as np
from scipy import stats

from tradegravity.errors import ParseError, SingularDesignError, TradeDataError
from tradegravity.gravity import RegressionResult
from tradegravity.ingest import TradeTensor, by_year, year_cell_keys


def tensor_from_arrays(countries, products, year, o, p, d, v):
    """A TradeTensor from parallel cell arrays in any order; o, p, d index the vocabularies."""
    flows = by_year(year_cell_keys(year, o, p, d, len(countries), len(products)), year, o, p, d, v)
    return TradeTensor(countries, products, sorted(flows), flows)


def tensor_from_cells(countries, products, cells):
    """A TradeTensor from a mapping (year, origin, product, destination) -> value."""
    countries, products = tuple(sorted(countries)), tuple(sorted(products))
    year, o, p, d = zip(*cells)
    o, p, d = ([vocab.index(c) for c in codes]
               for vocab, codes in ((countries, o), (products, p), (countries, d)))
    return tensor_from_arrays(countries, products, np.array(year), np.array(o), np.array(p),
                              np.array(d), np.array(list(cells.values()), dtype=np.float64))


def cell_value(tensor, year, origin, product, destination):
    """Flow value of one cell, 0.0 when absent."""
    o, p, d, v = tensor.flows(year) if tensor.has_year(year) else [np.zeros(0)] * 4
    return float(v[(o == tensor.countries.index(origin)) & (p == tensor.products.index(product))
                   & (d == tensor.countries.index(destination))].sum())


def brute_force_relatedness(tensor, prox, weights, year):
    """Literal nested-loop transcription of the three measures.

    Returns (omega, omega_d, omega_o) arrays aligned with the active cells of
    the year, NaN where the product's proximity marginal is zero. Only meant
    for small worlds.
    """
    countries = list(tensor.countries)
    products = list(tensor.products)
    o_idx, p_idx, d_idx, _ = tensor.flows(year)
    flow = {(countries[a], products[b], countries[c]): x
            for a, b, c, x in zip(*(col.tolist() for col in tensor.flows(year)))}
    phi = dict(zip(itertools.product(prox.products, repeat=2), prox.phi.ravel().tolist()))
    w = dict(zip(itertools.product(weights.countries, repeat=2), weights.matrix.ravel().tolist()))
    n = o_idx.size
    omega = np.full(n, np.nan)
    omega_d = np.full(n, np.nan)
    omega_o = np.full(n, np.nan)
    for i in range(n):
        o = countries[o_idx[i]]
        p = products[p_idx[i]]
        d = countries[d_idx[i]]

        phi_p = 0.0
        for q in products:
            phi_p += phi[p, q]
        if len(products) == 1:
            omega[i] = 0.0  # no other products exist: empty sum
        elif phi_p > 0:
            x_od = 0.0
            for q in products:
                x_od += flow.get((o, q, d), 0.0)
            total = 0.0
            for q in products:
                if q == p:
                    continue
                total += (phi[p, q] / phi_p) * (flow.get((o, q, d), 0.0) / x_od)
            omega[i] = total

        x_op = 0.0
        for c in countries:
            x_op += flow.get((o, p, c), 0.0)
        total = 0.0
        for c in countries:
            if c == d:
                continue
            total += w[d, c] * (flow.get((o, p, c), 0.0) / x_op)
        omega_d[i] = total

        x_pd = 0.0
        for c in countries:
            x_pd += flow.get((c, p, d), 0.0)
        total = 0.0
        for c in countries:
            if c == o:
                continue
            total += w[o, c] * (flow.get((c, p, d), 0.0) / x_pd)
        omega_o[i] = total
    return omega, omega_d, omega_o


def dense_relatedness(tensor, prox, weights, year):
    """All three measures over the full origin x product x destination cube.

    Intended for research and small worlds; cells whose denominator is zero
    come back NaN. Refuses cubes above 5e7 cells.
    """
    nc, np_ = tensor.n_countries, tensor.n_products
    if nc * nc * np_ > 5e7:
        raise TradeDataError("dense evaluation cube too large; use the active-cell path")
    o, p, d, v = tensor.flows(year)
    x = np.zeros((nc, np_, nc))
    x[o, p, d] = v
    x_od = tensor.x_od(year)
    x_op = tensor.x_op(year)
    x_pd = tensor.x_pd(year)
    phi, phi_p = prox.phi, prox.marginals
    w = weights.matrix

    with np.errstate(invalid="ignore", divide="ignore"):
        omega = np.einsum("pq,oqd->opd", phi, x) / (phi_p[None, :, None] * x_od[:, None, :])
        omega_d = np.einsum("dc,opc->opd", w, x) / x_op[:, :, None]
        omega_o = np.einsum("oc,cpd->opd", w, x) / x_pd[None, :, :]
    for arr in (omega, omega_d, omega_o):
        finite = np.isfinite(arr)
        arr[finite] = np.clip(arr[finite], 0.0, 1.0)
    return omega, omega_d, omega_o


def _full_pivot_inverse(a, tol=1e-12):
    """Gauss-Jordan inversion with full pivoting; raises on singularity."""
    a = np.array(a, dtype=np.float64)
    k = a.shape[0]
    aug = np.hstack([a, np.eye(k)])
    col_perm = list(range(k))
    scale = max(float(np.max(np.abs(a))), 1.0)
    for step in range(k):
        sub = np.abs(aug[step:, step:k])
        r_off, c_off = np.unravel_index(int(np.argmax(sub)), sub.shape)
        pivot_r, pivot_c = step + r_off, step + c_off
        if abs(aug[pivot_r, pivot_c]) <= tol * scale:
            raise SingularDesignError(
                [f"column_{col_perm[j]}" for j in range(step, k)],
                "gram matrix singular under full pivoting")
        aug[[step, pivot_r]] = aug[[pivot_r, step]]
        aug[:, [step, pivot_c]] = aug[:, [pivot_c, step]]
        col_perm[step], col_perm[pivot_c] = col_perm[pivot_c], col_perm[step]
        aug[step] = aug[step] / aug[step, step]
        for r in range(k):
            if r != step:
                aug[r] = aug[r] - aug[r, step] * aug[step]
    inv = np.empty((k, k))
    for j in range(k):
        inv[col_perm[j]] = aug[j, k:]
    return inv


def brute_force_ols(x, y, names):
    """Dense textbook OLS: explicit Gram inversion with full pivoting."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, k = x.shape
    if n > 10 ** 4 * 2:
        raise TradeDataError("brute-force OLS is for desk-scale fits only")
    if n <= k:
        raise TradeDataError("need n > k")
    gram = x.T @ x
    inv = _full_pivot_inverse(gram)
    beta = inv @ (x.T @ y)
    resid = y - x @ beta
    rss = float(resid @ resid)
    tss = float(((y - y.mean()) ** 2).sum())
    sigma2 = rss / (n - k)
    se = np.sqrt(np.maximum(sigma2 * np.diag(inv), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        tstat = np.where(se > 0, beta / se, np.where(beta == 0, 0.0, np.inf * np.sign(beta)))
    pvalue = 2.0 * stats.t.sf(np.abs(tstat), n - k)
    r2 = 1.0 - rss / tss if tss > 0 else 0.0
    xty = x.T @ y
    denom = float(np.max(np.abs(xty))) or 1.0
    ortho = float(np.max(np.abs(xty - gram @ beta))) / denom
    return RegressionResult(names=tuple(names), beta=beta, se=se, tstat=tstat,
                            pvalue=pvalue, n=int(n), r2=float(r2),
                            adj_r2=float(1.0 - (1.0 - r2) * (n - 1) / (n - k)),
                            resid_se=float(np.sqrt(sigma2)), ortho_rel=ortho)


def csv_table(path, fields, numeric=(), exact=True):
    """What ``csvio.read_table`` reads from a CSV file, by a whole-text parse of the csv
    module and Python's int and float: each column's cells as their repr, each row's
    line, the pending (line, reason) and each row's fields joined by commas. A record is
    numbered by the line it starts on. Where ``read_table`` raises, this raises the same
    ParseError."""
    fields = fields if isinstance(fields, dict) else dict(zip(fields, fields))
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object is the bytes after any mark
        raise ParseError(path, 1 + exc.object.count(b"\n", 0, exc.start), "not UTF-8 text")
    if not text:
        raise ParseError(path, 1, "empty file, header required")
    pieces = list(io.StringIO(text, newline=""))  # where csv's own file reading cuts the text
    piece_line = list(itertools.accumulate((p.endswith("\n") for p in pieces), initial=1))
    reader, records = csv.reader(pieces), []
    while True:
        line = piece_line[reader.line_num]
        try:
            records.append((line, next(reader)))
        except StopIteration:
            break
        except csv.Error as exc:
            raise ParseError(path, line, str(exc)) from None
    header = [h.strip() for h in records[0][1]]
    if exact and header != list(fields.values()):
        raise ParseError(path, 1, f"expected header {','.join(fields.values())}")
    for name, column in fields.items():
        if column not in header:
            raise ParseError(path, 1, f"missing column '{column}' for field '{name}'")
    kinds = dict(numeric)
    columns, lines, raw, pending = {name: [] for name in fields}, [], [], None
    for line, record in records[1:]:
        if not record:
            continue  # a blank line
        if len(record) != len(header):
            pending = (line, f"expected {len(header)} fields, got {len(record)}")
            break
        row = {name: record[header.index(column)] for name, column in fields.items()}
        for name, kind in kinds.items():
            try:
                value = kind(row[name])
            except ValueError:
                value = None
            if value is None or (kind is int and not -2 ** 63 <= value < 2 ** 63):
                pending = (line, f"unparseable {name} '{row[name].strip()}'")
                break
            row[name] = value
        if pending:
            break
        for name in fields:
            columns[name].append(repr(row[name] if name in kinds else row[name].strip()))
        lines.append(line)
        raw.append(",".join(record))
    return columns, lines, pending, raw
