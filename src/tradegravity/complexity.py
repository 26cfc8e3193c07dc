"""Revealed comparative advantage and the product-space proximity matrix.

RCA compares a country's export share in a product against the product's
share of world trade, pooled over a year window. Binarizing RCA at a
threshold gives the advantage matrix M, and the proximity of two products is
the conditional probability of co-advantage, taking the more conservative
direction: the joint advantage count divided by the larger of the two
ubiquities.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .csvio import Column, codes, floats, positions, read_table, repeats, write_rows
from .errors import TradeDataError

log = logging.getLogger(__name__)


@dataclass
class RcaMatrix:
    """Country-by-product RCA values pooled over an inclusive year window.

    Rows of countries with no exports in the window are NaN (absent); a zero
    export with other trade present is a plain 0.
    """

    values: np.ndarray
    countries: tuple
    products: tuple
    window: tuple


@dataclass
class AdvantageMatrix:
    """Binary country-by-product matrix: 1 where RCA clears the threshold."""

    entries: np.ndarray
    countries: tuple
    products: tuple
    threshold: float


@dataclass
class ProximityMatrix:
    """Symmetric product-by-product co-advantage similarity in [0, 1].

    The diagonal is zero by convention so that self-similarity never leaks
    into relatedness averages. ``marginals`` holds the row sums.
    """

    phi: np.ndarray
    products: tuple

    def __post_init__(self):
        self.phi.flags.writeable = False
        self.marginals = self.phi.sum(axis=1)
        self.marginals.flags.writeable = False


def compute_rca(tensor, window):
    """RCA over the pooled window: export share within country over share of world.

    ``window`` is an inclusive (first_year, last_year) pair. Years absent from
    the tensor are simply skipped; an empty pooled tensor is an error.
    """
    first, last = int(window[0]), int(window[1])
    if last < first:
        raise TradeDataError(f"empty year window ({first},{last})")
    nc, np_ = tensor.n_countries, tensor.n_products
    pooled = np.zeros((nc, np_))
    seen = False
    for year in range(first, last + 1):
        if tensor.has_year(year):
            pooled += tensor.x_op(year)
            seen = True
    if not seen or pooled.sum() == 0:
        raise TradeDataError(f"no trade flows inside window ({first},{last})")
    country_totals = pooled.sum(axis=1)
    product_totals = pooled.sum(axis=0)
    world_total = pooled.sum()
    values = np.full((nc, np_), np.nan)
    exporters = country_totals > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        share_in_country = pooled[exporters] / country_totals[exporters, None]
        share_of_world = product_totals / world_total
        rca = np.where(share_of_world > 0, share_in_country / share_of_world, 0.0)
    values[exporters] = rca
    return RcaMatrix(values, tensor.countries, tensor.products, (first, last))


def binarize(rca, threshold=1.0):
    """Advantage matrix M: 1 iff RCA >= threshold (NaN rows count as 0)."""
    if threshold <= 0:
        raise TradeDataError(f"binarization threshold must be positive, got {threshold}")
    with np.errstate(invalid="ignore"):
        entries = (rca.values >= threshold).astype(np.uint8)
    return AdvantageMatrix(entries, rca.countries, rca.products, float(threshold))


def compute_proximity(m):
    """Proximity phi_ij = |co-advantage countries| / max(ubiquity_i, ubiquity_j).

    Equivalent to the minimum of the two conditional co-advantage
    probabilities. Pairs where either product has zero ubiquity get phi = 0,
    and the diagonal is forced to 0.
    """
    if m.entries.size == 0:
        raise TradeDataError("empty advantage matrix")
    mf = m.entries.astype(np.float64)
    joint = mf.T @ mf
    ubiquity = mf.sum(axis=0)
    denom = np.maximum.outer(ubiquity, ubiquity)
    with np.errstate(invalid="ignore", divide="ignore"):
        phi = np.where(denom > 0, joint / denom, 0.0)
    np.fill_diagonal(phi, 0.0)
    return ProximityMatrix(phi, m.products)


def export_product_space(prox, edges_path, histogram_path, bins=50):
    """Write the edge list of every product pair and the phi histogram.

    Edges are (product_i, product_j, phi) with i < j, phi printed at
    round-trip precision; the list is the relatedness stage's input, so it is
    never thresholded. The histogram has equal bins on [0, 1] and a running
    cumulative fraction.

    Returns the number of edges.
    """
    n = len(prox.products)
    iu, ju = np.triu_indices(n, k=1)
    vals = prox.phi[iu, ju]
    write_rows(edges_path, ("product_i", "product_j", "phi"),
               [[codes(prox.products, iu), codes(prox.products, ju), floats(vals)]])
    counts, edges = np.histogram(vals, bins=bins, range=(0.0, 1.0))
    fraction = np.cumsum(counts) / max(vals.size, 1)
    six = lambda xs: [f"{x:.6f}" for x in xs]
    write_rows(histogram_path, ("bin_lower", "bin_upper", "count", "cumulative_fraction"),
               [[six(edges[:-1]), six(edges[1:]), [str(c) for c in counts], six(fraction)]])
    return int(vals.size)


def write_rca_csv(rca, path):
    """Long-form country,product,rca rows; absent (NaN) rows are skipped."""
    rows = np.flatnonzero(~np.all(np.isnan(rca.values), axis=1))
    n_products = len(rca.products)
    ten = lambda xs: [f"{x:.10g}" for x in xs.tolist()]
    write_rows(path, ("country", "product", "rca"),
               [[codes(rca.countries, np.repeat(rows, n_products)),
                 codes(rca.products, np.tile(np.arange(n_products), rows.size)),
                 Column(ten, rca.values[rows].ravel())]])


def read_proximity_csv(path, products):
    """Rebuild a ProximityMatrix from an edge-list CSV over a known vocabulary."""
    products = tuple(products)
    table = read_table(path, ("product_i", "product_j", "phi"), numeric={"phi": float})
    value, (names, first, second) = table["phi"], table.codes("product_i", "product_j")
    at = positions(names, products)
    i, j = at[first], at[second]
    table.check(
        (i < 0, lambda r: f"unknown product '{names[first[r]]}'"),
        (j < 0, lambda r: f"unknown product '{names[second[r]]}'"),
        (~((value >= 0) & (value <= 1)), lambda r: f"phi {float(value[r])} outside [0, 1]"),
        (repeats(np.minimum(i, j).astype(np.int64) * len(products) + np.maximum(i, j)),
         lambda r: f"duplicate edge {names[first[r]]},{names[second[r]]}"))
    phi = np.zeros((len(products), len(products)))
    phi[i, j] = value
    phi[j, i] = value
    np.fill_diagonal(phi, 0.0)
    return ProximityMatrix(phi, products)
