"""Synthetic-world generation.

The generator draws small but fully consistent worlds: random cities on a
sphere, log-normal base-year flows, and covariates with the right sign
constraints. When a planted coefficient vector is supplied, the final year's
flows are produced by the regression model itself evaluated on the true
z-scored regressors of the base year, which makes end-to-end coefficient
recovery a meaningful test of the whole pipeline.
"""
from __future__ import annotations

import itertools
import logging
import math
import string
from dataclasses import dataclass

import numpy as np

from .complexity import binarize, compute_rca, compute_proximity
from .errors import TradeDataError
from .gravity import BINARY_COLUMNS, HORIZON, K_PARAMETERS, REGRESSOR_NAMES
from .ingest import CountryMeta, DyadMeta, TradeTensor
from .relatedness import DistanceWeights, compute_relatedness

log = logging.getLogger(__name__)

EARTH_RADIUS_KM = 6371.0


@dataclass
class SyntheticWorldConfig:
    n_countries: int
    n_products: int
    n_years: int = 3
    start_year: int = 2000
    planted_beta: np.ndarray | None = None  # 16 values, intercept first
    noise_sigma: float = 0.0
    sparsity: float = 0.5
    seed: int = 0
    forward_mode: str = "planted"  # or "persist": copy base support, jitter values

    def __post_init__(self):
        if self.n_countries < 2:
            raise TradeDataError("need at least 2 countries")
        if self.n_products < 1:
            raise TradeDataError("need at least 1 product")
        if not 0 < self.sparsity <= 1:
            raise TradeDataError("sparsity must lie in (0, 1]")
        if self.noise_sigma < 0:
            raise TradeDataError("noise_sigma must be non-negative")
        if self.planted_beta is not None:
            self.planted_beta = np.asarray(self.planted_beta, dtype=np.float64)
            if self.planted_beta.shape != (K_PARAMETERS,):
                raise TradeDataError(f"planted_beta must have {K_PARAMETERS} entries")
            if self.n_years <= HORIZON:
                raise TradeDataError(f"planted worlds need n_years > {HORIZON}")
        if self.forward_mode not in ("planted", "persist"):
            raise TradeDataError(f"unknown forward_mode {self.forward_mode!r}")


@dataclass
class SyntheticWorld:
    tensor: TradeTensor
    country_meta: CountryMeta
    dyad_meta: DyadMeta
    config: SyntheticWorldConfig
    proximity_window: tuple


def _country_codes(n):
    codes = []
    for combo in itertools.product(string.ascii_uppercase, repeat=3):
        codes.append("".join(combo))
        if len(codes) == n:
            return codes
    raise TradeDataError("too many countries requested")


def _product_codes(n):
    if n > 9000:
        raise TradeDataError("too many products requested")
    return [f"{1000 + i:04d}" for i in range(n)]


def _sphere_distances(n, rng):
    # resample until no two cities are closer than 1 km
    for _ in range(100):
        z = rng.uniform(-1.0, 1.0, size=n)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        r = np.sqrt(1.0 - z ** 2)
        pts = np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
        cosang = np.clip(pts @ pts.T, -1.0, 1.0)
        dist = EARTH_RADIUS_KM * np.arccos(cosang)
        np.fill_diagonal(dist, 0.0)
        off = dist[~np.eye(n, dtype=bool)]
        if off.min() > 1.0:
            return dist
        log.info("coincident cities, resampling")
    raise TradeDataError("could not sample cities at distinct positions")


def _draw_flows(rng, n_countries, n_products, sparsity, mu=9.0, sigma=2.0):
    """Sorted coordinate arrays for one year, sampled origin by origin."""
    os_, ps_, ds_, vs_ = [], [], [], []
    for o in range(n_countries):
        mask = rng.random((n_products, n_countries)) < sparsity
        mask[:, o] = False
        p_idx, d_idx = np.nonzero(mask)
        vals = np.exp(rng.normal(mu, sigma, size=p_idx.size))
        os_.append(np.full(p_idx.size, o, dtype=np.int32))
        ps_.append(p_idx.astype(np.int32))
        ds_.append(d_idx.astype(np.int32))
        vs_.append(vals)
    return (np.concatenate(os_), np.concatenate(ps_),
            np.concatenate(ds_), np.concatenate(vs_))


def generate_world(config):
    """Build a seeded world: tensor over the years, country meta, dyad meta.

    Identical configs (same seed) produce identical worlds. In "planted"
    forward mode the last year's flows equal exp(model) evaluated on the true
    regressors of the year ``HORIZON`` years earlier, over exactly the cells
    active there (minus cells whose product relatedness is undefined). In
    "persist" mode the last year reuses the base support with jittered
    values, which keeps every cell in the two-year sample.
    """
    cfg = config
    rng = np.random.default_rng(cfg.seed)
    countries = _country_codes(cfg.n_countries)
    products = _product_codes(cfg.n_products)
    nc = cfg.n_countries
    dist = _sphere_distances(nc, rng)

    border = np.zeros((nc, nc), dtype=np.int64)
    colony = np.zeros((nc, nc), dtype=np.int64)
    language = np.zeros((nc, nc), dtype=np.int64)
    lang_prox = np.zeros((nc, nc))
    iu, ju = np.triu_indices(nc, k=1)
    border[iu, ju] = rng.random(iu.size) < 0.15
    colony[iu, ju] = rng.random(iu.size) < 0.07
    language[iu, ju] = rng.random(iu.size) < 0.15
    has_prox = rng.random(iu.size) < 0.4
    prox_vals = np.where(has_prox, rng.gamma(2.0, 5.0, size=iu.size), 0.0)
    lang_prox[iu, ju] = prox_vals

    dyads = DyadMeta()
    for a, b in zip(iu, ju):
        dyads.add(countries[a], countries[b], float(dist[a, b]), int(border[a, b]),
                  int(colony[a, b]), int(language[a, b]), float(lang_prox[a, b]))

    gdp = np.exp(rng.normal(8.5, 1.0, size=nc))
    pop = np.exp(rng.normal(16.0, 1.0, size=nc))
    meta = CountryMeta()
    years = list(range(cfg.start_year, cfg.start_year + cfg.n_years))
    for i, c in enumerate(countries):
        for year in years:
            meta.add(c, year, pop[i], gdp[i])

    planted = cfg.planted_beta is not None
    if planted:
        base_years = years[:-1]
    elif cfg.forward_mode == "persist":
        base_years = [years[0]]  # skip filler years: only the pooled pair matters
    else:
        base_years = years
    flows = {}
    for year in base_years:
        flows[year] = _draw_flows(rng, nc, cfg.n_products, cfg.sparsity)

    prox_window = (base_years[0], base_years[-1])
    if not planted and cfg.forward_mode != "persist":
        tensor = TradeTensor(countries, products, years, flows)
        return SyntheticWorld(tensor, meta, dyads, cfg, prox_window)

    last_year = years[-1]
    base_t = last_year - HORIZON
    if base_t not in flows:
        raise TradeDataError(f"base year {base_t} missing for forward generation")
    base_tensor = TradeTensor(countries, products, base_years, flows)
    o, p, d, v = base_tensor.flows(base_t)

    if not planted:  # persist: same support, jittered values
        fwd = v * np.exp(rng.normal(0.0, 1.0, size=v.size))
        flows[last_year] = (o.copy(), p.copy(), d.copy(), fwd)
        tensor = TradeTensor(countries, products, sorted(flows), flows)
        return SyntheticWorld(tensor, meta, dyads, cfg, prox_window)

    prox = compute_proximity(binarize(compute_rca(base_tensor, prox_window)))
    weights = DistanceWeights.from_dyads(countries, dyads)
    rel = compute_relatedness(base_tensor, prox, weights, base_t)

    defined = np.isfinite(rel.omega)
    o, p, d, v = o[defined], p[defined], d[defined], v[defined]
    x_op = base_tensor.x_op(base_t)
    x_pd = base_tensor.x_pd(base_t)
    cols = {
        "omega": rel.omega[defined],
        "omega_d": rel.omega_d[defined],
        "omega_o": rel.omega_o[defined],
        "log_x_opd": np.log(v),
        "log_x_op": np.log(x_op[o, p]),
        "log_x_pd": np.log(x_pd[p, d]),
        "log_distance": np.log(dist[o, d]),
        "log_gdp_o": np.log(gdp[o]),
        "log_gdp_d": np.log(gdp[d]),
        "log_pop_o": np.log(pop[o]),
        "log_pop_d": np.log(pop[d]),
        "border": np.maximum(border, border.T)[o, d].astype(np.float64),
        "colony": np.maximum(colony, colony.T)[o, d].astype(np.float64),
        "language": np.maximum(language, language.T)[o, d].astype(np.float64),
        "log_lang_proximity": np.log1p(np.maximum(lang_prox, lang_prox.T)[o, d]),
    }
    y = np.full(o.size, cfg.planted_beta[0])
    for j, name in enumerate(REGRESSOR_NAMES, start=1):
        col = cols[name]
        if name not in BINARY_COLUMNS:
            std = np.std(col, ddof=1)
            if std == 0:
                raise TradeDataError(
                    f"degenerate synthetic column {name}; enlarge the world")
            col = (col - np.mean(col)) / std
        y = y + cfg.planted_beta[j] * col
    if cfg.noise_sigma > 0:
        y = y + rng.normal(0.0, cfg.noise_sigma, size=y.size)
    flows[last_year] = (o.copy(), p.copy(), d.copy(), np.exp(y))
    tensor = TradeTensor(countries, products, years, flows)
    return SyntheticWorld(tensor, meta, dyads, cfg, prox_window)
