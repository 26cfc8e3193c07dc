import numpy as np
import pytest

import tradegravity as tg


@pytest.fixture(scope="session")
def small_world():
    """Persist-mode world reused by tests that only need plausible data."""
    cfg = tg.SyntheticWorldConfig(n_countries=6, n_products=9, n_years=3,
                                  sparsity=0.8, seed=3, forward_mode="persist")
    return tg.generate_world(cfg)


@pytest.fixture(scope="session")
def small_pipeline(small_world):
    """(world, proximity, weights, relatedness by year) for the small world; the
    relatedness is the one-thread reference the invariance tests compare against."""
    w = small_world
    prox = tg.compute_proximity(tg.binarize(tg.compute_rca(w.tensor, w.proximity_window)))
    weights = tg.DistanceWeights.from_dyads(w.tensor.countries, w.dyad_meta)
    rel = {y: tg.compute_relatedness(w.tensor, prox, weights, y, threads=1)
           for y in w.tensor.years}
    return w, prox, weights, rel


@pytest.fixture(scope="session")
def small_dataset(small_pipeline):
    w, prox, weights, rel = small_pipeline
    return tg.build_dataset(w.tensor, rel, w.country_meta, w.dyad_meta, (2000, 2002))


def make_dataset(columns, response=None, **keys):
    """Hand-build a GravityDataset from a {name: list} mapping.

    Missing regressors are filled with distinct non-constant columns so
    standardization never trips over them. ``keys`` may give the rows' t, o, p
    and d (by default year 2000 and index 0) and the countries and products.
    """
    n = len(next(iter(columns.values()))) if columns else len(response)
    full = {}
    for j, name in enumerate(tg.gravity.REGRESSOR_NAMES):
        if name in columns:
            full[name] = np.asarray(columns[name], dtype=np.float64)
        elif name in tg.gravity.BINARY_COLUMNS:
            full[name] = (np.arange(n) % 2).astype(np.float64)
        else:
            full[name] = np.linspace(0.0, 1.0, n) * (j + 1)
    if response is None:
        response = np.linspace(1.0, 2.0, n)
    zeros = np.zeros(n, dtype=np.int32)
    keys = {"t": zeros + 2000, "o": zeros, "p": zeros, "d": zeros,
            "countries": ("AAA", "AAB"), "products": ("0001",), **keys}
    return dataset_from_rows(response=response, columns=full, **keys)


def dataset_from_rows(t, o, p, d, response, columns, countries, products):
    """A GravityDataset whose rows, ordered by base year ``t``, store their keys
    and every regressor: ``columns`` maps each name to its row array."""
    assert np.all(np.diff(t) >= 0), "rows must be ordered by base year"
    years, starts = np.unique(t, return_index=True)
    spans = [slice(a, b) for a, b in zip(starts, [*starts[1:], len(t)])]
    keys = [np.asarray(a, dtype=np.int32) for a in (o, p, d)]
    cells = [dict(zip("opd", (a[rows] for a in keys))) for rows in spans]
    positions = [np.arange(rows.stop - rows.start, dtype=np.int32) for rows in spans]
    return tg.GravityDataset(np.asarray(response, dtype=np.float64),
                             tg.gravity.Columns(columns, cells, years.tolist(), positions),
                             tuple(countries), tuple(products))


def write_lall_concordance(path, products, categories):
    """Write a concordance CSV assigning each product the given category code."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("hs4,sitc3,category\n")
        for p, cat in zip(products, categories):
            fh.write(f"{p},001,{cat}\n")
    return path
