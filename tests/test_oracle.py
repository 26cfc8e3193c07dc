import ast
from pathlib import Path

import numpy as np
import pytest

import tradegravity as tg

import referee
from referee import brute_force_ols, brute_force_relatedness, tensor_from_cells


def test_same_seed_same_world():
    cfg = lambda: tg.SyntheticWorldConfig(n_countries=5, n_products=7, n_years=3,
                                          sparsity=0.6, seed=42)
    w1, w2 = tg.generate_world(cfg()), tg.generate_world(cfg())
    assert w1.tensor.countries == w2.tensor.countries
    for year in w1.tensor.years:
        for a, b in zip(w1.tensor.flows(year), w2.tensor.flows(year)):
            assert np.array_equal(a, b)
    pair = w1.tensor.countries[:2]
    assert w1.dyad_meta.distance_matrix(pair)[0, 1] == w2.dyad_meta.distance_matrix(pair)[0, 1]


def test_full_sparsity_cell_count():
    cfg = tg.SyntheticWorldConfig(n_countries=4, n_products=3, n_years=3,
                                  sparsity=1.0, seed=0)
    w = tg.generate_world(cfg)
    for year in w.tensor.years:
        assert w.tensor.n_cells(year) == 4 * 3 * 3  # origins x destinations x products


def test_zero_noise_recovers_planted_beta_exactly():
    beta = np.array([8.0, 0.2, 0.14, 0.08, 0.4, 0.33, 0.22, -0.48, 0.17, 0.23,
                     0.47, 0.34, 0.71, 0.05, 0.55, 0.03])
    cfg = tg.SyntheticWorldConfig(n_countries=12, n_products=15, n_years=3,
                                  sparsity=0.9, seed=5, planted_beta=beta,
                                  noise_sigma=0.0)
    w = tg.generate_world(cfg)
    prox = tg.compute_proximity(tg.binarize(tg.compute_rca(w.tensor, w.proximity_window)))
    weights = tg.DistanceWeights.from_dyads(w.tensor.countries, w.dyad_meta)
    rel = {2000: tg.compute_relatedness(w.tensor, prox, weights, 2000)}
    ds = tg.build_dataset(w.tensor, rel, w.country_meta, w.dyad_meta, (2000, 2002))
    z, _ = tg.standardize(ds)
    res = tg.fit_ols(z)
    assert np.allclose(res.beta, beta, rtol=1e-8)


def test_config_validation():
    with pytest.raises(tg.TradeDataError):
        tg.SyntheticWorldConfig(n_countries=1, n_products=3)
    with pytest.raises(tg.TradeDataError):
        tg.SyntheticWorldConfig(n_countries=3, n_products=3, sparsity=0.0)
    with pytest.raises(tg.TradeDataError):
        tg.SyntheticWorldConfig(n_countries=3, n_products=3,
                                planted_beta=np.zeros(7))
    with pytest.raises(tg.TradeDataError):
        tg.SyntheticWorldConfig(n_countries=3, n_products=3, n_years=2,
                                planted_beta=np.zeros(16))


def test_ring_geometry_supported():
    cfg = tg.SyntheticWorldConfig(n_countries=6, n_products=4, n_years=3,
                                  sparsity=0.9, seed=1, geometry="ring")
    w = tg.generate_world(cfg)
    c = w.tensor.countries
    d01, d12 = w.dyad_meta.distance_matrix(c)[[0, 1], [1, 2]]
    assert d01 == pytest.approx(d12, rel=1e-12)


def test_single_exporter_and_single_product_degenerate_cases():
    # one exporter: every exporter-relatedness value is zero
    cells = {(2000, "AAA", "0101", "BBB"): 5.0,
             (2000, "AAA", "0101", "CCC"): 3.0,
             (2000, "AAA", "0102", "BBB"): 2.0}
    tensor = tensor_from_cells(["AAA", "BBB", "CCC"], ["0101", "0102"], cells)
    dyads = tg.DyadMeta()
    for a, b in [("AAA", "BBB"), ("AAA", "CCC"), ("BBB", "CCC")]:
        dyads.add(a, b, 1000.0, 0, 0, 0, 0.0)
    weights = tg.DistanceWeights.from_dyads(tensor.countries, dyads)
    phi = np.array([[0.0, 0.5], [0.5, 0.0]])
    prox = tg.ProximityMatrix(phi, tensor.products)
    _, _, omega_o = brute_force_relatedness(tensor, prox, weights, 2000)
    assert np.all(omega_o == 0.0)

    # one product: every product-relatedness value is zero
    single = tensor_from_cells(["AAA", "BBB"], ["0101"], {(2000, "AAA", "0101", "BBB"): 5.0})
    prox1 = tg.ProximityMatrix(np.zeros((1, 1)), single.products)
    w1 = tg.DistanceWeights(("AAA", "BBB"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    omega, _, _ = brute_force_relatedness(single, prox1, w1, 2000)
    assert np.all(omega == 0.0)


def test_brute_force_ols_constant_y():
    x = np.ones((20, 1))
    y = np.full(20, 3.7)
    res = brute_force_ols(x, y, ("const",))
    assert res.beta[0] == pytest.approx(3.7, rel=1e-12)


def test_brute_force_ols_duplicate_column_singular():
    rng = np.random.default_rng(0)
    base = rng.normal(size=(30, 2))
    x = np.column_stack([base, base[:, 1]])
    with pytest.raises(tg.SingularDesignError):
        brute_force_ols(x, rng.normal(size=30), ("a", "b", "c"))


def test_brute_force_agrees_with_streaming_on_random_instances():
    rng = np.random.default_rng(77)
    for _ in range(10):
        n = int(rng.integers(50, 500))
        k = int(rng.integers(2, 8))
        x = rng.normal(size=(n, k))
        x[:, 0] = 1.0
        y = x @ rng.normal(size=k) + rng.normal(size=n)
        names = tuple(f"c{i}" for i in range(k))
        acc = tg.StreamingOLS(names)
        acc.add(x, y)
        ours, ref = acc.result(), brute_force_ols(x, y, names)
        assert np.allclose(ours.beta, ref.beta, rtol=1e-8)
        assert np.allclose(ours.se, ref.se, rtol=1e-8)


def test_package_holds_no_test_code():
    assert all(hasattr(tg, name) for name in tg.__all__)
    moved = {name for name, f in vars(referee).items() if getattr(f, "__module__", 0) == "referee"}
    assert {"brute_force_ols", "brute_force_relatedness", "dense_relatedness"} <= moved
    assert not moved & set(tg.__all__)
    for path in Path(tg.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            roots = {module.split(".")[0] for module in modules}
            assert not roots & {"referee", "conftest", "tests"}, (path.name, node.lineno)
