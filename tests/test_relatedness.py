import os
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import tradegravity as tg

from referee import brute_force_relatedness, dense_relatedness, tensor_from_cells


def three_country_dyads():
    dyads = tg.DyadMeta()
    dyads.add("AAA", "BBB", 1000.0, 1, 0, 0, 2.0)
    dyads.add("AAA", "CCC", 2000.0, 0, 0, 1, 0.0)
    dyads.add("BBB", "CCC", 1000.0, 0, 1, 0, 5.0)
    return dyads


def test_distance_weights_rows():
    weights = tg.DistanceWeights.from_dyads(("AAA", "BBB", "CCC"), three_country_dyads())
    assert np.allclose(weights.matrix.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(np.diag(weights.matrix) == 0.0)
    assert weights.matrix[0, 1] == pytest.approx(2.0 / 3.0, rel=1e-15)  # AAA to BBB
    assert weights.matrix[0, 2] == pytest.approx(1.0 / 3.0, rel=1e-15)  # AAA to CCC
    assert weights.matrix[1, 0] == pytest.approx(0.5, rel=1e-15)  # BBB to AAA


def test_distance_weights_missing_pair():
    dyads = tg.DyadMeta()
    dyads.add("AAA", "BBB", 1000.0, 0, 0, 0, 0.0)
    with pytest.raises(tg.CoverageError):
        tg.DistanceWeights.from_dyads(("AAA", "BBB", "CCC"), dyads)


def omega_fixture():
    """One dyad, three products, hand-set proximity."""
    cells = {
        (2000, "AAA", "0101", "BBB"): 25.0,
        (2000, "AAA", "0102", "BBB"): 50.0,
        (2000, "AAA", "0103", "BBB"): 25.0,
    }
    tensor = tensor_from_cells(["AAA", "BBB"], ["0101", "0102", "0103"], cells)
    phi = np.array([[0.0, 0.6, 0.4],
                    [0.6, 0.0, 0.0],
                    [0.4, 0.0, 0.0]])
    prox = tg.ProximityMatrix(phi, tensor.products)
    return tensor, prox


def test_product_relatedness_hand_value():
    tensor, prox = omega_fixture()
    omega = tg.product_relatedness(tensor, prox, 2000)
    # cells are sorted by (origin, product, destination)
    assert omega[0] == pytest.approx(0.6 * 0.5 + 0.4 * 0.25, rel=1e-14)  # 0.4
    assert omega[1] == pytest.approx(0.25, rel=1e-14)
    assert omega[2] == pytest.approx(0.25, rel=1e-14)


def test_product_relatedness_sole_product_in_basket():
    # the only product o sends to d: no other products in the o->d basket
    cells = {(2000, "AAA", "0101", "BBB"): 9.0,
             (2000, "AAA", "0102", "CCC"): 4.0}
    tensor = tensor_from_cells(["AAA", "BBB", "CCC"], ["0101", "0102"], cells)
    phi = np.array([[0.0, 0.5], [0.5, 0.0]])
    omega = tg.product_relatedness(tensor, tg.ProximityMatrix(phi, tensor.products), 2000)
    assert omega[0] == 0.0
    assert omega[1] == 0.0


def test_product_relatedness_single_related_product_dense():
    # o ships only p' to d and p' carries all of p's proximity mass: omega = 1
    cells = {(2000, "AAA", "0102", "BBB"): 42.0}
    tensor = tensor_from_cells(["AAA", "BBB"], ["0101", "0102"], cells)
    phi = np.array([[0.0, 0.7], [0.7, 0.0]])
    prox = tg.ProximityMatrix(phi, tensor.products)
    weights = tg.DistanceWeights(("AAA", "BBB"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    omega, _, _ = dense_relatedness(tensor, prox, weights, 2000)
    i = {c: k for k, c in enumerate(tensor.countries)}
    j = {p: k for k, p in enumerate(tensor.products)}
    assert omega[i["AAA"], j["0101"], i["BBB"]] == 1.0
    assert np.isnan(omega[i["AAA"], j["0101"], i["AAA"]])  # x_od = 0 there


def test_single_product_world_omega_zero():
    cells = {(2000, "AAA", "0101", "BBB"): 3.0}
    tensor = tensor_from_cells(["AAA", "BBB"], ["0101"], cells)
    prox = tg.ProximityMatrix(np.zeros((1, 1)), tensor.products)
    assert tg.product_relatedness(tensor, prox, 2000)[0] == 0.0


def test_isolated_product_skipped():
    cells = {(2000, "AAA", "0101", "BBB"): 3.0,
             (2000, "AAA", "0102", "BBB"): 5.0,
             (2000, "AAA", "0103", "BBB"): 7.0}
    tensor = tensor_from_cells(["AAA", "BBB"], ["0101", "0102", "0103"], cells)
    phi = np.zeros((3, 3))
    phi[0, 1] = phi[1, 0] = 0.8  # product 0103 is isolated
    omega = tg.product_relatedness(tensor, tg.ProximityMatrix(phi, tensor.products), 2000)
    assert np.isfinite(omega[0]) and np.isfinite(omega[1])
    assert np.isnan(omega[2])


def importer_fixture():
    cells = {
        (2000, "AAA", "0101", "CCC"): 70.0,   # A ships p only to C
        (2000, "AAA", "0102", "BBB"): 10.0,
        (2000, "BBB", "0101", "CCC"): 30.0,
    }
    tensor = tensor_from_cells(["AAA", "BBB", "CCC"], ["0101", "0102"], cells)
    weights = tg.DistanceWeights.from_dyads(tensor.countries, three_country_dyads())
    return tensor, weights


def test_importer_relatedness_single_destination():
    tensor, weights = importer_fixture()
    values = tg.importer_relatedness(tensor, weights, 2000)
    # active cells sorted: (AAA,0101,CCC), (AAA,0102,BBB), (BBB,0101,CCC)
    assert values[0] == 0.0  # the only destination is d itself
    assert values[1] == 0.0


def test_importer_relatedness_dense_neighbor_weight():
    tensor, weights = importer_fixture()
    prox = tg.ProximityMatrix(np.array([[0.0, 0.3], [0.3, 0.0]]), tensor.products)
    _, omega_d, _ = dense_relatedness(tensor, prox, weights, 2000)
    i = {c: k for k, c in enumerate(tensor.countries)}
    j = {p: k for k, p in enumerate(tensor.products)}
    # evaluated at destination B: A ships p exclusively to C, so the value is w(B,C)
    assert omega_d[i["AAA"], j["0101"], i["BBB"]] == pytest.approx(
        weights.matrix[i["BBB"], i["CCC"]], rel=1e-14)


def test_exporter_relatedness_values():
    tensor, weights = importer_fixture()
    values = tg.exporter_relatedness(tensor, weights, 2000)
    # (AAA,0101,CCC): the other exporter BBB supplies 30% of x_pd
    assert values[0] == pytest.approx(weights.matrix[0, 1] * 0.3, rel=1e-14)  # w(AAA, BBB)
    # (BBB,0101,CCC): AAA supplies 70%
    assert values[2] == pytest.approx(weights.matrix[1, 0] * 0.7, rel=1e-14)  # w(BBB, AAA)
    # (AAA,0102,BBB): sole exporter
    assert values[1] == 0.0


def test_exporter_relabel_symmetry():
    # two symmetric exporters swap values when labels swap
    dyads = tg.DyadMeta()
    dyads.add("AAA", "BBB", 1000.0, 0, 0, 0, 0.0)
    dyads.add("AAA", "CCC", 1000.0, 0, 0, 0, 0.0)
    dyads.add("BBB", "CCC", 1000.0, 0, 0, 0, 0.0)
    cells = {(2000, "AAA", "0101", "CCC"): 60.0,
             (2000, "BBB", "0101", "CCC"): 40.0}
    tensor = tensor_from_cells(["AAA", "BBB", "CCC"], ["0101"], cells)
    weights = tg.DistanceWeights.from_dyads(tensor.countries, dyads)
    values = tg.exporter_relatedness(tensor, weights, 2000)
    swapped = {(2000, "BBB", "0101", "CCC"): 60.0,
               (2000, "AAA", "0101", "CCC"): 40.0}
    tensor2 = tensor_from_cells(["AAA", "BBB", "CCC"], ["0101"], swapped)
    values2 = tg.exporter_relatedness(tensor2, weights, 2000)
    assert values[0] == values2[1] and values[1] == values2[0]


def test_scale_invariance(small_pipeline):
    w, prox, weights, rel = small_pipeline
    tensor = w.tensor
    year = tensor.years[0]
    scaled = tg.TradeTensor(tensor.countries, tensor.products, tensor.years,
                            {yr: (*tensor.flows(yr)[:3], tensor.flows(yr)[3] * 137.5)
                             for yr in tensor.years})
    rel_scaled = tg.compute_relatedness(scaled, prox, weights, year)
    base = rel[year]
    for a, b in [(base.omega, rel_scaled.omega), (base.omega_d, rel_scaled.omega_d),
                 (base.omega_o, rel_scaled.omega_o)]:
        m = np.isfinite(a)
        assert np.array_equal(m, np.isfinite(b))
        assert np.allclose(a[m], b[m], rtol=1e-12, atol=0)


def test_matches_bruteforce_on_random_worlds():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        cfg = tg.SyntheticWorldConfig(
            n_countries=int(rng.integers(2, 8)), n_products=int(rng.integers(2, 10)),
            n_years=3, sparsity=float(rng.uniform(0.3, 0.9)), seed=seed + 500)
        w = tg.generate_world(cfg)
        prox = tg.compute_proximity(tg.binarize(tg.compute_rca(w.tensor, (2000, 2002))))
        weights = tg.DistanceWeights.from_dyads(w.tensor.countries, w.dyad_meta)
        for year in w.tensor.years:
            rel = tg.compute_relatedness(w.tensor, prox, weights, year)
            bo, bd, bo2 = brute_force_relatedness(w.tensor, prox, weights, year)
            m = np.isfinite(rel.omega)
            assert np.array_equal(m, np.isfinite(bo))
            assert np.allclose(rel.omega[m], bo[m], rtol=1e-12, atol=0)
            assert np.allclose(rel.omega_d, bd, rtol=1e-12, atol=0)
            assert np.allclose(rel.omega_o, bo2, rtol=1e-12, atol=0)


def test_threads_do_not_change_values(small_pipeline):
    w, prox, weights, rel = small_pipeline
    year = w.tensor.years[0]
    threaded = tg.compute_relatedness(w.tensor, prox, weights, year, threads=3)
    base = rel[year]
    for a, b in [(base.omega, threaded.omega), (base.omega_d, threaded.omega_d),
                 (base.omega_o, threaded.omega_o)]:
        assert np.array_equal(np.nan_to_num(a, nan=-1), np.nan_to_num(b, nan=-1))


def test_chunk_size_does_not_change_values(small_pipeline):
    w, prox, weights, rel = small_pipeline
    year = w.tensor.years[0]
    base = rel[year]
    # chunks of two groups split every measure into several chunks
    for measure, small_chunks in [
            (base.omega, tg.product_relatedness(w.tensor, prox, year, chunk_rows=2)),
            (base.omega_d, tg.importer_relatedness(w.tensor, weights, year, chunk_rows=2)),
            (base.omega_o, tg.exporter_relatedness(w.tensor, weights, year, chunk_rows=2))]:
        assert np.array_equal(np.nan_to_num(measure, nan=-1), np.nan_to_num(small_chunks, nan=-1))


def test_weighted_share_bits_match_one_whole_year_product():
    # 400 x 400 weights are over 1 MB, so the kernel multiplies them in
    # 64-column tiles; fewer chunk rows than n_second make one lead a chunk
    import scipy.sparse as sp

    rng = np.random.default_rng(17)
    n_lead, n_second, n_col = 6, 9, 400
    weights = rng.random((n_col, n_col))
    # cells sorted by (lead, col, second), as omega's (o, p, d)
    lead, col, second = np.nonzero(rng.random((n_lead, n_col, n_second)) < 0.3)
    v = rng.lognormal(size=lead.size)
    # the reference: one product over every group in ascending key order
    _, group = np.unique(lead * n_second + second, return_inverse=True)
    s = sp.csr_matrix((v, (group, col)), shape=(group.max() + 1, n_col))
    want = (s @ weights)[group, col]
    for chunk_rows, threads in ((n_second - 1, 1), (3 * n_second, 2)):
        got = tg.relatedness._weighted_share(lead, second, n_second, col, v, weights,
                                             np.ones(v.size), chunk_rows, threads)
        assert np.array_equal(got, want), (chunk_rows, threads)


def test_weighted_share_through_an_order_matches_sorted_cells():
    # cells sorted by column, as exporter relatedness's (o, p, d) with the lead
    # p; a stable order by lead lists each group's cells in column order, so
    # the 64-column tiles and the chunks keep the bits of the lead-sorted run
    rng = np.random.default_rng(19)
    n_lead, n_second, n_col = 7, 5, 400
    weights = rng.random((n_col, n_col))
    col, lead, second = np.nonzero(rng.random((n_col, n_lead, n_second)) < 0.3)
    v = rng.lognormal(size=lead.size)
    order = np.argsort(lead, kind="stable")
    want = np.empty(v.size)
    want[order] = tg.relatedness._weighted_share(lead[order], second[order], n_second,
                                                 col[order], v[order], weights,
                                                 np.ones(v.size), 10 ** 6, 1)
    for chunk_rows, threads in ((n_second - 1, 1), (2 * n_second, 2)):
        got = tg.relatedness._weighted_share(lead, second, n_second, col, v, weights,
                                             np.ones(v.size), chunk_rows, threads, order)
        assert np.array_equal(got, want), (chunk_rows, threads)


def test_default_threads_are_the_usable_cpus(small_pipeline, monkeypatch):
    w, prox, weights, rel = small_pipeline
    if hasattr(os, "sched_getaffinity"):
        assert tg.relatedness.usable_cpus() == len(os.sched_getaffinity(0))
    pools = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(tg.relatedness, "ThreadPoolExecutor", Recording)
    year = w.tensor.years[0]
    base = rel[year]  # threads=1
    # one lead value a chunk: six origins for omega and omega_d, nine products for omega_o
    for measure, default in [
            (base.omega, tg.product_relatedness(w.tensor, prox, year, chunk_rows=1)),
            (base.omega_d, tg.importer_relatedness(w.tensor, weights, year, chunk_rows=1)),
            (base.omega_o, tg.exporter_relatedness(w.tensor, weights, year, chunk_rows=1))]:
        assert np.array_equal(measure, default, equal_nan=True)
    assert pools == [tg.relatedness.usable_cpus()] * 3


def test_exporter_relatedness_keeps_no_year_wide_copies():
    # a year's cells take the p-order index, the denominator, the numerator and
    # the quotient (8 bytes each) and small chunks; permuted year-wide copies of
    # o, p, d and v and their scatter back took about 61 bytes a cell
    cfg = tg.SyntheticWorldConfig(n_countries=40, n_products=250, n_years=1, sparsity=0.5,
                                  seed=2)
    w = tg.generate_world(cfg)
    weights = tg.DistanceWeights.from_dyads(w.tensor.countries, w.dyad_meta)
    year = w.tensor.years[0]
    tg.exporter_relatedness(w.tensor, weights, year)  # the marginal is cached
    tracemalloc.start()
    try:
        tg.exporter_relatedness(w.tensor, weights, year, chunk_rows=1024, threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * w.tensor.n_cells(year), peak / w.tensor.n_cells(year)


def test_bounds_check_keeps_nan_clips_the_slack_and_rejects_the_rest():
    values = np.array([np.nan, -5e-10, 0.25, 1.0 + 5e-10, np.nan])
    got = tg.relatedness._check_bounds(values.copy(), "omega")
    assert np.array_equal(got, [np.nan, 0.0, 0.25, 1.0, np.nan], equal_nan=True)
    nan = np.full(3, np.nan)
    assert np.array_equal(tg.relatedness._check_bounds(nan.copy(), "omega"), nan, equal_nan=True)
    for lo, hi in ((-2e-9, 0.5), (0.5, 1.0 + 2e-9)):
        with pytest.raises(tg.TradeDataError) as err:
            tg.relatedness._check_bounds(np.array([lo, np.nan, hi]), "omega")
        want = f"omega out of [0,1]: min={np.float64(lo)!r} max={np.float64(hi)!r}"
        assert str(err.value) == want


def test_relatedness_csv_roundtrip(tmp_path, small_pipeline):
    w, prox, weights, rel = small_pipeline
    path = tmp_path / "rel.csv"
    tg.relatedness.write_relatedness_csv(list(rel.values()), path)
    again = tg.relatedness.read_relatedness_csv(path, w.tensor.countries,
                                                w.tensor.products)
    for year, base in rel.items():
        got = again[year]
        keep = np.isfinite(base.omega)
        assert got.n == int(keep.sum())
        # round-trip printing is exact
        assert np.array_equal(got.omega, base.omega[keep])
        assert np.array_equal(got.omega_d, base.omega_d[keep])
        assert np.array_equal(got.omega_o, base.omega_o[keep])


def test_vocabulary_mismatch_rejected(small_pipeline):
    w, prox, weights, _ = small_pipeline
    other = tg.DistanceWeights(("XXX", "YYY"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(tg.TradeDataError):
        tg.compute_relatedness(w.tensor, prox, other, w.tensor.years[0])


REL_HEADER = "year,origin,product,destination,omega,omega_d,omega_o\n"
REL_GOOD = "2000,AAA,0101,BBB,0.5,0.25,0.125\n"


@pytest.mark.parametrize("bad,reason", [
    ("2000,AAA,0102,BBB,0.5,0.25\n", "expected 7 fields, got 6"),
    ("2000,AAA,0102,BBB,0.5,x,0.125\n", "unparseable omega_d 'x'"),
    ("2000,ZZZ,0102,BBB,0.5,0.25,0.125\n", "unknown origin 'ZZZ'"),
    ("2000,AAA,9999,BBB,0.5,0.25,0.125\n", "unknown product '9999'"),
    ("2000,AAA,0102,ZZZ,0.5,0.25,0.125\n", "unknown destination 'ZZZ'"),
    ("2000,AAA,0102,BBB,-0.5,0.25,0.125\n", "omega -0.5 outside [0, 1]"),
    ("2000,AAA,0102,BBB,0.5,0.25,nan\n", "omega_o nan outside [0, 1]"),
    (REL_GOOD, "duplicate cell 2000,AAA,0101,BBB"),
])
def test_relatedness_reader_names_line_and_reason(tmp_path, bad, reason):
    path = tmp_path / "relatedness.csv"
    path.write_text(REL_HEADER + REL_GOOD + bad + "x\n")
    with pytest.raises(tg.ParseError) as exc:
        tg.relatedness.read_relatedness_csv(path, ("AAA", "BBB"), ("0101", "0102"))
    assert (exc.value.line_no, str(exc.value)) == (3, f"{path}:3: {reason}")
