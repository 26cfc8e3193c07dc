import numpy as np
import pytest

import tradegravity as tg

from referee import tensor_from_cells


def rca_fixture():
    # A exports p1 only; B exports p1 and p2; C only imports
    cells = {
        (2000, "AAA", "0101", "CCC"): 100.0,
        (2000, "BBB", "0101", "CCC"): 100.0,
        (2000, "BBB", "0102", "CCC"): 100.0,
    }
    return tensor_from_cells(["AAA", "BBB", "CCC"], ["0101", "0102"], cells)


def test_rca_hand_values():
    rca = tg.compute_rca(rca_fixture(), (2000, 2000)).values  # AAA, BBB, CCC x 0101, 0102
    assert rca[0, 0] == pytest.approx(1.5, rel=1e-12)
    assert rca[1, 0] == pytest.approx(0.75, rel=1e-12)
    assert rca[1, 1] == pytest.approx(1.5, rel=1e-12)
    assert rca[0, 1] == 0.0  # zero numerator, other trade present
    assert np.isnan(rca[2, 0])  # no exports: absent row


def test_rca_single_exporter_single_product():
    cells = {(2000, "AAA", "0101", "BBB"): 7.0}
    rca = tg.compute_rca(tensor_from_cells(["AAA", "BBB"], ["0101"], cells), (2000, 2000))
    assert rca.values[0, 0] == 1.0


def test_rca_window_errors():
    tensor = rca_fixture()
    with pytest.raises(tg.TradeDataError):
        tg.compute_rca(tensor, (2001, 2000))
    with pytest.raises(tg.TradeDataError):
        tg.compute_rca(tensor, (1990, 1995))


def test_rca_identity_random_worlds():
    for seed in range(5):
        cfg = tg.SyntheticWorldConfig(n_countries=6, n_products=10, n_years=3,
                                      sparsity=0.6, seed=seed)
        w = tg.generate_world(cfg)
        rca = tg.compute_rca(w.tensor, (2000, 2002))
        pooled = sum(w.tensor.x_op(y) for y in w.tensor.years)
        shares = pooled.sum(axis=0) / pooled.sum()
        exporters = pooled.sum(axis=1) > 0
        identity = np.nansum(rca.values[exporters] * shares[None, :], axis=1)
        assert np.allclose(identity, 1.0, rtol=1e-9, atol=0)


def test_binarize_boundary():
    rca = tg.compute_rca(rca_fixture(), (2000, 2000))
    m = tg.binarize(rca, threshold=1.5)
    assert m.entries[0, 0] == 1  # RCA exactly at the threshold counts
    assert m.entries[1, 0] == 0
    m1 = tg.binarize(rca)  # default 1.0
    assert m1.entries[0, 0] == 1 and m1.entries[1, 1] == 1
    assert m1.entries[2].sum() == 0  # NaN row binarizes to zeros
    with pytest.raises(tg.TradeDataError):
        tg.binarize(rca, threshold=0.0)


def advantage(entries, products=None):
    entries = np.asarray(entries, dtype=np.uint8)
    products = products or tuple(f"{100 + j:04d}" for j in range(entries.shape[1]))
    countries = tuple(f"C{i:02d}" for i in range(entries.shape[0]))
    return tg.AdvantageMatrix(entries, countries, tuple(products), 1.0)


def test_proximity_identical_and_disjoint_sets():
    # p1 and p2 exported with advantage by the same countries
    m = advantage([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    prox = tg.compute_proximity(m)
    assert prox.phi[0, 1] == 1.0
    assert prox.phi[0, 2] == 0.0  # no country holds both
    assert prox.phi[1, 2] == 0.0


def test_proximity_one_third():
    # p1 by {A,B}; p2 by {B,C,D}: joint 1, max ubiquity 3
    m = advantage([[1, 0], [1, 1], [0, 1], [0, 1]])
    prox = tg.compute_proximity(m)
    assert prox.phi[0, 1] == pytest.approx(1.0 / 3.0, abs=0)


def brute_force_proximity(entries):
    """min of the two conditional co-advantage probabilities, per pair."""
    n_c, n_p = entries.shape
    phi = np.zeros((n_p, n_p))
    for i in range(n_p):
        for j in range(n_p):
            if i == j:
                continue
            joint = sum(int(entries[c, i] and entries[c, j]) for c in range(n_c))
            ub_i = sum(int(entries[c, i]) for c in range(n_c))
            ub_j = sum(int(entries[c, j]) for c in range(n_c))
            if ub_i == 0 or ub_j == 0:
                continue
            phi[i, j] = min(joint / ub_i, joint / ub_j)
    return phi


def test_proximity_matches_min_conditional_bruteforce():
    rng = np.random.default_rng(12)
    for _ in range(25):
        entries = (rng.random((10, 15)) < rng.uniform(0.1, 0.7)).astype(np.uint8)
        prox = tg.compute_proximity(advantage(entries))
        expected = brute_force_proximity(entries)
        assert np.array_equal(prox.phi, expected)  # exact: same integer ratios
        assert np.array_equal(prox.phi, prox.phi.T)
        assert prox.phi.min() >= 0.0 and prox.phi.max() <= 1.0
        assert np.all(np.diag(prox.phi) == 0.0)


def test_proximity_label_invariance():
    rng = np.random.default_rng(5)
    entries = (rng.random((8, 6)) < 0.5).astype(np.uint8)
    perm = rng.permutation(8)
    phi_a = tg.compute_proximity(advantage(entries)).phi
    phi_b = tg.compute_proximity(advantage(entries[perm])).phi
    assert np.array_equal(phi_a, phi_b)


def test_rca_label_invariance():
    # renaming countries (hence reordering the vocabulary) moves rows, not values
    cells = {
        (2000, "AAA", "0101", "CCC"): 100.0,
        (2000, "BBB", "0101", "CCC"): 100.0,
        (2000, "BBB", "0102", "CCC"): 100.0,
    }
    renamed = {(y, {"AAA": "ZZB", "BBB": "ZZA", "CCC": "ZZC"}[o], p,
                {"AAA": "ZZB", "BBB": "ZZA", "CCC": "ZZC"}[d]): v
               for (y, o, p, d), v in cells.items()}
    rca_a = tg.compute_rca(
        tensor_from_cells(["AAA", "BBB", "CCC"], ["0101", "0102"], cells),
        (2000, 2000))
    rca_b = tg.compute_rca(
        tensor_from_cells(["ZZA", "ZZB", "ZZC"], ["0101", "0102"], renamed),
        (2000, 2000))
    assert rca_a.values[0, 0] == rca_b.values[1, 0]  # (AAA, 0101) is (ZZB, 0101)
    assert rca_a.values[1, 1] == rca_b.values[0, 1]  # (BBB, 0102) is (ZZA, 0102)


def test_export_product_space(tmp_path):
    phi = np.array([[0.0, 1.0 / 3.0, 0.1], [1.0 / 3.0, 0.0, 0.6], [0.1, 0.6, 0.0]])
    prox = tg.ProximityMatrix(phi, ("0101", "0102", "0103"))
    edges = tmp_path / "edges.csv"
    hist = tmp_path / "hist.csv"

    # every pair: relatedness reads the full phi
    assert tg.export_product_space(prox, edges, hist, bins=10) == 3
    lines = edges.read_text().strip().splitlines()
    assert lines[1] == "0101,0102,0.3333333333333333"  # round-trip precision
    assert lines[2] == "0101,0103,0.1"
    assert lines[3] == "0102,0103,0.6"

    hist_lines = hist.read_text().strip().splitlines()
    assert hist_lines[0] == "bin_lower,bin_upper,count,cumulative_fraction"
    assert len(hist_lines) == 11
    assert hist_lines[-1].endswith("1.000000")  # cumulative fraction closes at 1


def test_rca_csv_skips_absent_rows(tmp_path):
    rca = tg.compute_rca(rca_fixture(), (2000, 2000))
    path = tmp_path / "rca.csv"
    tg.complexity.write_rca_csv(rca, path)
    body = path.read_text()
    assert "CCC" not in body
    assert "AAA,0101,1.5" in body


def test_proximity_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    entries = (rng.random((8, 6)) < 0.5).astype(np.uint8)
    m = advantage(entries)
    prox = tg.compute_proximity(m)
    edges = tmp_path / "edges.csv"
    tg.export_product_space(prox, edges, tmp_path / "h.csv")
    again = tg.complexity.read_proximity_csv(edges, m.products)
    assert np.array_equal(again.phi, prox.phi)  # round-trip printing is exact


@pytest.mark.parametrize("bad,reason", [
    ("0101,0103\n", "expected 3 fields, got 2"),
    ("0101,0103,high\n", "unparseable phi 'high'"),
    ("0101,9999,0.5\n", "unknown product '9999'"),
    ("0101,0102,1.5\n", "phi 1.5 outside [0, 1]"),
    ("0102,0101,0.5\n", "duplicate edge 0102,0101"),
])
def test_proximity_reader_names_line_and_reason(tmp_path, bad, reason):
    path = tmp_path / "proximity.csv"
    path.write_text("product_i,product_j,phi\n0101,0102,0.5\n" + bad + "x\n")
    with pytest.raises(tg.ParseError) as exc:
        tg.complexity.read_proximity_csv(path, ("0101", "0102", "0103"))
    assert (exc.value.line_no, str(exc.value)) == (3, f"{path}:3: {reason}")
