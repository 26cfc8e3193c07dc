import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import tradegravity as tg
from tradegravity.cli import build_parser
from tradegravity.gravity import (BINARY_COLUMNS, LALL_CODES, LALL_RANK_ORDER,
                                  REGRESSOR_NAMES, StreamingOLS, _accumulate, _Moments,
                                  _zscored, exporter_class_codes, lall_codes,
                                  solve_normal_equations, trend_over_lall)

from conftest import dataset_from_rows, make_dataset, write_lall_concordance
from referee import brute_force_ols, cell_value


# ---------------------------------------------------------------- standardize

def test_standardize_one_two_three():
    ds = make_dataset({"omega": [1.0, 2.0, 3.0]})
    z, spec = tg.standardize(ds)
    assert np.allclose(z.columns["omega"], [-1.0, 0.0, 1.0], atol=1e-12)
    assert spec.means["omega"] == 2.0
    assert spec.stds["omega"] == 1.0


def test_standardize_leaves_binaries():
    ds = make_dataset({"border": [0.0, 1.0, 1.0]})
    z, spec = tg.standardize(ds)
    assert np.array_equal(z.columns["border"], [0.0, 1.0, 1.0])
    assert "border" not in spec.means


def test_standardize_idempotent(small_dataset):
    z, _ = tg.standardize(small_dataset)
    zz, _ = tg.standardize(z)
    for name in REGRESSOR_NAMES:
        if name in BINARY_COLUMNS:
            continue
        col = z.columns[name]
        assert abs(np.mean(col)) < 1e-9
        assert abs(np.std(col, ddof=1) - 1.0) < 1e-9
        assert np.allclose(col, zz.columns[name], atol=1e-9)


def test_standardize_zero_variance_names_column():
    ds = make_dataset({"log_gdp_o": [5.0, 5.0, 5.0]})
    with pytest.raises(tg.TradeDataError, match="log_gdp_o"):
        tg.standardize(ds)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_equal_logs_are_constant_everywhere(caplog):
    for rows, standardize_error, correlation_error in (
            (5000, "log_gdp_o", "log_gdp_o"),  # float std of 5000 copies of log(7.3): 2.2e-16
            (1, "fewer than two rows", "omega")):  # one row: every column is constant
        ds = make_dataset({"log_gdp_o": [np.log(7.3)] * rows})
        with pytest.raises(tg.TradeDataError, match=standardize_error):
            tg.standardize(ds)
        caplog.clear()
        with caplog.at_level("WARNING"):
            stats = {row[0]: row for row in tg.summary_stats(ds)}
        assert any("log_gdp_o" in rec.message and "zero variance" in rec.message
                   for rec in caplog.records)
        assert stats["log_gdp_o"][1:4] == (rows, np.log(7.3), 0.0)
        with pytest.raises(tg.TradeDataError, match=correlation_error):
            tg.correlation_matrix(ds)


def test_standardize_response_flag():
    ds = make_dataset({}, response=[1.0, 2.0, 3.0])
    z, spec = tg.standardize(ds, standardize_response=True)
    assert np.allclose(z.response, [-1.0, 0.0, 1.0])
    assert spec.response_standardized
    z2, spec2 = tg.standardize(ds)
    assert np.array_equal(z2.response, ds.response)
    assert not spec2.response_standardized


# -------------------------------------------------------------------- fit_ols

def test_exact_fit_line():
    x = np.column_stack([np.ones(10), np.arange(10.0)])
    y = 2.0 * np.arange(10.0) + 1.0
    acc = StreamingOLS(("const", "x"))
    acc.add(x, y)
    res = acc.result()
    assert np.allclose(res.beta, [1.0, 2.0], atol=1e-10)
    assert res.r2 == pytest.approx(1.0, abs=1e-12)
    assert res.resid_se == pytest.approx(0.0, abs=1e-9)


def test_streaming_matches_bruteforce():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(40, 2000))
        x = rng.normal(size=(n, 16))
        x[:, 0] = 1.0
        y = x @ rng.normal(size=16) + rng.normal(size=n)
        names = tuple(f"c{i}" for i in range(16))
        acc = StreamingOLS(names)
        acc.add(x, y)
        ours = acc.result()
        ref = brute_force_ols(x, y, names)
        assert np.allclose(ours.beta, ref.beta, rtol=1e-8)
        assert np.allclose(ours.se, ref.se, rtol=1e-8)
        assert ours.adj_r2 == pytest.approx(ref.adj_r2, rel=1e-8)
        assert ours.resid_se == pytest.approx(ref.resid_se, rel=1e-8)
        assert ours.ortho_rel <= 1e-6


def test_partition_and_order_of_chunks_is_bitwise():
    rng = np.random.default_rng(8)
    n = 3000
    x = rng.normal(size=(n, 4))
    y = rng.normal(size=n)
    names = ("a", "b", "c", "d")
    one = StreamingOLS(names, block_rows=256)
    one.add(x, y)
    r1 = one.result()

    many = StreamingOLS(names, block_rows=256)
    bounds = sorted(rng.choice(np.arange(1, n), size=7, replace=False).tolist())
    prev = 0
    for b in bounds + [n]:
        many.add(x[prev:b], y[prev:b])
        prev = b
    r2 = many.result()
    assert np.array_equal(r1.beta, r2.beta)
    assert np.array_equal(r1.se, r2.se)
    assert r1.adj_r2 == r2.adj_r2 and r1.resid_se == r2.resid_se


def test_shuffled_rows_match_dense_oracle():
    rng = np.random.default_rng(31)
    n, k = 1000, 16
    x = rng.normal(size=(n, k))
    x[:, 0] = 1.0
    y = x @ rng.normal(size=k) + rng.normal(size=n)
    names = tuple(f"c{i}" for i in range(k))
    ref = brute_force_ols(x, y, names)
    for _ in range(3):
        perm = rng.permutation(n)
        acc = StreamingOLS(names, block_rows=128)
        for lo in range(0, n, 217):
            acc.add(x[perm[lo:lo + 217]], y[perm[lo:lo + 217]])
        res = acc.result()
        assert np.allclose(res.beta, ref.beta, rtol=1e-8)
        assert np.allclose(res.se, ref.se, rtol=1e-8)
        assert res.adj_r2 == pytest.approx(ref.adj_r2, rel=1e-8)


def test_threaded_fit_is_bitwise(small_dataset):
    # a fresh view of the raw rows for each fit: a dataset keeps the moments of its
    # first full pass, and a standardized one carries its own, so neither is streamed
    ds = small_dataset
    names = ("const",) + REGRESSOR_NAMES
    assert ds.n % 16 != 0 and ds.n % 128 != 0  # the last block is partial
    # 128-row blocks make two, so the third thread's stride is empty
    for block_rows, threads in ((16, 1), (16, 3), (128, 3)):
        acc = StreamingOLS(names, block_rows=block_rows)
        acc.add(ds.design_matrix(), ds.response)
        want = acc.result()
        with mock.patch.object(tg.gravity, "_BLOCK_ROWS", block_rows):
            got = tg.fit_ols(replace(ds), threads=threads)
        assert np.array_equal(got.beta, want.beta), (block_rows, threads)
        assert np.array_equal(got.se, want.se), (block_rows, threads)
        assert got.adj_r2 == want.adj_r2 and got.resid_se == want.resid_se


def random_dataset(n, seed, **keys):
    """A hand-built dataset of n rows whose regressors and response vary."""
    rng = np.random.default_rng(seed)
    columns = {name: (rng.random(n) < 0.3).astype(float) if name in BINARY_COLUMNS
               else rng.normal(size=n) * (j + 1) + j for j, name in enumerate(REGRESSOR_NAMES)}
    return make_dataset(columns, response=0.05 * sum(columns.values()) + rng.normal(size=n),
                        **keys)


def test_reduction_tree_is_pinned():
    # five whole blocks and a partial one: runs of 4 and 1 blocks, then the partial
    ds = random_dataset(5 * 4096 + 100, seed=6)
    x, y = ds.design_matrix(), ds.response
    b = [_Moments.of(np.vstack((x[lo:lo + 4096].T, y[lo:lo + 4096])))
         for lo in range(0, ds.n, 4096)]
    want = ((b[0] + b[1]) + (b[2] + b[3])) + b[4] + b[5]
    names = ("const",) + REGRESSOR_NAMES
    acc = StreamingOLS(names)
    for lo in range(0, ds.n, 3000):  # chunks that straddle the blocks
        acc.add(x[lo:lo + 3000], y[lo:lo + 3000])
    assert [blocks for blocks, _ in acc._nodes] == [4, 1]
    got = acc._nodes[0][1] + acc._nodes[1][1] + _Moments.of(acc._buf[:, :100])
    for threads in (1, 2):
        for moments in (got, _accumulate(ds, threads=threads)):
            assert moments.n == want.n == ds.n
            assert np.array_equal(moments.mean, want.mean), threads
            assert np.array_equal(moments.c, want.c), threads
    fit = want.solve(names)
    for res in (acc.result(), tg.fit_ols(ds, threads=2)):
        assert np.array_equal(res.beta, fit.beta) and np.array_equal(res.se, fit.se)
        assert res.adj_r2 == fit.adj_r2 and res.resid_se == fit.resid_se
    # a split cell's index array: three whole blocks and a partial one, whose
    # binary-counter tree is the sum in block order, at any thread count
    rows = np.random.default_rng(8).permutation(ds.n)[:3 * 4096 + 1000]
    blocks = [np.vstack((x[sel].T, y[sel])).copy(order="C")
              for sel in (rows[lo:lo + 4096] for lo in range(0, rows.size, 4096))]
    b = [_Moments.of(block) for block in blocks]
    want = sum(b[1:], b[0])
    # the same blocks F-ordered give the C-ordered bits: the layout is no input
    f = [_Moments.of(np.asfortranarray(block)) for block in blocks]
    cases = [("F-ordered", sum(f[1:], f[0]))] + [
        (threads, _accumulate(ds, rows, threads=threads)) for threads in (1, 2, 3)]
    for case, moments in cases:
        assert moments.n == want.n == rows.size
        assert np.array_equal(moments.mean, want.mean), case
        assert np.array_equal(moments.c, want.c), case


def test_default_threads_are_the_usable_cpus(monkeypatch):
    pools = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(tg.gravity, "ThreadPoolExecutor", Recording)
    ds = random_dataset(5 * 4096 + 100, seed=9,  # raw, and read through fresh views below
                        t=np.repeat(np.arange(2000, 2004, dtype=np.int32), (5 * 4096 + 100) // 4))
    periods = ((2000, 2003), (2001, 2005))
    serial = (tg.fit_ols(ds, threads=1), _zscored(_accumulate(ds, threads=1), False)[0],
              tg.run_split_regressions(ds, "period", periods=periods, threads=1))
    pools.clear()
    default = (tg.fit_ols(replace(ds)), tg.standardize(replace(ds))[0].moments,
               tg.run_split_regressions(ds, "period", periods=periods))
    assert pools == [tg.relatedness.usable_cpus()] * 4  # the fit, standardize, two cells
    fits = [(serial[0], default[0])] + [(serial[2][k], default[2][k]) for k in serial[2]]
    assert len(fits) == 3
    for one, many in fits:
        assert np.array_equal(one.beta, many.beta) and np.array_equal(one.se, many.se)
        assert one.adj_r2 == many.adj_r2 and one.resid_se == many.resid_se
    assert np.array_equal(serial[1].mean, default[1].mean)
    assert np.array_equal(serial[1].c, default[1].c)
    args = build_parser().parse_args(
        ["gravity", "--trade", "t", "--relatedness", "r", "--country-csv", "c",
         "--dyad-csv", "d"])
    assert args.threads == tg.relatedness.usable_cpus()


def test_non_finite_and_misshapen_rows_are_errors(caplog):
    acc = StreamingOLS(("a", "b"))
    for bad in (np.nan, np.inf, -np.inf):
        for x, y in ((np.array([[1.0, bad]]), np.ones(1)), (np.ones((1, 2)), np.array([bad]))):
            with pytest.raises(tg.TradeDataError, match="non-finite"):
                acc.add(x, y)
    for x, y in ((np.ones((3, 3)), np.ones(3)), (np.ones(2), np.ones(2)),
                 (np.ones((3, 2)), np.ones(4)), (np.ones((3, 2)), np.ones((3, 1)))):
        with pytest.raises(tg.TradeDataError, match="bad chunk shape"):
            acc.add(x, y)
    # a NaN regressor in a hand-built dataset, in a row of the first period only
    ds = random_dataset(200, seed=7, t=np.repeat(np.arange(2000, 2004, dtype=np.int32), 50))
    ds.columns["omega_d"][10] = np.nan
    with pytest.raises(tg.TradeDataError, match="non-finite"):
        tg.fit_ols(ds)
    with caplog.at_level("WARNING"):
        results = tg.run_split_regressions(ds, "period", periods=((2000, 2002), (2002, 2005)))
    assert set(results) == {"2002-2005"}
    assert any("2000-2002 skipped" in rec.message and "non-finite" in rec.message
               for rec in caplog.records)


def test_singular_design_lists_columns():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(50, 3))
    x = np.column_stack([x, x[:, 1]])  # duplicate column
    y = rng.normal(size=50)
    acc = StreamingOLS(("a", "b", "c", "b_copy"))
    acc.add(x, y)
    with pytest.raises(tg.SingularDesignError) as exc:
        acc.result()
    assert "b_copy" in exc.value.columns


def test_planted_recovery_with_noise():
    rng = np.random.default_rng(4)
    n, k = 100_000, 16
    x = rng.normal(size=(n, k))
    x[:, 0] = 1.0
    beta = rng.normal(size=k)
    y = x @ beta + rng.normal(size=n)
    acc = StreamingOLS(tuple(f"c{i}" for i in range(k)))
    acc.add(x, y)
    res = acc.result()
    assert np.all(np.abs(res.beta - beta) / res.se < 4.0)


def test_standard_errors_keep_their_digits_under_a_large_response_mean():
    # response mean ~105 against residual sd 1: sums of squares about the
    # origin would be ~11000 times the residual sum of squares
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = 18_000
        columns = {name: (rng.random(n) < 0.3).astype(float) if name in BINARY_COLUMNS
                   else rng.normal(size=n) * (j + 1) + 10 * j
                   for j, name in enumerate(REGRESSOR_NAMES)}
        y = 105.0 + sum((c - c.mean()) / c.std() for c in columns.values()) + rng.normal(size=n)
        ds = make_dataset(columns, response=y)
        moments = tg.run_split_regressions(ds, "none")["all"]
        z, _ = tg.standardize(ds)
        # the z-scored columns as plain rows, streamed: a path with its own rounding
        ref = tg.fit_ols(make_dataset({name: z.columns[name] for name in REGRESSOR_NAMES},
                                      response=z.response))
        assert abs(ref.resid_se - 1.0) < 0.05, seed
        assert np.all(np.abs(moments.se - ref.se) <= 1e-13 * ref.se), seed


@pytest.mark.parametrize("standardize_response", [False, True])
def test_standardized_fit_is_the_unsplit_fit_bitwise(small_dataset, standardize_response):
    z, _ = tg.standardize(small_dataset, standardize_response)
    got = tg.fit_ols(z)
    want = tg.run_split_regressions(small_dataset, "none",
                                    standardize_response=standardize_response)["all"]
    for field in ("beta", "se", "tstat", "pvalue"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    for field in ("n", "r2", "adj_r2", "resid_se", "ortho_rel"):
        assert getattr(got, field) == getattr(want, field), field


def test_fit_needs_more_rows_than_parameters():
    with pytest.raises(tg.TradeDataError):
        solve_normal_equations(np.eye(4), np.ones(4), 3, ("a", "b", "c"))


# ------------------------------------------------------------- build_dataset

def multi_year_world():
    # seed picked so every binary dyad dummy varies within each period subset
    cfg = tg.SyntheticWorldConfig(n_countries=6, n_products=8, n_years=9,
                                  start_year=2000, sparsity=0.85, seed=5)
    w = tg.generate_world(cfg)
    prox = tg.compute_proximity(tg.binarize(tg.compute_rca(w.tensor, (2000, 2008))))
    weights = tg.DistanceWeights.from_dyads(w.tensor.countries, w.dyad_meta)
    rel = {y: tg.compute_relatedness(w.tensor, prox, weights, y)
           for y in w.tensor.years}
    return w, rel


def test_window_arithmetic_pools_five_cross_sections():
    w, rel = multi_year_world()
    ds = tg.build_dataset(w.tensor, rel, w.country_meta, w.dyad_meta, (2000, 2006))
    assert sorted(np.unique(ds.t)) == [2000, 2001, 2002, 2003, 2004]


def test_horizon_below_one_is_rejected():
    w, rel = multi_year_world()
    for horizon in (0, -1):
        with pytest.raises(tg.TradeDataError, match=f"horizon must be at least 1, got {horizon}"):
            tg.build_dataset(w.tensor, rel, w.country_meta, w.dyad_meta, (2000, 2006),
                             horizon=horizon)


def test_rows_require_positive_forward_flow():
    w, rel = multi_year_world()
    ds = tg.build_dataset(w.tensor, rel, w.country_meta, w.dyad_meta, (2000, 2002))
    tensor = w.tensor
    for i in range(min(ds.n, 200)):
        o = tensor.countries[ds.o[i]]
        p = tensor.products[ds.p[i]]
        d = tensor.countries[ds.d[i]]
        assert cell_value(tensor, 2000, o, p, d) > 0
        assert cell_value(tensor, 2002, o, p, d) > 0
        assert ds.response[i] == pytest.approx(np.log(cell_value(tensor, 2002, o, p, d)))
    # and some active cells at t really are absent at t+2 under this sparsity
    keys_t = set(map(tuple, np.column_stack(tensor.flows(2000)[:3]).tolist()))
    keys_f = set(map(tuple, np.column_stack(tensor.flows(2002)[:3]).tolist()))
    assert keys_t - keys_f, "fixture should contain exits"
    assert ds.n < len(keys_t)


def test_log1p_zeros_policy_keeps_exits():
    w, rel = multi_year_world()
    drop = tg.build_dataset(w.tensor, rel, w.country_meta, w.dyad_meta, (2000, 2002))
    keep = tg.build_dataset(w.tensor, rel, w.country_meta, w.dyad_meta, (2000, 2002),
                            zeros="log1p")
    assert keep.n > drop.n
    assert np.isfinite(keep.response).all()


def test_lang_proximity_zero_maps_to_zero():
    w, rel = multi_year_world()
    ds = tg.build_dataset(w.tensor, rel, w.country_meta, w.dyad_meta, (2000, 2002))
    fields = w.dyad_meta.field_matrices(w.tensor.countries)
    raw = fields["lang_proximity"][ds.o, ds.d]
    zero_rows = raw == 0.0
    assert zero_rows.any(), "fixture should contain zero-proximity dyads"
    assert np.all(ds.columns["log_lang_proximity"][zero_rows] == 0.0)


def test_missing_covariate_names_key():
    w, rel = multi_year_world()
    meta = tg.CountryMeta()
    for c in w.tensor.countries[:-1]:
        for y in w.tensor.years:
            meta.add(c, y, 1e7, 1e4)
    with pytest.raises(tg.CoverageError, match=w.tensor.countries[-1]):
        tg.build_dataset(w.tensor, rel, meta, w.dyad_meta, (2000, 2002))


def test_missing_dyad_pair_names_pair_and_file(tmp_path):
    w, rel = multi_year_world()
    o, _, d, _ = w.tensor.flows(2000)
    a, b = sorted((w.tensor.countries[o[0]], w.tensor.countries[d[0]]))
    path = tmp_path / "dyad.csv"
    w.dyad_meta.write_csv(path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not line.startswith(f"{a},{b},")))
    dyads = tg.DyadMeta.from_csv(path)
    with pytest.raises(tg.CoverageError) as exc:
        tg.build_dataset(w.tensor, rel, w.country_meta, dyads, (2000, 2002))
    assert str(exc.value) == f"{path}: no dyad data for country pair ({a},{b})"


def test_non_finite_covariate_read_by_a_row_names_its_column():
    w, rel = multi_year_world()
    meta = tg.CountryMeta()
    for c in w.tensor.countries:
        for y in w.tensor.years:
            meta.add(c, y, w.country_meta.population(c, y), w.country_meta.gdp_per_capita(c, y))
    meta._gdp[(w.tensor.countries[0], 2000)] = np.inf  # add() rejects it
    with pytest.raises(tg.TradeDataError, match="non-finite values in column log_gdp_o"):
        tg.build_dataset(w.tensor, rel, meta, w.dyad_meta, (2000, 2002))


def test_overflowed_marginal_read_by_a_row_names_its_column(small_pipeline):
    w, _, _, rel = small_pipeline
    o, p, d, v = (a.copy() for a in w.tensor.flows(2000))
    assert (o[0], p[0]) == (o[1], p[1])  # two destinations of one (o, p) pair
    v[:2] = 1e308  # both kept (persist world): their x_op entry overflows to inf
    tensor = tg.TradeTensor(w.tensor.countries, w.tensor.products, w.tensor.years,
                            {2000: (o, p, d, v), 2002: w.tensor.flows(2002)})
    rel = {2000: rel[2000]}  # the same cells; relatedness itself refuses these flows
    with pytest.raises(tg.TradeDataError, match="non-finite values in column log_x_op"):
        tg.build_dataset(tensor, rel, w.country_meta, w.dyad_meta, (2000, 2002))


def test_missing_relatedness_year_rejected():
    w, rel = multi_year_world()
    partial = {y: r for y, r in rel.items() if y != 2001}
    with pytest.raises(tg.TradeDataError, match="2001"):
        tg.build_dataset(w.tensor, partial, w.country_meta, w.dyad_meta, (2000, 2006))


def test_relatedness_of_other_flows_rejected(small_pipeline):
    # another seed's cells under the same codes: a cell the tensor lacks is refused, not dropped
    w, prox, weights, _ = small_pipeline
    other = tg.generate_world(tg.SyntheticWorldConfig(n_countries=6, n_products=9, n_years=3,
                                                      sparsity=0.8, seed=4,
                                                      forward_mode="persist"))
    rel = tg.compute_relatedness(other.tensor, prox, weights, 2000)
    cells = set(zip(*(a.tolist() for a in w.tensor.flows(2000)[:3])))
    o, p, d = next(c for c in zip(rel.o.tolist(), rel.p.tolist(), rel.d.tolist())
                   if c not in cells)
    c, pr = w.tensor.countries, w.tensor.products
    with pytest.raises(tg.TradeDataError) as err:
        tg.build_dataset(w.tensor, {2000: rel}, w.country_meta, w.dyad_meta, (2000, 2002))
    want = f"relatedness cell 2000,{c[o]},{pr[p]},{c[d]} has no trade flow"
    assert str(err.value) == want


def eager_columns(w, rel, ds, zeros):
    """Every regressor and the response of ``ds``'s rows by the per-row formulas."""
    tensor = w.tensor
    fields = w.dyad_meta.field_matrices(tensor.countries)
    out = {name: np.empty(ds.n) for name in REGRESSOR_NAMES + ("response",)}
    for t in np.unique(ds.t).tolist():
        rows = ds.t == t
        o, p, d = ds.o[rows], ds.p[rows], ds.d[rows]
        keys = tg.ingest.cell_keys(o, p, d, tensor.n_countries, tensor.n_products)
        _, at = tg.ingest.lookup(tensor.cell_keys(t), keys)
        _, at_rel = tg.ingest.lookup(rel[t].cell_keys(), keys)
        found, fwd_at = tg.ingest.lookup(tensor.cell_keys(t + 2), keys)
        fwd = np.where(found, tensor.flows(t + 2)[3][fwd_at], 0.0)
        gdp = np.array([w.country_meta.gdp_per_capita(c, t) for c in tensor.countries])
        pop = np.array([w.country_meta.population(c, t) for c in tensor.countries])
        for name, values in (
                ("omega", rel[t].omega[at_rel]), ("omega_d", rel[t].omega_d[at_rel]),
                ("omega_o", rel[t].omega_o[at_rel]),
                ("log_x_opd", np.log(tensor.flows(t)[3][at])),
                ("log_x_op", np.log(tensor.x_op(t)[o, p])),
                ("log_x_pd", np.log(tensor.x_pd(t)[p, d])),
                ("log_distance", np.log(fields["distance"][o, d])),
                ("log_gdp_o", np.log(gdp[o])), ("log_gdp_d", np.log(gdp[d])),
                ("log_pop_o", np.log(pop[o])), ("log_pop_d", np.log(pop[d])),
                ("border", fields["border"][o, d]), ("colony", fields["colony"][o, d]),
                ("language", fields["language"][o, d]),
                ("log_lang_proximity", np.log1p(fields["lang_proximity"][o, d])),
                ("response", np.log(fwd) if zeros == "drop" else np.log1p(fwd))):
            out[name][rows] = values
    return out


@pytest.mark.parametrize("zeros", ["drop", "log1p"])
def test_lean_dataset_reads_the_eager_values_bitwise(zeros):
    w, rel = multi_year_world()
    ds = tg.build_dataset(w.tensor, rel, w.country_meta, w.dyad_meta, (2000, 2008), zeros=zeros)
    assert len(np.unique(ds.t)) == 7
    eager = eager_columns(w, rel, ds, zeros)
    assert np.array_equal(ds.response, eager["response"])
    for name in REGRESSOR_NAMES:
        assert np.array_equal(ds.columns[name], eager[name]), name

    z, spec = tg.standardize(ds)
    rows_of_2003 = np.flatnonzero(ds.t == 2003)
    for data in (ds, z):
        x = np.column_stack([np.ones(ds.n)] + [data.columns[name] for name in REGRESSOR_NAMES])
        for rows in (slice(37, 37 + 900), rows_of_2003, rows_of_2003[::-3]):
            assert np.array_equal(data.design_matrix(rows), x[rows])

    # the z view's fit solves the moments standardize took: bitwise the
    # unsplit fit, and the fit streamed over the z-scored columns to rounding
    got = tg.fit_ols(z)
    split = tg.run_split_regressions(ds, "none")["all"]
    assert np.array_equal(got.beta, split.beta)
    assert np.array_equal(got.se, split.se)
    plain = {name: (eager[name] - spec.means[name]) / spec.stds[name]
             if name in spec.means else eager[name] for name in REGRESSOR_NAMES}
    want = tg.fit_ols(dataset_from_rows(t=ds.t, o=ds.o, p=ds.p, d=ds.d, response=ds.response,
                                        columns=plain, countries=ds.countries,
                                        products=ds.products))
    assert np.max(np.abs(got.beta - want.beta)) <= 1e-12 * np.max(np.abs(want.beta))
    assert np.all(np.abs(got.se - want.se) <= 1e-12 * want.se)


@pytest.fixture(scope="module")
def pool_200k():
    """A one-year pool of about 200k rows, with the tensor's marginals warm."""
    cfg = tg.SyntheticWorldConfig(n_countries=40, n_products=250, n_years=3, sparsity=0.5,
                                  seed=2, forward_mode="persist")
    w = tg.generate_world(cfg)
    prox = tg.compute_proximity(tg.binarize(tg.compute_rca(w.tensor, w.proximity_window)))
    weights = tg.DistanceWeights.from_dyads(w.tensor.countries, w.dyad_meta)
    rel = {2000: tg.compute_relatedness(w.tensor, prox, weights, 2000)}
    w.tensor.x_op(2000), w.tensor.x_pd(2000)
    return w, rel


def traced(fn):
    """fn's result, the bytes it still holds and its peak, as numpy reports them."""
    tracemalloc.start()
    try:
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


def test_dataset_holds_a_position_and_two_values_a_row_and_its_tables(pool_200k):
    w, rel = pool_200k
    ds, held, _ = traced(lambda: tg.build_dataset(w.tensor, rel, w.country_meta,
                                                  w.dyad_meta, (2000, 2002)))
    n, c, p = ds.n, w.tensor.n_countries, w.tensor.n_products
    assert 1.5e5 < n < 2.5e5
    # an int32 position in the year's cells; the response and log_x_opd as float64
    rows = (4 + 2 * 8) * n
    tables = 8 * (2 * c * p + 5 * c * c + 2 * c)  # x_op, x_pd; dyad fields; gdp, pop
    assert held <= rows + tables + 2 ** 16, (held, rows + tables)


@pytest.fixture(scope="module")
def exits_pool():
    """Four base years with exits and, every year, cells of undefined omega."""
    cfg = tg.SyntheticWorldConfig(n_countries=20, n_products=60, n_years=6, sparsity=0.5, seed=3)
    w = tg.generate_world(cfg)
    prox = tg.compute_proximity(tg.binarize(tg.compute_rca(w.tensor, (2000, 2005))))
    phi = prox.phi.copy()
    phi[0] = phi[:, 0] = 0.0  # the first product relates to none: its omega is undefined
    prox = tg.ProximityMatrix(phi, prox.products)
    weights = tg.DistanceWeights.from_dyads(w.tensor.countries, w.dyad_meta)
    rel = {y: tg.compute_relatedness(w.tensor, prox, weights, y) for y in range(2000, 2004)}
    return w, rel


def test_dataset_from_a_relatedness_file_is_bitwise_the_in_memory_one(tmp_path, exits_pool):
    w, rel = exits_pool
    assert all(np.isnan(r.omega).any() for r in rel.values())
    path = tmp_path / "rel.csv"
    tg.relatedness.write_relatedness_csv(list(rel.values()), path)
    back = tg.relatedness.read_relatedness_csv(path, w.tensor.countries, w.tensor.products)
    n = {}
    for zeros in ("drop", "log1p"):
        want, got = (tg.build_dataset(w.tensor, r, w.country_meta, w.dyad_meta, (2000, 2005),
                                      zeros=zeros) for r in (rel, back))
        assert len(np.unique(want.t)) == 4
        for name in ("t", "o", "p", "d", "response"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        for name in REGRESSOR_NAMES:
            a, b = got.columns[name], want.columns[name]
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        n[zeros] = want.n
    assert n["log1p"] > n["drop"]  # the exits that log1p keeps


def stored_copy(ds):
    """The same rows with every key and regressor stored as a row array."""
    return dataset_from_rows(t=ds.t, o=ds.o, p=ds.p, d=ds.d, response=ds.response,
                             columns={name: ds.columns[name].copy() for name in REGRESSOR_NAMES},
                             countries=ds.countries, products=ds.products)


def test_positional_dataset_is_bitwise_its_stored_columns(tmp_path, exits_pool):
    # rows read through their cell positions, from in-memory relatedness and from
    # a file reordered into the tensor's cells, against the same rows stored
    w, rel = exits_pool
    path = tmp_path / "rel.csv"
    tg.relatedness.write_relatedness_csv(list(rel.values()), path)
    back = tg.relatedness.read_relatedness_csv(path, w.tensor.countries, w.tensor.products)
    rca = tg.compute_rca(w.tensor, (2000, 2000))
    conc = tg.LallConcordance((p, list(LALL_CODES.values())[i % 6])
                              for i, p in enumerate(w.tensor.products))
    splits = (("none", {}), ("period", {"periods": ((2000, 2003), (2001, 2005))}),
              ("exporter", {"rca": rca}), ("lall", {"concordance": conc}))
    for source, zeros in ((rel, "drop"), (back, "drop"), (rel, "log1p")):
        ds = tg.build_dataset(w.tensor, source, w.country_meta, w.dyad_meta, (2000, 2005),
                              zeros=zeros)
        ref = stored_copy(ds)
        for name in ("t", "o", "p", "d"):
            a, b = getattr(ds, name), getattr(ref, name)
            assert a.dtype == b.dtype == np.int32 and np.array_equal(a, b), name
            assert not a.flags.writeable, name
        edges = np.flatnonzero(np.diff(ds.t)) + 1
        assert edges.size == 3  # four base years
        rng = np.random.default_rng(0)
        blocks = [slice(None), slice(5, ds.n - 5)]
        blocks += [slice(e - 700, e + 300) for e in edges]  # straddle a year boundary
        blocks += [np.arange(edges[0] - 50, edges[2] + 50, 7),  # ascending, three years
                   rng.permutation(ds.n)[:5000]]  # any order, every year
        blocks += [slice(7, 8), np.array([edges[1]]), np.array([], dtype=np.intp)]  # 1 row, 0
        blocks += [slice(edges[2] + 9, ds.n - 3), np.arange(ds.n - 1, edges[2], -5)]  # last year
        pos = ds.columns._pos[0]  # four rows whose cell positions are one run, out of order
        blocks.append(np.flatnonzero(pos[3:] - pos[:-3] == 3)[0] + np.array([0, 2, 1, 3]))
        for rows in blocks:
            assert ds.design_matrix(rows).tobytes() == ref.design_matrix(rows).tobytes(), rows
        for split, kwargs in splits:
            for threads in (1, 2, None):
                got, want = (tg.run_split_regressions(d, split, threads=threads, **kwargs)
                             for d in (ds, ref))
                assert set(got) == set(want) and got, (split, threads)
                for key in want:
                    g, r = got[key], want[key]
                    assert g.n == r.n, (split, key)
                    assert g.beta.tobytes() == r.beta.tobytes(), (split, threads, key)
                    assert g.se.tobytes() == r.se.tobytes(), (split, threads, key)
                    assert (g.adj_r2, g.resid_se) == (r.adj_r2, r.resid_se), (split, key)


def test_a_full_row_pass_leaves_the_datasets_own_moments(exits_pool):
    w, rel = exits_pool

    def build():
        return tg.build_dataset(w.tensor, rel, w.country_meta, w.dyad_meta, (2000, 2005))

    want, (z_want, spec_want) = _accumulate(build()), tg.standardize(build())
    rca = tg.compute_rca(w.tensor, (2000, 2000))
    for threads in (1, 2):
        ds = build()
        # cells of a subset of the rows, one of them every row, are not the dataset's own
        tg.run_split_regressions(ds, "period", periods=((2000, 2005), (2001, 2004)),
                                 threads=threads)
        tg.run_split_regressions(ds, "exporter", rca=rca, threads=threads)
        assert ds.moments is None, threads
        tg.run_split_regressions(ds, "none", threads=threads)
        got = ds.moments
        assert got.n == want.n == ds.n
        assert got.mean.tobytes() == want.mean.tobytes(), threads
        assert got.c.tobytes() == want.c.tobytes(), threads
        # standardize z-scores the moments the split left: no pass of its own
        with mock.patch.object(tg.gravity, "ThreadPoolExecutor", side_effect=AssertionError):
            z, spec = tg.standardize(ds)
        assert spec == spec_want
        assert z.moments.mean.tobytes() == z_want.moments.mean.tobytes(), threads
        assert z.moments.c.tobytes() == z_want.moments.c.tobytes(), threads
        # the standardized view carries the z-scored moments, never the raw ones
        assert ds.moments is got and z.moments is not got
        assert z.moments.c.tobytes() != got.c.tobytes()
        assert tg.fit_ols(z).beta.tobytes() == tg.fit_ols(tg.standardize(build())[0]).beta.tobytes()


@pytest.mark.parametrize("zeros", ["drop", "log1p"])
def test_dataset_build_peaks_near_the_rows_it_holds(exits_pool, zeros):
    # each pooled row is written once: no per-year copies to concatenate
    w, rel = exits_pool
    _, held, peak = traced(lambda: tg.build_dataset(w.tensor, rel, w.country_meta, w.dyad_meta,
                                                    (2000, 2005), zeros=zeros))
    assert peak <= 1.5 * held, peak / held


def test_standardized_fit_copies_no_columns(pool_200k, monkeypatch):
    monkeypatch.setattr(tg.gravity, "usable_cpus", lambda: 2)  # a buffer a worker: fix the count
    w, rel = pool_200k
    ds = tg.build_dataset(w.tensor, rel, w.country_meta, w.dyad_meta, (2000, 2002))
    _, _, peak = traced(lambda: tg.fit_ols(tg.standardize(ds)[0]))
    # one pass over blocks for the moments: far below the 12 columns a
    # z-scored copy takes
    assert peak < 3 * 8 * ds.n, peak / (8 * ds.n)


def test_summaries_of_a_standardized_pool_copy_no_columns(pool_200k):
    w, rel = pool_200k
    ds = tg.build_dataset(w.tensor, rel, w.country_meta, w.dyad_meta, (2000, 2002))
    z, _ = tg.standardize(ds)
    _, _, peak = traced(lambda: (tg.summary_stats(z), tg.correlation_matrix(z)))
    # means, stds and correlations from the moments; min and max from one
    # column read at a time: a gathered column and its z-scored copy
    assert peak < 3 * 8 * ds.n, peak / (8 * ds.n)


def test_split_cells_copy_no_columns(pool_200k, monkeypatch):
    monkeypatch.setattr(tg.gravity, "usable_cpus", lambda: 2)  # a buffer a worker: fix the count
    w, rel = pool_200k
    ds = tg.build_dataset(w.tensor, rel, w.country_meta, w.dyad_meta, (2000, 2002))
    rca = tg.compute_rca(w.tensor, (2000, 2000))
    categories = list(LALL_CODES.values())
    conc = tg.LallConcordance((p, categories[i % 6]) for i, p in enumerate(w.tensor.products))
    tg.run_split_regressions(ds, "none")  # scipy.special's first import is not the split's
    block = (tg.gravity.K_PARAMETERS + 1) * 4096 * 8  # one 4096-row block of [1 | x | y]
    for kwargs, codes in (({"rca": rca}, lambda: exporter_class_codes(ds, rca)),
                          ({"concordance": conc}, lambda: lall_codes(ds, conc))):
        split = "exporter" if "rca" in kwargs else "lall"
        cells, _, peak = traced(lambda: tg.run_split_regressions(ds, split, **kwargs))
        assert len(cells) == (3 if split == "exporter" else 5)
        # a uint8 code and an 8-byte row index a row, plus a few blocks' temporaries
        assert peak < 9 * ds.n + 5 * block, (split, peak / ds.n)
        # a code is a byte a row, with no 8-byte count of the products on the side
        peak = traced(codes)[2]
        assert peak < 2 * ds.n, (split, peak / ds.n)


# ------------------------------------------------------------ classification

def test_classify_exporter_thresholds():
    assert tg.classify_exporter(0.1) is tg.ExporterClass.NEW
    assert tg.classify_exporter(0.5) is tg.ExporterClass.NASCENT
    assert tg.classify_exporter(1.5) is tg.ExporterClass.EXPERIENCED
    assert tg.classify_exporter(0.0) is tg.ExporterClass.NEW
    assert tg.classify_exporter(0.2) is tg.ExporterClass.NASCENT
    assert tg.classify_exporter(1.0) is tg.ExporterClass.NASCENT
    assert tg.classify_exporter(np.nextafter(0.2, 0)) is tg.ExporterClass.NEW
    assert tg.classify_exporter(np.nextafter(1.0, 2)) is tg.ExporterClass.EXPERIENCED
    with pytest.raises(tg.TradeDataError):
        tg.classify_exporter(-0.1)


def test_exporter_thresholds_are_validated():
    # NaN, unordered or infinite thresholds have no three-way class; both values are named
    for new, experienced in ((np.nan, 1.0), (0.2, np.nan), (2.0, 1.0), (-0.1, 1.0),
                             (0.2, np.inf)):
        named = rf"new \({new}\).*experienced \({experienced}\)"
        with pytest.raises(tg.TradeDataError, match=named):
            tg.classify_exporter(0.1, new_threshold=new, experienced_threshold=experienced)
    assert tg.classify_exporter(1.0, 1.0, 1.0) is tg.ExporterClass.NASCENT  # equal is ordered
    assert tg.classify_exporter(0.0, 0.0, 0.0) is tg.ExporterClass.NASCENT


def test_map_lall(tmp_path):
    path = write_lall_concordance(tmp_path / "lall.csv",
                                  ["0101", "0102", "0103"], ["HT", "SP", "PP"])
    conc = tg.LallConcordance.from_csv(path)
    assert conc.category("0101") is tg.LallCategory.HIGH_TECH
    assert conc.category("0102") is tg.LallCategory.EXCLUDED  # special transaction
    with pytest.raises(tg.CoverageError):
        conc.category("9999")
    assert conc.coverage_report(["0101", "9999", "8888"]) == ["8888", "9999"]


# ------------------------------------------------------------------- splits

def test_split_none(small_dataset):
    results = tg.run_split_regressions(small_dataset, "none")
    assert set(results) == {"all"}
    assert results["all"].n == small_dataset.n


def test_period_split():
    w, rel = multi_year_world()
    ds = tg.build_dataset(w.tensor, rel, w.country_meta, w.dyad_meta, (2000, 2008))
    periods = ((2000, 2003), (2003, 2006), (2006, 2008))
    results = tg.run_split_regressions(ds, "period", periods=periods)
    assert set(results) == {"2000-2003", "2003-2006", "2006-2008"}
    # standardization is per split: refitting the cell's own dataset agrees
    cell = tg.build_dataset(w.tensor, rel, w.country_meta, w.dyad_meta, (2000, 2003))
    z, _ = tg.standardize(cell)
    direct = tg.fit_ols(z)
    assert np.allclose(results["2000-2003"].beta, direct.beta)


def test_exporter_split_three_cells():
    w, rel = multi_year_world()
    ds = tg.build_dataset(w.tensor, rel, w.country_meta, w.dyad_meta, (2000, 2006))
    rca = tg.compute_rca(w.tensor, (2000, 2000))
    codes = exporter_class_codes(ds, rca)
    assert codes.dtype == np.uint8 and set(np.unique(codes)) == {0, 1, 2}
    results = tg.run_split_regressions(ds, "exporter", rca=rca)
    assert set(results) == {"new", "nascent", "experienced"}
    assert sum(r.n for r in results.values()) == ds.n


def test_lall_split_five_cells_excluded_dropped(tmp_path):
    w, rel = multi_year_world()
    ds = tg.build_dataset(w.tensor, rel, w.country_meta, w.dyad_meta, (2000, 2006))
    cats = ["PP", "RB", "LT", "MT", "HT", "SP", "PP", "RB"]
    path = write_lall_concordance(tmp_path / "lall.csv", w.tensor.products, cats)
    conc = tg.LallConcordance.from_csv(path)
    codes = lall_codes(ds, conc)
    assert codes.dtype == np.uint8
    results = tg.run_split_regressions(ds, "lall", concordance=conc)
    assert set(results) == {"primary", "resource_based", "low_tech",
                            "medium_tech", "high_tech"}
    excluded = list(tg.LallCategory).index(tg.LallCategory.EXCLUDED)
    assert sum(r.n for r in results.values()) == int((codes != excluded).sum())
    assert (codes == excluded).sum() > 0


def test_undersized_cell_skipped(small_dataset, caplog):
    rca_values = np.zeros((len(small_dataset.countries), len(small_dataset.products)))
    rca = tg.RcaMatrix(rca_values, small_dataset.countries, small_dataset.products,
                       (2000, 2000))
    with caplog.at_level("WARNING"):
        results = tg.run_split_regressions(small_dataset, "exporter", rca=rca)
    assert set(results) == {"new"}  # nascent and experienced cells are empty
    assert any("skipped" in rec.message for rec in caplog.records)


def cell_dataset(ds, mask):
    """A split cell's rows as a dataset of their own."""
    return dataset_from_rows(
        t=ds.t[mask], o=ds.o[mask], p=ds.p[mask], d=ds.d[mask], response=ds.response[mask],
        columns={name: col[mask] for name, col in ds.columns.items()},
        countries=ds.countries, products=ds.products)


def assert_matches_standardized_refit(results, ds, masks, standardize_response):
    assert set(results) == set(masks)
    for key, mask in masks.items():
        z, _ = tg.standardize(cell_dataset(ds, mask), standardize_response=standardize_response)
        want, got = tg.fit_ols(z), results[key]
        assert got.n == want.n, key
        assert np.max(np.abs(got.beta - want.beta)) <= 1e-12 * np.max(np.abs(want.beta)), key
        assert np.all(np.abs(got.se - want.se) <= 1e-12 * want.se), key


@pytest.mark.parametrize("standardize_response", [False, True])
@pytest.mark.parametrize("split", ["none", "period", "exporter", "lall"])
def test_split_cells_equal_their_standardized_refit(tmp_path, split, standardize_response):
    w, rel = multi_year_world()
    ds = tg.build_dataset(w.tensor, rel, w.country_meta, w.dyad_meta, (2000, 2008))
    kwargs, masks = {}, {"all": np.ones(ds.n, dtype=bool)}
    if split == "period":  # overlapping: base years 2002 and 2003 sit in both cells
        kwargs["periods"] = ((2000, 2005), (2002, 2008))
        masks = {f"{a}-{b}": (ds.t >= a) & (ds.t <= b - 2) for a, b in kwargs["periods"]}
    elif split == "exporter":
        kwargs["rca"] = tg.compute_rca(w.tensor, (2000, 2000))
        codes = exporter_class_codes(ds, kwargs["rca"])
        masks = {c.value: codes == i for i, c in enumerate(tg.ExporterClass)}
    elif split == "lall":
        path = write_lall_concordance(tmp_path / "lall.csv", w.tensor.products,
                                      ["PP", "RB", "LT", "MT", "HT", "SP", "PP", "RB"])
        kwargs["concordance"] = tg.LallConcordance.from_csv(path)
        codes = lall_codes(ds, kwargs["concordance"])
        masks = {c.value: codes == i for i, c in enumerate(LALL_RANK_ORDER)}
    results = tg.run_split_regressions(ds, split, standardize_response=standardize_response,
                                       **kwargs)
    assert_matches_standardized_refit(results, ds, masks, standardize_response)


def test_threaded_split_cells_are_bitwise():
    # cells of several 4096-row blocks, so threads=3 strides over each
    n = 60_000
    rng = np.random.default_rng(13)
    ds = random_dataset(n, seed=12, t=np.repeat(np.arange(2000, 2003, dtype=np.int32), n // 3),
                        o=rng.integers(0, 4, n, dtype=np.int32),
                        p=rng.integers(0, 7, n, dtype=np.int32),
                        countries=tuple(f"C{i}" for i in range(4)),
                        products=tuple(f"{i:04d}" for i in range(7)))
    rca = tg.RcaMatrix(rng.choice([0.1, 0.5, 1.5, np.nan], size=(4, 7)), ds.countries,
                       ds.products, (2000, 2000))
    lall = list(LALL_CODES.values()) + [tg.LallCategory.PRIMARY]
    conc = tg.LallConcordance(zip(ds.products, lall))
    periods = ((2000, 2003), (2001, 2004))
    exporter = exporter_class_codes(ds, rca)
    lall_code = lall_codes(ds, conc)
    for split, kwargs, masks in (
            ("none", {}, {"all": np.ones(n, dtype=bool)}),
            ("period", {"periods": periods},
             {f"{a}-{b}": (ds.t >= a) & (ds.t <= b - 2) for a, b in periods}),
            ("exporter", {"rca": rca},
             {c.value: exporter == i for i, c in enumerate(tg.ExporterClass)}),
            ("lall", {"concordance": conc},
             {c.value: lall_code == i for i, c in enumerate(LALL_RANK_ORDER)})):
        one = tg.run_split_regressions(ds, split, **kwargs)
        three = tg.run_split_regressions(ds, split, threads=3, **kwargs)
        assert set(one) == set(three) == set(masks), split
        assert all(mask.sum() > 2 * 4096 for mask in masks.values()), split
        for key in one:
            assert np.array_equal(one[key].beta, three[key].beta), key
            assert np.array_equal(one[key].se, three[key].se), key
            assert one[key].adj_r2 == three[key].adj_r2, key
            assert one[key].resid_se == three[key].resid_se, key
        assert_matches_standardized_refit(three, ds, masks, False)


def test_constant_column_cell_skipped_naming_it(caplog):
    # 5000 equal logs: their float mean differs from the value, so only exact
    # zero deviations (across a block boundary too) show the column is constant
    ds = make_dataset({"log_gdp_o": [np.log(7.3)] * 5000})
    with caplog.at_level("WARNING"):
        assert tg.run_split_regressions(ds, "none") == {}
    assert any("skipped" in rec.message and "log_gdp_o" in rec.message
               for rec in caplog.records)


# ---------------------------------------------------------- stats and trend

def test_summary_stats_standardized(small_dataset):
    z, _ = tg.standardize(small_dataset)
    rows = {r[0]: r for r in tg.summary_stats(z)}
    for name in REGRESSOR_NAMES:
        _, n, mean, std, lo, hi = rows[name]
        assert n == z.n
        if name in BINARY_COLUMNS:
            assert 0 < mean < 1 and lo == 0.0 and hi == 1.0
        else:
            assert abs(mean) < 1e-9
            assert abs(std - 1.0) < 1e-9


def test_summary_min_max_are_the_columns_exactly(pool_200k):
    w, rel = pool_200k
    raw = tg.build_dataset(w.tensor, rel, w.country_meta, w.dyad_meta, (2000, 2002))
    assert raw.n % 4096 != 0  # the last block is partial
    for ds in (raw, tg.standardize(raw)[0]):
        for name, _, _, _, lo, hi in tg.summary_stats(ds):
            col = ds.columns.column(name)
            want = np.array([np.min(col), np.max(col)])
            assert np.array([lo, hi]).tobytes() == want.tobytes(), name


def test_summary_stats_flags_constant(caplog):
    ds = make_dataset({"border": [0.0, 0.0, 0.0]})
    with caplog.at_level("WARNING"):
        tg.summary_stats(ds)
    assert any("zero variance" in rec.message for rec in caplog.records)


def test_correlation_matrix_contract(small_dataset):
    names, corr = tg.correlation_matrix(small_dataset)
    assert np.allclose(np.diag(corr), 1.0, atol=1e-12)
    assert np.allclose(corr, corr.T, atol=1e-12)
    # a column and its mirror correlate at -1
    ds = make_dataset({"omega": [0.1, 0.5, 0.9, 0.3],
                       "omega_d": [0.9, 0.5, 0.1, 0.7]})
    _, corr2 = tg.correlation_matrix(ds)
    i, j = names.index("omega"), names.index("omega_d")
    assert corr2[i, j] == pytest.approx(-1.0, abs=1e-12)
    assert corr2[i, i] == pytest.approx(1.0, abs=1e-12)


def test_correlation_matches_two_pass_oracle(small_dataset):
    names, corr = tg.correlation_matrix(small_dataset)
    x = np.column_stack([small_dataset.columns[n] for n in names])
    n_cols = x.shape[1]
    expected = np.empty((n_cols, n_cols))
    for i in range(n_cols):
        for j in range(n_cols):
            xi = x[:, i] - x[:, i].mean()
            xj = x[:, j] - x[:, j].mean()
            expected[i, j] = (xi * xj).sum() / np.sqrt((xi ** 2).sum() * (xj ** 2).sum())
    assert np.allclose(corr, expected, rtol=1e-12, atol=1e-12)


def test_correlation_zero_variance_errors():
    ds = make_dataset({"omega": [0.5, 0.5, 0.5]})
    with pytest.raises(tg.TradeDataError, match="omega"):
        tg.correlation_matrix(ds)


def test_trend_paper_rows():
    up = tg.trend_test([0.183, 0.164, 0.204, 0.203, 0.229],
                       [0.003, 0.002, 0.001, 0.003, 0.003])
    assert up.slope > 0 and up.significant and up.pvalue < 0.1
    flat = tg.trend_test([0.152, 0.144, 0.131, 0.154, 0.128],
                         [0.003, 0.002, 0.002, 0.003, 0.003])
    assert not flat.significant and flat.pvalue > 0.1


def test_trend_edges():
    same = tg.trend_test([0.2] * 5, [0.01] * 5)
    assert same.slope == 0.0 and not same.significant

    linear = tg.trend_test([0.1, 0.2, 0.3, 0.4, 0.5], [1e-6] * 5)
    assert linear.pvalue < 1e-6 and linear.significant

    shifted = tg.trend_test([1.1, 1.2, 1.3, 1.4, 1.5], [1e-6] * 5)
    assert shifted.slope == pytest.approx(linear.slope, rel=1e-9)

    with pytest.raises(tg.TradeDataError):
        tg.trend_test([0.1, 0.2, 0.3, 0.4, 0.5], [0.01, 0.01, 0.0, 0.01, 0.01])
    with pytest.raises(tg.TradeDataError):
        tg.trend_test([0.1, 0.2, 0.3], [0.01, 0.01, 0.01])


def test_trend_over_lall_requires_all_categories(tmp_path):
    w, rel = multi_year_world()
    ds = tg.build_dataset(w.tensor, rel, w.country_meta, w.dyad_meta, (2000, 2006))
    path = write_lall_concordance(tmp_path / "lall.csv", w.tensor.products,
                                  ["PP", "RB", "LT", "MT", "HT", "PP", "RB", "LT"])
    results = tg.run_split_regressions(ds, "lall",
                                       concordance=tg.LallConcordance.from_csv(path))
    trends = trend_over_lall(results)
    assert set(trends) == set(REGRESSOR_NAMES)
    with pytest.raises(tg.TradeDataError):
        trend_over_lall({k: v for k, v in results.items() if k != "primary"})


# ---------------------------------------------------------------- p-values


def test_t_pvalue_matches_scipy_stats_bitwise():
    from scipy import stats
    t = np.concatenate([[0.0, -0.0, np.inf, -np.inf], np.geomspace(1e-8, 60.0, 400),
                        -np.geomspace(1e-3, 20.0, 100)])
    for df in (3, 10, 1e3, 7.5e4, 1e7):
        assert np.array_equal(tg.gravity.t_pvalue(t, df), 2.0 * stats.t.sf(np.abs(t), df))


def _hadamard(n):
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


@pytest.mark.parametrize("noise", [1.0, 0.0])
def test_fit_pvalues_equal_oracle_exactly(noise):
    # Hadamard columns with integer data keep every cross product, solve and
    # residual exact, so fit_ols and the oracle reach the same t statistics;
    # noise 0 gives se = 0 (t = +-inf), and a zero coefficient gives t = 0
    h = _hadamard(64)
    beta = np.arange(16.0) - 7.0  # beta[7] == 0
    y = h[:, :16] @ beta + noise * h[:, 40]  # column 40 is outside the design
    ds = make_dataset({name: h[:, j] for j, name in enumerate(REGRESSOR_NAMES, start=1)},
                      response=y)
    ours = tg.fit_ols(ds)
    ref = brute_force_ols(ds.design_matrix(), y, ours.names)
    assert np.array_equal(ours.tstat, ref.tstat)
    assert ours.tstat[7] == 0.0
    assert np.all(np.isinf(np.delete(ours.tstat, 7))) == (noise == 0.0)
    assert np.array_equal(ours.pvalue, ref.pvalue)
