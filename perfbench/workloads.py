"""The benchmark's three workloads: seeded set-up, timed chain, output checks.

* ``cli-chain``: five ``python -m tradegravity.cli`` stage processes that hand
  off through files, as a CLI user runs them.
* ``lib-c9``: the library chain at acceptance-criterion-9 scale, no CSV.
* ``lib-splits``: twelve re-standardized split fits over a four-year pool.

Each workload is a closed loop: one controlling process, one chain at a time,
``threads=1`` everywhere and BLAS at its default thread count. Output checks
run after the timed chain and after its peak memory has been read, so they
count toward neither time nor memory.
"""
from __future__ import annotations

import contextlib
import csv
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

import spans
from tradegravity import complexity, gravity, ingest, oracle, relatedness
from tradegravity.gravity import BINARY_COLUMNS, K_PARAMETERS, REGRESSOR_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
# one chain of five short stage processes spread 17-22% over ten seeds, and
# the mean of two 20%: two chains of one run differed by up to 30%, so a run
# takes the median of three
CLI_MIN_CHAINS = 3

CLI_WORLD = {"n_countries": 32, "n_products": 250, "n_years": 3, "sparsity": 0.3,
             "forward_mode": "persist"}
C9_WORLD = {"n_countries": 250, "n_products": 1242, "n_years": 3, "sparsity": 0.12935,
            "forward_mode": "persist"}
SPLITS_WORLD = {"n_countries": 40, "n_products": 500, "n_years": 6, "sparsity": 0.5}
SPLITS_BASE_YEARS = (2000, 2001, 2002, 2003)
SPLITS_PERIODS = ((2000, 2003), (2001, 2004), (2002, 2005))
LALL_ROUND_ROBIN = ("PP", "RB", "LT", "MT", "HT", "SP")
SAMPLE_CELLS = 1000

BETA_RTOL = 1e-8        # library fit against a chunked x'x solve
CLI_BETA_ATOL = 1e-6    # CLI file (6 decimals) against the library fit
OMEGA_RTOL = 1e-12      # relatedness against the README formulas
ORTHO_MAX = 1e-6


class SetupError(RuntimeError):
    """The workload's inputs could not be generated; nothing was measured."""


class Ledger:
    """Operations attempted and those whose call or output check failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, op, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{op}: " + "; ".join(problems))

    @property
    def failed(self):
        return len(self.failures)


class Steps:
    """Calls of one chain in order; a call that raises is kept with its error."""

    def __init__(self):
        self.done = {}
        self.error = None

    def __call__(self, op, fn, *args, **kwargs):
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.error = (op, f"{type(exc).__name__}: {exc}")
            raise
        self.done[op] = result
        return result


def settle(ledger, steps, checks):
    """Count every (operation, check) of a chain: run, raised, or never reached."""
    for op, check in checks:
        if op in steps.done:
            try:
                problems = check(steps.done) if check else []
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        elif steps.error and steps.error[0] == op:
            problems = [steps.error[1]]
        else:
            problems = ["not run"]
        ledger.check(op, problems)


@dataclass
class Outcome:
    ledger: Ledger = field(default_factory=Ledger)
    setup_s: list = field(default_factory=list)
    wall_s: list = field(default_factory=list)
    peak_rss_mb: list = field(default_factory=list)
    cpu_s: list = field(default_factory=list)      # user + system time of each chain
    layers: list = field(default_factory=list)   # one {metric: (value, unit)} per iteration
    sizes: dict = field(default_factory=dict)


def iterate(seconds, once, minimum=1):
    """Call ``once`` (which returns its wall time) at least ``minimum`` times,
    then until another call would end past ``seconds`` of measured time."""
    walls = []
    while len(walls) < minimum or sum(walls) + statistics.mean(walls) <= seconds:
        walls.append(once())
    return walls


# --------------------------------------------------------------------------
# checks shared by the workloads


def world_config(world, seed):
    return oracle.SyntheticWorldConfig(seed=seed, **world)


def cell_keys(tensor, year):
    o, p, d, _ = tensor.flows(year)
    return (o.astype(np.int64) * tensor.n_products + p) * tensor.n_countries + d


def expected_rows(tensor, rel_by_year, base_years, horizon=2):
    """Base-year cells with a forward flow and a finite omega."""
    total = 0
    for t in base_years:
        forward = np.isin(cell_keys(tensor, t), cell_keys(tensor, t + horizon),
                          assume_unique=True)
        total += int(np.count_nonzero(forward & np.isfinite(rel_by_year[t].omega)))
    return total


def direct_weights(countries, dyads):
    """w[c, c'] = (1 / D[c, c']) / sum over c'' != c of 1 / D[c, c'']."""
    dist = dyads.distance_matrix(countries)
    inv = np.zeros_like(dist)
    off = ~np.eye(len(countries), dtype=bool)
    inv[off] = 1.0 / dist[off]
    return inv / inv.sum(axis=1, keepdims=True)


def relatedness_problems(tensor, prox, w, rel, year, seed, k=SAMPLE_CELLS):
    """Sampled cells against the README formulas, and [0, 1] bounds on all cells.

    ``w`` is the inverse-distance weight matrix evaluated directly.
    """
    problems = []
    for label in ("omega", "omega_d", "omega_o"):
        values = getattr(rel, label)
        finite = values[np.isfinite(values)]
        if finite.size and (finite.min() < 0.0 or finite.max() > 1.0):
            problems.append(f"{label} outside [0, 1]")
        if label != "omega" and finite.size != values.size:
            problems.append(f"{label} has non-finite values")

    o, p, d, v = tensor.flows(year)
    nc, np_ = tensor.n_countries, tensor.n_products
    keys = cell_keys(tensor, year)

    def x(oo, pp, dd):
        key = (oo.astype(np.int64) * np_ + pp) * nc + dd
        pos = np.minimum(np.searchsorted(keys, key), keys.size - 1)
        return np.where(keys[pos] == key, v[pos], 0.0)

    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(o.size, size=min(k, o.size), replace=False))
    so, sp_, sd = o[idx, None], p[idx, None], d[idx, None]
    products, countries = np.arange(np_)[None, :], np.arange(nc)[None, :]
    x_q = x(so, products, sd)        # x[o, q, d] over products q
    x_dd = x(so, sp_, countries)     # x[o, p, d'] over destinations d'
    x_oo = x(countries, sp_, sd)     # x[o', p, d] over origins o'
    phi = prox.phi[p[idx]]
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = {
            "omega": (np.where(products != sp_, phi, 0.0) * x_q).sum(axis=1)
            / (phi.sum(axis=1) * x_q.sum(axis=1)),
            "omega_d": (np.where(countries != sd, w[d[idx]], 0.0) * x_dd).sum(axis=1)
            / x_dd.sum(axis=1),
            "omega_o": (np.where(countries != so, w[o[idx]], 0.0) * x_oo).sum(axis=1)
            / x_oo.sum(axis=1),
        }
    for label, expect in direct.items():
        got = getattr(rel, label)[idx]
        same_nan = np.isnan(got) == np.isnan(expect)
        close = np.abs(got - expect) <= OMEGA_RTOL * np.abs(expect)
        bad = ~(same_nan & (close | np.isnan(expect)))
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            problems.append(f"{label} differs from the README formula on {int(bad.sum())} "
                            f"of {idx.size} sampled cells (e.g. {got[i]!r} vs {expect[i]!r})")
    return problems


def reference_beta(z, chunk=1 << 18):
    """Solve the normal equations from a chunked x'x over the standardized rows."""
    xtx = np.zeros((K_PARAMETERS, K_PARAMETERS))
    xty = np.zeros(K_PARAMETERS)
    for lo in range(0, z.n, chunk):
        hi = min(lo + chunk, z.n)
        x = np.empty((hi - lo, K_PARAMETERS))
        x[:, 0] = 1.0
        for j, name in enumerate(REGRESSOR_NAMES, start=1):
            x[:, j] = z.columns[name][lo:hi]
        xtx += x.T @ x
        xty += x.T @ z.response[lo:hi]
    return np.linalg.solve(xtx, xty)


def fit_problems(result, z):
    problems = []
    if result.n != z.n:
        problems.append(f"fit n={result.n}, dataset n={z.n}")
    ref = reference_beta(z)
    gap = float(np.max(np.abs(result.beta - ref)))
    if not gap <= BETA_RTOL * float(np.max(np.abs(ref))):
        problems.append(f"max |beta - chunked solve| = {gap:.3g} exceeds "
                        f"{BETA_RTOL:g} x max |beta|")
    if not result.ortho_rel <= ORTHO_MAX:
        problems.append(f"ortho_rel {result.ortho_rel:.3g} > {ORTHO_MAX:g}")
    return problems


def standardized_problems(z):
    problems = []
    for name in REGRESSOR_NAMES:
        if name in BINARY_COLUMNS:
            continue
        col = z.columns[name]
        mean, std = float(np.mean(col)), float(np.std(col, ddof=1))
        if abs(mean) > 1e-9 or abs(std - 1.0) > 1e-9:
            problems.append(f"{name} has mean {mean:.3g}, std {std:.12g}")
    return problems


def proximity_problems(prox):
    phi = prox.phi
    problems = []
    if not np.array_equal(phi, phi.T):
        problems.append("phi not symmetric")
    if np.any(np.diag(phi) != 0):
        problems.append("phi diagonal not zero")
    if phi.min() < 0 or phi.max() > 1:
        problems.append("phi outside [0, 1]")
    return problems


# --------------------------------------------------------------------------
# library chains run in a forked child


def library_chain(world, steps):
    """compute_rca -> binarize -> compute_proximity -> weights -> relatedness
    -> build_dataset -> standardize -> fit_ols, all at base year 2000."""
    t = world.tensor
    rca = steps("compute_rca", complexity.compute_rca, t, world.proximity_window)
    m = steps("binarize", complexity.binarize, rca)
    prox = steps("compute_proximity", complexity.compute_proximity, m)
    weights = steps("distance_weights", relatedness.DistanceWeights.from_dyads,
                    t.countries, world.dyad_meta)
    rel = steps("compute_relatedness", relatedness.compute_relatedness, t, prox, weights, 2000)
    ds = steps("build_dataset", gravity.build_dataset, t, {2000: rel}, world.country_meta,
               world.dyad_meta, (2000, 2002))
    z, _ = steps("standardize", gravity.standardize, ds)
    steps("fit_ols", gravity.fit_ols, z)


def c9_checks(world, seed):
    t = world.tensor

    def weights_ok(done):
        w = done["distance_weights"].matrix
        direct = direct_weights(t.countries, world.dyad_meta)
        if not np.allclose(w, direct, rtol=1e-12, atol=0.0):
            return ["distance weights differ from 1/D over the row sum"]
        return []

    def relatedness_ok(done):
        return relatedness_problems(t, done["compute_proximity"],
                                    direct_weights(t.countries, world.dyad_meta),
                                    done["compute_relatedness"], 2000, seed)

    def rows_ok(done):
        n, expect = done["build_dataset"].n, expected_rows(
            t, {2000: done["compute_relatedness"]}, (2000,))
        return [] if n == expect else [f"n={n}, independent count {expect}"]

    return (
        ("compute_rca", None),
        ("binarize", None),
        ("compute_proximity", lambda done: proximity_problems(done["compute_proximity"])),
        ("distance_weights", weights_ok),
        ("compute_relatedness", relatedness_ok),
        ("build_dataset", rows_ok),
        ("standardize", lambda done: standardized_problems(done["standardize"][0])),
        ("fit_ols", lambda done: fit_problems(done["fit_ols"], done["standardize"][0])),
    )


def c9_setup(seed):
    return oracle.generate_world(world_config(C9_WORLD, seed))


@dataclass
class SplitsInputs:
    world: oracle.SyntheticWorld
    tensor: ingest.TradeTensor     # fresh: its marginal cache is cold
    rel: dict
    concordance: gravity.LallConcordance


def splits_setup(seed):
    world = oracle.generate_world(world_config(SPLITS_WORLD, seed))
    t = world.tensor
    prox = complexity.compute_proximity(complexity.binarize(
        complexity.compute_rca(t, (t.years[0], t.years[-1]))))
    weights = relatedness.DistanceWeights.from_dyads(t.countries, world.dyad_meta)
    rel = {y: relatedness.compute_relatedness(t, prox, weights, y) for y in SPLITS_BASE_YEARS}
    concordance = gravity.LallConcordance({
        product: gravity.LALL_CODES[LALL_ROUND_ROBIN[i % len(LALL_ROUND_ROBIN)]]
        for i, product in enumerate(t.products)})
    fresh = ingest.TradeTensor(t.countries, t.products, t.years,
                               {y: t.flows(y) for y in t.years})
    return SplitsInputs(world, fresh, rel, concordance)


def splits_chain(inp, steps):
    """build_dataset over 2000-2005, then the none/period/exporter/lall splits,
    the Lall trend, and the summary statistics of the standardized pool."""
    world, t = inp.world, inp.tensor
    ds = steps("build_dataset", gravity.build_dataset, t, inp.rel, world.country_meta,
               world.dyad_meta, (2000, 2005))
    steps("split_none", gravity.run_split_regressions, ds, "none")
    steps("split_period", gravity.run_split_regressions, ds, "period", periods=SPLITS_PERIODS)
    rca = steps("compute_rca", complexity.compute_rca, t, (2000, 2000))
    steps("split_exporter", gravity.run_split_regressions, ds, "exporter", rca=rca)
    lall = steps("split_lall", gravity.run_split_regressions, ds, "lall",
                 concordance=inp.concordance)
    steps("trend_over_lall", gravity.trend_over_lall, lall)
    z, _ = steps("standardize", gravity.standardize, ds)
    steps("summary_stats", gravity.summary_stats, z)
    steps("correlation_matrix", gravity.correlation_matrix, z)


def splits_checks(inp, seed):
    def n_of(cells):
        return {key: res.n for key, res in cells.items()}

    def rows_ok(done):
        n = done["build_dataset"].n
        expect = expected_rows(inp.tensor, inp.rel, SPLITS_BASE_YEARS)
        return [] if n == expect else [f"n={n}, independent count {expect}"]

    def none_ok(done):
        cells = done["split_none"]
        if set(cells) != {"all"}:
            return [f"cells {sorted(cells)}"]
        return fit_problems(cells["all"], done["standardize"][0])

    def period_ok(done):
        ds, got = done["build_dataset"], n_of(done["split_period"])
        expect = {f"{a}-{b}": int(np.count_nonzero((ds.t >= a) & (ds.t <= b - 2)))
                  for a, b in SPLITS_PERIODS}
        return [] if got == expect else [f"cell n {got}, base-year rows {expect}"]

    def exporter_ok(done):
        got = n_of(done["split_exporter"])
        n = done["build_dataset"].n
        if len(got) != 3 or sum(got.values()) != n:
            return [f"cell n {got} do not add up to n={n}"]
        return []

    def lall_ok(done):
        ds, got = done["build_dataset"], n_of(done["split_lall"])
        special = LALL_ROUND_ROBIN.index("SP")
        expect = ds.n - int(np.count_nonzero(ds.p % len(LALL_ROUND_ROBIN) == special))
        if len(got) != 5 or sum(got.values()) != expect:
            return [f"cell n {got} do not add up to n - SP rows = {expect}"]
        return []

    def trend_ok(done):
        trends = done["trend_over_lall"]
        if len(trends) != len(REGRESSOR_NAMES) or not all(
                np.isfinite(tr.slope) for tr in trends.values()):
            return ["trend test missing coefficients or non-finite slopes"]
        return []

    def stats_ok(done):
        n = done["build_dataset"].n
        bad = [row[0] for row in done["summary_stats"] if row[1] != n]
        return [f"summary n differs from {n} for {bad}"] if bad else []

    def corr_ok(done):
        names, corr = done["correlation_matrix"]
        if corr.shape != (len(names), len(names)) or not np.allclose(np.diag(corr), 1.0) \
                or not np.allclose(corr, corr.T):
            return ["correlation matrix not a symmetric unit-diagonal matrix"]
        return []

    return (
        ("build_dataset", rows_ok),
        ("split_none", none_ok),
        ("split_period", period_ok),
        ("compute_rca", None),
        ("split_exporter", exporter_ok),
        ("split_lall", lall_ok),
        ("trend_over_lall", trend_ok),
        ("standardize", lambda done: standardized_problems(done["standardize"][0])),
        ("summary_stats", stats_ok),
        ("correlation_matrix", corr_ok),
    )


def lib_sizes(inputs, done):
    t = inputs.tensor
    return {"countries": t.n_countries, "products": t.n_products,
            "cells": {str(y): t.n_cells(y) for y in t.years},
            "rows": done["build_dataset"].n if "build_dataset" in done else None}


def cpu_seconds(usage):
    return usage.ru_utime + usage.ru_stime


def run_chain(inputs, chain, checks, trace):
    """Timed chain, its peak memory, then its checks; returns a JSON-able dict."""
    tracer = spans.Tracer()
    steps = Steps()
    instrument = tracer.instrument() if trace else contextlib.nullcontext()
    with instrument:
        root = tracer.span("chain") if trace else contextlib.nullcontext()
        cpu = cpu_seconds(resource.getrusage(resource.RUSAGE_SELF))
        start = time.perf_counter()
        with root:
            try:
                chain(inputs, steps)
            except Exception:
                pass  # kept in steps.error and counted by settle()
        wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak, cpu = usage.ru_maxrss / 1024.0, cpu_seconds(usage) - cpu
    ledger = Ledger()
    settle(ledger, steps, checks)
    layers = None
    if trace:
        layers = spans.layer_metrics(tracer.spans)
        layers["trace.wall_s"] = (wall, "s")
    return {"wall_s": wall, "peak_rss_mb": peak, "cpu_s": cpu, "attempted": ledger.attempted,
            "failures": ledger.failures, "layers": layers,
            "sizes": lib_sizes(inputs, steps.done)}


def in_child(fn):
    """Run ``fn()`` in a forked child and return the JSON value it produced.

    The child starts holding the parent's inputs, so its peak memory counts
    the inputs plus the chain's own allocations, never the parent's set-up
    garbage. The parent runs no Python threads at this point.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            os.close(read_fd)
            payload = json.dumps(fn())
        except BaseException:
            payload = json.dumps({"error": traceback.format_exc()})
            code = 1
        try:
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "r", encoding="utf-8") as fh:
            data = fh.read()
        _, status, _ = os.wait4(pid, 0)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)
        raise
    code = os.waitstatus_to_exitcode(status)
    try:
        value = json.loads(data)
    except ValueError:
        value = {"error": f"child exited with code {code} and no result"}
    if code != 0 and "error" not in value:
        value = {"error": f"child exited with code {code}"}
    return value


def lib_workload(setup, chain, make_checks, seed, seconds, trace):
    out = Outcome()
    inputs = None
    for _ in range(SETUP_REPEATS):
        inputs = None  # free the previous inputs before timing the next set-up
        start = time.perf_counter()
        try:
            inputs = setup(seed)
        except Exception as exc:
            raise SetupError(f"{type(exc).__name__}: {exc}") from exc
        out.setup_s.append(time.perf_counter() - start)
    checks = make_checks(inputs, seed)

    def once():
        value = in_child(lambda: run_chain(inputs, chain, checks, trace))
        if "error" in value:
            out.ledger.check("chain", [value["error"].strip().splitlines()[-1]])
            return float("nan")
        out.ledger.attempted += value["attempted"]
        out.ledger.failures += value["failures"]
        out.peak_rss_mb.append(value["peak_rss_mb"])
        out.cpu_s.append(value["cpu_s"])
        out.sizes = value["sizes"]
        if trace:
            out.layers.append({k: tuple(v) for k, v in value["layers"].items()})
        out.wall_s.append(value["wall_s"])
        return value["wall_s"]

    iterate(seconds, once)
    return out


def lib_c9(seed, seconds, trace, work):
    return lib_workload(c9_setup, library_chain, c9_checks, seed, seconds, trace)


def lib_splits(seed, seconds, trace, work):
    return lib_workload(splits_setup, splits_chain, splits_checks, seed, seconds, trace)


# --------------------------------------------------------------------------
# CLI chain: one process per stage


def stage_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(argv, log_path, cwd):
    """Run argv to completion; return (exit code, wall seconds, peak RSS in MB,
    CPU seconds)."""
    start = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, env=stage_env(), cwd=cwd,
                                stdout=subprocess.DEVNULL, stderr=log)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, cpu_seconds(usage)


def synth_args(world_dir, seed):
    """``tradegravity synth`` options that write the CLI_WORLD of ``seed``."""
    w = CLI_WORLD
    return ["synth", "-o", str(world_dir), "--countries", str(w["n_countries"]),
            "--products", str(w["n_products"]), "--years", str(w["n_years"]),
            "--sparsity", str(w["sparsity"]), "--forward-mode", w["forward_mode"],
            "--seed", str(seed)]


def cli_stages(world, out):
    """(stage, arguments, fixed-name outputs) in the order a user runs them."""
    w, s = str(world), str(out)
    trade = f"{s}/reconciled.csv"
    meta = ["--country-csv", f"{w}/country.csv", "--dyad-csv", f"{w}/dyad.csv"]
    return (
        ("ingest", ["ingest", "-o", s, "--trade", f"{w}/trade.csv"],
         ("reconciled.csv", "rejects.csv", "ingest_manifest.json")),
        ("proximity", ["proximity", "-o", s, "--trade", trade, "--window", "2000-2000"],
         ("proximity.csv", "proximity_histogram.csv")),
        ("relatedness", ["relatedness", "-o", s, "--trade", trade,
                         "--proximity", f"{s}/proximity.csv", "--dyad-csv", f"{w}/dyad.csv"],
         ("relatedness.csv",)),
        ("gravity", ["gravity", "-o", s, "--trade", trade, "--relatedness",
                     f"{s}/relatedness.csv", *meta, "--period", "2000-2002", "--split", "none"],
         ("gravity_none.json", "gravity_none.csv")),
        ("summary", ["summary", "-o", s, "--trade", trade, "--relatedness",
                     f"{s}/relatedness.csv", *meta, "--period", "2000-2002"],
         ("summary_stats.csv", "correlation_matrix.csv")),
    )


HANDOFF_FILES = ("reconciled.csv", "proximity.csv", "relatedness.csv")


def stage_problems(code, out, outputs):
    problems = [] if code == 0 else [f"exit code {code}"]
    problems += [f"missing {name}" for name in outputs if not (out / name).is_file()]
    return problems


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def gravity_file_problems(path, reference):
    """gravity_none.json against the in-process library fit on the same world."""
    entry = {e["split_key"]: e for e in read_json(path)}["all"]
    problems = []
    if entry["n"] != reference.n:
        problems.append(f"n={entry['n']}, library n={reference.n}")
    beta = {c["name"]: c["beta"] for c in entry["coefficients"]}
    gaps = [abs(beta[name] - ref) if name in beta else float("inf")
            for name, ref in zip(reference.names, reference.beta)]
    if not max(gaps) <= CLI_BETA_ATOL:
        problems.append(f"max |beta - library beta| = {max(gaps):.3g} > {CLI_BETA_ATOL:g}")
    return problems


def summary_file_problems(path, n):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    bad = [row["variable"] for row in rows if int(row["n"]) != n]
    if len(rows) != len(REGRESSOR_NAMES) or bad:
        return [f"summary rows {len(rows)}, n differs from {n} for {bad}"]
    return []


def cli_stage_problems(run, outputs, synth_cells, reference):
    """Exit code and outputs of one stage, then the stage's own content check."""
    problems = stage_problems(run.code, run.out, outputs)
    if problems:
        return problems
    try:
        if run.stage == "ingest":
            cells = read_json(run.out / "ingest_manifest.json")["row_counts"]["cells"]
            if cells != synth_cells:
                return [f"{cells} reconciled cells, synth wrote {synth_cells}"]
        elif run.stage == "gravity":
            return gravity_file_problems(run.out / "gravity_none.json", reference)
        elif run.stage == "summary":
            return summary_file_problems(run.out / "summary_stats.csv", reference.n)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return []


def library_reference(seed):
    """The in-process library chain on the world that synth writes for ``seed``."""
    steps = Steps()
    library_chain(oracle.generate_world(world_config(CLI_WORLD, seed)), steps)
    return steps.done["fit_ols"]


class StageRun(NamedTuple):
    stage: str
    out: Path
    code: int
    start: float
    wall: float
    rss_mb: float
    cpu: float
    span_file: Path


def cli_chain(seed, seconds, trace, work):
    out = Outcome()
    world = work / "world"
    synth = [sys.executable, "-m", "tradegravity.cli", *synth_args(world, seed)]
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(world, ignore_errors=True)
        code, wall, _, _ = run_process(synth, work / "synth.log", work)
        if code != 0:
            raise SetupError(f"synth exited with code {code}: "
                             + (work / "synth.log").read_text(errors="replace")[-500:])
        out.setup_s.append(wall)
    synth_cells = read_json(world / "synth_manifest.json")["row_counts"]["cells"]

    iterations = []  # the StageRun of every stage, per iteration

    def once():
        stage_dir = work / f"stages{len(iterations)}"
        stage_dir.mkdir()
        runs = []
        for stage, args, _ in cli_stages(world, stage_dir):
            span_file = stage_dir / f"{stage}.spans.json"
            if trace:
                argv = [sys.executable, str(HERE / "stage.py"), str(span_file), *args]
            else:
                argv = [sys.executable, "-m", "tradegravity.cli", *args]
            start = time.perf_counter()
            code, wall, rss, cpu = run_process(argv, stage_dir / f"{stage}.log", work)
            runs.append(StageRun(stage, stage_dir, code, start, wall, rss, cpu, span_file))
        iterations.append(runs)
        wall = sum(r.wall for r in runs)
        out.wall_s.append(wall)
        out.peak_rss_mb.append(max(r.rss_mb for r in runs))
        out.cpu_s.append(sum(r.cpu for r in runs))
        return wall

    iterate(seconds, once, minimum=CLI_MIN_CHAINS)

    reference = library_reference(seed)
    for runs in iterations:
        outputs = {stage: names for stage, _, names in cli_stages(world, runs[0].out)}
        for run in runs:
            out.ledger.check(run.stage, cli_stage_problems(run, outputs[run.stage],
                                                           synth_cells, reference))
        if trace:
            out.layers.append(cli_layers(runs))
    out.sizes = {"countries": CLI_WORLD["n_countries"], "products": CLI_WORLD["n_products"],
                 "cells": synth_cells, "rows": reference.n}
    return out


def cli_layers(runs):
    """Per-layer metrics of one traced CLI iteration."""
    all_spans, stages = [], []
    for run in runs:
        index = len(all_spans)
        all_spans.append(spans.Span(f"cli.{run.stage}", run.start, run.start + run.wall, None))
        try:
            rows = read_json(run.span_file)
        except (OSError, ValueError):
            rows = []  # the stage died before writing its spans: all of it is self time
        all_spans += spans.from_json(rows, offset=index + 1, parent=index)
        stages.append((run.stage, run.wall, run.rss_mb, index))
    stage_dir = runs[0].out
    handoff = sum((stage_dir / name).stat().st_size for name in HANDOFF_FILES
                  if (stage_dir / name).is_file())
    layers = spans.layer_metrics(all_spans, stages, handoff)
    layers["trace.wall_s"] = (sum(r.wall for r in runs), "s")
    return layers


WORKLOADS = {
    "cli-chain": cli_chain,
    "lib-c9": lib_c9,
    "lib-splits": lib_splits,
}
