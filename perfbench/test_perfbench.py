"""Self-tests of the benchmark: failure counting, span arithmetic, seeding.

    python -m pytest -q perfbench/test_perfbench.py
"""
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402

SMALL_C9 = {"n_countries": 12, "n_products": 30, "n_years": 3, "sparsity": 0.4,
            "forward_mode": "persist"}
SMALL_SPLITS = {"n_countries": 10, "n_products": 24, "n_years": 6, "sparsity": 0.5}


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "C9_WORLD", SMALL_C9)
    monkeypatch.setattr(workloads, "SPLITS_WORLD", SMALL_SPLITS)


def run_c9(world, seed=1, trace=False, corrupt=None):
    def chain(inputs, steps):
        workloads.library_chain(inputs, steps)
        if corrupt:
            corrupt(steps.done)

    return workloads.run_chain(world, chain, workloads.c9_checks(world, seed), trace)


# -- a corrupted outcome is counted as a failed operation ---------------------


def test_clean_chain_has_no_failures(small):
    result = run_c9(workloads.c9_setup(1))
    assert result["attempted"] == 8
    assert result["failures"] == []


def test_perturbed_beta_is_a_failure(small):
    def perturb(done):
        done["fit_ols"].beta[3] += 1e-6   # 1e-7 of the intercept: above the 1e-8 tolerance

    result = run_c9(workloads.c9_setup(1), corrupt=perturb)
    assert result["attempted"] == 8
    assert len(result["failures"]) == 1
    assert result["failures"][0].startswith("fit_ols:")


def test_perturbed_omega_is_a_failure(small):
    def perturb(done):
        rel = done["compute_relatedness"]
        rel.omega_o = rel.omega_o * (1 + 1e-9)

    result = run_c9(workloads.c9_setup(1), corrupt=perturb)
    assert [f.split(":")[0] for f in result["failures"]] == ["compute_relatedness"]


def test_raising_call_fails_it_and_everything_after(small, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(workloads.gravity, "standardize", broken)
    result = run_c9(workloads.c9_setup(1))
    assert result["attempted"] == 8
    assert [f.split(":")[0] for f in result["failures"]] == ["standardize", "fit_ols"]
    assert "ValueError: boom" in result["failures"][0]


def test_cli_gravity_file_check(small, tmp_path):
    world = workloads.c9_setup(1)
    steps = workloads.Steps()
    workloads.library_chain(world, steps)
    fit = steps.done["fit_ols"]
    path = tmp_path / "gravity_none.json"
    path.write_text(json.dumps([fit.to_dict(split_key="all")]))
    assert workloads.gravity_file_problems(path, fit) == []

    entry = fit.to_dict(split_key="all")
    entry["coefficients"][2]["beta"] += 2e-6
    path.write_text(json.dumps([entry]))
    assert workloads.gravity_file_problems(path, fit)

    entry = fit.to_dict(split_key="all")
    entry["n"] += 1
    path.write_text(json.dumps([entry]))
    assert workloads.gravity_file_problems(path, fit)

    run = workloads.StageRun("gravity", tmp_path, 0, 0.0, 1.0, 1.0, 1.0, tmp_path / "x")
    outputs = ("gravity_none.json",)
    assert workloads.cli_stage_problems(run, outputs, 0, fit)
    path.write_text("[]")
    assert workloads.cli_stage_problems(run, outputs, 0, fit)[0].startswith("unreadable")
    path.unlink()
    assert workloads.cli_stage_problems(run, outputs, 0, fit) == ["missing gravity_none.json"]


def test_missing_output_and_nonzero_exit_are_failures(tmp_path):
    (tmp_path / "present.csv").write_text("x\n")
    assert workloads.stage_problems(0, tmp_path, ("present.csv",)) == []
    assert workloads.stage_problems(0, tmp_path, ("present.csv", "absent.csv")) \
        == ["missing absent.csv"]

    code, wall, rss, cpu = workloads.run_process(
        [sys.executable, "-c", "import sys; sys.exit(3)"], tmp_path / "log", tmp_path)
    assert code == 3 and wall > 0 and rss > 0 and cpu >= 0
    ledger = workloads.Ledger()
    ledger.check("ingest", workloads.stage_problems(code, tmp_path, ("present.csv",)))
    ledger.check("proximity", workloads.stage_problems(0, tmp_path, ("present.csv",)))
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.failures == ["ingest: exit code 3"]


def test_forked_chain_reports_failures(small):
    world = workloads.c9_setup(1)
    value = workloads.in_child(lambda: run_c9(world))
    assert value["failures"] == [] and value["attempted"] == 8
    assert value["peak_rss_mb"] > 0
    crashed = workloads.in_child(lambda: 1 / 0)
    assert "ZeroDivisionError" in crashed["error"]


# -- self time on a hand-built span tree --------------------------------------


def test_self_time_arithmetic():
    tree = [
        spans.Span("root", 0.0, 10.0, None),
        spans.Span("a", 1.0, 4.0, 0),
        spans.Span("b", 3.0, 6.0, 0),     # overlaps a: the union counts once
        spans.Span("c", 8.0, 12.0, 0),    # runs past its parent: clipped at 10
        spans.Span("a1", 2.0, 3.0, 1),
        spans.Span("a2", 2.5, 3.5, 1),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 1.5, 3.0, 4.0, 1.0, 1.0])
    assert spans.covered([(1, 2), (1.5, 3), (5, 6)], 0, 10) == pytest.approx(3.0)


def test_stage_self_time_and_layer_sums():
    tree = [spans.Span("cli.gravity", 0.0, 5.0, None),
            spans.Span("ingest.read_tensor_csv", 0.5, 2.0, 0),
            spans.Span("gravity.build_dataset", 2.0, 3.0, 0, {"rows": 40, "base_cells": 50}),
            spans.Span("gravity.fit_ols", 3.0, 3.5, 0, {"rows": 40})]
    m = spans.layer_metrics(tree, [("gravity", 5.0, 100.0, 0)], handoff_bytes=3 << 20)
    assert m["cli.gravity_self_s"][0] == pytest.approx(2.0)
    assert m["cli.gravity_rss_mb"] == (100.0, "MB")
    assert m["cli.handoff_mb"] == (3.0, "MB")
    assert m["cli.ingest_s"] == (0.0, "s")
    assert m["ingest.read_tensor_csv_calls"] == (1, "count")
    assert m["gravity.rows_kept_frac"][0] == pytest.approx(0.8)
    assert m["gravity.fit_rows_per_s"][0] == pytest.approx(80.0)


def test_instrument_restores_functions():
    original = workloads.gravity.build_dataset
    meta = workloads.ingest.CountryMeta.__dict__["from_csv"]
    tracer = spans.Tracer()
    with tracer.instrument():
        assert workloads.gravity.build_dataset is not original
    assert workloads.gravity.build_dataset is original
    assert workloads.ingest.CountryMeta.__dict__["from_csv"] is meta


# -- the seed changes the generated inputs and nothing else -------------------


def tensor_arrays(tensor):
    return [a for y in tensor.years for a in tensor.flows(y)]


def same_tensor(a, b):
    return a.years == b.years and all(
        np.array_equal(x, y) for x, y in zip(tensor_arrays(a), tensor_arrays(b)))


def test_seed_changes_inputs_only(small, tmp_path):
    one, again, two = (workloads.c9_setup(s) for s in (1, 1, 2))
    assert same_tensor(one.tensor, again.tensor)
    assert not same_tensor(one.tensor, two.tensor)
    assert dataclasses.replace(one.config, seed=2) == two.config

    a, b = workloads.splits_setup(1), workloads.splits_setup(2)
    assert not same_tensor(a.tensor, b.tensor)
    assert dataclasses.replace(a.world.config, seed=2) == b.world.config
    assert [a.concordance.category(p) for p in a.tensor.products] \
        == [b.concordance.category(p) for p in b.tensor.products]

    args1 = workloads.synth_args(tmp_path, 1)
    args2 = workloads.synth_args(tmp_path, 2)
    diff = [i for i, (x, y) in enumerate(zip(args1, args2)) if x != y]
    assert len(args1) == len(args2) and diff == [args1.index("--seed") + 1]
    assert dataclasses.replace(workloads.world_config(workloads.CLI_WORLD, 1), seed=2) \
        == workloads.world_config(workloads.CLI_WORLD, 2)


def test_counts_repeat_exactly_for_one_seed(small):
    def counts(result):
        return {k: v for k, (v, unit) in result["layers"].items() if unit not in ("s", "1/s")}

    first = run_c9(workloads.c9_setup(5), trace=True)
    second = run_c9(workloads.c9_setup(5), trace=True)
    assert counts(first) == counts(second)
    assert counts(first)["gravity.rows"] > 0
    assert counts(first)["relatedness.omega_useful_frac"] > 0
