import argparse
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import tradegravity as tg
from tradegravity.cli import build_parser, main

from conftest import write_lall_concordance


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> ingest -> proximity -> relatedness, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    world = root / "world"
    stage = root / "stage"
    assert run("synth", "-o", world, "--countries", "8", "--products", "12",
               "--years", "3", "--sparsity", "0.7", "--seed", "42",
               "--forward-mode", "persist") == 0
    assert run("ingest", "-o", stage, "--trade", world / "trade.csv") == 0
    assert run("proximity", "-o", stage, "--trade", stage / "reconciled.csv",
               "--window", "2000-2000") == 0
    assert run("relatedness", "-o", stage, "--trade", stage / "reconciled.csv",
               "--proximity", stage / "proximity.csv",
               "--dyad-csv", world / "dyad.csv") == 0
    return root, world, stage


def test_pipeline_outputs_exist(pipeline):
    _, world, stage = pipeline
    for name in ["reconciled.csv", "rejects.csv", "proximity.csv",
                 "proximity_histogram.csv", "relatedness.csv"]:
        assert (stage / name).exists(), name


def test_gravity_and_summary(pipeline):
    root, world, stage = pipeline
    assert run("gravity", "-o", stage, "--trade", stage / "reconciled.csv",
               "--relatedness", stage / "relatedness.csv",
               "--country-csv", world / "country.csv",
               "--dyad-csv", world / "dyad.csv",
               "--period", "2000-2002", "--split", "none") == 0
    payload = json.loads((stage / "gravity_none.json").read_text())
    assert payload[0]["split_key"] == "all"
    assert payload[0]["n"] > 16
    assert len(payload[0]["coefficients"]) == 16

    assert run("summary", "-o", stage, "--trade", stage / "reconciled.csv",
               "--relatedness", stage / "relatedness.csv",
               "--country-csv", world / "country.csv",
               "--dyad-csv", world / "dyad.csv", "--period", "2000-2002") == 0
    lines = (stage / "summary_stats.csv").read_text().strip().splitlines()
    assert len(lines) == 16  # header plus the 15 regressors


def flags(options):
    """A {flag: value} mapping as argv."""
    return [v for item in options.items() for v in item]


def lall_concordance(path, stage):
    """A concordance that spreads the stage's products over the five Lall categories."""
    products = sorted({line.split(",")[3] for line in
                       (stage / "reconciled.csv").read_text().strip().splitlines()[1:]})
    codes = ("PP", "RB", "LT", "MT", "HT")
    return write_lall_concordance(path, products, [codes[i % 5] for i in range(len(products))])


def test_lall_split_and_trend(pipeline, tmp_path):
    root, world, stage = pipeline
    conc = lall_concordance(tmp_path / "lall.csv", stage)
    assert run("gravity", "-o", stage, "--trade", stage / "reconciled.csv",
               "--relatedness", stage / "relatedness.csv",
               "--country-csv", world / "country.csv",
               "--dyad-csv", world / "dyad.csv",
               "--period", "2000-2002", "--split", "lall",
               "--concordance", conc) == 0
    payload = json.loads((stage / "gravity_lall.json").read_text())
    assert len(payload) == 5
    trend_lines = (stage / "trend_lall.csv").read_text().strip().splitlines()
    assert trend_lines[0] == "variable,slope,se,p,significant"
    assert len(trend_lines) == 16

    # the standalone subcommand recomputes from the 6-decimal JSON rendering
    assert run("trend", "-o", tmp_path, "--input", stage / "gravity_lall.json") == 0
    a = (tmp_path / "trend.csv").read_text().strip().splitlines()[1:]
    b = (stage / "trend_lall.csv").read_text().strip().splitlines()[1:]
    for row_a, row_b in zip(a, b):
        fa, fb = row_a.split(","), row_b.split(",")
        assert fa[0] == fb[0] and fa[4] == fb[4]
        assert np.allclose([float(v) for v in fa[1:4]],
                           [float(v) for v in fb[1:4]], atol=1e-4)


def test_every_stage_manifest_records_its_peak_memory(pipeline, tmp_path):
    root, world, stage = pipeline
    meta = ["--trade", stage / "reconciled.csv", "--relatedness", stage / "relatedness.csv",
            "--country-csv", world / "country.csv", "--dyad-csv", world / "dyad.csv"]
    assert run("gravity", "-o", tmp_path, *meta, "--period", "2000-2002") == 0
    assert run("summary", "-o", tmp_path, *meta, "--period", "2000-2002") == 0
    manifests = [world / "synth_manifest.json"] + [
        directory / f"{command}_manifest.json"
        for directory, commands in ((stage, ("ingest", "proximity", "relatedness")),
                                    (tmp_path, ("gravity", "summary")))
        for command in commands]
    for path in manifests:
        assert json.loads(path.read_text())["peak_rss_mb"] > 0, path.name


def test_rerun_is_byte_identical(pipeline, tmp_path):
    root, world, stage = pipeline
    again = tmp_path / "again"
    assert run("ingest", "-o", again, "--trade", world / "trade.csv") == 0
    assert (again / "reconciled.csv").read_bytes() == \
        (stage / "reconciled.csv").read_bytes()
    assert run("proximity", "-o", again, "--trade", again / "reconciled.csv",
               "--window", "2000-2000") == 0
    assert (again / "proximity.csv").read_bytes() == \
        (stage / "proximity.csv").read_bytes()


def test_threads_flag_is_output_invariant(pipeline, tmp_path):
    root, world, stage = pipeline
    # the pipeline's relatedness stage ran on the default, every usable CPU
    for threads in ("1", "3"):
        assert run("relatedness", "-o", tmp_path / threads, "--trade", stage / "reconciled.csv",
                   "--proximity", stage / "proximity.csv",
                   "--dyad-csv", world / "dyad.csv", "--threads", threads) == 0
        assert (tmp_path / threads / "relatedness.csv").read_bytes() == \
            (stage / "relatedness.csv").read_bytes()
    meta = ["--trade", stage / "reconciled.csv", "--relatedness", stage / "relatedness.csv",
            "--country-csv", world / "country.csv", "--dyad-csv", world / "dyad.csv",
            "--split", "period", "--periods", "2000-2002"]
    for threads in ("1", "3"):
        assert run("gravity", "-o", tmp_path / threads, *meta, "--threads", threads) == 0
    for name in ("gravity_period.json", "gravity_period.csv"):
        assert (tmp_path / "3" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()
    # the thread count is recorded beside the run's time, outside the config and its hash
    for stage in ("relatedness", "gravity"):
        one, three = (json.loads((tmp_path / t / f"{stage}_manifest.json").read_text())
                      for t in ("1", "3"))
        assert (one["threads"], three["threads"]) == (1, 3)
        assert one["config_hash"] == three["config_hash"] and "threads" not in one["config"]


def test_unordered_exporter_thresholds_are_exit_one(pipeline, tmp_path, capsys):
    root, world, stage = pipeline
    assert run("gravity", "-o", tmp_path, "--trade", stage / "reconciled.csv",
               "--relatedness", stage / "relatedness.csv",
               "--country-csv", world / "country.csv", "--dyad-csv", world / "dyad.csv",
               "--split", "exporter", "--rca-new", "2", "--rca-experienced", "1") == 1
    err = capsys.readouterr().err
    assert "new (2.0)" in err and "experienced (1.0)" in err, err
    # the thresholds are checked before any input is read
    assert run("gravity", "-o", tmp_path, "--trade", tmp_path / "missing.csv",
               "--relatedness", tmp_path / "missing.csv", "--country-csv", tmp_path / "missing.csv",
               "--dyad-csv", tmp_path / "missing.csv",
               "--split", "exporter", "--rca-new", "2", "--rca-experienced", "1") == 1
    err = capsys.readouterr().err
    assert "new (2.0)" in err and "missing.csv" not in err, err


def test_manifest_contents(pipeline):
    _, world, stage = pipeline
    manifest = json.loads((stage / "relatedness_manifest.json").read_text())
    assert manifest["command"] == "relatedness"
    assert str(stage / "reconciled.csv") in manifest["inputs"]
    assert len(manifest["config_hash"]) == 64
    assert manifest["row_counts"]["cells"] > 0
    assert "wall_time_s" in manifest


@pytest.mark.parametrize("command", ["synth", "ingest", "rca", "proximity", "relatedness",
                                     "gravity", "summary", "trend"])
def test_manifest_config_and_inputs_come_from_the_parser(pipeline, tmp_path, command):
    _, world, stage = pipeline
    conc = lall_concordance(tmp_path / "lall.csv", stage)
    meta = {"--trade": stage / "reconciled.csv", "--relatedness": stage / "relatedness.csv",
            "--country-csv": world / "country.csv", "--dyad-csv": world / "dyad.csv"}
    lall = tmp_path / "lall"
    if command == "trend":
        assert run("gravity", "-o", lall, *flags(meta), "--split", "lall",
                   "--concordance", conc) == 0
    given = {"synth": {},
             # the country file is hashed though only --filter reads it
             "ingest": {"--trade": world / "trade.csv", "--country-csv": world / "country.csv"},
             "rca": {"--trade": stage / "reconciled.csv"},
             "proximity": {"--trade": stage / "reconciled.csv"},
             "relatedness": {"--trade": stage / "reconciled.csv",
                             "--proximity": stage / "proximity.csv",
                             "--dyad-csv": world / "dyad.csv"},
             # the concordance is hashed though only --split lall reads it
             "gravity": dict(meta, **{"--concordance": conc}),
             "summary": meta,
             "trend": {"--input": lall / "gravity_lall.json"}}[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    given = dict(given, **{"--config": cfg})
    out = tmp_path / "out"
    assert run(command, "-o", out, *flags(given)) == 0
    manifest = json.loads((out / f"{command}_manifest.json").read_text())

    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {a.dest for p in (parser, sub.choices[command]) for a in p._actions
               if a.option_strings and a.dest != "help"}
    inputs = {"trade", "proximity", "relatedness", "country_csv", "dyad_csv", "concordance",
              "input", "config"}
    extra = {"proximity_window"} if command == "synth" else set()
    run_keys = {"output_dir", "log_level", "threads"}
    assert set(manifest["config"]) == options - run_keys - inputs | extra
    assert set(manifest["inputs"]) == {str(path) for path in given.values()}


def test_horizon_below_one_is_exit_one(pipeline, tmp_path, capsys):
    _, world, stage = pipeline
    args = ["gravity", "-o", tmp_path, "--trade", stage / "reconciled.csv",
            "--relatedness", stage / "relatedness.csv", "--country-csv", world / "country.csv",
            "--dyad-csv", world / "dyad.csv"]
    assert run(*args, "--horizon", "0") == 1
    assert "horizon must be at least 1, got 0" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"horizon": -1}))
    assert run(*args, "--config", cfg) == 1
    assert "horizon must be at least 1, got -1" in capsys.readouterr().err


def test_missing_input_is_data_error(tmp_path):
    assert run("rca", "-o", tmp_path, "--trade", tmp_path / "nope.csv") == 1


def test_missing_unread_input_stops_the_stage_before_it_writes(pipeline, tmp_path, capsys):
    # without --filter ingest reads no country file, but one given must exist
    _, world, _ = pipeline
    out = tmp_path / "out"
    assert run("ingest", "-o", out, "--trade", world / "trade.csv",
               "--country-csv", tmp_path / "missing.csv") == 1
    assert "missing.csv" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_bad_data_is_exit_one(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("year,origin,destination,product,value,reporter\n"
                   "2000,AAA,BBB,0101,-3,exporter\n")
    assert run("ingest", "-o", tmp_path, "--trade", bad) == 1


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run("gravity", "--no-such-flag")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2


def test_config_file_with_flag_override(pipeline, tmp_path):
    root, world, stage = pipeline
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"window": "2000-2000", "bins": 7}))
    out = tmp_path / "out"
    # --bins on the command line beats the config file; window comes from it
    assert run("proximity", "-o", out, "--trade", stage / "reconciled.csv",
               "--config", cfg, "--bins", "50") == 0
    manifest = json.loads((out / "proximity_manifest.json").read_text())
    assert manifest["config"]["window"] == [2000, 2000]
    assert manifest["config"]["bins"] == 50
    assert (out / "proximity.csv").read_bytes() == \
        (stage / "proximity.csv").read_bytes()


def test_isolated_products_survive_file_handoff(tmp_path):
    # seed 1 yields a product with zero proximity marginal; its cells are
    # dropped from relatedness.csv, and gravity drops the same rows
    world = tmp_path / "world"
    stage = tmp_path / "stage"
    assert run("synth", "-o", world, "--countries", "6", "--products", "10",
               "--years", "3", "--sparsity", "0.45", "--seed", "1",
               "--forward-mode", "persist") == 0
    assert run("ingest", "-o", stage, "--trade", world / "trade.csv") == 0
    assert run("proximity", "-o", stage, "--trade", stage / "reconciled.csv",
               "--window", "2000-2000") == 0
    assert run("relatedness", "-o", stage, "--trade", stage / "reconciled.csv",
               "--proximity", stage / "proximity.csv",
               "--dyad-csv", world / "dyad.csv") == 0
    manifest = json.loads((stage / "relatedness_manifest.json").read_text())
    assert manifest["row_counts"]["dropped_undefined"] > 0
    assert run("gravity", "-o", stage, "--trade", stage / "reconciled.csv",
               "--relatedness", stage / "relatedness.csv",
               "--country-csv", world / "country.csv",
               "--dyad-csv", world / "dyad.csv",
               "--period", "2000-2002", "--split", "none") == 0
    payload = json.loads((stage / "gravity_none.json").read_text())
    assert payload[0]["n"] > 16


def test_planted_cli_round_trip(tmp_path):
    beta = [8.0, 0.2, 0.14, 0.08, 0.4, 0.33, 0.22, -0.48, 0.17, 0.23,
            0.47, 0.34, 0.71, 0.05, 0.55, 0.03]
    world = tmp_path / "world"
    stage = tmp_path / "stage"
    assert run("synth", "-o", world, "--countries", "20", "--products", "25",
               "--years", "3", "--sparsity", "0.8", "--seed", "11",
               "--noise-sigma", "1.0",
               "--planted-beta", ",".join(map(str, beta))) == 0
    manifest = json.loads((world / "synth_manifest.json").read_text())
    lo, hi = manifest["config"]["proximity_window"]
    assert run("ingest", "-o", stage, "--trade", world / "trade.csv") == 0
    assert run("proximity", "-o", stage, "--trade", stage / "reconciled.csv",
               "--window", f"{lo}-{hi}") == 0
    assert run("relatedness", "-o", stage, "--trade", stage / "reconciled.csv",
               "--proximity", stage / "proximity.csv",
               "--dyad-csv", world / "dyad.csv") == 0
    assert run("gravity", "-o", stage, "--trade", stage / "reconciled.csv",
               "--relatedness", stage / "relatedness.csv",
               "--country-csv", world / "country.csv",
               "--dyad-csv", world / "dyad.csv",
               "--period", "2000-2002", "--split", "none") == 0
    payload = json.loads((stage / "gravity_none.json").read_text())
    coefs = {c["name"]: c for c in payload[0]["coefficients"]}
    names = ["const"] + list(coefs)[1:]
    for b, name in zip(beta, ["const", "omega", "omega_d", "omega_o", "log_x_opd",
                              "log_x_op", "log_x_pd", "log_distance", "log_gdp_o",
                              "log_gdp_d", "log_pop_o", "log_pop_d", "border",
                              "colony", "language", "log_lang_proximity"]):
        got = coefs[name]
        assert abs(got["beta"] - b) < 4.0 * max(got["se"], 1e-6), name


def test_handoff_files_hold_the_library_values_bitwise(pipeline):
    _, world, stage = pipeline
    w = tg.generate_world(tg.SyntheticWorldConfig(
        n_countries=8, n_products=12, n_years=3, sparsity=0.7, seed=42,
        forward_mode="persist"))
    tensor = w.tensor
    assert tg.ingest.read_tensor_csv(stage / "reconciled.csv").products == tensor.products
    prox = tg.compute_proximity(tg.binarize(tg.compute_rca(tensor, (2000, 2000))))
    phi = tg.complexity.read_proximity_csv(stage / "proximity.csv", tensor.products).phi
    assert np.array_equal(phi, prox.phi)
    weights = tg.DistanceWeights.from_dyads(tensor.countries, w.dyad_meta)
    from_file = tg.relatedness.read_relatedness_csv(stage / "relatedness.csv",
                                                    tensor.countries, tensor.products)
    for year in tensor.years:
        rel = tg.compute_relatedness(tensor, prox, weights, year)
        keep = np.isfinite(rel.omega)
        for name in ("omega", "omega_d", "omega_o"):
            assert np.array_equal(getattr(from_file[year], name), getattr(rel, name)[keep])


def test_malformed_handoff_file_is_exit_one_with_line(pipeline, tmp_path, capsys):
    _, world, stage = pipeline
    lines = (stage / "relatedness.csv").read_text().splitlines()
    fields = lines[2].split(",")
    fields[4] = "n/a"
    bad = tmp_path / "relatedness.csv"
    bad.write_text("\n".join(lines[:2] + [",".join(fields)] + lines[3:]) + "\n")
    assert run("gravity", "-o", tmp_path, "--trade", stage / "reconciled.csv",
               "--relatedness", bad, "--country-csv", world / "country.csv",
               "--dyad-csv", world / "dyad.csv", "--period", "2000-2002") == 1
    assert f"{bad}:3: unparseable omega 'n/a'" in capsys.readouterr().err


def test_oversized_csv_field_is_exit_one_with_line(pipeline, tmp_path, capsys):
    _, world, _ = pipeline
    lines = (world / "trade.csv").read_text().splitlines(keepends=True)
    bad = tmp_path / "trade.csv"  # line 4 opens a quote that never closes
    bad.write_text("".join(lines[:3]) + '"' + "".join(lines[3:] * 60))
    assert bad.stat().st_size > 1 << 17
    assert run("ingest", "-o", tmp_path / "out", "--trade", bad) == 1
    err = capsys.readouterr().err
    assert f"{bad}:4: field larger than field limit (131072)" in err
    assert "Traceback" not in err


def test_relatedness_of_other_flows_is_exit_one(pipeline, tmp_path, capsys):
    # the same codes, but another seed's cells: most of them are not in the trade file
    _, world, stage = pipeline
    other = tmp_path / "other"
    assert run("synth", "-o", other, "--countries", "8", "--products", "12",
               "--years", "3", "--sparsity", "0.7", "--seed", "43",
               "--forward-mode", "persist") == 0
    assert run("ingest", "-o", other, "--trade", other / "trade.csv") == 0
    assert run("relatedness", "-o", other, "--trade", other / "reconciled.csv",
               "--proximity", stage / "proximity.csv", "--dyad-csv", other / "dyad.csv") == 0
    assert run("gravity", "-o", tmp_path, "--trade", stage / "reconciled.csv",
               "--relatedness", other / "relatedness.csv", "--country-csv",
               world / "country.csv", "--dyad-csv", world / "dyad.csv") == 1
    assert "has no trade flow" in capsys.readouterr().err


def test_malformed_config_is_exit_one_with_line(pipeline, tmp_path, capsys):
    _, _, stage = pipeline
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{\n  "window": "2000-2000",\n  "bins": \n}\n')
    assert run("proximity", "-o", tmp_path, "--trade", stage / "reconciled.csv",
               "--config", cfg) == 1
    assert f"{cfg}:4: " in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("ingest", "policy", "bogus"),
    ("gravity", "zeros", "none"),
    ("gravity", "split", "country"),
    ("synth", "forward-mode", ["persist"]),
])
def test_config_value_outside_choices_is_exit_one(pipeline, tmp_path, capsys, command, key,
                                                  value):
    _, world, stage = pipeline
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    args = {"ingest": ["--trade", world / "trade.csv"],
            "gravity": ["--trade", stage / "reconciled.csv",
                        "--relatedness", stage / "relatedness.csv",
                        "--country-csv", world / "country.csv", "--dyad-csv", world / "dyad.csv"],
            "synth": []}[command]
    assert run(command, "-o", tmp_path / "out", *args, "--config", cfg) == 1
    assert f"{cfg}: {key}: invalid choice: {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_key_naming_no_option_is_exit_one(pipeline, tmp_path, capsys):
    _, world, stage = pipeline
    cfg = tmp_path / "cfg.json"
    for key in ("command", "func", "split"):  # split is a gravity option only
        cfg.write_text(json.dumps({key: "rca"}))
        assert run("ingest", "-o", tmp_path, "--trade", world / "trade.csv",
                   "--config", cfg) == 1
        assert f"unknown config key {key!r}" in capsys.readouterr().err
    # proximity has no cutoff: its edge list always holds every product pair
    cfg.write_text(json.dumps({"cutoff": 0.5}))
    assert run("proximity", "-o", tmp_path, "--trade", stage / "reconciled.csv",
               "--config", cfg) == 1
    assert "unknown config key 'cutoff'" in capsys.readouterr().err


def test_threads_below_one_is_rejected(pipeline, tmp_path):
    _, world, stage = pipeline
    args = ["relatedness", "-o", tmp_path, "--trade", stage / "reconciled.csv",
            "--proximity", stage / "proximity.csv", "--dyad-csv", world / "dyad.csv"]
    for threads in ("0", "-3", "two"):
        with pytest.raises(SystemExit) as exc:
            run(*args, "--threads", threads)
        assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"threads": 0}')
    assert run(*args, "--config", cfg) == 1


def test_cli_import_leaves_scipy_stats_out():
    src = Path(tg.__file__).resolve().parents[1]
    # the p-value kernel and scipy.sparse, imported on first use, stay off it too
    code = ("import sys, scipy.sparse, tradegravity.cli; tradegravity.gravity.t_pvalue(1.0, 3); "
            "sys.exit('scipy.stats' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(src))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_config_sets_options_that_have_defaults(pipeline, tmp_path):
    _, _, stage = pipeline
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"window": "2000-2000", "rca-threshold": 0.5, "bins": 7}))
    assert run("proximity", "-o", tmp_path, "--trade", stage / "reconciled.csv",
               "--config", cfg) == 0
    config = json.loads((tmp_path / "proximity_manifest.json").read_text())["config"]
    assert (config["rca_threshold"], config["bins"]) == (0.5, 7)


@pytest.fixture(scope="module")
def six_year_pipeline(tmp_path_factory):
    """A world with six independently drawn years, through relatedness."""
    root = tmp_path_factory.mktemp("cli6")
    world, stage = root / "world", root / "stage"
    assert run("synth", "-o", world, "--countries", "8", "--products", "12",
               "--years", "6", "--sparsity", "0.7", "--seed", "42") == 0
    assert run("ingest", "-o", stage, "--trade", world / "trade.csv") == 0
    assert run("proximity", "-o", stage, "--trade", stage / "reconciled.csv") == 0
    assert run("relatedness", "-o", stage, "--trade", stage / "reconciled.csv",
               "--proximity", stage / "proximity.csv", "--dyad-csv", world / "dyad.csv") == 0
    return world, stage


def test_relatedness_stage_holds_one_year(six_year_pipeline, tmp_path, monkeypatch):
    world, stage = six_year_pipeline
    compute = tg.relatedness.compute_relatedness
    refs, alive = [], []  # weak references to each year's values and measures

    def one_year(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        rel = compute(*args, **kwargs)
        refs.extend(weakref.ref(a) for a in (rel, rel.omega, rel.omega_d, rel.omega_o))
        return rel

    monkeypatch.setattr(tg.relatedness, "compute_relatedness", one_year)
    out = tmp_path / "out"
    assert run("relatedness", "-o", out, "--trade", stage / "reconciled.csv",
               "--proximity", stage / "proximity.csv", "--dyad-csv", world / "dyad.csv") == 0
    assert alive == [0] * 6
    tensor = tg.ingest.read_tensor_csv(stage / "reconciled.csv")
    prox = tg.complexity.read_proximity_csv(stage / "proximity.csv", tensor.products)
    weights = tg.DistanceWeights.from_dyads(tensor.countries,
                                            tg.DyadMeta.from_csv(world / "dyad.csv"))
    listed = [compute(tensor, prox, weights, year) for year in tensor.years]
    tg.relatedness.write_relatedness_csv(listed, tmp_path / "listed.csv")
    assert (out / "relatedness.csv").read_bytes() == (tmp_path / "listed.csv").read_bytes()


def gravity_results(monkeypatch, out, world, stage, *flags):
    """Run the gravity stage and return the result objects it wrote."""
    written = {}
    write = tg.gravity.write_results_json

    def keep(results, path):
        written.update(results)
        write(results, path)

    monkeypatch.setattr(tg.gravity, "write_results_json", keep)
    assert run("gravity", "-o", out, "--trade", stage / "reconciled.csv",
               "--relatedness", stage / "relatedness.csv",
               "--country-csv", world / "country.csv",
               "--dyad-csv", world / "dyad.csv", *flags) == 0
    return written


def assert_same_fits(got, want):
    assert sorted(got) == sorted(want)
    for key in want:
        assert np.array_equal(got[key].beta, want[key].beta), key
        assert np.array_equal(got[key].se, want[key].se), key
        assert got[key].n == want[key].n, key


def test_period_and_exporter_splits_match_library(six_year_pipeline, tmp_path, monkeypatch):
    world, stage = six_year_pipeline
    tensor = tg.ingest.read_tensor_csv(stage / "reconciled.csv")
    rel = tg.relatedness.read_relatedness_csv(stage / "relatedness.csv", tensor.countries,
                                              tensor.products)
    meta = tg.CountryMeta.from_csv(world / "country.csv")
    dyads = tg.DyadMeta.from_csv(world / "dyad.csv")

    def dataset(period):
        return tg.build_dataset(tensor, rel, meta, dyads, period)

    # overlapping periods: base year 2001 sits in both cells
    periods = ((2000, 2003), (2001, 2005))
    got = gravity_results(monkeypatch, tmp_path, world, stage, "--split", "period",
                          "--periods", "2000-2003,2001-2005")
    want = {f"{s}-{e}": tg.run_split_regressions(dataset((s, e)), "none")["all"]
            for s, e in periods}
    assert_same_fits(got, want)

    got = gravity_results(monkeypatch, tmp_path, world, stage, "--split", "exporter")
    want = tg.run_split_regressions(dataset((2000, 2005)), "exporter",
                                    rca=tg.compute_rca(tensor, (2000, 2000)))
    assert len(want) == 3
    assert_same_fits(got, want)


def test_malformed_concordance_is_exit_one_with_line(pipeline, tmp_path, capsys):
    _, world, stage = pipeline
    cases = {
        "0101,001\n": "2: expected 3 fields, got 2",
        "0101,001,PP\n0102,001,XX\n": "3: unknown category code 'XX'",
        "0101,001,PP\n0101,002,pp\n0101,003,HT\n": "4: conflicting category for 0101",
    }
    for i, (rows, reason) in enumerate(cases.items()):
        conc = tmp_path / f"lall{i}.csv"
        conc.write_text("hs4,sitc3,category\n" + rows)
        assert run("gravity", "-o", tmp_path, "--trade", stage / "reconciled.csv",
                   "--relatedness", stage / "relatedness.csv",
                   "--country-csv", world / "country.csv", "--dyad-csv", world / "dyad.csv",
                   "--split", "lall", "--concordance", conc) == 1
        assert f"{conc}:{reason}" in capsys.readouterr().err


def test_malformed_trend_input_is_exit_one(tmp_path, capsys):
    truncated = tmp_path / "truncated.json"
    truncated.write_text('[\n  {"split_key": "primary",\n')
    assert run("trend", "-o", tmp_path, "--input", truncated) == 1
    assert f"{truncated}:3: " in capsys.readouterr().err
    for name, entry in (("keyless", '{"split_key": "primary", "n": 20}'),
                        ("textual", '{"split_key": "primary", "coefficients": '
                                    '[{"name": "omega", "beta": "big"}]}')):
        bad = tmp_path / f"{name}.json"
        bad.write_text(f"[{entry}]\n")
        assert run("trend", "-o", tmp_path, "--input", bad) == 1
        assert f"{bad}: " in capsys.readouterr().err


def test_threads_above_cap_is_rejected(tmp_path):
    # only the rejection is checked: no thread is started
    with pytest.raises(SystemExit) as exc:
        run("relatedness", "-o", tmp_path, "--trade", "t.csv", "--proximity", "p.csv",
            "--dyad-csv", "d.csv", "--threads", str(4 * (os.cpu_count() or 1) + 1))
    assert exc.value.code == 2


def run_process(*argv):
    """Run the CLI in a fresh interpreter, where logging is not yet configured."""
    env = dict(os.environ, PYTHONPATH=str(Path(tg.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "tradegravity.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True)


def test_config_log_level_configures_logging(pipeline, tmp_path):
    _, world, _ = pipeline
    trade = tmp_path / "trade.csv"
    trade.write_text((world / "trade.csv").read_text() + "2000,AAA,AAA,0101,3,exporter\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"log_level": "INFO"}))
    args = ["ingest", "-o", tmp_path / "out", "--trade", trade, "--config", cfg]
    done = run_process(*args)
    assert done.returncode == 0
    assert "INFO:tradegravity.ingest:load_trade_csv: " in done.stderr
    # --log-level on the command line beats the config file
    done = run_process("--log-level", "WARNING", *args)
    assert done.returncode == 0
    assert "INFO:" not in done.stderr


def test_config_value_goes_through_its_option_type(six_year_pipeline, tmp_path, capsys):
    world, stage = six_year_pipeline
    args = ["gravity", "-o", tmp_path, "--trade", stage / "reconciled.csv",
            "--relatedness", stage / "relatedness.csv", "--country-csv", world / "country.csv",
            "--dyad-csv", world / "dyad.csv", "--config", tmp_path / "cfg.json"]
    (tmp_path / "cfg.json").write_text(json.dumps({"horizon": "3"}))
    assert run(*args) == 0
    assert json.loads((tmp_path / "gravity_manifest.json").read_text())["config"]["horizon"] == 3
    for key, value in (("rca_new", "x"), ("horizon", 2.5), ("period", [2000, 2003]),
                       ("standardize-response", "false")):
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        assert run(*args) == 1
        assert f"{tmp_path / 'cfg.json'}: {key}: " in capsys.readouterr().err


@pytest.mark.parametrize("case", ["not_utf8", "directory", "byte_order_mark"])
def test_trade_file_that_is_not_plain_utf8_text(pipeline, tmp_path, capsys, case):
    _, world, stage = pipeline
    trade = tmp_path / "trade.csv"
    lines = (world / "trade.csv").read_bytes().split(b"\n")
    if case == "not_utf8":
        lines[3] = lines[3].replace(b",", b"\xff,", 1)
        trade.write_bytes(b"\n".join(lines))
        expect = f"{trade}:4: not UTF-8 text"
    elif case == "directory":
        trade.mkdir()
        expect = f"{trade}: Is a directory"
    else:
        trade.write_bytes(b"\xef\xbb\xbf" + b"\n".join(lines))
    code = run("ingest", "-o", tmp_path / "out", "--trade", trade)
    if case == "byte_order_mark":  # reads like its twin without the mark
        assert code == 0
        assert (tmp_path / "out" / "reconciled.csv").read_bytes() == \
            (stage / "reconciled.csv").read_bytes()
    else:
        assert code == 1
        assert expect in capsys.readouterr().err


def test_planted_beta_must_be_numbers(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("synth", "-o", tmp_path, "--planted-beta", "1,x")
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    for value in ([1, 2], "1,x"):
        cfg.write_text(json.dumps({"planted_beta": value}))
        assert run("synth", "-o", tmp_path, "--config", cfg) == 1
        assert f"{cfg}: planted_beta: " in capsys.readouterr().err
    assert run("synth", "-o", tmp_path, "--planted-beta", "1,2") == 1
    assert "planted_beta must have 16 entries" in capsys.readouterr().err
