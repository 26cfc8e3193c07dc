"""Command-line pipeline with file-based handoff between stages.

Each subcommand reads the declared inputs, writes its outputs with fixed
names under --output-dir, and drops a machine-readable run manifest next to
them (input hashes, resolved config, row counts, wall time, peak resident
memory). Data outputs are byte-identical across re-runs on the same inputs
and config; the manifest itself carries the wall time and is not.

Exit codes: 0 success, 1 data error, 2 usage error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import resource
import sys
import time
from pathlib import Path

from . import complexity, gravity, ingest, oracle, relatedness
from .csvio import read_json
from .errors import ParseError, TradeDataError

log = logging.getLogger(__name__)

# parsed options that only steer the run; the manifest's config leaves them out (the
# thread count, which never changes the output bytes, is recorded beside the run's time)
RUN_KEYS = ("command", "func", "output_dir", "log_level", "threads")
# input-file options: the manifest hashes each one given under inputs, not config
INPUT_KEYS = ("trade", "proximity", "relatedness", "country_csv", "dyad_csv", "concordance",
              "input", "config")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir, args, inputs, outputs, row_counts, started):
    """Write the stage's manifest. Its config is every parsed option but the run-control
    and input-file ones (a cmd_* writes a default it resolves back onto args); its
    inputs are the hashes of every input file the run was given."""
    config = {k: v for k, v in vars(args).items() if k not in RUN_KEYS + INPUT_KEYS}
    config_json = json.dumps(config, sort_keys=True)
    manifest = {
        "command": args.command,
        "inputs": inputs,
        "config": config,
        "config_hash": hashlib.sha256(config_json.encode()).hexdigest(),
        "outputs": {str(p): _sha256(p) for p in outputs},
        "row_counts": row_counts,
        "wall_time_s": round(time.perf_counter() - started, 3),
        "threads": getattr(args, "threads", None),
        # the stage process's peak resident size; ru_maxrss is in KiB on Linux
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    path = Path(out_dir) / f"{args.command}_manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _all_years(tensor):
    """The default --window/--period: every year of the tensor."""
    return tensor.years[0], tensor.years[-1]


def _parse_period(text):
    try:
        start, end = text.split("-")
        return int(start), int(end)
    except ValueError:
        raise argparse.ArgumentTypeError(f"period must look like 2000-2006, got {text!r}")


def _parse_periods(text):
    return tuple(_parse_period(part) for part in text.split(","))


def _planted_beta(text):
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _thread_count(text):
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    limit = 4 * (os.cpu_count() or 1)
    if not 1 <= threads <= limit:
        raise argparse.ArgumentTypeError(
            f"threads must be a whole number from 1 to {limit}, got {text!r}")
    return threads


def _apply_config(parser, args, argv):
    """Make each --config value its option's default, then parse argv again so
    explicit flags win.

    Keys name the command's options. A value is read as the flag's command-line
    text would be (a switch takes true or false) and must be one of its choices.
    """
    values = read_json(args.config)
    if not isinstance(values, dict):
        raise ParseError(args.config, 1, "expected a JSON object of option values")
    command = next(a.choices for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))[args.command]
    for key, raw in values.items():
        owner, action = next(((p, a) for p in (parser, command) for a in p._actions
                              if a.option_strings and a.dest == key.replace("-", "_")
                              and a.default is not argparse.SUPPRESS), (None, None))
        if action is None:
            raise TradeDataError(f"unknown config key {key!r}")
        value = raw
        try:
            if action.nargs == 0 and not isinstance(raw, bool):
                raise argparse.ArgumentTypeError(f"expected true or false, got {raw!r}")
            if action.nargs != 0 and raw is not None:
                value = (action.type or str)(str(raw))
            if action.choices is not None and value not in action.choices:
                raise argparse.ArgumentTypeError(f"invalid choice: {raw!r} (choose from "
                                                 f"{', '.join(map(repr, action.choices))})")
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise TradeDataError(f"{args.config}: {key}: {exc}") from None
        owner.set_defaults(**{action.dest: value})
    return parser.parse_args(argv)


def cmd_ingest(args, out):
    batch, rejects = ingest.load_trade_csv(args.trade)
    tensor, audit = ingest.reconcile(batch, policy=args.policy)
    removed = {}
    if args.filter:
        if not args.country_csv:
            raise TradeDataError("--filter needs --country-csv for population data")
        meta = ingest.CountryMeta.from_csv(args.country_csv)
        rules = ingest.FilterConfig(
            min_population=args.min_population,
            min_trade_value=args.min_trade,
            trade_year=args.trade_year,
            population_year=args.population_year,
            exclude=tuple(args.exclude.split(",")) if args.exclude else ())
        tensor, removed = ingest.filter_countries(tensor, meta, rules)
    reconciled = out / "reconciled.csv"
    rejects_path = out / "rejects.csv"
    ingest.write_tensor_csv(tensor, reconciled)
    ingest.write_rejects_report(rejects, rejects_path)
    counts = {
        "records": len(batch), "rejects": len(rejects),
        "cells": sum(tensor.n_cells(y) for y in tensor.years),
        "countries": tensor.n_countries, "products": tensor.n_products,
        "removed_countries": len(removed),
        "audit": {"exporter_only": audit.exporter_only,
                  "importer_only": audit.importer_only,
                  "both_agree": audit.both_agree,
                  "both_discrepant": audit.both_discrepant},
    }
    return [reconciled, rejects_path], counts


def cmd_rca(args, out):
    tensor = ingest.read_tensor_csv(args.trade)
    args.window = args.window or _all_years(tensor)
    rca = complexity.compute_rca(tensor, args.window)
    path = out / "rca.csv"
    complexity.write_rca_csv(rca, path)
    return [path], {"countries": len(rca.countries), "products": len(rca.products)}


def cmd_proximity(args, out):
    tensor = ingest.read_tensor_csv(args.trade)
    args.window = args.window or _all_years(tensor)
    rca = complexity.compute_rca(tensor, args.window)
    prox = complexity.compute_proximity(complexity.binarize(rca, args.rca_threshold))
    edges = out / "proximity.csv"
    hist = out / "proximity_histogram.csv"
    n_edges = complexity.export_product_space(prox, edges, hist, bins=args.bins)
    return [edges, hist], {"edges": n_edges}


def cmd_relatedness(args, out):
    tensor = ingest.read_tensor_csv(args.trade)
    prox = complexity.read_proximity_csv(args.proximity, tensor.products)
    weights = relatedness.DistanceWeights.from_dyads(tensor.countries,
                                                     ingest.DyadMeta.from_csv(args.dyad_csv))
    years = range(args.years[0], args.years[1] + 1) if args.years else tensor.years
    values = (relatedness.compute_relatedness(tensor, prox, weights, year, threads=args.threads)
              for year in years if tensor.has_year(year))  # one year held at a time
    path = out / "relatedness.csv"
    dropped = relatedness.write_relatedness_csv(values, path)
    return [path], {"cells": sum(tensor.n_cells(year) for year in years),
                    "dropped_undefined": dropped}


def _gravity_dataset(args):
    """The gravity inputs' tensor and the dataset over --period (default: all years)."""
    tensor = ingest.read_tensor_csv(args.trade)
    dyads = ingest.DyadMeta.from_csv(args.dyad_csv)
    meta = ingest.CountryMeta.from_csv(args.country_csv)
    rel_by_year = relatedness.read_relatedness_csv(args.relatedness, tensor.countries,
                                                   tensor.products)
    args.period = args.period or _all_years(tensor)
    return tensor, gravity.build_dataset(tensor, rel_by_year, meta, dyads, args.period,
                                         horizon=args.horizon, zeros=args.zeros)


def cmd_gravity(args, out):
    concordance = rca = None
    if args.split == "period":
        args.periods = args.periods or gravity.DEFAULT_PERIODS
        args.period = (min(p[0] for p in args.periods), max(p[1] for p in args.periods))
    elif args.split == "lall":
        if not args.concordance:
            raise TradeDataError("--split lall needs --concordance")
        concordance = gravity.LallConcordance.from_csv(args.concordance)
    tensor, ds = _gravity_dataset(args)
    if args.split == "exporter":
        year = args.rca_year or args.period[0]
        rca = complexity.compute_rca(tensor, (year, year))
    results = gravity.run_split_regressions(
        ds, args.split, periods=args.periods, horizon=args.horizon, rca=rca,
        concordance=concordance, new_threshold=args.rca_new,
        experienced_threshold=args.rca_experienced,
        standardize_response=args.standardize_response, threads=args.threads)
    if not results:
        raise TradeDataError("no split cell was large enough to fit")
    json_path = out / f"gravity_{args.split}.json"
    csv_path = out / f"gravity_{args.split}.csv"
    gravity.write_results_json(results, json_path)
    gravity.write_results_csv(results, csv_path)
    outputs = [json_path, csv_path]
    if args.split == "lall" and len(results) == 5:
        trends = gravity.trend_over_lall(results)
        trend_path = out / "trend_lall.csv"
        gravity.write_trend_csv(trends, trend_path)
        outputs.append(trend_path)
    return outputs, {key: res.n for key, res in sorted(results.items())}


def cmd_summary(args, out):
    _, ds = _gravity_dataset(args)
    z, _ = gravity.standardize(ds, standardize_response=args.standardize_response)
    stats_path = out / "summary_stats.csv"
    corr_path = out / "correlation_matrix.csv"
    gravity.write_summary_csv(gravity.summary_stats(z), stats_path)
    names, corr = gravity.correlation_matrix(z)
    gravity.write_correlation_csv(names, corr, corr_path)
    return [stats_path, corr_path], {"rows": ds.n}


def cmd_trend(args, out):
    results = gravity.read_results_json(args.input)
    trends = gravity.trend_over_lall(results)
    path = out / "trend.csv"
    gravity.write_trend_csv(trends, path)
    return [path], {"variables": len(trends)}


def cmd_synth(args, out):
    config = oracle.SyntheticWorldConfig(
        n_countries=args.countries, n_products=args.products, n_years=args.years,
        start_year=args.start_year, planted_beta=args.planted_beta,
        noise_sigma=args.noise_sigma, sparsity=args.sparsity, seed=args.seed,
        forward_mode=args.forward_mode)
    world = oracle.generate_world(config)
    trade_path = out / "trade.csv"
    country_path = out / "country.csv"
    dyad_path = out / "dyad.csv"
    ingest.write_tensor_csv(world.tensor, trade_path, reporter="exporter")
    world.country_meta.write_csv(country_path)
    world.dyad_meta.write_csv(dyad_path)
    args.proximity_window = world.proximity_window
    return ([trade_path, country_path, dyad_path],
            {"cells": sum(world.tensor.n_cells(y) for y in world.tensor.years)})


def build_parser():
    parser = argparse.ArgumentParser(prog="tradegravity",
                                     description="Trade relatedness and gravity pipeline")
    parser.add_argument("--log-level", default="WARNING",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output-dir", "-o", default=".")
        p.add_argument("--config", help="JSON config file; explicit flags override it")

    p = sub.add_parser("ingest", help="parse, reconcile, and filter raw trade flows")
    common(p)
    p.add_argument("--trade", required=True, help="raw trade CSV")
    p.add_argument("--country-csv", help="code,year,population,gdp_per_capita CSV")
    p.add_argument("--policy", default="importer",
                   choices=[po.value for po in ingest.ReconcilePolicy])
    p.add_argument("--filter", action="store_true",
                   help="apply the population/trade/exclusion country filters")
    p.add_argument("--min-population", type=float, default=1.2e6)
    p.add_argument("--min-trade", type=float, default=1e9)
    p.add_argument("--trade-year", type=int, default=2008)
    p.add_argument("--population-year", type=int, default=None)
    p.add_argument("--exclude", default="IRQ,TCD,MAC")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("rca", help="revealed comparative advantage over a window")
    common(p)
    p.add_argument("--trade", required=True, help="reconciled trade CSV")
    p.add_argument("--window", type=_parse_period, default=None,
                   help="inclusive year window, e.g. 2000-2015 (default: all years)")
    p.set_defaults(func=cmd_rca)

    p = sub.add_parser("proximity", help="product-space proximity matrix")
    common(p)
    p.add_argument("--trade", required=True, help="reconciled trade CSV")
    p.add_argument("--window", type=_parse_period, default=None)
    p.add_argument("--rca-threshold", type=float, default=1.0)
    p.add_argument("--bins", type=int, default=50)
    p.set_defaults(func=cmd_proximity)

    p = sub.add_parser("relatedness", help="the three relatedness measures per cell")
    common(p)
    p.add_argument("--trade", required=True, help="reconciled trade CSV")
    p.add_argument("--proximity", required=True, help="proximity edge CSV")
    p.add_argument("--dyad-csv", required=True)
    p.add_argument("--years", type=_parse_period, default=None,
                   help="inclusive year range (default: all years)")
    p.add_argument("--threads", type=_thread_count, default=relatedness.usable_cpus())
    p.set_defaults(func=cmd_relatedness)

    def gravity_common(p):
        common(p)
        p.add_argument("--trade", required=True, help="reconciled trade CSV")
        p.add_argument("--relatedness", required=True)
        p.add_argument("--country-csv", required=True)
        p.add_argument("--dyad-csv", required=True)
        p.add_argument("--period", type=_parse_period, default=None)
        p.add_argument("--horizon", type=int, default=gravity.HORIZON)
        p.add_argument("--zeros", default="drop", choices=["drop", "log1p"])
        p.add_argument("--standardize-response", action="store_true")

    p = sub.add_parser("gravity", help="fit the pooled two-year-ahead model")
    gravity_common(p)
    p.add_argument("--threads", type=_thread_count, default=relatedness.usable_cpus())
    p.add_argument("--split", default="none",
                   choices=["none", "period", "exporter", "lall"])
    p.add_argument("--periods", type=_parse_periods, default=None,
                   help='comma list for --split period, e.g. "2000-2006,2007-2012"')
    p.add_argument("--concordance", help="hs4,sitc3,category CSV for --split lall")
    p.add_argument("--rca-year", type=int, default=None,
                   help="classification RCA year (default: period start)")
    p.add_argument("--rca-new", type=float, default=0.2)
    p.add_argument("--rca-experienced", type=float, default=1.0)
    p.set_defaults(func=cmd_gravity)

    p = sub.add_parser("summary", help="summary statistics and correlation matrix")
    gravity_common(p)
    p.set_defaults(func=cmd_summary)

    p = sub.add_parser("trend", help="sophistication trend test over lall results")
    common(p)
    p.add_argument("--input", required=True, help="gravity_lall.json")
    p.set_defaults(func=cmd_trend)

    p = sub.add_parser("synth", help="generate a synthetic world in ingest formats")
    common(p)
    p.add_argument("--countries", type=int, default=8)
    p.add_argument("--products", type=int, default=12)
    p.add_argument("--years", type=int, default=3)
    p.add_argument("--start-year", type=int, default=2000)
    p.add_argument("--sparsity", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--forward-mode", default="planted", choices=["planted", "persist"])
    p.add_argument("--planted-beta", type=_planted_beta, default=None,
                   help="16 comma-separated values, intercept first")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None):
    """Run one subcommand: its cmd_* function returns (outputs, row_counts), and the
    manifest written here takes its config and inputs from the parsed options."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = _apply_config(parser, args, argv)
        logging.basicConfig(level=getattr(logging, args.log_level))
        if getattr(args, "split", None) == "exporter":  # options first, then the inputs
            gravity.check_exporter_thresholds(args.rca_new, args.rca_experienced)
        started = time.perf_counter()  # inputs hashed first: a missing one stops the stage
        inputs = {str(v): _sha256(v) for k, v in vars(args).items() if k in INPUT_KEYS and v}
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_manifest(out, args, inputs, *args.func(args, out), started)
        return 0
    except OSError as exc:  # a missing path, or a directory where a file belongs
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}",
              file=sys.stderr)
        return 1
    except TradeDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
