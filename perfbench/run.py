"""tradegravity benchmark: one workload per run, or all of them.

    python3 perfbench/run.py --workload cli-chain --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere inside a source tree that has ``src/tradegravity``. The
seed drives every generated input. With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics of a
traced run. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs every workload untraced and traced, each in its own process, and
prints one table with the tracing overhead.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "tradegravity"
WORKLOAD_NAMES = ("cli-chain", "lib-c9", "lib-splits")


def median(values):
    return statistics.median(values) if values else float("nan")


def provenance(seed, workload, sizes):
    import numpy as np
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": workload, "seed": seed, "sizes": sizes,
        "git_sha": sha, "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 20,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def run_one(args):
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, args.trace, work)
    except workloads.SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ledger = outcome.ledger
    print("provenance " + json.dumps(provenance(args.seed, args.workload, outcome.sizes)))
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    iterations = len(outcome.wall_s)
    if args.trace:
        metrics = {}
        for name in outcome.layers[0] if outcome.layers else ():
            metrics[name] = {"value": median([it[name][0] for it in outcome.layers]),
                             "unit": outcome.layers[0][name][1]}
    else:
        metrics = {
            "wall_s": {"value": median(outcome.wall_s), "unit": "s"},
            "peak_rss_mb": {"value": median(outcome.peak_rss_mb), "unit": "MB"},
            "setup_s": {"value": median(outcome.setup_s), "unit": "s"},
        }
    failed_frac = ledger.failed / ledger.attempted
    print(f"{args.workload} seed={args.seed} trace={args.trace} iterations={iterations} "
          f"setup_repeats={len(outcome.setup_s)} walls={[round(w, 3) for w in outcome.wall_s]} "
          f"cpu={[round(c, 3) for c in outcome.cpu_s]}")
    for name, metric in metrics.items():
        print(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'failed_frac':<36} {failed_frac:>16.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} operations)")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload untraced then traced, each run in a fresh process."""
    results = {}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"error: {workload} trace={trace} exited with {proc.returncode}",
                      file=sys.stderr)
                return 1
            results[workload, trace] = json.loads(lines[-1])

    print()
    print(f"{'workload':<12} {'setup_s':>10} {'wall_s':>10} {'peak_rss_mb':>12} "
          f"{'failed_frac':>12} {'trace_overhead_s':>17}")
    combined = {}
    attempted = failed = 0
    for workload in WORKLOAD_NAMES:
        plain, traced = results[workload, 0], results[workload, 1]
        m = plain["metrics"]
        frac = plain["failed"] / plain["attempted"]
        overhead = traced["metrics"]["trace.wall_s"]["value"] - m["wall_s"]["value"]
        print(f"{workload:<12} {m['setup_s']['value']:>8.3f} s {m['wall_s']['value']:>8.3f} s "
              f"{m['peak_rss_mb']['value']:>9.1f} MB {frac:>12.4g} {overhead:>15.3f} s")
        for run in (plain, traced):
            attempted += run["attempted"]
            failed += run["failed"]
            for name, metric in run["metrics"].items():
                combined[f"{workload}.{name}"] = metric
        combined[f"{workload}.failed_frac"] = {"value": frac, "unit": "ratio"}
        combined[f"{workload}.trace_overhead_s"] = {"value": overhead, "unit": "s"}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measured time per run; at least one chain always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so every started process is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SOURCE / "__init__.py").is_file():
        print(f"error: no tradegravity sources at {SOURCE}; run inside a source tree",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
