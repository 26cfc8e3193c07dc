"""In-memory spans recorded around calls into tradegravity's public functions.

A span has a name, a start, an end and the index of the span that was open
when it began. Spans stay in memory until the run ends. Wrapping replaces a
module attribute, so calls made by ``tradegravity.cli`` and calls between
functions of one module (which look names up in the module namespace) are
both seen. Nothing under ``src/`` is edited.
"""
from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [span.duration - covered(children[i], span.start, span.end)
            for i, span in enumerate(spans)]


class Tracer:
    """Records spans; ``instrument`` wraps the functions named in LAYERS."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        self._open.append(index)
        try:
            yield self.spans[index]
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def _wrapped(self, fn, name, count):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if count is not None:
                # counting is tracer work: its own span keeps it out of the
                # layer's time and out of the caller's self time
                with self.span("trace.counts"):
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.counts.update(count(bound.arguments, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def instrument(self):
        """Wrap every (module, attribute, span name, count) of LAYERS, then restore."""
        restore = []
        try:
            for module_name, attr, name, count in LAYERS:
                owner = importlib.import_module(f"tradegravity.{module_name}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, leaf)
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrapped(original.__func__, name, count))
                else:
                    replacement = self._wrapped(original, name, count)
                setattr(owner, leaf, replacement)
                restore.append((owner, leaf, original))
            yield self
        finally:
            for owner, leaf, original in reversed(restore):
                setattr(owner, leaf, original)

    def to_json(self):
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "counts": s.counts} for s in self.spans]


def from_json(rows, offset=0, parent=None):
    """Rebuild spans from ``Tracer.to_json`` rows; roots get ``parent``."""
    return [Span(r["name"], r["start"], r["end"],
                 parent if r["parent"] is None else r["parent"] + offset, r["counts"])
            for r in rows]


def _distinct(key, size):
    return int(np.count_nonzero(np.bincount(key, minlength=size)))


def _omega_counts(args, result):
    o, p, d, _ = args["tensor"].flows(args["year"])
    nc = args["tensor"].n_countries
    return {"cells": int(o.size), "groups": _distinct(o.astype(np.int64) * nc + d, nc * nc),
            "width": args["tensor"].n_products,
            "undefined": int(np.count_nonzero(~np.isfinite(result)))}


def _omega_d_counts(args, result):
    o, p, d, _ = args["tensor"].flows(args["year"])
    np_ = args["tensor"].n_products
    return {"cells": int(o.size),
            "groups": _distinct(o.astype(np.int64) * np_ + p, args["tensor"].n_countries * np_),
            "width": args["tensor"].n_countries}


def _omega_o_counts(args, result):
    o, p, d, _ = args["tensor"].flows(args["year"])
    nc = args["tensor"].n_countries
    return {"cells": int(o.size),
            "groups": _distinct(p.astype(np.int64) * nc + d, args["tensor"].n_products * nc),
            "width": nc}


def _build_counts(args, result):
    start, end = int(args["period"][0]), int(args["period"][1])
    base = sum(args["tensor"].n_cells(t) for t in range(start, end - args["horizon"] + 1))
    return {"rows": int(result.n), "base_cells": int(base)}


_SPLIT_CELLS = {"none": 1, "exporter": 3, "lall": 5}


def _split_counts(args, result):
    expected = _SPLIT_CELLS.get(args["split"]) or len(args["periods"] or ())
    return {"split": args["split"], "cells": expected, "fitted": len(result)}


LAYERS = (
    ("ingest", "load_trade_csv", "ingest.load_trade_csv",
     lambda a, r: {"rows": len(r[0]) + len(r[1])}),
    ("ingest", "reconcile", "ingest.reconcile", None),
    ("ingest", "write_tensor_csv", "ingest.write_tensor_csv", None),
    ("ingest", "read_tensor_csv", "ingest.read_tensor_csv", None),
    ("ingest", "CountryMeta.from_csv", "ingest.meta_csv", None),
    ("ingest", "DyadMeta.from_csv", "ingest.meta_csv", None),
    ("complexity", "compute_rca", "complexity.compute_rca", None),
    ("complexity", "compute_proximity", "complexity.compute_proximity",
     lambda a, r: {"flops": 2 * a["m"].entries.shape[0] * a["m"].entries.shape[1] ** 2}),
    ("complexity", "export_product_space", "complexity.export_product_space", None),
    ("complexity", "read_proximity_csv", "complexity.read_proximity_csv", None),
    ("relatedness", "product_relatedness", "relatedness.omega", _omega_counts),
    ("relatedness", "importer_relatedness", "relatedness.omega_d", _omega_d_counts),
    ("relatedness", "exporter_relatedness", "relatedness.omega_o", _omega_o_counts),
    ("relatedness", "write_relatedness_csv", "relatedness.write_csv", None),
    ("relatedness", "read_relatedness_csv", "relatedness.read_csv", None),
    ("gravity", "build_dataset", "gravity.build_dataset", _build_counts),
    ("gravity", "standardize", "gravity.standardize",
     lambda a, r: {"bytes": 15 * a["dataset"].n * 8}),
    ("gravity", "fit_ols", "gravity.fit_ols", lambda a, r: {"rows": int(a["dataset"].n)}),
    ("gravity", "run_split_regressions", "gravity.split", _split_counts),
    ("gravity", "summary_stats", "gravity.summary", None),
    ("gravity", "correlation_matrix", "gravity.summary", None),
)

CLI_STAGES = ("ingest", "proximity", "relatedness", "gravity", "summary")

MB = float(1 << 20)


def layer_metrics(spans, stages=(), handoff_bytes=0):
    """Per-layer metrics from a span list.

    ``stages`` holds (stage, wall_s, peak_rss_mb, span index) for CLI stage
    processes; their self time is the stage wall minus its layer spans.
    Layers a workload never calls report 0.
    """
    total = {}
    calls = {}
    counts = {}
    for span in spans:
        total[span.name] = total.get(span.name, 0.0) + span.duration
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.counts.items():
            if isinstance(value, (int, float)):
                slot = (span.name, key)
                counts[slot] = counts.get(slot, 0) + value

    def t(name):
        return total.get(name, 0.0)

    def c(name, key):
        return counts.get((name, key), 0)

    def ratio(a, b):
        return a / b if b else 0.0

    split_time = {}
    for span in spans:
        if span.name == "gravity.split":
            kind = span.counts.get("split")
            split_time[kind] = split_time.get(kind, 0.0) + span.duration

    own = self_times(spans)
    m = {}
    stage_by_name = {s[0]: s for s in stages}
    for stage in CLI_STAGES:
        _, wall, rss, index = stage_by_name.get(stage, (stage, 0.0, 0.0, None))
        m[f"cli.{stage}_s"] = (wall, "s")
        m[f"cli.{stage}_rss_mb"] = (rss, "MB")
        m[f"cli.{stage}_self_s"] = (own[index] if index is not None else 0.0, "s")
    m["cli.handoff_mb"] = (handoff_bytes / MB, "MB")

    m["ingest.load_trade_csv_s"] = (t("ingest.load_trade_csv"), "s")
    m["ingest.reconcile_s"] = (t("ingest.reconcile"), "s")
    m["ingest.write_tensor_csv_s"] = (t("ingest.write_tensor_csv"), "s")
    m["ingest.read_tensor_csv_s"] = (t("ingest.read_tensor_csv"), "s")
    m["ingest.read_tensor_csv_calls"] = (calls.get("ingest.read_tensor_csv", 0), "count")
    m["ingest.meta_csv_s"] = (t("ingest.meta_csv"), "s")
    m["ingest.rows_per_s"] = (ratio(c("ingest.load_trade_csv", "rows"),
                                    t("ingest.load_trade_csv")), "1/s")

    m["complexity.compute_rca_s"] = (t("complexity.compute_rca"), "s")
    m["complexity.compute_proximity_s"] = (t("complexity.compute_proximity"), "s")
    m["complexity.proximity_flops"] = (c("complexity.compute_proximity", "flops"), "count")
    m["complexity.export_product_space_s"] = (t("complexity.export_product_space"), "s")
    m["complexity.read_proximity_csv_s"] = (t("complexity.read_proximity_csv"), "s")

    for name in ("omega", "omega_d", "omega_o"):
        span_name = f"relatedness.{name}"
        m[f"relatedness.{name}_s"] = (t(span_name), "s")
        m[f"relatedness.{name}_useful_frac"] = (
            ratio(c(span_name, "cells"), _entries(spans, span_name)), "ratio")
    m["relatedness.undefined_cells"] = (c("relatedness.omega", "undefined"), "count")
    m["relatedness.write_csv_s"] = (t("relatedness.write_csv"), "s")
    m["relatedness.read_csv_s"] = (t("relatedness.read_csv"), "s")

    # the CLI builds the same dataset in two stages: report one build, not the sum
    build = max((s.counts for s in spans if s.name == "gravity.build_dataset"),
                key=lambda counts: counts.get("rows", 0), default={})
    m["gravity.build_dataset_s"] = (t("gravity.build_dataset"), "s")
    m["gravity.rows"] = (build.get("rows", 0), "count")
    m["gravity.rows_kept_frac"] = (ratio(build.get("rows", 0), build.get("base_cells", 0)),
                                   "ratio")
    m["gravity.standardize_s"] = (t("gravity.standardize"), "s")
    m["gravity.standardize_mb"] = (c("gravity.standardize", "bytes") / MB, "MB")
    m["gravity.fit_ols_s"] = (t("gravity.fit_ols"), "s")
    m["gravity.fit_rows_per_s"] = (ratio(c("gravity.fit_ols", "rows"), t("gravity.fit_ols")),
                                   "1/s")
    m["gravity.fits"] = (calls.get("gravity.fit_ols", 0), "count")
    m["gravity.fits_skipped"] = (c("gravity.split", "cells") - c("gravity.split", "fitted"),
                                 "count")
    for kind in ("period", "exporter", "lall"):
        m[f"gravity.split_{kind}_s"] = (split_time.get(kind, 0.0), "s")
    m["gravity.summary_s"] = (t("gravity.summary"), "s")
    return m


def _entries(spans, name):
    """Entries of the chunked product (groups x width) summed over calls."""
    return sum(s.counts.get("groups", 0) * s.counts.get("width", 0)
               for s in spans if s.name == name)
