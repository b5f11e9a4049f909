"""Span recorder for the traced run.

While installed, the recorder replaces each public function of the program
at the name its caller resolves at call time (for example
``enetpipe.pipeline.elastic_net_fit_cd``, which the pipeline looks up in its
own module) with a wrapper that records a span: name, start, end and parent.
Counts are read off the returned objects, or computed from the arguments
(MACs from the network geometry, coordinate updates from sweeps x columns,
bytes from the files written or read). Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import time
from pathlib import Path

import numpy as np

import enetpipe.cli
import enetpipe.cnn
import enetpipe.pipeline
import enetpipe.textio
from enetpipe.rng import PortableRng


def conv_macs_per_patch(config) -> int:
    """Multiply-accumulates of the three 3x3 conv stages for one patch."""
    macs, size, c_in = 0, config.input_size, config.in_channels
    for c_out in config.channels:
        macs += c_out * c_in * 9 * size * size
        size //= 2
        c_in = c_out
    return macs


def _file_mb(path) -> float:
    return Path(path).stat().st_size / 1e6


def _solver_counts(args, kwargs, result):
    columns = np.shape(args[0])[1]
    return {"sweeps": result.sweeps_used,
            "coord_updates": result.sweeps_used * columns,
            "unconverged": int(not result.converged),
            "kkt_max": result.kkt_violation}


def _sven_counts(args, kwargs, result):
    return {"budget_solves": result.sweeps_used,
            "degenerate": int(result.degenerate),
            "kkt_max": result.kkt_violation}


def _run_counts(args, kwargs, result):
    return {"folds": len(result.folds),
            "folds_failed": sum(f.failure is not None for f in result.folds)}


def _extract_counts(args, kwargs, result):
    net, centers = args[0], args[2]
    return {"gmac": len(centers) * conv_macs_per_patch(net.config) / 1e9}


# (owner, attribute, span name, counter). The owner is the namespace the
# caller looks the name up in, so each call is seen exactly once.
PATCHES = (
    (enetpipe.cli, "compare_selectors", "pipeline.compare", None),
    (enetpipe.cli, "run_pipeline", "pipeline.run", _run_counts),
    (enetpipe.pipeline, "run_pipeline", "pipeline.run", _run_counts),
    (enetpipe.pipeline, "lasso_fit", "solvers.cd", _solver_counts),
    (enetpipe.pipeline, "elastic_net_fit_cd", "solvers.cd", _solver_counts),
    (enetpipe.pipeline, "elastic_net_fit_svm_reduction", "sven.fit",
     _sven_counts),
    (enetpipe.pipeline, "pca_fit", "pca.fit",
     lambda a, k, r: {"input_mb": np.size(a[0]) * 8 / 1e6}),
    (enetpipe.pipeline, "pca_transform", "pca.transform", None),
    (enetpipe.pipeline, "elm_train", "elm.train", None),
    (enetpipe.pipeline, "elm_predict", "elm.predict", None),
    (enetpipe.pipeline, "standardize_columns", "data.standardize", None),
    (enetpipe.cli, "save_feature_csv", "data.save_feature_csv",
     lambda a, k, r: {"mb": _file_mb(a[0])}),
    (enetpipe.cli, "load_feature_csv", "data.load_feature_csv",
     lambda a, k, r: {"mb": _file_mb(a[0])}),
    (enetpipe.cli, "load_volume_raw3d", "data.load_volume_raw3d", None),
    (enetpipe.textio, "write_blocks", "textio.write_blocks",
     lambda a, k, r: {"mb": _file_mb(a[0])}),
    (enetpipe.textio, "read_blocks", "textio.read_blocks",
     lambda a, k, r: {"mb": _file_mb(a[0])}),
    (enetpipe.cli, "extract_patch_2_5d", "patches.extract", None),
    (enetpipe.cnn, "extract_patch_2_5d", "patches.extract", None),
    (enetpipe.cli, "cnn_init", "cnn.init", None),
    (enetpipe.cli, "cnn_train_sgd", "cnn.train", None),
    (enetpipe.cnn, "cnn_loss_grad", "cnn.loss_grad", None),
    (enetpipe.cli, "extract_image_features", "cnn.extract", _extract_counts),
    (enetpipe.cli, "emit_report", "report.emit",
     lambda a, k, r: {"kb": Path(r).stat().st_size / 1e3}),
    (PortableRng, "normals", "rng.normals",
     lambda a, k, r: {"draws": len(r)}),
    (PortableRng, "permutation", "rng.permutation", None),
)


class Recorder:
    """Records spans as dicts: id, name, parent, start, end, counts."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1]["id"] if self._stack else None,
                  "start": time.perf_counter() - self._origin, "end": None,
                  "counts": {}}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        except BaseException:
            record["counts"]["raised"] = 1
            raise
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if counter is not None:
                    record["counts"].update(counter(args, kwargs, result))
                return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry of PATCHES for the duration of the block."""
        saved = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _, _ in PATCHES]
        try:
            for (owner, attr, name, counter), (_, _, fn) in zip(PATCHES, saved):
                setattr(owner, attr, self._wrap(fn, name, counter))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)


def aggregate(spans) -> dict:
    """Per span name: calls, total and self seconds, summed counts.

    Counts whose key ends in ``_max`` keep their maximum. Self time is a
    span's duration minus the durations of its direct children, which on
    one thread never overlap.
    """
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])
    totals = {}
    for s in spans:
        entry = totals.setdefault(s["name"], {"calls": 0, "s": 0.0,
                                              "self_s": 0.0})
        duration = s["end"] - s["start"]
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - child_time.get(s["id"], 0.0)
        for key, value in s["counts"].items():
            if key.endswith("_max"):
                entry[key] = max(entry.get(key, 0.0), value)
            else:
                entry[key] = entry.get(key, 0) + value
    return totals


# Per-layer metrics: name -> (unit, better, span name, field of aggregate).
LAYER_METRICS = {
    "cli.compare.s": ("s", "lower", "cli.compare", "s"),
    "cli.evaluate.s": ("s", "lower", "cli.evaluate", "s"),
    "cli.extract.s": ("s", "lower", "cli.extract", "s"),
    "cli.train_cnn.s": ("s", "lower", "cli.train-cnn", "s"),
    "pipeline.run.calls": ("count", "lower", "pipeline.run", "calls"),
    "pipeline.folds": ("count", "higher", "pipeline.run", "folds"),
    "pipeline.folds_failed": ("count", "lower", "pipeline.run", "folds_failed"),
    "pipeline.self_s": ("s", "lower", "pipeline.run", "self_s"),
    "solvers.cd.calls": ("count", "lower", "solvers.cd", "calls"),
    "solvers.cd.s": ("s", "lower", "solvers.cd", "s"),
    "solvers.cd.sweeps": ("count", "lower", "solvers.cd", "sweeps"),
    "solvers.cd.coord_updates": ("count", "lower", "solvers.cd",
                                 "coord_updates"),
    "solvers.cd.unconverged": ("count", "lower", "solvers.cd", "unconverged"),
    "solvers.cd.kkt_max": ("1", "lower", "solvers.cd", "kkt_max"),
    "sven.fit.calls": ("count", "lower", "sven.fit", "calls"),
    "sven.fit.s": ("s", "lower", "sven.fit", "s"),
    "sven.fit.budget_solves": ("count", "lower", "sven.fit", "budget_solves"),
    "sven.fit.degenerate": ("count", "lower", "sven.fit", "degenerate"),
    "sven.fit.raised": ("count", "lower", "sven.fit", "raised"),
    "sven.fit.kkt_max": ("1", "lower", "sven.fit", "kkt_max"),
    "pca.fit.calls": ("count", "lower", "pca.fit", "calls"),
    "pca.fit.s": ("s", "lower", "pca.fit", "s"),
    "pca.transform.s": ("s", "lower", "pca.transform", "s"),
    "pca.fit.input_mb": ("MB", "lower", "pca.fit", "input_mb"),
    "elm.train.calls": ("count", "lower", "elm.train", "calls"),
    "elm.train.s": ("s", "lower", "elm.train", "s"),
    "elm.predict.calls": ("count", "lower", "elm.predict", "calls"),
    "elm.predict.s": ("s", "lower", "elm.predict", "s"),
    "data.save_feature_csv.s": ("s", "lower", "data.save_feature_csv", "s"),
    "data.save_feature_csv.mb": ("MB", "lower", "data.save_feature_csv", "mb"),
    "data.load_feature_csv.s": ("s", "lower", "data.load_feature_csv", "s"),
    "data.load_feature_csv.mb": ("MB", "lower", "data.load_feature_csv", "mb"),
    "data.load_volume_raw3d.s": ("s", "lower", "data.load_volume_raw3d", "s"),
    "data.standardize.calls": ("count", "lower", "data.standardize", "calls"),
    "data.standardize.s": ("s", "lower", "data.standardize", "s"),
    "textio.write_blocks.s": ("s", "lower", "textio.write_blocks", "s"),
    "textio.write_blocks.mb": ("MB", "lower", "textio.write_blocks", "mb"),
    "textio.read_blocks.s": ("s", "lower", "textio.read_blocks", "s"),
    "textio.read_blocks.mb": ("MB", "lower", "textio.read_blocks", "mb"),
    "patches.extract.calls": ("count", "lower", "patches.extract", "calls"),
    "patches.extract.s": ("s", "lower", "patches.extract", "s"),
    "cnn.init.s": ("s", "lower", "cnn.init", "s"),
    "cnn.loss_grad.calls": ("count", "lower", "cnn.loss_grad", "calls"),
    "cnn.loss_grad.s": ("s", "lower", "cnn.loss_grad", "s"),
    "cnn.extract.calls": ("count", "lower", "cnn.extract", "calls"),
    "cnn.extract.self_s": ("s", "lower", "cnn.extract", "self_s"),
    "cnn.forward.gmac": ("GMAC", "lower", "cnn.extract", "gmac"),
    "report.emit.calls": ("count", "lower", "report.emit", "calls"),
    "report.emit.s": ("s", "lower", "report.emit", "s"),
    "report.emit.kb": ("kB", "lower", "report.emit", "kb"),
    "rng.normals.calls": ("count", "lower", "rng.normals", "calls"),
    "rng.normals.draws": ("count", "lower", "rng.normals", "draws"),
    "rng.normals.s": ("s", "lower", "rng.normals", "s"),
    "rng.permutation.calls": ("count", "lower", "rng.permutation", "calls"),
    "rng.permutation.s": ("s", "lower", "rng.permutation", "s"),
}

# Figures computed from arguments, files or the network geometry rather
# than timed or read off results; they repeat exactly for a given seed.
COMPUTED = frozenset({
    "solvers.cd.coord_updates", "pca.fit.input_mb", "cnn.forward.gmac",
    "data.save_feature_csv.mb", "data.load_feature_csv.mb",
    "textio.write_blocks.mb", "textio.read_blocks.mb", "report.emit.kb",
})

# Metrics derived from other figures than one span field.
DERIVED_METRICS = {
    "cnn.forward.gmac_per_s": ("GMAC/s", "higher"),
    "elm.predict_latency_ms": ("ms", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


def layer_values(totals: dict) -> dict:
    """Values of LAYER_METRICS from one aggregate (0 where never called)."""
    values = {}
    for metric, (_, _, span, key) in LAYER_METRICS.items():
        values[metric] = totals.get(span, {}).get(key, 0)
    extract = totals.get("cnn.extract", {})
    values["cnn.forward.gmac_per_s"] = (
        extract["gmac"] / extract["self_s"] if extract.get("self_s") else 0.0)
    return values
