"""Evaluation report serialization: text table, CSV, plot data, JSON.

Accuracy cells render as percent with two decimals ("86.05%") and timing
cells as seconds with three decimals ("0.323s"), i.e. millisecond
resolution. Plot-data rows carry time in integer milliseconds so the
value column stays unit-free; a footnote records the unit.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError
from .pipeline import ComparisonBlock, EvaluationReport, FoldOutcome
from .textio import read_ascii

__all__ = ["emit_report", "report_to_json", "report_from_json",
           "save_report_json", "load_report_json", "REPORT_FORMATS"]

REPORT_FORMATS = ("text-table", "comma-separated", "plot-data", "json")

_FILENAMES = {
    "text-table": "report.txt",
    "comma-separated": "report.csv",
    "plot-data": "plot_data.csv",
    "json": "report.json",
}

_TIME_FOOTNOTE = ("Processing time is the median per-sample classification "
                  "latency, millisecond resolution.")


def _pct(value) -> str:
    return f"{100.0 * value:.2f}%"


def _sec(time_ms) -> str:
    return f"{time_ms / 1000.0:.3f}s"


def _fold_rows(folds):
    for o in folds:
        if o.failure is not None:
            yield (str(o.fold_index), "failed", "failed", o.failure)
        else:
            yield (str(o.fold_index), _pct(o.accuracy), _sec(o.time_ms),
                   str(int(o.support.size)))


def _text_table(report: EvaluationReport) -> str:
    lines = []
    lines.append("Evaluation report")
    lines.append("=" * len(lines[0]))
    lines.append(f"Group: {report.group}    Selector: {report.selector}    "
                 f"Folds: {report.k_folds}    Seed: {report.seed}")
    lines.append("")

    header = f"{'Variant':<24}{'Accuracy (%)':<16}{'Processing time (sec)':<24}"
    lines.append(header)
    lines.append("-" * len(header))
    comp = report.comparison
    if comp is not None:
        lines.append(f"{comp.baseline_selector:<24}"
                     f"{_pct(comp.baseline_mean_accuracy):<16}"
                     f"{_sec(comp.baseline_mean_time_ms):<24}")
        lines.append(f"{comp.proposed_selector:<24}"
                     f"{_pct(comp.proposed_mean_accuracy):<16}"
                     f"{_sec(comp.proposed_mean_time_ms):<24}")
        delta_pct = f"{100.0 * comp.mean_accuracy_delta:+.2f}%"
        delta_sec = f"{comp.mean_time_delta_ms / 1000.0:+.3f}s"
        lines.append(f"{'delta':<24}{delta_pct:<16}{delta_sec:<24}")
    else:
        lines.append(f"{report.selector:<24}{_pct(report.mean_accuracy):<16}"
                     f"{_sec(report.mean_time_ms):<24}")
    lines.append("")
    lines.append(f"Fold accuracy sigma (population): {_pct(report.accuracy_sigma)}")
    lines.append(f"Mean selected features: {report.mean_support_size:.1f} "
                 f"of {max((o.n_candidate_features for o in report.folds), default=0)}")
    lines.append("")

    lines.append(f"{'Fold':<8}{'Accuracy (%)':<16}"
                 f"{'Processing time (sec)':<24}{'Selected':<10}")
    for row in _fold_rows(report.folds):
        lines.append(f"{row[0]:<8}{row[1]:<16}{row[2]:<24}{row[3]:<10}")
    if comp is not None and comp.baseline_folds:
        lines.append("")
        lines.append(f"Baseline folds ({comp.baseline_selector}):")
        for row in _fold_rows(comp.baseline_folds):
            lines.append(f"{row[0]:<8}{row[1]:<16}{row[2]:<24}{row[3]:<10}")
    if report.warnings:
        lines.append("")
        lines.append("Warnings:")
        for w in report.warnings:
            lines.append(f"  - {w}")
    lines.append("")
    lines.append(_TIME_FOOTNOTE)
    return "\n".join(lines) + "\n"


def _csv_fold_lines(group, selector, folds):
    for o in folds:
        if o.failure is not None:
            yield f"{group},{selector},{o.fold_index},,,,{o.failure}"
        else:
            yield (f"{group},{selector},{o.fold_index},{o.accuracy:.4f},"
                   f"{o.time_ms:.3f},{int(o.support.size)},")


def _comma_separated(report: EvaluationReport) -> str:
    lines = ["group,selector,fold,accuracy,time_ms,support_size,note"]
    comp = report.comparison
    if comp is not None:
        lines.extend(_csv_fold_lines(report.group, comp.baseline_selector,
                                     comp.baseline_folds))
        lines.append(f"{report.group},{comp.baseline_selector},mean,"
                     f"{comp.baseline_mean_accuracy:.4f},"
                     f"{comp.baseline_mean_time_ms:.3f},,")
    lines.extend(_csv_fold_lines(report.group, report.selector, report.folds))
    lines.append(f"{report.group},{report.selector},mean,"
                 f"{report.mean_accuracy:.4f},{report.mean_time_ms:.3f},"
                 f"{report.mean_support_size:.1f},")
    lines.append(f"{report.group},{report.selector},sigma,"
                 f"{report.accuracy_sigma:.4f},,,")
    return "\n".join(lines) + "\n"


def _plot_data(report: EvaluationReport) -> str:
    lines = ["group,variant,metric,value"]

    def emit(variant, mean_acc, mean_time_ms):
        lines.append(f"{report.group},{variant},accuracy_percent,"
                     f"{100.0 * mean_acc:.2f}")
        lines.append(f"{report.group},{variant},time_ms,"
                     f"{int(round(mean_time_ms))}")

    comp = report.comparison
    if comp is not None:
        emit(comp.baseline_selector, comp.baseline_mean_accuracy,
             comp.baseline_mean_time_ms)
        emit(comp.proposed_selector, comp.proposed_mean_accuracy,
             comp.proposed_mean_time_ms)
    else:
        emit(report.selector, report.mean_accuracy, report.mean_time_ms)
    lines.append("# time_ms values are milliseconds")
    return "\n".join(lines) + "\n"


def _to_dict(obj) -> dict:
    """A report dataclass as a JSON-ready dict, keys in field order."""
    return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}


def _jsonable(value):
    if is_dataclass(value):
        return _to_dict(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _from_dict(cls, d: dict):
    """Rebuild a report dataclass from its JSON dict; a field missing from
    ``d`` takes its dataclass default.  A field that cannot be rebuilt (a
    missing key, a wrong type, a numeric field that is not an int or a
    float) is a DataFormatError naming the field."""
    kwargs = {}
    for f in fields(cls):
        if f.name in d:
            load = _LOADERS.get(f.name) or _SCALAR_LOADERS.get(f.type,
                                                               lambda v: v)
            try:
                kwargs[f.name] = load(d[f.name])
            except (TypeError, KeyError, ValueError) as exc:
                raise DataFormatError(
                    f"report JSON field {f.name!r}: {exc}") from None
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise DataFormatError(f"report JSON: {exc}") from None


def _folds_from_list(items) -> list:
    return [_from_dict(FoldOutcome, d) for d in items]


def _index_array(v):
    return None if v is None else np.asarray(v, dtype=np.int64)


def _number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return value


# Field annotation (a string: the report dataclasses postpone their
# annotations) -> check of a numeric scalar field's JSON value.
_SCALAR_LOADERS = {
    "int": _number,
    "float": _number,
    "float | None": lambda v: None if v is None else _number(v),
}

# Field name -> conversion from its JSON value; fields that neither this
# nor _SCALAR_LOADERS names load as-is.
_LOADERS = {
    "test_indices": _index_array,
    "support": _index_array,
    "warnings": tuple,
    "folds": _folds_from_list,
    "baseline_folds": _folds_from_list,
    "comparison": lambda v: None if v is None else _from_dict(
        ComparisonBlock, v),
}


def report_to_json(report: EvaluationReport) -> str:
    return json.dumps(_to_dict(report), indent=2) + "\n"


def report_from_json(text: str) -> EvaluationReport:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"report is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataFormatError("report JSON must be an object at top level")
    required = {"group", "selector", "k_folds", "seed", "folds",
                "mean_accuracy", "accuracy_sigma", "mean_time_ms"}
    missing = required - payload.keys()
    if missing:
        raise DataFormatError(f"report JSON is missing {sorted(missing)}")
    return _from_dict(EvaluationReport, payload)


def save_report_json(path, report: EvaluationReport) -> Path:
    path = Path(path)
    path.write_text(report_to_json(report))
    return path


def load_report_json(path) -> EvaluationReport:
    return report_from_json(read_ascii(path))


def emit_report(report: EvaluationReport, fmt: str, out_dir) -> Path:
    """Render one format into out_dir; returns the file written."""
    if fmt not in REPORT_FORMATS:
        raise ConfigError(
            f"unknown report format {fmt!r}; choose from {REPORT_FORMATS}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "text-table":
        content = _text_table(report)
    elif fmt == "comma-separated":
        content = _comma_separated(report)
    elif fmt == "plot-data":
        content = _plot_data(report)
    else:
        content = report_to_json(report)
    target = out_dir / _FILENAMES[fmt]
    target.write_text(content)
    return target
