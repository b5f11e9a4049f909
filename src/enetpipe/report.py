"""Evaluation report serialization: text table, CSV, plot data, JSON.

Accuracy cells render as percent with two decimals ("86.05%") and timing
cells as seconds with three decimals ("0.323s"), i.e. millisecond
resolution. Plot-data rows carry time in integer milliseconds so the
value column stays unit-free; a footnote records the unit.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError
from .pipeline import ComparisonBlock, EvaluationReport, FoldOutcome
from .textio import read_ascii

__all__ = ["emit_report", "report_to_json", "report_from_json",
           "load_report_json", "REPORT_FORMATS"]

_TIME_FOOTNOTE = ("Processing time is the median per-sample classification "
                  "latency, millisecond resolution.")


def _pct(value) -> str:
    return f"{100.0 * value:.2f}%"


def _sec(time_ms) -> str:
    return f"{time_ms / 1000.0:.3f}s"


def _fold_rows(folds):
    for o in folds:
        if o.failure is not None:
            row = (str(o.fold_index), "failed", "failed", o.failure)
        else:
            row = (str(o.fold_index), _pct(o.accuracy), _sec(o.time_ms),
                   str(int(o.support.size)))
        yield f"{row[0]:<8}{row[1]:<16}{row[2]:<24}{row[3]:<10}"


def _arms(report: EvaluationReport) -> list:
    """(selector, mean accuracy, mean time in ms, folds) of each arm, the
    baseline's first when the report compares; the report's own is last."""
    arms = [(report.selector, report.mean_accuracy, report.mean_time_ms,
             report.folds)]
    comp = report.comparison
    if comp is not None:
        arms.insert(0, (comp.baseline_selector, comp.baseline_mean_accuracy,
                        comp.baseline_mean_time_ms, comp.baseline_folds))
    return arms


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
    arms = _arms(report)
    for selector, mean_acc, mean_time_ms, _ in arms:
        lines.append(f"{selector:<24}{_pct(mean_acc):<16}"
                     f"{_sec(mean_time_ms):<24}")
    comp = report.comparison
    if comp is not None:
        delta_pct = f"{100.0 * comp.mean_accuracy_delta:+.2f}%"
        delta_sec = f"{comp.mean_time_delta_ms / 1000.0:+.3f}s"
        lines.append(f"{'delta':<24}{delta_pct:<16}{delta_sec:<24}")
    lines.append("")
    lines.append(f"Fold accuracy sigma (population): {_pct(report.accuracy_sigma)}")
    lines.append(f"Mean selected features: {report.mean_support_size:.1f} "
                 f"of {max((o.n_candidate_features for o in report.folds), default=0)}")
    lines.append("")

    lines.append(f"{'Fold':<8}{'Accuracy (%)':<16}"
                 f"{'Processing time (sec)':<24}{'Selected':<10}")
    lines.extend(_fold_rows(report.folds))
    for selector, _, _, folds in arms[:-1]:
        if folds:
            lines += ["", f"Baseline folds ({selector}):", *_fold_rows(folds)]
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
    arms = _arms(report)
    for i, (selector, mean_acc, mean_time_ms, folds) in enumerate(arms, 1):
        # only the report's own arm carries a mean support size
        support = f"{report.mean_support_size:.1f}" if i == len(arms) else ""
        lines.extend(_csv_fold_lines(report.group, selector, folds))
        lines.append(f"{report.group},{selector},mean,{mean_acc:.4f},"
                     f"{mean_time_ms:.3f},{support},")
    lines.append(f"{report.group},{report.selector},sigma,"
                 f"{report.accuracy_sigma:.4f},,,")
    return "\n".join(lines) + "\n"


def _plot_data(report: EvaluationReport) -> str:
    lines = ["group,variant,metric,value"]
    for selector, mean_acc, mean_time_ms, _ in _arms(report):
        lines.append(f"{report.group},{selector},accuracy_percent,"
                     f"{100.0 * mean_acc:.2f}")
        lines.append(f"{report.group},{selector},time_ms,"
                     f"{int(round(mean_time_ms))}")
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
    """Rebuild a report dataclass from its JSON dict. A field that cannot
    be rebuilt (missing, of a wrong type, a numeric field that is not an
    int or a float) is a DataFormatError naming the field."""
    kwargs = {}
    for f in fields(cls):
        if f.name not in d:
            raise DataFormatError(f"report JSON field {f.name!r} is missing")
        load = _LOADERS.get(f.name) or _SCALAR_LOADERS.get(f.type,
                                                           lambda v: v)
        try:
            kwargs[f.name] = load(d[f.name])
        except (TypeError, ValueError) as exc:
            raise DataFormatError(
                f"report JSON field {f.name!r}: {exc}") from None
    return cls(**kwargs)


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


_INF = float("inf")


def _float(value) -> str:
    """A float as json writes it: its repr, or NaN and +-Infinity."""
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _json(value, pad: str) -> str:
    """``value`` laid out as ``json.dumps(value, indent=2)`` lays it out
    nested behind ``pad``. It takes the types ``_to_dict`` makes (dicts
    with str keys, lists and tuples, str, int, float, bool and None),
    checked in json's order, and raises TypeError for any other."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        sep = ",\n" + inner
        if set(map(type, value)) == {int}:
            body = sep.join(map(int.__repr__, value))
        else:
            body = sep.join([_json(v, inner) for v in value])
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        body = (",\n" + inner).join([f"{_quote(k)}: {_json(v, inner)}"
                                     for k, v in value.items()])
        return f"{{\n{inner}{body}\n{pad}}}"
    raise TypeError(f"Object of type {type(value).__name__} "
                    "is not JSON serializable")


def report_to_json(report: EvaluationReport) -> str:
    """The report as ``json.dumps(_to_dict(report), indent=2)`` plus a
    newline, byte for byte, without json's pure-Python indented encoder."""
    return _json(_to_dict(report), "") + "\n"


def report_from_json(text: str) -> EvaluationReport:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"report is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataFormatError("report JSON must be an object at top level")
    return _from_dict(EvaluationReport, payload)


def load_report_json(path) -> EvaluationReport:
    return report_from_json(read_ascii(path))


# Format -> (file name, renderer), in the order the CLI writes them.
_FORMATS = {
    "text-table": ("report.txt", _text_table),
    "comma-separated": ("report.csv", _comma_separated),
    "plot-data": ("plot_data.csv", _plot_data),
    "json": ("report.json", report_to_json),
}
REPORT_FORMATS = tuple(_FORMATS)


def emit_report(report: EvaluationReport, fmt: str, out_dir) -> Path:
    """Render one format into out_dir; returns the file written."""
    if fmt not in _FORMATS:
        raise ConfigError(
            f"unknown report format {fmt!r}; choose from {REPORT_FORMATS}")
    filename, render = _FORMATS[fmt]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / filename
    target.write_text(render(report))
    return target
