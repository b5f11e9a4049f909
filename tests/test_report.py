import json
from dataclasses import fields

import numpy as np
import pytest

from enetpipe.errors import ConfigError, DataFormatError
from enetpipe.pipeline import ComparisonBlock, EvaluationReport, FoldOutcome
from enetpipe.report import (REPORT_FORMATS, emit_report, load_report_json,
                             report_from_json, report_to_json,
                             save_report_json)


def _fold(i, acc, t, support=(0, 3, 5)):
    return FoldOutcome(fold_index=i, test_indices=np.array([2 * i, 2 * i + 1]),
                       accuracy=acc, time_ms=t, support=np.array(support),
                       n_candidate_features=9, lambda1=0.05, lambda2=0.025)


@pytest.fixture
def comparison_report():
    folds = [_fold(0, 0.90, 300.0), _fold(1, 0.8210, 346.0)]
    base = [_fold(0, 0.85, 250.0), _fold(1, 0.80, 280.0)]
    comp = ComparisonBlock(
        baseline_selector="lasso", proposed_selector="elastic_net_cd",
        baseline_mean_accuracy=0.825, proposed_mean_accuracy=0.8605,
        baseline_mean_time_ms=265.0, proposed_mean_time_ms=323.0,
        fold_accuracy_deltas=[0.05, 0.0210], fold_time_deltas_ms=[50.0, 66.0],
        mean_accuracy_delta=0.0355, mean_time_delta_ms=58.0,
        baseline_folds=base)
    return EvaluationReport(group="demo", selector="elastic_net_cd",
                            k_folds=2, seed=5, folds=folds,
                            mean_accuracy=0.8605, accuracy_sigma=0.0395,
                            mean_time_ms=323.0, mean_support_size=3.0,
                            warnings=("fold 1 note",), fold_hash="abc123",
                            comparison=comp)


@pytest.fixture
def plain_report():
    folds = [_fold(0, 0.75, 100.0, support=(1,)),
             FoldOutcome(fold_index=1, test_indices=np.array([2, 3]),
                         accuracy=None, time_ms=None, support=None,
                         n_candidate_features=4, lambda1=None, lambda2=None,
                         failure="solver blew up")]
    return EvaluationReport(group="g", selector="lasso", k_folds=2, seed=1,
                            folds=folds, mean_accuracy=0.75,
                            accuracy_sigma=0.0, mean_time_ms=100.0,
                            mean_support_size=1.0, warnings=(),
                            fold_hash="h", comparison=None)


class TestTextTable:
    def test_percent_and_second_cells(self, comparison_report, tmp_path):
        text = emit_report(comparison_report, "text-table",
                           tmp_path).read_text()
        assert "Variant" in text
        assert "Accuracy (%)" in text
        assert "Processing time (sec)" in text
        assert "86.05%" in text
        assert "0.323s" in text
        assert "82.50%" in text
        assert "0.265s" in text

    def test_delta_row_shows_signed_gains(self, comparison_report, tmp_path):
        text = emit_report(comparison_report, "text-table",
                           tmp_path).read_text()
        assert "+3.55%" in text
        assert "+0.058s" in text

    def test_per_fold_rows_and_baseline_section(self, comparison_report,
                                                tmp_path):
        text = emit_report(comparison_report, "text-table",
                           tmp_path).read_text()
        assert "90.00%" in text
        assert "0.346s" in text
        assert "Baseline folds (lasso):" in text
        assert "Mean selected features: 3.0 of 9" in text
        assert "fold 1 note" in text

    def test_millisecond_footnote(self, comparison_report, tmp_path):
        text = emit_report(comparison_report, "text-table",
                           tmp_path).read_text()
        assert text.rstrip().endswith(
            "median per-sample classification latency, "
            "millisecond resolution.")

    def test_without_comparison_no_delta_row(self, plain_report, tmp_path):
        text = emit_report(plain_report, "text-table", tmp_path).read_text()
        assert "delta" not in text
        assert "Baseline folds" not in text
        assert "failed" in text
        assert "solver blew up" in text


class TestCommaSeparated:
    def test_exact_rows(self, comparison_report, tmp_path):
        lines = emit_report(comparison_report, "comma-separated",
                            tmp_path).read_text().splitlines()
        assert lines[0] == "group,selector,fold,accuracy,time_ms,support_size,note"
        assert "demo,lasso,0,0.8500,250.000,3," in lines
        assert "demo,elastic_net_cd,1,0.8210,346.000,3," in lines
        assert "demo,elastic_net_cd,mean,0.8605,323.000,3.0," in lines
        assert "demo,elastic_net_cd,sigma,0.0395,,," in lines

    def test_failed_fold_leaves_cells_empty(self, plain_report, tmp_path):
        content = emit_report(plain_report, "comma-separated",
                              tmp_path).read_text()
        assert "g,lasso,1,,,,solver blew up" in content


class TestPlotData:
    def test_byte_exact_content(self, comparison_report, tmp_path):
        content = emit_report(comparison_report, "plot-data",
                              tmp_path).read_text()
        assert content == (
            "group,variant,metric,value\n"
            "demo,lasso,accuracy_percent,82.50\n"
            "demo,lasso,time_ms,265\n"
            "demo,elastic_net_cd,accuracy_percent,86.05\n"
            "demo,elastic_net_cd,time_ms,323\n"
            "# time_ms values are milliseconds\n")

    def test_single_variant(self, plain_report, tmp_path):
        content = emit_report(plain_report, "plot-data",
                              tmp_path).read_text()
        assert "g,lasso,accuracy_percent,75.00\n" in content
        assert "g,lasso,time_ms,100\n" in content
        assert "elastic" not in content


class TestJsonRoundTrip:
    def test_fields_survive(self, comparison_report):
        back = report_from_json(report_to_json(comparison_report))
        assert back.group == "demo"
        assert back.selector == "elastic_net_cd"
        assert back.mean_accuracy == 0.8605
        assert back.fold_hash == "abc123"
        assert back.warnings == ("fold 1 note",)
        np.testing.assert_array_equal(back.folds[0].support,
                                      comparison_report.folds[0].support)
        np.testing.assert_array_equal(back.folds[1].test_indices,
                                      np.array([2, 3]))
        comp = back.comparison
        assert comp.baseline_selector == "lasso"
        assert comp.mean_accuracy_delta == 0.0355
        assert comp.baseline_folds[1].accuracy == 0.80

    def test_fold_outcome_holds_no_fitted_models(self, comparison_report):
        # a fold keeps only what its JSON holds; the fitted models go
        # with the fold's working set
        names = [f.name for f in fields(FoldOutcome)]
        assert not {"standardization", "post_pca_standardization", "pca",
                    "elm"} & set(names)
        text = report_to_json(comparison_report)
        assert list(json.loads(text)["folds"][0]) == names

    def test_failure_text_round_trips(self, plain_report):
        back = report_from_json(report_to_json(plain_report))
        assert back.folds[1].failure == "solver blew up"
        assert back.folds[1].accuracy is None

    def test_save_and_load_file(self, plain_report, tmp_path):
        path = tmp_path / "r.json"
        save_report_json(path, plain_report)
        back = load_report_json(path)
        assert back.mean_accuracy == 0.75

    @pytest.mark.parametrize("text", [
        "not json at all {",
        '{"group": "g"}',
        "[1, 2, 3]",
    ])
    def test_malformed_json_is_rejected(self, text):
        with pytest.raises(DataFormatError):
            report_from_json(text)

    @pytest.mark.parametrize("edit,field", [
        (lambda d: d.update(folds=[{}]), "fold_index"),
        (lambda d: d.update(folds=5), "folds"),
        (lambda d: d.update(folds=[1]), "folds"),
        (lambda d: d["folds"][0].update(support="x"), "support"),
        (lambda d: d["folds"][0].update(test_indices=[[1, 2], [3]]),
         "test_indices"),
        (lambda d: d.update(warnings=5), "warnings"),
        (lambda d: d.update(comparison=3), "comparison"),
        (lambda d: d.update(comparison={"baseline_selector": "x"}),
         "proposed_selector"),
        (lambda d: d["comparison"]["baseline_folds"][0].pop("lambda1"),
         "lambda1"),
        (lambda d: d["folds"][0].update(accuracy="x"), "accuracy"),
        (lambda d: d["folds"][0].update(time_ms=[1.0]), "time_ms"),
        (lambda d: d["folds"][0].update(n_candidate_features=None),
         "n_candidate_features"),
        (lambda d: d["comparison"]["baseline_folds"][0].update(lambda2="0"),
         "lambda2"),
        (lambda d: d["comparison"].update(baseline_mean_accuracy="x"),
         "baseline_mean_accuracy"),
        (lambda d: d["comparison"].update(mean_time_delta_ms=False),
         "mean_time_delta_ms"),
        (lambda d: d.update(mean_accuracy="x"), "mean_accuracy"),
        (lambda d: d.update(k_folds=True), "k_folds"),
    ])
    def test_bad_field_is_a_format_error_naming_it(self, comparison_report,
                                                   edit, field):
        payload = json.loads(report_to_json(comparison_report))
        edit(payload)
        with pytest.raises(DataFormatError, match=field):
            report_from_json(json.dumps(payload))

    def test_numeric_fields_take_ints_floats_and_declared_nulls(
            self, comparison_report):
        payload = json.loads(report_to_json(comparison_report))
        payload["folds"][0].update(accuracy=1, time_ms=None, lambda1=None)
        payload["comparison"].update(baseline_mean_accuracy=0)
        back = report_from_json(json.dumps(payload))
        assert back.folds[0].accuracy == 1 and back.folds[0].time_ms is None
        assert back.comparison.baseline_mean_accuracy == 0
        payload["comparison"].update(baseline_mean_accuracy=None)
        with pytest.raises(DataFormatError, match="baseline_mean_accuracy"):
            report_from_json(json.dumps(payload))

    def test_non_ascii_file_is_a_format_error(self, plain_report, tmp_path):
        path = tmp_path / "r.json"
        path.write_bytes(report_to_json(plain_report)
                         .replace('"g"', '"caf\xe9"').encode("latin-1"))
        with pytest.raises(DataFormatError):
            load_report_json(path)


class TestEmitReport:
    def test_every_format_is_writable(self, plain_report, tmp_path):
        names = {emit_report(plain_report, fmt, tmp_path).name
                 for fmt in REPORT_FORMATS}
        assert names == {"report.txt", "report.csv", "plot_data.csv",
                         "report.json"}

    def test_creates_nested_output_directory(self, plain_report, tmp_path):
        target = tmp_path / "a" / "b"
        path = emit_report(plain_report, "json", target)
        assert path.parent == target
        assert path.exists()

    def test_unknown_format(self, plain_report, tmp_path):
        with pytest.raises(ConfigError):
            emit_report(plain_report, "xml", tmp_path)

    def test_unwritable_destination(self, plain_report, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("a plain file, not a directory\n")
        with pytest.raises(OSError):
            emit_report(plain_report, "text-table", blocker)
