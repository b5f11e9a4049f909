import functools
import hashlib
import json
import re
import threading
from pathlib import Path

import numpy as np
import pytest

import enetpipe.cli
import enetpipe.cnn
import enetpipe.pipeline
from enetpipe.cli import load_config_file, main
from enetpipe.cnn import CnnConfig, cnn_init, save_cnn
from enetpipe.data import Volume3D, load_feature_csv, save_feature_csv
from enetpipe.errors import ConfigError
from enetpipe.pipeline import PipelineConfig
from enetpipe.report import emit_report
from enetpipe.rng import PortableRng
from enetpipe.textio import read_blocks

from helpers import (MALFORMED_NETWORK_EDITS, benchmark_masked,
                     helper_share_ones, mask_timing, mask_timing_json,
                     save_malformed_network, tiny_lambda2_instance,
                     write_volume_raw3d)

REPORT_FILES = ("report.txt", "report.csv", "plot_data.csv", "report.json")


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _generate(workdir, extra=()):
    rc = main(["generate", "--n-samples", "120", "--groups", "2",
               "--group-size", "3", "--n-noise", "6", "--seed", "3",
               *extra])
    assert rc == 0
    return workdir / "features.csv"


class TestGenerate:
    def test_writes_dataset_and_support(self, workdir):
        _generate(workdir)
        assert (workdir / "features.csv").exists()
        assert (workdir / "ground_truth_support.txt").exists()
        X, labels = load_feature_csv(workdir / "features.csv",
                                     label_column=-1)
        assert X.shape == (120, 12)
        assert set(np.unique(labels)) == {-1.0, 1.0}

    def test_seed_changes_content(self, workdir):
        _generate(workdir)
        first = (workdir / "features.csv").read_bytes()
        rc = main(["generate", "--n-samples", "120", "--groups", "2",
                   "--group-size", "3", "--n-noise", "6", "--seed", "4"])
        assert rc == 0
        assert (workdir / "features.csv").read_bytes() != first


class TestSelect:
    def test_writes_coefficients_and_support(self, workdir):
        features = _generate(workdir)
        rc = main(["select", "--features", str(features),
                   "--lambda1", "0.05", "--no-pca"])
        assert rc == 0
        assert (workdir / "coefficients.txt").exists()
        support_text = (workdir / "support.txt").read_text()
        assert "support" in support_text

    def test_unconverged_grid_fit_is_named_on_stderr(self, workdir, capsys,
                                                      monkeypatch):
        features = _generate(workdir)
        monkeypatch.setattr(
            enetpipe.pipeline, "PenaltyConfig",
            functools.partial(enetpipe.pipeline.PenaltyConfig, max_sweeps=2))
        capsys.readouterr()
        assert main(["select", "--features", str(features),
                     "--selector", "elastic_net_cd"]) == 0
        # every grid point but lambda_max, which fits zeros in one sweep,
        # then the fit at the chosen lambda1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 5
        for line in lines[:4]:
            assert re.fullmatch(r"lambda1 grid fit at \S+ did not converge "
                                r"in 2 sweeps", line), line
        assert lines[4] == "selector did not converge in 2 sweeps"

    def test_unconverged_fit_at_a_fixed_lambda1_is_named_on_stderr(
            self, workdir, capsys, monkeypatch):
        features = _generate(workdir)
        monkeypatch.setattr(
            enetpipe.pipeline, "PenaltyConfig",
            functools.partial(enetpipe.pipeline.PenaltyConfig, max_sweeps=2))
        capsys.readouterr()
        assert main(["select", "--features", str(features),
                     "--selector", "elastic_net_cd", "--lambda1", "0.01"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "selector did not converge in 2 sweeps\n"
        assert "objective" in captured.out

    def test_tiny_lambda2_svm_fit_on_the_plain_design_is_certified(
            self, workdir, capsys):
        # the margin cost overflows at lambda2 1e-320, yet the active-set
        # steps reach CD's optimum, objective 0.2317, before any budget solve
        save_feature_csv(workdir / "tiny.csv", *tiny_lambda2_instance(False))
        capsys.readouterr()
        assert main(["select", "--features", "tiny.csv", "--selector",
                     "elastic_net_svm", "--lambda1", "0.05",
                     "--lambda2", "1e-320"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("objective 0.231686, "), captured.out
        coefficients = read_blocks(workdir / "coefficients.txt")
        assert np.isfinite(coefficients["coefficients"]).all()

    @pytest.mark.parametrize("duplicate, lambda2", [
        (True, "1e-300"), (True, "1e-30")])
    def test_tiny_lambda2_svm_fit_is_finite_and_named_unconverged(
            self, workdir, capsys, duplicate, lambda2):
        save_feature_csv(workdir / "tiny.csv",
                         *tiny_lambda2_instance(duplicate))
        capsys.readouterr()
        assert main(["select", "--features", "tiny.csv", "--selector",
                     "elastic_net_svm", "--lambda1", "0.05",
                     "--lambda2", lambda2]) == 0
        captured = capsys.readouterr()
        assert re.fullmatch(
            r"selector did not converge in \d+ budget solves\n",
            captured.err), captured.err
        assert "nan" not in captured.out
        coefficients = read_blocks(workdir / "coefficients.txt")
        assert np.isfinite(coefficients["coefficients"]).all()

    def test_singular_svm_budget_bound_without_lambda1_exits_3(
            self, workdir, capsys):
        save_feature_csv(workdir / "tiny.csv", *tiny_lambda2_instance(True))
        capsys.readouterr()
        assert main(["select", "--features", "tiny.csv", "--selector",
                     "elastic_net_svm", "--lambda1", "0",
                     "--lambda2", "1e-300"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: the ridge system"), err
        assert not (workdir / "coefficients.txt").exists()


class TestSelectPins:
    """`select` outputs pinned byte for byte: fixed and searched lambda1."""

    SUPPORT_8 = ("7da32e307d3889f9a4ca358256714b51"
                 "90114a0454aa3a913647dd9997900e07")

    @pytest.mark.parametrize("selector, coefficients, support", [
        ("lasso", "61403c26b1d6442777d820d75e51b3c2"
                  "db1d0451bbcb78a48d77ae2ff48246cb", SUPPORT_8),
        ("elastic_net_svm", "d52d135e900338dda213787fc4c65fec"
                            "f637c2d8ca5b56fc70e51b3f04d5b7c0", SUPPORT_8),
    ])
    def test_fixed_lambda1(self, workdir, selector, coefficients, support):
        features = _generate(workdir)
        assert main(["select", "--features", str(features),
                     "--selector", selector, "--lambda1", "0.05"]) == 0
        assert _sha256(workdir / "coefficients.txt") == coefficients
        assert _sha256(workdir / "support.txt") == support

    @pytest.mark.parametrize("seed, lambda1, coefficients, support", [
        ("0", "0.01872", "44d2f15ca10a27f63961f6d3bff5491d"
                         "6e301eeff3c0676f06d2921caeac7432",
         "ae5fa2d1e3792b7f08a8c84e157baf6f415ee4f25acd3774a1bb012f3d1117d6"),
        ("5", "0.0195794", "f331c4adc399bc43bb6f92f6fa67c3da"
                           "e470a45338d08a6b1ddb17e4f63401af",
         "239fe8f4cf39fba5c11d8128d60def40aa325e6e5eb07eae806213b7256d0664"),
    ])
    def test_searched_lambda1(self, workdir, capsys, seed, lambda1,
                              coefficients, support):
        features = _generate(workdir)
        capsys.readouterr()
        assert main(["select", "--features", str(features),
                     "--selector", "elastic_net_cd", "--seed", seed]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == f"lambda1 = {lambda1} (validation grid)"
        assert _sha256(workdir / "coefficients.txt") == coefficients
        assert _sha256(workdir / "support.txt") == support

    def test_selector_none_is_one_before_any_fit(self, workdir, monkeypatch):
        features = _generate(workdir)
        fits = _record_fits(monkeypatch)
        assert main(["select", "--features", str(features),
                     "--selector", "none", "--lambda1", "0.05"]) == 1
        assert main(["select", "--features", str(features),
                     "--selector", "none"]) == 1
        assert main(["select", "--features", "no_such_file.csv",
                     "--selector", "none"]) == 1
        assert fits == []
        assert not (workdir / "coefficients.txt").exists()


def _record_fits(monkeypatch):
    """Replace the pipeline's fits with recorders; returns the calls."""
    fits = []
    for name in ("lasso_fit", "elastic_net_fit_cd",
                 "elastic_net_fit_svm_reduction", "pca_fit", "elm_train"):
        monkeypatch.setattr(enetpipe.pipeline, name,
                            lambda *a, _name=name, **k: fits.append(_name))
    return fits


# (config key, its flag tokens, its config-file value, another file value)
SETTINGS_CASES = [
    ("seed", ["--seed", "7"], "7", "42"),
    ("k_folds", ["--k-folds", "4"], "4", "5"),
    ("selector", ["--selector", "elastic_net_svm"], "elastic_net_svm",
     "lasso"),
    ("lambda1", ["--lambda1", "0.125"], "0.125", "0.05"),
    ("lambda2", ["--lambda2", "0.5"], "0.5", "0.25"),
    ("no_pca", ["--no-pca"], "true", "false"),
    ("pca_retain", ["--pca-retain", "7"], "7", "0.9"),
    ("elm_gamma", ["--elm-gamma", "0.25"], "0.25", "0.5"),
    ("elm_ridge", ["--elm-ridge", "20"], "20", "10"),
    ("holdout", ["--holdout", "0.3"], "0.3", "0.25"),
    ("header", ["--header"], "yes", "no"),
    ("out_dir", ["--out-dir", "flagged"], "flagged", "filed"),
]


class TestSettingsSources:
    """Each setting given as a flag or as a config-file line reaches the
    run the same way, and the flag wins over the file."""

    @pytest.mark.parametrize("key, flag, value, other", SETTINGS_CASES,
                             ids=[case[0] for case in SETTINGS_CASES])
    def test_flag_and_file_agree_and_flag_wins(
            self, workdir, monkeypatch, key, flag, value, other):
        features = _generate(workdir)
        report = enetpipe.pipeline.run_pipeline(
            PipelineConfig(selector="none", k_folds=3),
            *load_feature_csv(features, label_column=-1))
        seen = {}

        def load(path, **kwargs):
            seen["skip_header"] = kwargs["skip_header"]
            return load_feature_csv(path, **kwargs)

        def run(cfg, X, labels):
            seen["config"] = cfg
            return report

        def emit(report, fmt, out_dir):
            seen["out_dir"] = Path(out_dir).resolve()
            return emit_report(report, fmt, out_dir)

        monkeypatch.setattr(enetpipe.cli, "load_feature_csv", load)
        monkeypatch.setattr(enetpipe.cli, "run_pipeline", run)
        monkeypatch.setattr(enetpipe.cli, "emit_report", emit)

        def observe(*argv):
            seen.clear()
            assert main(["evaluate", "--features", str(features),
                         *argv]) == 0
            return dict(seen)

        same = workdir / "same.conf"
        same.write_text(f"{key} = {value}\n")
        differ = workdir / "differ.conf"
        differ.write_text(f"{key} = {other}\n")
        by_flag = observe(*flag)
        assert observe("--config", str(same)) == by_flag
        assert observe("--config", str(differ), *flag) == by_flag
        assert observe("--config", str(differ)) != by_flag
        assert observe() != by_flag


class TestEvaluate:
    def test_writes_every_report_format(self, workdir):
        features = _generate(workdir)
        rc = main(["evaluate", "--features", str(features),
                   "--k-folds", "4", "--seed", "1"])
        assert rc == 0
        for name in REPORT_FILES:
            assert (workdir / name).exists(), name
        payload = json.loads((workdir / "report.json").read_text())
        assert payload["selector"] == "elastic_net_cd"
        assert payload["k_folds"] == 4
        assert len(payload["folds"]) == 4

    def test_selector_flag_reaches_report(self, workdir):
        features = _generate(workdir)
        rc = main(["evaluate", "--features", str(features),
                   "--selector", "lasso", "--k-folds", "3"])
        assert rc == 0
        payload = json.loads((workdir / "report.json").read_text())
        assert payload["selector"] == "lasso"

    def test_holdout_mode(self, workdir):
        features = _generate(workdir)
        rc = main(["evaluate", "--features", str(features),
                   "--holdout", "0.25"])
        assert rc == 0
        payload = json.loads((workdir / "report.json").read_text())
        assert payload["k_folds"] == 1
        assert len(payload["folds"][0]["test_indices"]) == 30


class TestCompare:
    def test_comparison_report_written(self, workdir):
        features = _generate(workdir)
        rc = main(["compare", "--features", str(features),
                   "--k-folds", "3", "--seed", "2"])
        assert rc == 0
        payload = json.loads((workdir / "report.json").read_text())
        assert payload["comparison"]["baseline_selector"] == "lasso"
        text = (workdir / "report.txt").read_text()
        assert "lasso" in text
        assert "elastic_net_cd" in text
        assert "delta" in text


class TestRepeatedMain:
    """main builds its parser once per process; no call may see what an
    earlier one parsed."""

    @staticmethod
    def _exit(capsys, argv):
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        return excinfo.value.code, capsys.readouterr()

    def test_usage_error_after_a_compare_matches_a_first_call(
            self, workdir, capsys):
        enetpipe.cli._main_parser.cache_clear()     # main's first call
        first = self._exit(capsys, ["compare", "--bogus-flag"])
        features = _generate(workdir)
        assert main(["compare", "--features", str(features),
                     "--k-folds", "3", "--seed", "2"]) == 0
        again = self._exit(capsys, ["compare", "--bogus-flag"])
        assert first[0] == 1
        assert first[1].err.startswith("usage: enetpipe compare")
        assert again == first

    def test_help_text_is_the_same_before_and_after_other_commands(
            self, workdir, capsys):
        enetpipe.cli._main_parser.cache_clear()
        before = self._exit(capsys, ["compare", "--help"])
        features = _generate(workdir)
        assert main(["compare", "--features", str(features), "--lambda1",
                     "0.05", "--k-folds", "3", "--baseline",
                     "elastic_net_svm"]) == 0
        self._exit(capsys, ["select", "--nope"])
        after = self._exit(capsys, ["compare", "--help"])
        assert before[0] == 0 and "--baseline" in before[1].out
        assert after == before

    def test_a_flag_does_not_leak_into_the_next_call(self, workdir):
        features = _generate(workdir)
        base = ["compare", "--features", str(features), "--k-folds", "3",
                "--seed", "2"]
        enetpipe.cli._main_parser.cache_clear()
        assert main([*base, "--out-dir", "alone"]) == 0
        assert main([*base, "--lambda1", "0.05", "--out-dir", "fixed"]) == 0
        assert main([*base, "--out-dir", "after"]) == 0
        fixed = json.loads((workdir / "fixed/report.json").read_text())
        assert {f["lambda1"] for f in fixed["folds"]} == {0.05}
        for name in REPORT_FILES:
            mask = mask_timing_json if name.endswith(".json") else mask_timing
            assert mask((workdir / "after" / name).read_text()) == mask(
                (workdir / "alone" / name).read_text()), name


class TestReport:
    def test_reemits_from_json(self, workdir):
        features = _generate(workdir)
        assert main(["evaluate", "--features", str(features),
                     "--k-folds", "3"]) == 0
        nested = workdir / "again"
        rc = main(["report", str(workdir / "report.json"),
                   "--format", "text-table", "--out-dir", str(nested)])
        assert rc == 0
        assert (nested / "report.txt").read_text() == \
            (workdir / "report.txt").read_text()

    def test_json_format_rewrites_the_same_bytes(self, workdir):
        features = _generate(workdir)
        assert main(["evaluate", "--features", str(features),
                     "--k-folds", "3"]) == 0
        source = workdir / "r.json"
        (workdir / "report.json").rename(source)
        assert main(["report", str(source), "--format", "json"]) == 0
        assert (workdir / "report.json").read_bytes() == source.read_bytes()

    def test_all_formats_by_default(self, workdir):
        features = _generate(workdir)
        assert main(["evaluate", "--features", str(features),
                     "--k-folds", "3"]) == 0
        nested = workdir / "all"
        rc = main(["report", str(workdir / "report.json"),
                   "--out-dir", str(nested)])
        assert rc == 0
        for name in REPORT_FILES:
            assert (nested / name).exists(), name


class TestConfigFile:
    def test_file_values_apply(self, workdir):
        features = _generate(workdir)
        cfg = workdir / "run.conf"
        cfg.write_text("# comment line\nseed = 42\nk-folds = 5\n")
        rc = main(["evaluate", "--config", str(cfg),
                   "--features", str(features)])
        assert rc == 0
        payload = json.loads((workdir / "report.json").read_text())
        assert payload["seed"] == 42
        assert payload["k_folds"] == 5

    def test_flag_overrides_file(self, workdir):
        features = _generate(workdir)
        cfg = workdir / "run.conf"
        cfg.write_text("seed = 42\nk_folds = 5\n")
        rc = main(["evaluate", "--config", str(cfg), "--seed", "7",
                   "--features", str(features)])
        assert rc == 0
        payload = json.loads((workdir / "report.json").read_text())
        assert payload["seed"] == 7
        assert payload["k_folds"] == 5

    def test_unknown_key_rejected(self, workdir, tmp_path):
        cfg = workdir / "bad.conf"
        cfg.write_text("sede = 42\n")
        with pytest.raises(ConfigError):
            load_config_file(cfg)
        rc = main(["generate", "--config", str(cfg)])
        assert rc == 1

    def test_hyphen_and_underscore_keys_agree(self, workdir):
        a = workdir / "a.conf"
        a.write_text("k-folds = 6\n")
        b = workdir / "b.conf"
        b.write_text("k_folds = 6\n")
        assert load_config_file(a) == load_config_file(b)


class TestHeaderFlag:
    def test_header_csv_needs_flag(self, workdir):
        rng = PortableRng(5)
        X = rng.normal_matrix(30, 3)
        labels = (rng.normals(30) > 0).astype(float)
        path = workdir / "h.csv"
        body = "\n".join(
            ",".join(f"{v:.10g}" for v in row) + f",{int(y)}"
            for row, y in zip(X, labels))
        path.write_text("f0,f1,f2,label\n" + body + "\n")
        assert main(["evaluate", "--features", str(path),
                     "--k-folds", "3", "--selector", "none"]) == 2
        assert main(["evaluate", "--header", "--features", str(path),
                     "--k-folds", "3", "--selector", "none"]) == 0


class TestExitCodes:
    def test_usage_error_is_one(self, workdir):
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", "--bogus-flag"])
        assert excinfo.value.code == 1

    def test_unknown_selector_is_one(self, workdir):
        # the flag is caught by argparse choices, so smuggle the bad value
        # in through a config file to reach the ConfigError path
        features = _generate(workdir)
        cfg = workdir / "bad.conf"
        cfg.write_text("selector = ridge\n")
        rc = main(["evaluate", "--config", str(cfg),
                   "--features", str(features)])
        assert rc == 1
        # select shares the pipeline's selector dispatch, so it rejects
        # the value too instead of fitting some default selector
        rc = main(["select", "--config", str(cfg), "--features",
                   str(features), "--lambda1", "0.05"])
        assert rc == 1

    @pytest.mark.parametrize("command", ["select", "evaluate", "compare"])
    def test_lasso_with_ridge_weight_is_one_before_any_fit(
            self, workdir, monkeypatch, command):
        features = _generate(workdir)
        fits = []
        monkeypatch.setattr(enetpipe.pipeline, "lasso_fit",
                            lambda *a: fits.append(a))
        rc = main([command, "--features", str(features), "--selector",
                   "lasso", "--lambda2", "0.3", "--k-folds", "3"])
        assert rc == 1
        assert fits == []

    @pytest.mark.parametrize("setting", [
        ("--pca-retain", "1.5"), ("--pca-retain", "0"), ("--elm-ridge", "0"),
        ("--elm-ridge", "nan"), ("--elm-gamma", "-1"),
        ("--elm-gamma", "nan"), ("--elm-gamma", "inf"),
        ("--lambda1", "nan"), ("--lambda1", "inf"), ("--lambda2", "nan"),
        ("--selector", "elastic_net_svm", "--lambda2", "0"),
        ("--selector", "elastic_net_svm", "--lambda1", "0"),
    ], ids="=".join)
    @pytest.mark.parametrize("command", ["select", "evaluate", "compare"])
    def test_out_of_range_setting_is_one_before_any_fit(
            self, workdir, monkeypatch, capsys, command, setting):
        features = _generate(workdir)
        fits = _record_fits(monkeypatch)
        capsys.readouterr()
        rc = main([command, "--features", str(features), "--k-folds", "3",
                   "--lambda1", "0.05", *setting])
        assert rc == 1
        assert fits == []
        assert capsys.readouterr().err.startswith("error: ")
        assert not (workdir / "report.json").exists()

    @pytest.mark.parametrize("command", ["select", "evaluate", "compare"])
    def test_non_binary_labels_with_a_selector_is_one_before_any_fit(
            self, workdir, monkeypatch, capsys, command):
        X = PortableRng(3).normal_matrix(30, 4)
        save_feature_csv(workdir / "three.csv", X,
                         labels=np.repeat([0.0, 1.0, 2.0], 10))
        fits = _record_fits(monkeypatch)
        capsys.readouterr()
        rc = main([command, "--features", str(workdir / "three.csv"),
                   "--k-folds", "3"])
        assert rc == 1
        assert fits == []
        assert capsys.readouterr().err.startswith(
            "error: sparse selection needs exactly 2 classes, got 3")
        assert not (workdir / "report.json").exists()
        assert not (workdir / "coefficients.txt").exists()

    def test_bad_boolean_in_config_names_file_and_line(self, workdir, capsys):
        cfg = workdir / "bad.conf"
        cfg.write_text("seed = 4\nno_pca = maybe\n")
        with pytest.raises(ConfigError,
                           match=re.escape(f"{cfg}:2: expected a boolean")):
            load_config_file(cfg)
        capsys.readouterr()
        assert main(["generate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:2: expected a boolean, got 'maybe'\n")

    def test_non_ascii_config_is_one(self, workdir):
        features = _generate(workdir)
        cfg = workdir / "bad.conf"
        cfg.write_bytes("seed = 4 # caf\xe9\n".encode("latin-1"))
        with pytest.raises(ConfigError):
            load_config_file(cfg)
        assert main(["evaluate", "--config", str(cfg),
                     "--features", str(features)]) == 1

    def test_non_ascii_features_is_two(self, workdir):
        path = workdir / "bad.csv"
        path.write_bytes("1,2,1\n3,\xe9,-1\n".encode("latin-1"))
        assert main(["evaluate", "--features", str(path)]) == 2

    @pytest.mark.parametrize("corrupt", [
        lambda text: text.replace('"folds": [', '"folds": [{}, ', 1),
        lambda text: text.replace('"support": [', '"support": "x", "_": [', 1),
        lambda text: text.replace('"accuracy": ', '"accuracy": "x", "_": ', 1),
        lambda text: text.replace('"group": "', '"group": "\xe9', 1),
    ], ids=["empty-fold", "wrong-typed-fold-field", "wrong-typed-fold-scalar",
            "non-ascii"])
    def test_bad_report_json_is_two(self, workdir, capsys, corrupt):
        features = _generate(workdir)
        assert main(["evaluate", "--features", str(features),
                     "--k-folds", "3"]) == 0
        text = (workdir / "report.json").read_text()
        bad = workdir / "bad.json"
        bad.write_bytes(corrupt(text).encode("latin-1"))
        capsys.readouterr()
        assert main(["report", str(bad), "--out-dir",
                     str(workdir / "out")]) == 2
        assert "data error" in capsys.readouterr().err

    def test_missing_input_is_two(self, workdir):
        rc = main(["evaluate", "--features", "no_such_file.csv"])
        assert rc == 2

    def test_numerical_collapse_is_three(self, workdir):
        # repeated rows with a vanishing ridge term: each fold's ELM
        # system is singular
        features = workdir / "repeated.csv"
        save_feature_csv(features,
                         np.repeat(PortableRng(4).normal_matrix(5, 3), 4,
                                   axis=0),
                         labels=np.tile([0.0, 1.0], 10))
        rc = main(["evaluate", "--features", str(features),
                   "--lambda1", "0.1", "--elm-ridge", "1e16",
                   "--k-folds", "4"])
        assert rc == 3


def _volumes(workdir, n=2, side=40):
    rng = PortableRng(11)
    paths = []
    for i in range(n):
        vol = Volume3D(rng.normal_matrix(side * side, side)
                       .reshape(side, side, side))
        path = workdir / f"vol{i}.raw3d"
        write_volume_raw3d(path, vol)
        paths.append(path)
    return paths


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSeededOutputPins:
    """Seeded CLI outputs, pinned byte for byte: the benchmark's two
    `generate` argument sets at two seeds each, its two `compare` commands
    on the seed-5 sets (the report with its timings masked), and a small
    `train-cnn` and `extract`. Any change to the generator, its normal
    draws or their order moves them; the compare pins also guard the
    folds, the selectors, PCA and the kernel ELM, and the extract pin the
    convolutions, the pool and the feature CSV's bytes."""

    NARROW = ("--n-samples", "200", "--groups", "3", "--group-size", "3",
              "--correlation", "0.8", "--noise-std", "0.3", "--n-noise", "20")
    WIDE = ("--n-samples", "200", "--groups", "10", "--group-size", "5",
            "--correlation", "0.8", "--noise-std", "0.3", "--n-noise", "1050")
    NARROW_SUPPORT = ("b77f35ff2e2e71a907f806229241e0c5"
                      "823e48c65cf573a7f573b02cfbff6800")
    WIDE_SUPPORT = ("512e20d514cb68e32019d771fea63b55"
                    "f5cdec717948da48bc20daf52f9dc47a")

    @pytest.mark.parametrize("args, seed, features, support", [
        (NARROW, 5, "b0ac94099e4e43fcec35ba3b6b5a0433"
                    "a67579310984f53e1f4a6acfb95218e3", NARROW_SUPPORT),
        (NARROW, 321, "dd1b87e2f47629c05c9f09e3b592f0a0"
                      "b9073e3c4e9f802049c112e074c4542d", NARROW_SUPPORT),
        (WIDE, 5, "da46f9221e8cea639e90b37add523cba"
                  "b6b0158a155a86772b8a77ccf00141b7", WIDE_SUPPORT),
        (WIDE, 321, "b4cdbd66dfea86cb63aac8ba04d029fe"
                    "ff0834298ce7e775e3b2c12f4d4ad87c", WIDE_SUPPORT),
    ], ids=["narrow-5", "narrow-321", "wide-5", "wide-321"])
    def test_generate(self, workdir, args, seed, features, support):
        assert main(["generate", *args, "--seed", str(seed)]) == 0
        assert _sha256(workdir / "features.csv") == features
        assert _sha256(workdir / "ground_truth_support.txt") == support

    @pytest.mark.parametrize("args, compare_args, report", [
        (NARROW, ("--selector", "elastic_net_svm", "--baseline", "lasso",
                  "--lambda1", "0.05", "--k-folds", "10"),
         "b80578e1f453ee66a977a2ecc41b1e8eeedff1c3bee517fa5c1dcc6cff77c500"),
        (WIDE, ("--no-pca", "--selector", "elastic_net_cd", "--baseline",
                "none", "--holdout", "0.5", "--lambda2", "2.0"),
         "94c2cd011b8a113339679662f0bf05c651123da272907c7f24bb4c9baf7328ed"),
    ], ids=["narrow-compare-5", "wide-enet-5"])
    def test_compare(self, workdir, args, compare_args, report):
        """The benchmark's compare commands on their generated inputs."""
        assert main(["generate", *args, "--seed", "5"]) == 0
        assert main(["compare", "--features", "features.csv", *compare_args,
                     "--seed", "5"]) == 0
        payload = json.loads((workdir / "report.json").read_text())
        masked = json.dumps(benchmark_masked(payload), sort_keys=True)
        assert hashlib.sha256(masked.encode()).hexdigest() == report

    @staticmethod
    def _train_cnn(workdir):
        paths = _volumes(workdir)
        manifest = workdir / "manifest.csv"
        manifest.write_text("".join(f"{p},{i}\n"
                                    for i, p in enumerate(paths)))
        assert main(["train-cnn", "--manifest", str(manifest),
                     "--centers", "3", "--epochs", "1", "--lr", "0.001",
                     "--batch-size", "2", "--seed", "1"]) == 0
        return paths

    def test_train_cnn(self, workdir):
        self._train_cnn(workdir)
        assert _sha256(workdir / "cnn.txt") == (
            "63464067e9da560333232848df57d55357279f382696aa55f434bb3e6f9012fd")

    def test_extract(self, workdir):
        paths = self._train_cnn(workdir)
        assert main(["extract", *map(str, paths),
                     "--net", str(workdir / "cnn.txt"), "--centers", "3"]) == 0
        assert _sha256(workdir / "features.csv") == (
            "506e71ebb4ab76688367159156acc3387bd56171dc95165ebf76278aea86ab51")


class TestImageCommands:
    def test_train_then_extract(self, workdir):
        paths = _volumes(workdir)
        manifest = workdir / "manifest.csv"
        manifest.write_text("".join(f"{p},{i}\n"
                                    for i, p in enumerate(paths)))
        rc = main(["train-cnn", "--manifest", str(manifest),
                   "--centers", "3", "--epochs", "1", "--lr", "0.001",
                   "--batch-size", "2", "--seed", "1"])
        assert rc == 0
        net_path = workdir / "cnn.txt"
        assert net_path.exists()

        rc = main(["extract", *map(str, paths), "--net", str(net_path),
                   "--centers", "3"])
        assert rc == 0
        X, labels = load_feature_csv(workdir / "features.csv")
        assert labels is None
        assert X.shape == (2, 3 * 1024)

    @pytest.mark.parametrize("line", ["{path},caf\xe9", "{path},one",
                                      "{path},0\n{path},nan",
                                      "{path},0\n{path},inf"])
    def test_bad_manifest_is_two(self, workdir, line):
        paths = _volumes(workdir, n=1, side=8)
        manifest = workdir / "manifest.csv"
        manifest.write_bytes(line.format(path=paths[0]).encode("latin-1"))
        assert main(["train-cnn", "--manifest", str(manifest)]) == 2

    def test_malformed_last_manifest_line_is_two_before_any_volume(
            self, workdir, monkeypatch):
        paths = _volumes(workdir, n=2, side=8)
        manifest = workdir / "manifest.csv"
        manifest.write_text(f"{paths[0]},0\n{paths[1]},1\n{paths[1]}\n")
        loaded = []
        monkeypatch.setattr(enetpipe.cli, "load_volume_raw3d", loaded.append)
        assert main(["train-cnn", "--manifest", str(manifest),
                     "--centers", "3"]) == 2
        assert loaded == []
        assert not (workdir / "cnn.txt").exists()

    def test_one_class_manifest_is_one_before_any_volume(
            self, workdir, monkeypatch, capsys):
        # the class count is known from the manifest, so it is checked
        # before any volume is read; like signed_targets, it is exit 1
        paths = _volumes(workdir, n=2, side=8)
        manifest = workdir / "manifest.csv"
        manifest.write_text(f"{paths[0]},0\n{paths[1]},0\n")
        loaded = []
        monkeypatch.setattr(enetpipe.cli, "load_volume_raw3d", loaded.append)
        assert main(["train-cnn", "--manifest", str(manifest),
                     "--centers", "3"]) == 1
        assert "need at least 2 classes, got 1" in capsys.readouterr().err
        assert loaded == []
        assert not (workdir / "cnn.txt").exists()

    @pytest.mark.parametrize("content", ["1\n\xe9\n", "1\none\n", "1\n",
                                         "1\nnan\n", "1\ninf\n",
                                         pytest.param(None, id="missing")])
    def test_bad_labels_file_is_two(self, workdir, monkeypatch, content):
        # the labels are read and checked before any volume is loaded
        paths = _volumes(workdir)
        save_cnn(workdir / "cnn.txt", cnn_init(CnnConfig(), seed=0))
        labels_file = workdir / "labels.txt"
        if content is not None:
            labels_file.write_bytes(content.encode("latin-1"))
        loaded = []
        monkeypatch.setattr(enetpipe.cli, "load_volume_raw3d", loaded.append)
        rc = main(["extract", *map(str, paths),
                   "--net", str(workdir / "cnn.txt"), "--centers", "3",
                   "--labels", str(labels_file)])
        assert rc == 2
        assert loaded == []
        assert not (workdir / "features.csv").exists()

    def test_overflowing_network_is_three(self, workdir, capsys):
        vol = workdir / "ones.raw3d"
        write_volume_raw3d(vol, Volume3D(np.ones((40, 40, 40))))
        net = cnn_init(CnnConfig(), seed=0)
        for w in net.conv_weights:
            w[...] = 1e200
        save_cnn(workdir / "cnn.txt", net)
        capsys.readouterr()
        rc = main(["extract", str(vol), "--net",
                   str(workdir / "cnn.txt"), "--centers", "3"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "numerical failure: stage 2 convolution output is not finite\n")
        assert not (workdir / "features.csv").exists()

    @pytest.mark.parametrize("edit", sorted(MALFORMED_NETWORK_EDITS))
    def test_malformed_network_file_is_two(self, workdir, capsys, edit):
        paths = _volumes(workdir, n=1)
        net = workdir / "cnn.txt"
        save_malformed_network(net, cnn_init(CnnConfig(), seed=0), edit)
        capsys.readouterr()
        rc = main(["extract", str(paths[0]), "--net", str(net),
                   "--centers", "3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert not (workdir / "features.csv").exists()

    def test_zero_batch_size_is_one(self, workdir, monkeypatch, capsys):
        manifest = workdir / "manifest.csv"
        manifest.write_text("".join(f"{p},{i}\n"
                                    for i, p in enumerate(_volumes(workdir))))
        loaded = []
        monkeypatch.setattr(enetpipe.cli, "load_volume_raw3d", loaded.append)
        capsys.readouterr()
        rc = main(["train-cnn", "--manifest", str(manifest), "--centers", "3",
                   "--epochs", "1", "--batch-size", "0"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: batch size must be >= 1, got 0\n")
        assert loaded == []
        assert not (workdir / "cnn.txt").exists()

    @pytest.mark.parametrize("setting, message", [
        (("--lr", "-1"), "learning rate must be finite and >= 0, got -1.0"),
        (("--lr", "nan"), "learning rate must be finite and >= 0, got nan"),
        (("--epochs", "-1"), "epochs must be >= 0, got -1"),
        (("--centers", "0"), "center count must be >= 1, got 0"),
    ], ids=["lr=-1", "lr=nan", "epochs=-1", "centers=0"])
    def test_bad_training_setting_is_one(self, workdir, monkeypatch, capsys,
                                         setting, message):
        # every setting is checked before any volume is read
        manifest = workdir / "manifest.csv"
        manifest.write_text("".join(f"{p},{i}\n"
                                    for i, p in enumerate(_volumes(workdir))))
        loaded = []
        monkeypatch.setattr(enetpipe.cli, "load_volume_raw3d", loaded.append)
        capsys.readouterr()
        rc = main(["train-cnn", "--manifest", str(manifest), "--centers", "3",
                   "--epochs", "1", *setting])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert loaded == []
        assert not (workdir / "cnn.txt").exists()

    def test_zero_centers_extract_is_one(self, workdir, monkeypatch, capsys):
        paths = _volumes(workdir, n=1)
        save_cnn(workdir / "cnn.txt", cnn_init(CnnConfig(), seed=0))
        loaded = []
        monkeypatch.setattr(enetpipe.cli, "load_volume_raw3d", loaded.append)
        capsys.readouterr()
        rc = main(["extract", str(paths[0]), "--net",
                   str(workdir / "cnn.txt"), "--centers", "0"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: center count must be >= 1, got 0\n")
        assert loaded == []
        assert not (workdir / "features.csv").exists()

    def test_overflow_in_a_helper_share_is_three(self, workdir, monkeypatch,
                                                 capsys):
        # the first worker's patches are zero and stay finite; only the
        # helper thread's share overflows, at stage 2
        vol = workdir / "split.raw3d"
        write_volume_raw3d(vol, helper_share_ones())
        net = cnn_init(CnnConfig(), seed=0)
        for w in net.conv_weights:
            w[...] = 1e200
        save_cnn(workdir / "cnn.txt", net)
        monkeypatch.setattr(enetpipe.cnn, "_WORKERS", 2)
        threads = threading.active_count()
        capsys.readouterr()
        rc = main(["extract", str(vol), "--net", str(workdir / "cnn.txt"),
                   "--centers", "8"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "numerical failure: stage 2 convolution output is not finite\n")
        assert not (workdir / "features.csv").exists()
        assert threading.active_count() == threads

    def test_volumes_and_patches_are_read_on_the_calling_thread(
            self, workdir, monkeypatch):
        paths = _volumes(workdir)
        save_cnn(workdir / "cnn.txt", cnn_init(CnnConfig(), seed=0))
        monkeypatch.setattr(enetpipe.cnn, "_WORKERS", 2)
        threads = {}
        for owner, name in [(enetpipe.cli, "load_volume_raw3d"),
                            (enetpipe.cli, "extract_image_features"),
                            (enetpipe.cnn, "extract_patch_2_5d"),
                            (enetpipe.cnn, "_forward_batch")]:
            def spy(*args, _name=name, _real=getattr(owner, name), **kwargs):
                threads.setdefault(_name, set()).add(threading.get_ident())
                return _real(*args, **kwargs)
            monkeypatch.setattr(owner, name, spy)
        assert main(["extract", *map(str, paths), "--net",
                     str(workdir / "cnn.txt"), "--centers", "5"]) == 0
        calling = {threading.get_ident()}
        assert threads.pop("_forward_batch") > calling   # a helper ran
        assert threads == {"load_volume_raw3d": calling,
                           "extract_image_features": calling,
                           "extract_patch_2_5d": calling}

    def test_extract_with_labels(self, workdir):
        paths = _volumes(workdir)
        labels_file = workdir / "labels.txt"
        labels_file.write_text("1\n0\n")
        manifest = workdir / "manifest.csv"
        manifest.write_text("".join(f"{p},{i}\n"
                                    for i, p in enumerate(paths)))
        assert main(["train-cnn", "--manifest", str(manifest),
                     "--centers", "3", "--epochs", "1", "--batch-size", "2",
                     "--seed", "2"]) == 0
        rc = main(["extract", *map(str, paths),
                   "--net", str(workdir / "cnn.txt"), "--centers", "3",
                   "--labels", str(labels_file)])
        assert rc == 0
        X, labels = load_feature_csv(workdir / "features.csv",
                                     label_column=-1)
        np.testing.assert_array_equal(labels, [1.0, 0.0])
        assert X.shape == (2, 3 * 1024)
