import json

import numpy as np
import pytest

import enetpipe.pipeline
from enetpipe.cli import load_config_file, main
from enetpipe.cnn import CnnConfig, cnn_init, save_cnn
from enetpipe.data import (Volume3D, load_feature_csv, save_feature_csv,
                           save_volume_raw3d)
from enetpipe.errors import ConfigError
from enetpipe.rng import PortableRng

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

    def test_missing_input_is_two(self, workdir):
        rc = main(["evaluate", "--features", "no_such_file.csv"])
        assert rc == 2

    def test_numerical_collapse_is_three(self, workdir):
        features = _generate(workdir)
        rc = main(["evaluate", "--features", str(features),
                   "--selector", "elastic_net_svm", "--lambda1", "0.1",
                   "--lambda2", "0", "--k-folds", "3"])
        assert rc == 3


class TestImageCommands:
    def _volumes(self, workdir, n=2, side=40):
        rng = PortableRng(11)
        paths = []
        for i in range(n):
            vol = Volume3D(rng.normal_matrix(side * side, side)
                           .reshape(side, side, side))
            path = workdir / f"vol{i}.raw3d"
            save_volume_raw3d(path, vol)
            paths.append(path)
        return paths

    def test_train_then_extract(self, workdir):
        paths = self._volumes(workdir)
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

    @pytest.mark.parametrize("line", ["{path},caf\xe9", "{path},one"])
    def test_bad_manifest_is_two(self, workdir, line):
        paths = self._volumes(workdir, n=1, side=8)
        manifest = workdir / "manifest.csv"
        manifest.write_bytes(line.format(path=paths[0]).encode("latin-1"))
        assert main(["train-cnn", "--manifest", str(manifest)]) == 2

    @pytest.mark.parametrize("content", ["1\n\xe9\n", "1\none\n", "1\n"])
    def test_bad_labels_file_is_two(self, workdir, content):
        paths = self._volumes(workdir)
        save_cnn(workdir / "cnn.txt", cnn_init(CnnConfig(), seed=0))
        labels_file = workdir / "labels.txt"
        labels_file.write_bytes(content.encode("latin-1"))
        rc = main(["extract", *map(str, paths),
                   "--net", str(workdir / "cnn.txt"), "--centers", "3",
                   "--labels", str(labels_file)])
        assert rc == 2

    def test_extract_with_labels(self, workdir):
        paths = self._volumes(workdir)
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
