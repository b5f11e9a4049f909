import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from enetpipe import (EvaluationReport, PipelineConfig, PortableRng,
                      SyntheticSpec, accuracy, compare_selectors,
                      generate_synthetic, holdout_split, kfold_split,
                      run_pipeline, stddev_population)
from enetpipe.errors import (ConfigError, DimensionError, EnetPipeError,
                             NumericalError, UndefinedMetricError)
from enetpipe.report import report_to_json
from helpers import (capture_fold_fits, fit_bytes, fold_fits,
                     mask_timing_json)

ROOT = Path(__file__).resolve().parent.parent


def _dataset(seed=7, n=200):
    spec = SyntheticSpec(n_samples=n, n_informative_groups=3, group_size=3,
                         within_group_correlation=0.8, noise_std=0.3,
                         n_noise_features=20, seed=seed)
    return generate_synthetic(spec)


class TestKfoldSplit:
    def test_ten_of_ten_gives_singletons(self):
        folds = kfold_split(10, 10, seed=0)
        assert [len(f) for f in folds] == [1] * 10

    def test_seven_into_three_balances(self):
        folds = kfold_split(7, 3, seed=1)
        assert sorted(len(f) for f in folds) == [2, 2, 3]

    def test_disjoint_and_covering(self):
        folds = kfold_split(53, 10, seed=2)
        joined = np.concatenate(folds)
        assert len(joined) == 53
        np.testing.assert_array_equal(np.sort(joined), np.arange(53))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic_given_seed(self):
        a = kfold_split(20, 4, seed=3)
        b = kfold_split(20, 4, seed=3)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)
        c = kfold_split(20, 4, seed=4)
        assert any(not np.array_equal(fa, fc) for fa, fc in zip(a, c))

    @pytest.mark.parametrize("n,k", [(10, 1), (10, 0), (5, 6)])
    def test_invalid_fold_counts(self, n, k):
        with pytest.raises(ConfigError):
            kfold_split(n, k, seed=0)


class TestHoldout:
    def test_split_covers_everything_once(self):
        train, test = holdout_split(30, 0.33, seed=5)
        assert len(test) == 10
        joined = np.sort(np.concatenate([train, test]))
        np.testing.assert_array_equal(joined, np.arange(30))

    def test_fraction_that_leaves_no_training_rows(self):
        with pytest.raises(ConfigError):
            holdout_split(4, 0.99, seed=0)


class TestAccuracy:
    def test_identical_vectors(self):
        assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0

    def test_complementary_vectors(self):
        assert accuracy([1, 0], [0, 1]) == 0.0

    def test_half_right(self):
        assert accuracy((1, 0, 1, 1), (1, 1, 1, 0)) == 0.5

    def test_empty_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            accuracy([], [])

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            accuracy([1, 2], [1])


class TestStddevPopulation:
    def test_identical_samples(self):
        assert stddev_population([3.0, 3.0, 3.0]) == 0.0

    def test_zero_two_is_exactly_one(self):
        assert stddev_population([0.0, 2.0]) == 1.0

    def test_matches_two_pass_oracle(self):
        x = PortableRng(6).normals(100) * 3.0 + 1.0
        mean = math.fsum(x) / len(x)
        oracle = math.sqrt(math.fsum((v - mean) ** 2 for v in x) / len(x))
        assert abs(stddev_population(x) - oracle) <= 1e-12

    def test_empty_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            stddev_population([])


class TestPipelineConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(selector="ridge"),
        dict(k_folds=1),
        dict(holdout=1.5),
        dict(lambda1=-1.0),
        dict(lambda2=-0.5),
        dict(selector="lasso", lambda2=0.3),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            PipelineConfig(**kwargs)

    def test_lasso_accepts_a_zero_ridge_weight(self):
        assert PipelineConfig(selector="lasso", lambda2=0.0).lambda2 == 0.0


class TestRunPipeline:
    def test_engineered_dataset_reaches_085(self):
        X, labels, _ = _dataset()
        report = run_pipeline(PipelineConfig(seed=11), X, labels)
        assert report.k_folds == 10
        assert report.mean_accuracy >= 0.85
        assert all(o.failure is None for o in report.folds)

    def test_deterministic_up_to_timing(self):
        X, labels, _ = _dataset(seed=8, n=90)
        cfg = PipelineConfig(seed=2, k_folds=5)
        a = run_pipeline(cfg, X, labels)
        b = run_pipeline(cfg, X, labels)
        assert a.fold_hash == b.fold_hash
        # every field agrees except the wall-clock measurements
        ja = mask_timing_json(report_to_json(a))
        jb = mask_timing_json(report_to_json(b))
        assert ja == jb
        assert ja != report_to_json(a)

    def test_no_leakage_from_test_rows(self, monkeypatch):
        X, labels, _ = _dataset(seed=9, n=80)
        cfg = PipelineConfig(seed=3, k_folds=4, selector="lasso")
        fits = capture_fold_fits(monkeypatch)
        clean = run_pipeline(cfg, X, labels)
        target = clean.folds[0]
        clean_fits = fold_fits(fits)[0]

        tampered = X.copy()
        tampered[target.test_indices] = 1e6 * PortableRng(99).normal_matrix(
            len(target.test_indices), X.shape[1])
        fits.clear()
        dirty = run_pipeline(cfg, tampered, labels)
        dirty_target = dirty.folds[0]
        dirty_fits = fold_fits(fits)[0]

        # fold 0 trains on the same clean rows, so everything fitted
        # from the training split must be bit-identical: the
        # standardizations (and the matrices they return), the PCA basis
        # and the classifier
        np.testing.assert_array_equal(dirty_target.support, target.support)
        assert dirty_target.lambda1 == target.lambda1
        assert [name for name, _ in clean_fits] == [
            "standardize_columns", "pca_fit", "standardize_columns",
            "standardize_columns", "elm_train"]
        assert fit_bytes(dirty_fits) == fit_bytes(clean_fits)

    def test_empty_support_falls_back_with_warning(self):
        X, labels, _ = _dataset(seed=10, n=60)
        cfg = PipelineConfig(seed=4, k_folds=4, lambda1=50.0, lambda2=1.0)
        report = run_pipeline(cfg, X, labels)
        assert any("empty support" in w for w in report.warnings)
        fallback_folds = [o for o in report.folds
                          if o.support.size == o.n_candidate_features]
        assert fallback_folds
        assert all(o.failure is None for o in report.folds)

    def test_stage_error_aborts_fold_not_run(self, monkeypatch):
        import enetpipe.pipeline as pl
        real = pl.fit_selector
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise NumericalError("synthetic stage failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(pl, "fit_selector", flaky)
        X, labels, _ = _dataset(seed=12, n=60)
        report = run_pipeline(PipelineConfig(seed=5, k_folds=4, lambda1=0.05),
                              X, labels)
        failed = [o for o in report.folds if o.failure is not None]
        assert len(failed) == 1
        assert "synthetic stage failure" in failed[0].failure
        assert any("failed" in w for w in report.warnings)
        # aggregates come from the three completed folds
        assert report.mean_accuracy is not None

    def test_all_folds_failing_raises(self):
        X, labels, _ = _dataset(seed=13, n=40)
        cfg = PipelineConfig(selector="elastic_net_svm", lambda1=0.1,
                             lambda2=0.0, k_folds=4, seed=6)
        with pytest.raises(EnetPipeError):
            run_pipeline(cfg, X, labels)

    def test_selector_none_skips_selection(self):
        X, labels, _ = _dataset(seed=14, n=60)
        cfg = PipelineConfig(selector="none", use_pca=False, k_folds=4,
                             seed=7)
        report = run_pipeline(cfg, X, labels)
        for o in report.folds:
            assert o.support.size == o.n_candidate_features
            assert o.lambda1 is None

    def test_multiclass_needs_selector_none(self):
        rng = PortableRng(15)
        X = rng.normal_matrix(45, 4)
        labels = np.repeat([0.0, 1.0, 2.0], 15)
        with pytest.raises(EnetPipeError):
            # three classes cannot feed the two-class regression target
            run_pipeline(PipelineConfig(k_folds=3, seed=8), X, labels)
        report = run_pipeline(PipelineConfig(selector="none", k_folds=3,
                                             seed=8), X, labels)
        assert report.mean_accuracy is not None

    def test_pure_noise_sits_in_the_null_band(self):
        spec = SyntheticSpec(n_samples=300, n_informative_groups=0,
                             group_size=0, within_group_correlation=0.0,
                             noise_std=1.0, n_noise_features=10, seed=20)
        X, labels, _ = generate_synthetic(spec)
        band = 1.96 * math.sqrt(0.25 / 300)
        for selector in ("none", "lasso"):
            cfg = PipelineConfig(selector=selector, seed=21, k_folds=10)
            report = run_pipeline(cfg, X, labels)
            assert abs(report.mean_accuracy - 0.5) <= band, selector

    def test_holdout_mode_runs_single_fold(self):
        X, labels, _ = _dataset(seed=16, n=90)
        cfg = PipelineConfig(seed=9, holdout=0.33)
        report = run_pipeline(cfg, X, labels)
        assert report.k_folds == 1
        assert len(report.folds[0].test_indices) == 30

    def test_explicit_penalties_are_used_verbatim(self):
        X, labels, _ = _dataset(seed=17, n=60)
        cfg = PipelineConfig(seed=10, k_folds=3, lambda1=0.07, lambda2=0.02)
        report = run_pipeline(cfg, X, labels)
        for o in report.folds:
            assert o.lambda1 == 0.07
            assert o.lambda2 == 0.02

    def test_lambda2_defaults_to_half_lambda1(self):
        X, labels, _ = _dataset(seed=18, n=60)
        cfg = PipelineConfig(seed=11, k_folds=3, lambda1=0.08)
        report = run_pipeline(cfg, X, labels)
        for o in report.folds:
            assert o.lambda2 == 0.04
        lasso_cfg = PipelineConfig(selector="lasso", seed=11, k_folds=3,
                                   lambda1=0.08)
        lasso_report = run_pipeline(lasso_cfg, X, labels)
        for o in lasso_report.folds:
            assert o.lambda2 == 0.0

    def test_k_folds_above_sample_count(self):
        X, labels, _ = _dataset(seed=19, n=8)
        with pytest.raises(ConfigError):
            run_pipeline(PipelineConfig(k_folds=10, seed=0), X, labels)


class TestCompareSelectors:
    def test_comparison_block_and_shared_folds(self):
        X, labels, _ = _dataset(seed=22, n=90)
        cfg = PipelineConfig(seed=12, k_folds=5)
        report = compare_selectors(cfg, X, labels)
        comp = report.comparison
        assert comp is not None
        assert comp.baseline_selector == "lasso"
        assert comp.proposed_selector == "elastic_net_cd"
        assert len(comp.fold_accuracy_deltas) == 5
        assert len(comp.baseline_folds) == 5
        expected = [p.accuracy - b.accuracy
                    for b, p in zip(comp.baseline_folds, report.folds)]
        np.testing.assert_allclose(comp.fold_accuracy_deltas, expected,
                                   atol=1e-15)
        assert comp.mean_accuracy_delta == pytest.approx(
            float(np.mean(expected)), abs=1e-15)

    def test_run_pipeline_has_no_comparison_block(self):
        X, labels, _ = _dataset(seed=23, n=60)
        report = run_pipeline(PipelineConfig(seed=13, k_folds=3), X, labels)
        assert report.comparison is None

    def test_explicit_ridge_weight_stays_in_proposed_arm(self):
        # lasso_fit rejects a nonzero ridge term, so the baseline arm
        # must not inherit the elastic-net lambda2
        X, labels, _ = _dataset(seed=25, n=60)
        cfg = PipelineConfig(seed=15, k_folds=3, lambda1=0.05, lambda2=0.02)
        report = compare_selectors(cfg, X, labels)
        for o in report.folds:
            assert o.lambda2 == 0.02
        for o in report.comparison.baseline_folds:
            assert o.lambda2 == 0.0
            assert o.failure is None

    def test_null_dataset_mean_delta_near_zero(self):
        spec = SyntheticSpec(n_samples=200, n_informative_groups=0,
                             group_size=0, within_group_correlation=0.0,
                             noise_std=1.0, n_noise_features=8, seed=24)
        X, labels, _ = generate_synthetic(spec)
        cfg = PipelineConfig(seed=14, k_folds=10)
        report = compare_selectors(cfg, X, labels)
        # paired null: the arms disagree only through selection noise
        assert abs(report.comparison.mean_accuracy_delta) <= 0.1


def _wide_dataset():
    """24 x 600, so every fold's PCA sees n < p."""
    X = PortableRng(31).normal_matrix(24, 600)
    labels = np.where(X[:, :6].sum(axis=1) > 0.0, 1.0, 0.0)
    return X, labels


def _preprocessing(fits):
    """The fits on a fold's full-width training rows (the first
    standardization and the PCA) from a ``capture_fold_fits`` record."""
    return [(name, result) for name, result in fits
            if name == "pca_fit" or (name == "standardize_columns"
                                     and result[0].shape[1] == 600)]


def _masked(report):
    return json.loads(mask_timing_json(report_to_json(report)))


class TestSharedFoldDesign:
    """compare_selectors fits each fold's preprocessing once for both arms."""

    @pytest.mark.parametrize("baseline", ["none", "lasso"])
    def test_shared_design_matches_independent_runs(self, monkeypatch,
                                                    baseline):
        X, labels = _wide_dataset()
        cfg = PipelineConfig(seed=5, k_folds=4)
        fits = capture_fold_fits(monkeypatch)
        base = run_pipeline(replace(cfg, selector=baseline), X, labels)
        base_fits = _preprocessing(fits)
        fits.clear()
        prop = run_pipeline(cfg, X, labels)
        prop_fits = _preprocessing(fits)
        fits.clear()
        report = compare_selectors(cfg, X, labels, baseline=baseline)
        shared_fits = _preprocessing(fits)
        # one full-width standardization and one PCA per fold serve both
        # arms, bit-identical to each arm's own
        assert [name for name, _ in shared_fits] == [
            "standardize_columns", "pca_fit"] * 4
        # each PCA fits a wide (n < p) standardized training matrix
        assert all(r[0].shape[0] < r[0].shape[1] for name, r in shared_fits
                   if name == "standardize_columns")
        assert fit_bytes(shared_fits) == fit_bytes(base_fits)
        assert fit_bytes(shared_fits) == fit_bytes(prop_fits)

        got, want, want_base = _masked(report), _masked(prop), _masked(base)
        comparison = got.pop("comparison")
        assert want.pop("comparison") is None
        assert comparison["baseline_folds"] == want_base["folds"]
        assert comparison["baseline_mean_accuracy"] == base.mean_accuracy
        want["warnings"] = want_base["warnings"] + want["warnings"]
        # the JSON holds each fold's support, lambda1, lambda2 and accuracy
        assert got == want

    @pytest.mark.parametrize("use_pca,preparations", [(True, 4), (False, 8)])
    def test_designs_are_shared_only_with_pca(self, monkeypatch, use_pca,
                                              preparations):
        # a no-PCA design is as large as the fold's rows, so it is not held
        import enetpipe.pipeline as pl
        X, labels = _wide_dataset()
        real, calls = pl._prepare_fold, []

        def counting(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(pl, "_prepare_fold", counting)
        cfg = PipelineConfig(seed=5, k_folds=4, use_pca=use_pca,
                             lambda1=0.1)
        compare_selectors(cfg, X, labels, baseline="none")
        assert len(calls) == preparations

    def test_failed_preparation_fails_the_fold_in_both_arms(self,
                                                            monkeypatch):
        import enetpipe.pipeline as pl
        X, labels = _wide_dataset()
        cfg = PipelineConfig(seed=5, k_folds=4)
        clean = compare_selectors(cfg, X, labels, baseline="lasso")

        real, calls = pl.pca_fit, []

        def second_fold_fails(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise NumericalError("synthetic PCA failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(pl, "pca_fit", second_fold_fails)
        report = compare_selectors(cfg, X, labels, baseline="lasso")
        assert len(calls) == 4
        arms = (report.comparison.baseline_folds, report.folds)
        clean_arms = (clean.comparison.baseline_folds, clean.folds)
        for folds, clean_folds in zip(arms, clean_arms):
            assert folds[1].failure == (
                "NumericalError: synthetic PCA failure")
            for i in (0, 2, 3):
                assert folds[i].failure is None
                assert _fold_json(folds[i]) == _fold_json(clean_folds[i])


def _fold_json(outcome):
    report = EvaluationReport(group="g", selector="s", k_folds=1, seed=0,
                              folds=[outcome], mean_accuracy=0.0,
                              accuracy_sigma=0.0, mean_time_ms=0.0)
    return _masked(report)["folds"][0]


def test_no_pca_report_is_identical_across_blas_thread_counts(tmp_path):
    # Determinism holds per BLAS build and thread count; without PCA it
    # also holds across 1 and 2 OpenBLAS threads. The PCA projection is the
    # known exception and is not covered here.
    script = (
        "import sys, numpy as np\n"
        "from enetpipe import PipelineConfig, PortableRng, run_pipeline\n"
        "from enetpipe.report import report_to_json\n"
        "X = PortableRng(3).normal_matrix(40, 3000)\n"
        "labels = np.where(X[:, :10].sum(axis=1) > 0.0, 1.0, 0.0)\n"
        "cfg = PipelineConfig(selector='elastic_net_cd', use_pca=False,\n"
        "                     lambda1=0.1, k_folds=5, seed=3)\n"
        "sys.stdout.write(report_to_json(run_pipeline(cfg, X, labels)))\n")
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-W", "error", "-c", script],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        reports.append(mask_timing_json(proc.stdout))
    assert reports[0] == reports[1]


class TestFoldMemory:
    """A k-fold run holds one fold's working set, not k folds' models."""

    @staticmethod
    def _data(n, m, seed):
        X = PortableRng(seed).normal_matrix(n, m)
        return X, np.where(X[:, :10].sum(axis=1) > 0.0, 1.0, 0.0)

    def test_no_pca_report_holds_less_than_one_copy_of_the_data(self):
        # without selection each fold's classifier keeps its training
        # rows, 0.9 of X per fold and arm while it is alive
        X, labels = self._data(60, 5000, seed=3)
        cfg = PipelineConfig(selector="none", use_pca=False, k_folds=10,
                             seed=3)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = compare_selectors(cfg, X, labels, baseline="none")
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(report.folds) == len(report.comparison.baseline_folds) == 10
        assert held < X.nbytes

    @staticmethod
    def _pca_peak(X, labels, k_folds):
        cfg = PipelineConfig(lambda1=0.1, k_folds=k_folds, seed=3)
        gc.collect()
        tracemalloc.start()
        try:
            compare_selectors(cfg, X, labels, baseline="lasso")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_pca_peak_does_not_grow_with_fold_count(self):
        # 32 and 36 training rows; holding each fold's 4000-wide PCA
        # basis would add about 0.7 of X per fold
        X, labels = self._data(40, 4000, seed=4)
        five, ten = (self._pca_peak(X, labels, k) for k in (5, 10))
        assert ten < 1.2 * five
