import collections
import functools
import gc
import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import types
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import enetpipe.fanout
import enetpipe.pipeline
from enetpipe import (EvaluationReport, PipelineConfig, PortableRng,
                      SyntheticSpec, accuracy, compare_selectors,
                      generate_synthetic, holdout_split, kfold_split,
                      predicted_labels, run_pipeline, stddev_population)
from enetpipe.errors import (ConfigError, DimensionError, EnetPipeError,
                             NumericalError, UndefinedMetricError)
from enetpipe.report import report_to_json
from helpers import (capture_fold_fits, fit_bytes, fold_fits,
                     mask_timing_json, tiny_lambda2_instance)

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
        dict(lambda1=math.nan),
        dict(lambda1=math.inf),
        dict(lambda2=math.nan),
        dict(lambda2=math.inf),
        dict(elm_gamma=-1.0),
        dict(elm_gamma=0.0),
        dict(elm_gamma=math.nan),
        dict(elm_gamma=math.inf),
        dict(elm_ridge=0.0),
        dict(elm_ridge=math.nan),
        dict(pca_retain=0),
        dict(pca_retain=1.5),
        dict(pca_retain=0.0),
        dict(pca_retain=math.nan),
        dict(selector="elastic_net_svm", lambda2=0.0),
        dict(selector="elastic_net_svm", lambda1=0.0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            PipelineConfig(**kwargs)

    def test_edge_values_that_stay_valid(self):
        PipelineConfig(elm_ridge=math.inf, pca_retain=1, lambda1=0.0)
        PipelineConfig(pca_retain=1.0, elm_gamma=1e-300)

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

    def test_unconverged_selector_warns_with_its_sweep_count(
            self, monkeypatch):
        import enetpipe.pipeline as pl
        real = pl.fit_selector
        sweeps = []

        def unconverged(*args, **kwargs):
            result = replace(real(*args, **kwargs), converged=False)
            sweeps.append(result.sweeps_used)
            return result

        monkeypatch.setattr(pl, "fit_selector", unconverged)
        X, labels, _ = _dataset(seed=12, n=60)
        report = run_pipeline(PipelineConfig(seed=5, k_folds=4, lambda1=0.05),
                              X, labels)
        assert [w for w in report.warnings if "converge" in w] == [
            f"fold {i}: selector did not converge in {n} sweeps"
            for i, n in enumerate(sweeps)]
        assert len(sweeps) == 4

    def test_singular_svm_budget_bound_is_an_unconverged_fold_not_a_failure(
            self):
        # with a duplicated column and lambda2 1e-300 the SVM route's ridge
        # solves are singular; lambda1 bounds the budget instead, and every
        # fold completes with its uncertified fit named
        X, y = tiny_lambda2_instance(duplicate=True)
        report = run_pipeline(
            PipelineConfig(selector="elastic_net_svm", lambda1=0.05,
                           lambda2=1e-300, use_pca=False, k_folds=4, seed=1),
            X, y)
        assert [o.failure for o in report.folds] == [None] * 4
        assert [w.split(":")[0] for w in report.warnings
                if "did not converge" in w] == [f"fold {i}" for i in range(4)]

    def test_unconverged_grid_fit_warns_with_its_lambda1_and_sweeps(
            self, monkeypatch):
        import enetpipe.pipeline as pl
        monkeypatch.setattr(pl, "PenaltyConfig",
                            functools.partial(pl.PenaltyConfig, max_sweeps=2))
        real = pl.fit_selector
        fits = []

        def recorded(X, y, selector, lambda1, lambda2):
            result = real(X, y, selector, lambda1, lambda2)
            fits.append((lambda1, result.sweeps_used, result.converged))
            return result

        monkeypatch.setattr(pl, "fit_selector", recorded)
        X, labels, _ = _dataset(seed=12, n=60)
        report = run_pipeline(PipelineConfig(seed=5, k_folds=4), X, labels)
        # per fold: five grid fits, then the fit at the chosen lambda1; the
        # grid's top point, lambda_max, fits zeros in one sweep
        assert len(fits) == 4 * 6
        expected = []
        for i in range(4):
            grid = fits[6 * i:6 * i + 5]
            assert [done for _, _, done in grid] == [False] * 4 + [True]
            expected += [f"fold {i}: lambda1 grid fit at {lam:.6g} did not "
                         f"converge in {n} sweeps" for lam, n, _ in grid[:4]]
            _, n, done = fits[6 * i + 5]
            expected += [] if done else [
                f"fold {i}: selector did not converge in {n} sweeps"]
        assert [w for w in report.warnings if "converge" in w] == expected

    def test_searched_lambda_pins(self):
        # each fold seeds its lambda1 grid's split with seed + 9973 * (i + 1)
        X, labels, _ = _dataset(seed=12, n=60)
        report = run_pipeline(PipelineConfig(seed=5, k_folds=4), X, labels)
        assert [o.lambda1 for o in report.folds] == [
            0.0943357964858817, 0.11405025068025186, 0.11947732766230906,
            0.01801027154198061]
        assert [o.lambda2 for o in report.folds] == [
            0.5 * o.lambda1 for o in report.folds]

    def test_all_folds_failing_raises(self):
        # repeated rows with a vanishing ridge term: each fold's ELM
        # system is singular
        X = np.repeat(PortableRng(13).normal_matrix(5, 3), 4, axis=0)
        labels = np.tile([0.0, 1.0], 10)
        cfg = PipelineConfig(lambda1=0.1, elm_ridge=1e16, k_folds=4, seed=6)
        with pytest.raises(EnetPipeError, match="^every fold failed"):
            run_pipeline(cfg, X, labels)

    def test_signed_targets_are_made_once(self, monkeypatch):
        X, labels, _ = _dataset(seed=13, n=40)
        calls = []
        made = enetpipe.pipeline.signed_targets
        monkeypatch.setattr(enetpipe.pipeline, "signed_targets",
                            lambda y: calls.append(1) or made(y))
        cfg = PipelineConfig(lambda1=0.1, k_folds=4, seed=6)
        compare_selectors(cfg, X, labels)
        assert calls == [1]
        calls.clear()
        run_pipeline(replace(cfg, selector="none"), X, labels)
        assert calls == []

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

    # A fixed lambda1 without PCA: lasso's lambda search on wide no-PCA
    # folds is slow.
    @pytest.mark.parametrize("baseline,settings", [
        ("none", {}), ("lasso", {}),
        ("none", dict(use_pca=False, lambda1=0.1)),
        ("lasso", dict(use_pca=False, lambda1=0.1)),
    ], ids=["none", "lasso", "none-no_pca", "lasso-no_pca"])
    def test_shared_design_matches_independent_runs(self, monkeypatch,
                                                    baseline, settings):
        X, labels = _wide_dataset()
        cfg = PipelineConfig(seed=5, k_folds=4, **settings)
        fits = capture_fold_fits(monkeypatch)
        base = run_pipeline(replace(cfg, selector=baseline), X, labels)
        base_fits = _preprocessing(fits)
        fits.clear()
        prop = run_pipeline(cfg, X, labels)
        prop_fits = _preprocessing(fits)
        fits.clear()
        report = compare_selectors(cfg, X, labels, baseline=baseline)
        shared_fits = _preprocessing(fits)
        # one full-width standardization and one PCA (without PCA, the
        # re-standardization) per fold serve both arms, bit-identical to
        # each arm's own
        assert [name for name, _ in shared_fits] == [
            "standardize_columns",
            "pca_fit" if cfg.use_pca else "standardize_columns"] * 4
        # each design is fitted on a wide (n < p) training matrix
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

    @pytest.mark.parametrize("use_pca", [True, False])
    def test_one_loop_prepares_each_fold_once(self, monkeypatch, use_pca):
        # one run_pipeline call splits the folds once and fits each fold's
        # design once for both arms
        import enetpipe.pipeline as pl
        X, labels = _wide_dataset()
        calls = []
        for name in ("run_pipeline", "kfold_split", "_prepare_fold"):
            def counting(*args, _name=name, _real=getattr(pl, name),
                         **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(pl, name, counting)
        cfg = PipelineConfig(seed=5, k_folds=4, use_pca=use_pca,
                             lambda1=0.1)
        compare_selectors(cfg, X, labels, baseline="none")
        assert calls == ["run_pipeline", "kfold_split"] + ["_prepare_fold"] * 4

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


class TestSharedClassifier:
    """An arm whose support the arm before it trained on reuses that
    classifier; the reports stay those of independent runs."""

    # The narrow_compare command's arms at lambda1 0.05 pick the same
    # support in each of these folds; the 'none' arm keeps every column.
    CASES = pytest.mark.parametrize("selector,baseline,trains_per_fold", [
        ("elastic_net_svm", "lasso", 1), ("lasso", "none", 2),
    ], ids=["same-support", "other-support"])

    @staticmethod
    def _config(selector):
        return PipelineConfig(seed=12, k_folds=5, selector=selector,
                              lambda1=0.05)

    @CASES
    def test_one_classifier_per_distinct_support(
            self, monkeypatch, selector, baseline, trains_per_fold):
        X, labels, _ = _dataset(seed=22, n=90)
        cfg = self._config(selector)
        base = run_pipeline(replace(cfg, selector=baseline), X, labels)
        prop = run_pipeline(cfg, X, labels)

        trained, real = [], enetpipe.pipeline.elm_train

        def counting(*args, **kwargs):
            trained.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(enetpipe.pipeline, "elm_train", counting)
        report = compare_selectors(cfg, X, labels, baseline=baseline)
        assert len(trained) == 5 * trains_per_fold
        assert [np.array_equal(b.support, p.support) for b, p in zip(
            report.comparison.baseline_folds, report.folds)] == (
                [trains_per_fold == 1] * 5)

        got, want, want_base = _masked(report), _masked(prop), _masked(base)
        comparison = got.pop("comparison")
        assert want.pop("comparison") is None
        assert comparison["baseline_folds"] == want_base["folds"]
        want["warnings"] = want_base["warnings"] + want["warnings"]
        assert got == want

    @CASES
    def test_no_classifier_outlives_its_fold(
            self, monkeypatch, selector, baseline, trains_per_fold):
        # a fold holds one classifier at a time: none is alive while
        # another trains, nor once its fold is done
        X, labels, _ = _dataset(seed=22, n=90)
        refs = []
        real_train = enetpipe.pipeline.elm_train
        real_prepare = enetpipe.pipeline._prepare_fold

        def train(*args, **kwargs):
            assert all(ref() is None for ref in refs)
            model = real_train(*args, **kwargs)
            refs.append(weakref.ref(model))
            return model

        def prepare(*args, **kwargs):
            assert all(ref() is None for ref in refs)
            return real_prepare(*args, **kwargs)

        monkeypatch.setattr(enetpipe.pipeline, "elm_train", train)
        monkeypatch.setattr(enetpipe.pipeline, "_prepare_fold", prepare)
        compare_selectors(self._config(selector), X, labels,
                          baseline=baseline)
        assert len(refs) == 5 * trains_per_fold
        assert all(ref() is None for ref in refs)


class TestPredictTiming:
    """time_ms is the median latency of one elm_predict call on one test
    row; nothing else in a fold runs on the clock."""

    def test_time_ms_times_one_single_row_predict_per_test_row(
            self, monkeypatch):
        X, labels, _ = _dataset(seed=22, n=90)
        cfg = PipelineConfig(seed=12, k_folds=5, selector="lasso",
                             lambda1=0.05)
        # the clock moves only inside elm_predict, by a different whole
        # number of ticks on each call
        clock, calls = [0.0], []
        monkeypatch.setattr(enetpipe.pipeline, "time", types.SimpleNamespace(
            perf_counter=lambda: clock[0]))
        real_predict = enetpipe.pipeline.elm_predict

        def predict(model, rows):
            scores = real_predict(model, rows)
            calls.append((model, rows.shape, scores))
            clock[0] += float(len(calls) % 7 + 1)
            return scores

        monkeypatch.setattr(enetpipe.pipeline, "elm_predict", predict)
        report = compare_selectors(cfg, X, labels, baseline="none")
        assert len(calls) == 2 * len(labels)
        arms = (report.comparison.baseline_folds, report.folds)
        done = 0
        for fold in zip(*arms):             # a fold's arms in turn
            for outcome in fold:
                test = outcome.test_indices
                segment = calls[done:done + len(test)]
                ticks = [float(k % 7 + 1)
                         for k in range(done + 1, done + len(test) + 1)]
                done += len(test)
                assert {shape for _, shape, _ in segment} == {
                    (1, outcome.support.size)}
                labelled = [predicted_labels(model, scores)[0]
                            for model, _, scores in segment]
                assert outcome.accuracy == accuracy(labelled, labels[test])
                assert outcome.time_ms == float(np.median(ticks) * 1000.0)


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
    def _peak(X, labels, k_folds, baseline="lasso", **settings):
        cfg = PipelineConfig(k_folds=k_folds, seed=3, **settings)
        gc.collect()
        tracemalloc.start()
        try:
            compare_selectors(cfg, X, labels, baseline=baseline)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_pca_peak_does_not_grow_with_fold_count(self):
        # 32 and 36 training rows; holding each fold's 4000-wide PCA
        # basis would add about 0.7 of X per fold
        X, labels = self._data(40, 4000, seed=4)
        five, ten = (self._peak(X, labels, k, lambda1=0.1) for k in (5, 10))
        assert ten < 1.2 * five

    def test_no_pca_peak_does_not_grow_with_fold_count(self):
        # holding each fold's no-PCA design would add about one X per fold
        X, labels = self._data(40, 4000, seed=4)
        five, ten = (self._peak(X, labels, k, baseline="none",
                                selector="none", use_pca=False)
                     for k in (5, 10))
        assert ten < 1.2 * five


class _Interrupt(BaseException):
    """Raised in the parent alone; _fan_out does not catch it."""


# pytest's process runs OpenBLAS's thread pool, beside which _fan_out
# does not fork; these tests force its thread gate open, and Python 3.12
# and later warn on such a fork
@pytest.mark.filterwarnings(
    "ignore:This process .*is multi-threaded, use of fork:DeprecationWarning")
class TestGridFanOut:
    """For elastic_net_cd at _FAN_OUT_MIN_COLUMNS columns and more,
    choose_lambda1 fits its grid on forked processes; what it returns does
    not depend on how many."""

    @pytest.fixture(autouse=True)
    def _forks(self, monkeypatch):
        monkeypatch.setattr(enetpipe.fanout, "_one_thread", lambda: True)

    @staticmethod
    def _wide():
        # choose_lambda1 fits 64 x 300 elements on all rows, and 48 x 300
        # on a 4-fold run's training rows
        X = PortableRng(41).normal_matrix(80, 300)
        labels = np.where(X[:, :5].sum(axis=1) > 0.0, 1.0, 0.0)
        assert 300 >= enetpipe.pipeline._FAN_OUT_MIN_COLUMNS
        return X, labels

    @staticmethod
    def _assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _grid_fits(monkeypatch, workers):
        """choose_lambda1 with two-sweep fits (so four notes) on the wide
        design: (lambda1, notes, the grid fits, the worker counts)."""
        import enetpipe.pipeline as pl
        monkeypatch.setattr(enetpipe.fanout, "_WORKERS", workers)
        monkeypatch.setattr(pl, "PenaltyConfig",
                            functools.partial(pl.PenaltyConfig, max_sweeps=2))
        real, fan_outs = enetpipe.fanout._fan_out, []

        def recorded(fn, items, workers):
            results = real(fn, items, workers)
            fan_outs.append((workers, results))
            return results

        monkeypatch.setattr(enetpipe.fanout, "_fan_out", recorded)
        X, labels = TestGridFanOut._wide()
        y = np.where(labels > 0.0, 1.0, -1.0)
        lambda1, notes = pl.choose_lambda1(
            X, y, PipelineConfig(use_pca=False), seed=3)
        [(used, fits)] = fan_outs
        return lambda1, notes, [
            (r.coefficients.tobytes(), r.objective_value, r.sweeps_used,
             r.converged, r.kkt_violation) for r in fits], used

    @pytest.mark.parametrize("workers", [2, 3])
    def test_choose_lambda1_does_not_depend_on_the_worker_count(
            self, monkeypatch, workers):
        want = self._grid_fits(monkeypatch, 1)
        got = self._grid_fits(monkeypatch, workers)
        self._assert_no_child_left()
        assert got[3] == workers and want[3] == 1
        assert len(got[1]) == 4
        assert got[:3] == want[:3]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_no_pca_report_does_not_depend_on_the_worker_count(
            self, monkeypatch, workers):
        X, labels = self._wide()
        cfg = PipelineConfig(selector="elastic_net_cd", use_pca=False,
                             lambda2=1.0, k_folds=4, seed=5)
        reports = []
        for count in (1, workers):
            monkeypatch.setattr(enetpipe.fanout, "_WORKERS", count)
            reports.append(mask_timing_json(report_to_json(
                run_pipeline(cfg, X, labels))))
            self._assert_no_child_left()
        assert reports[0] == reports[1]

    def test_items_go_round_robin_to_this_process_and_its_children(self):
        pids = enetpipe.fanout._fan_out(lambda _: os.getpid(), range(7), 3)
        self._assert_no_child_left()
        assert pids[0] == os.getpid()
        assert pids == pids[:3] * 2 + pids[:1]
        assert len(set(pids)) == 3

    @pytest.mark.parametrize("selector, columns", [
        ("lasso", 300), ("elastic_net_svm", 300), ("elastic_net_cd", 249)])
    def test_other_selectors_and_narrower_fits_stay_here(
            self, monkeypatch, selector, columns):
        import enetpipe.pipeline as pl
        monkeypatch.setattr(enetpipe.fanout, "_WORKERS", 3)
        real, used = enetpipe.fanout._fan_out, []

        def recorded(fn, items, workers):
            used.append(workers)
            return real(fn, items, workers)

        monkeypatch.setattr(enetpipe.fanout, "_fan_out", recorded)
        X = self._wide()[0][:, :columns]
        y = np.where(X[:, :5].sum(axis=1) > 0.0, 1.0, -1.0)
        assert columns == 300 or columns < pl._FAN_OUT_MIN_COLUMNS
        pl.choose_lambda1(X, y, PipelineConfig(selector=selector,
                                               use_pca=False), seed=3)
        assert used == [1]

    def test_one_process_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        pids = enetpipe.fanout._fan_out(lambda _: os.getpid(), range(4), 2)
        assert pids == [os.getpid()] * 4

    def test_one_process_beside_another_os_thread(self, tmp_path):
        # in a process of one OS thread (BLAS pinned) it forks; beside a
        # thread the threading module does not know, it does not
        script = (
            "import _thread, os, threading\n"
            "from enetpipe.fanout import _fan_out\n"
            "def pids():\n"
            "    got = _fan_out(lambda _: os.getpid(), range(4), 2)\n"
            "    try:\n"
            "        os.waitpid(-1, os.WNOHANG)\n"
            "    except ChildProcessError:\n"
            "        return len(set(got)), got[0] == os.getpid()\n"
            "alone = pids()\n"
            "release = _thread.allocate_lock()\n"
            "release.acquire()\n"
            "_thread.start_new_thread(release.acquire, ())\n"
            "print(alone, threading.active_count(), pids())\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-W", "error", "-c", script],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[0] == "(2, True) 1 (1, True)"

    @pytest.mark.parametrize("raising", [{1}, {2}, {3, 4}, {1, 4}, {0, 5}])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_an_item_that_raises_raises_as_in_the_plain_loop(
            self, raising, workers):
        def fn(i):
            if i in raising:
                raise NumericalError(f"item {i} failed")
            return i * i

        with pytest.raises(NumericalError) as plain:
            [fn(i) for i in range(6)]
        with pytest.raises(NumericalError) as fanned:
            enetpipe.fanout._fan_out(fn, range(6), workers)
        self._assert_no_child_left()
        assert str(fanned.value) == str(plain.value)

    @pytest.mark.parametrize("above", [False, True],
                             ids=["one-index", "and-above"])
    @pytest.mark.parametrize("index", [1, 2])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_grid_fit_that_raises_raises_as_in_the_plain_loop(
            self, monkeypatch, index, workers, above):
        import enetpipe.pipeline as pl
        X, labels = self._wide()
        y = np.where(labels > 0.0, 1.0, -1.0)
        cfg = PipelineConfig(use_pca=False, lambda2=1.0)
        real, grid = pl.fit_selector, []

        def recording(X, y, selector, lambda1, lambda2):
            grid.append(lambda1)
            return real(X, y, selector, lambda1, lambda2)

        monkeypatch.setattr(enetpipe.fanout, "_WORKERS", 1)
        monkeypatch.setattr(pl, "fit_selector", recording)
        pl.choose_lambda1(X, y, cfg, seed=3)

        def failing(X, y, selector, lambda1, lambda2):
            # the grid ascends: with above, the later fits raise too
            if lambda1 == grid[index] or above and lambda1 > grid[index]:
                raise NumericalError(f"no fit at {lambda1!r}")
            return real(X, y, selector, lambda1, lambda2)

        monkeypatch.setattr(enetpipe.fanout, "_WORKERS", workers)
        monkeypatch.setattr(pl, "fit_selector", failing)
        with pytest.raises(NumericalError) as raised:
            pl.choose_lambda1(X, y, cfg, seed=3)
        self._assert_no_child_left()
        assert str(raised.value) == f"no fit at {grid[index]!r}"

    @pytest.mark.parametrize("ending", ["exit", "kill", "unpicklable",
                                        "no fork", "fork warns"])
    def test_a_missing_share_is_computed_here(self, monkeypatch, ending):
        parent = os.getpid()

        def fn(i):
            if os.getpid() != parent and i == 4:
                if ending == "exit":
                    os._exit(0)
                if ending == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
            return (lambda: i * i) if ending == "unpicklable" else i * i

        def failing_fork():
            if ending == "no fork":
                raise OSError("no fork here")
            raise DeprecationWarning("This process is multi-threaded")

        if ending in ("no fork", "fork warns"):
            monkeypatch.setattr(os, "fork", failing_fork)
        fds = sorted(os.listdir("/proc/self/fd"))
        results = enetpipe.fanout._fan_out(fn, range(7), 3)
        self._assert_no_child_left()
        assert sorted(os.listdir("/proc/self/fd")) == fds
        if ending == "unpicklable":
            results = [r() for r in results]
        assert results == [i * i for i in range(7)]

    def test_no_child_outlives_an_exception_in_this_process(self):
        parent = os.getpid()

        def fn(i):
            if os.getpid() == parent:
                raise _Interrupt
            time.sleep(60)
            return i

        started = time.perf_counter()
        with pytest.raises(_Interrupt):
            enetpipe.fanout._fan_out(fn, range(4), 3)
        self._assert_no_child_left()
        assert time.perf_counter() - started < 30


@pytest.mark.filterwarnings(
    "ignore:This process .*is multi-threaded, use of fork:DeprecationWarning")
class TestFoldFanOut:
    """From _FOLDS_MIN_ELEMENTS feature-matrix elements on, run_pipeline's
    folds go round-robin to forked processes; the reports do not depend on
    how many, and a fold's process fits that fold's lambda1 grid alone."""

    @pytest.fixture(autouse=True)
    def _forks(self, monkeypatch):
        monkeypatch.setattr(enetpipe.fanout, "_one_thread", lambda: True)
        monkeypatch.setattr(enetpipe.pipeline, "_FOLDS_MIN_ELEMENTS", 0)

    @pytest.mark.parametrize("selector", enetpipe.pipeline.SELECTORS)
    def test_reports_do_not_depend_on_the_worker_count(
            self, monkeypatch, selector):
        import enetpipe.pipeline as pl
        real = pl._prepare_fold

        def prepare(cfg, X, train_idx, test_idx):
            if 0 in test_idx:           # the same fold in every process
                raise NumericalError("no design for the fold of row 0")
            return real(cfg, X, train_idx, test_idx)

        monkeypatch.setattr(pl, "_prepare_fold", prepare)
        X, labels, _ = _dataset(seed=11, n=60)
        # the SVM route's lambda1 grid runs for seconds; fix lambda1 there
        cfg = PipelineConfig(
            selector=selector, k_folds=5, seed=3,
            lambda1=0.05 if selector == "elastic_net_svm" else None)
        reports = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(enetpipe.fanout, "_WORKERS", workers)
            reports[workers] = [
                mask_timing_json(report_to_json(report)) for report in (
                    run_pipeline(cfg, X, labels),
                    compare_selectors(cfg, X, labels))]
            TestGridFanOut._assert_no_child_left()
        assert reports[2] == reports[1]
        assert reports[3] == reports[1]
        assert all("no design for the fold of row 0" in report
                   for report in reports[1])

    @pytest.mark.parametrize("holdout", [None, 0.5],
                             ids=["three-folds", "holdout"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_fold_process_fits_its_grid_alone(
            self, tmp_path, monkeypatch, workers, holdout):
        import enetpipe.pipeline as pl
        record, real = tmp_path / "fits.txt", pl.fit_selector

        def fit_selector(*args):
            with open(record, "a") as fh:
                fh.write(f"{os.getpid()} {os.getppid()}\n")
            return real(*args)

        monkeypatch.setattr(pl, "fit_selector", fit_selector)
        monkeypatch.setattr(enetpipe.fanout, "_WORKERS", workers)
        X, labels = TestGridFanOut._wide()
        cfg = PipelineConfig(selector="elastic_net_cd", use_pca=False,
                             lambda2=1.0, k_folds=3, holdout=holdout, seed=5)
        run_pipeline(cfg, X, labels)
        TestGridFanOut._assert_no_child_left()
        fits = collections.Counter(
            tuple(map(int, line.split()))
            for line in record.read_text().splitlines())
        here = (os.getpid(), os.getppid())
        # every fit runs here or in a child of this process, never deeper
        assert {ppid for pid, ppid in fits if pid != here[0]} <= {here[0]}
        if holdout is None:
            # fold i goes to worker i % workers, whose process makes the
            # fold's five grid fits and its final fit
            shares = [len(range(w, 3, workers)) for w in range(workers)]
            assert fits[here] == 6 * shares[0]
            assert sorted(fits.values()) == sorted(6 * s for s in shares)
        else:
            # the one fold runs here, and its grid goes round-robin
            assert fits[here] == 1 + len(range(0, 5, workers))
            assert sum(fits.values()) == 6
            assert len(fits) == workers
