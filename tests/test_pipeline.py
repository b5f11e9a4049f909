import math

import numpy as np
import pytest

from enetpipe import (PipelineConfig, PortableRng, SyntheticSpec, accuracy,
                      compare_selectors, generate_synthetic, holdout_split,
                      kfold_split, run_pipeline, stddev_population)
from enetpipe.errors import (ConfigError, DimensionError, EnetPipeError,
                             NumericalError, UndefinedMetricError)
from enetpipe.report import report_to_json
from helpers import mask_timing_json


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

    def test_no_leakage_from_test_rows(self):
        X, labels, _ = _dataset(seed=9, n=80)
        cfg = PipelineConfig(seed=3, k_folds=4, selector="lasso")
        clean = run_pipeline(cfg, X, labels)
        target = clean.folds[0]

        tampered = X.copy()
        tampered[target.test_indices] = 1e6 * PortableRng(99).normal_matrix(
            len(target.test_indices), X.shape[1])
        dirty = run_pipeline(cfg, tampered, labels)
        dirty_target = dirty.folds[0]

        # fold 0 trains on the same clean rows, so everything fitted
        # from the training split must be bit-identical
        np.testing.assert_array_equal(dirty_target.support, target.support)
        assert dirty_target.lambda1 == target.lambda1
        np.testing.assert_array_equal(
            dirty_target.standardization.column_means,
            target.standardization.column_means)
        np.testing.assert_array_equal(dirty_target.elm.output_weights,
                                      target.elm.output_weights)
        np.testing.assert_array_equal(dirty_target.pca.components,
                                      target.pca.components)

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
