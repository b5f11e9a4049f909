import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enetpipe import (PenaltyConfig, elastic_net_fit_cd,
                      elastic_net_objective, kkt_violation, lasso_fit,
                      load_coefficients, save_coefficients, select_support,
                      soft_threshold)
from enetpipe.errors import ConfigError, ContractError
from enetpipe.solvers import _GRAM_COLUMN_LIMIT, _coordinate_descent
from helpers import grid_search_lasso_objective, regression_instance, \
    duplicated_instance, reference_coordinate_descent, sweep_objectives


class TestSoftThreshold:
    @pytest.mark.parametrize("z,t,expected", [
        (3.0, 1.0, 2.0),
        (-3.0, 1.0, -2.0),
        (0.5, 1.0, 0.0),
        (-0.5, 1.0, 0.0),
        (2.0, 0.0, 2.0),
        (0.0, 0.0, 0.0),
    ])
    def test_hand_values(self, z, t, expected):
        assert soft_threshold(z, t) == expected

    @given(st.floats(-1e6, 1e6), st.floats(0.0, 1e6))
    def test_shrinks_toward_zero(self, z, t):
        s = soft_threshold(z, t)
        assert abs(s) == max(abs(z) - t, 0.0)
        assert s == 0.0 or np.sign(s) == np.sign(z)


class TestObjective:
    def test_zero_coefficients(self):
        y = np.array([1.0, 2.0, -1.0])
        X = np.zeros((3, 2))
        expected = float(y @ y) / 6.0
        assert elastic_net_objective(X, y, np.zeros(2), 0.5, 0.1) == pytest.approx(expected, rel=1e-15)

    def test_two_point_hand_instance(self):
        # column [1,-1] has squared norm 2 = N; y = [1,-1]; lambda1 = 0.5
        # z = x'y/N = 1, so beta = S(1, 0.5) = 0.5 and
        # f = (1/4)(0.5^2 + 0.5^2) + 0.5*0.5 = 0.375
        X = np.array([[1.0], [-1.0]])
        y = np.array([1.0, -1.0])
        result = lasso_fit(X, y, PenaltyConfig(lambda1=0.5))
        np.testing.assert_allclose(result.coefficients, [0.5], atol=1e-12)
        assert result.objective_value == pytest.approx(0.375, abs=1e-12)
        assert result.kkt_violation <= 1e-10


class TestLasso:
    def test_matches_grid_oracle_on_small_instances(self):
        for seed in range(12):
            n = 4 + seed % 7
            m = 1 + seed % 3
            X, y = regression_instance(seed, n, m)
            lam_max = float(np.abs(X.T @ y).max()) / n
            lam = lam_max * (0.15 + 0.1 * (seed % 8))
            result = lasso_fit(X, y, PenaltyConfig(lambda1=lam))
            oracle = grid_search_lasso_objective(X, y, lam)
            assert result.objective_value == pytest.approx(oracle, abs=1e-6)

    def test_threshold_above_lambda_max_zeroes_everything(self):
        X, y = regression_instance(3, 20, 5)
        lam_max = float(np.abs(X.T @ y).max()) / 20
        result = lasso_fit(X, y, PenaltyConfig(lambda1=lam_max * 1.01))
        np.testing.assert_array_equal(result.coefficients, np.zeros(5))

    def test_rejects_unstandardized_input(self):
        X = np.arange(12, dtype=float).reshape(6, 2)
        with pytest.raises(ContractError):
            lasso_fit(X, np.arange(6, dtype=float), PenaltyConfig(lambda1=0.1))

    def test_zero_column_keeps_zero_coefficient(self):
        X, y = regression_instance(5, 15, 3)
        X_aug = np.column_stack([X, np.zeros(15)])
        result = lasso_fit(X_aug, y, PenaltyConfig(lambda1=0.05))
        base = lasso_fit(X, y, PenaltyConfig(lambda1=0.05))
        assert result.coefficients[3] == 0.0
        np.testing.assert_allclose(result.coefficients[:3], base.coefficients,
                                   atol=1e-12)

    def test_non_convergence_is_flagged_not_raised(self):
        X, y = regression_instance(7, 30, 8)
        result = lasso_fit(X, y, PenaltyConfig(lambda1=1e-4, max_sweeps=1))
        assert not result.converged
        assert result.sweeps_used == 1

    def test_sweep_objectives_never_increase(self):
        X, y = regression_instance(9, 25, 6)
        result = lasso_fit(X, y, PenaltyConfig(lambda1=0.02))
        objectives = sweep_objectives(X, y, 0.02, 0.0, 1e-7,
                                      range(1, result.sweeps_used + 1))
        assert objectives[-1] == result.objective_value
        diffs = np.diff(objectives)
        assert np.all(diffs <= 1e-12)


class TestSweep:
    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("lambda1_frac", [1e-3, 0.5, 0.999, 1.0, 1.2])
    @settings(derandomize=True, deadline=None, max_examples=8)
    @given(seed=st.integers(0, 10_000), n=st.integers(5, 40),
           m=st.integers(1, 30), lambda2=st.sampled_from([0.0, 0.01, 2.0]),
           max_sweeps=st.sampled_from([1, 3, 2000]),
           numpy_scalars=st.booleans())
    def test_bit_identical_to_reference_sweep(self, wide, lambda1_frac, seed,
                                              n, m, lambda2, max_sweeps,
                                              numpy_scalars):
        if wide:
            # residual branch; few rows and sweeps keep it cheap
            n, m = 5 + n % 8, _GRAM_COLUMN_LIMIT - 1 + m % 6
            max_sweeps = min(max_sweeps, 3)
        X, y = regression_instance(seed, n, m)
        # a copy of column 0 right after it, and a zero column at the end
        X = np.column_stack([X[:, :1], X, np.zeros(n)])
        assert (X.shape[1] > _GRAM_COLUMN_LIMIT) == wide
        # the lambda search passes numpy scalars, fixed penalties are floats
        scalar = np.float64 if numpy_scalars else float
        lambda1 = scalar(lambda1_frac * np.abs(X.T @ y).max() / n)
        args = (X, y, lambda1, scalar(lambda2), 1e-7, max_sweeps)
        beta, sweeps, converged = _coordinate_descent(*args)
        ref_beta, ref_sweeps, ref_converged, ref_objectives = \
            reference_coordinate_descent(*args)
        assert beta.dtype == ref_beta.dtype
        assert beta.tobytes() == ref_beta.tobytes()
        assert (sweeps, converged) == (ref_sweeps, ref_converged)
        # each refit costs k sweeps, so take every sweep up to 16, then
        # powers of two and the last one
        counts = sorted({*range(1, min(sweeps, 16) + 1), sweeps,
                         *(2 ** j for j in range(4, sweeps.bit_length()))})
        objectives = sweep_objectives(*args[:5], counts)
        assert (np.array(objectives).tobytes()
                == np.array([ref_objectives[k - 1] for k in counts]).tobytes())


class TestElasticNet:
    def test_lambda2_zero_degenerates_to_lasso(self):
        for seed in range(20):
            X, y = regression_instance(100 + seed, 20, 6)
            lam = 0.05 + 0.01 * seed
            en = elastic_net_fit_cd(X, y, PenaltyConfig(lambda1=lam, lambda2=0.0))
            la = lasso_fit(X, y, PenaltyConfig(lambda1=lam))
            np.testing.assert_allclose(en.coefficients, la.coefficients,
                                       atol=1e-10)

    def test_grouping_on_duplicated_columns(self):
        # the 1e-8 pair tolerance needs convergence beyond the 1e-7 default
        for seed in range(10):
            X, y, (i, j) = duplicated_instance(200 + seed)
            en = elastic_net_fit_cd(X, y, PenaltyConfig(lambda1=0.05,
                                                        lambda2=0.5,
                                                        stop_thr=1e-9))
            assert abs(en.coefficients[i] - en.coefficients[j]) <= 1e-8
            # both copies keep weight; the planted signal is strong
            assert abs(en.coefficients[i]) > 1e-3

    def test_lasso_concentrates_on_one_duplicate(self):
        for seed in range(10):
            X, y, (i, j) = duplicated_instance(300 + seed)
            la = lasso_fit(X, y, PenaltyConfig(lambda1=0.05))
            hits = select_support(la, min_magnitude=1e-8)
            assert len({i, j} & set(hits.tolist())) == 1

    def test_ridge_shrinks_relative_to_lasso(self):
        X, y = regression_instance(11, 30, 5)
        la = lasso_fit(X, y, PenaltyConfig(lambda1=0.01))
        en = elastic_net_fit_cd(X, y, PenaltyConfig(lambda1=0.01, lambda2=2.0))
        assert np.abs(en.coefficients).sum() < np.abs(la.coefficients).sum()


class TestKkt:
    def test_converged_solves_satisfy_kkt(self):
        for seed in range(20):
            X, y = regression_instance(400 + seed, 25, 7)
            cfg = PenaltyConfig(lambda1=0.03, lambda2=0.2 * (seed % 3))
            result = elastic_net_fit_cd(X, y, cfg)
            assert result.converged
            assert result.kkt_violation < 100 * cfg.stop_thr
            # report field matches a fresh computation on the same point
            fresh = kkt_violation(X, y, cfg, result.coefficients)
            assert fresh == pytest.approx(result.kkt_violation, abs=1e-14)

    def test_kkt_flags_a_bad_point(self):
        X, y = regression_instance(12, 20, 4)
        cfg = PenaltyConfig(lambda1=0.05)
        bad = np.full(4, 5.0)
        assert kkt_violation(X, y, cfg, bad) > 0.1


class TestSupportAndPersistence:
    def test_select_support_threshold(self):
        beta = np.array([0.0, 1e-12, -0.5, 2.0])
        np.testing.assert_array_equal(select_support(beta), [1, 2, 3])
        np.testing.assert_array_equal(select_support(beta, 1e-9), [2, 3])

    def test_round_trip(self, tmp_path):
        X, y = regression_instance(13, 15, 4)
        result = lasso_fit(X, y, PenaltyConfig(lambda1=0.02))
        path = tmp_path / "coef.txt"
        save_coefficients(path, result.coefficients)
        np.testing.assert_array_equal(load_coefficients(path),
                                      result.coefficients)


class TestPenaltyConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(lambda1=-0.1),
        dict(lambda1=0.1, lambda2=-1.0),
        dict(lambda1=0.1, stop_thr=0.0),
        dict(lambda1=0.1, max_sweeps=0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            PenaltyConfig(**kwargs)
