"""The SVM-reduction route must land on the same optimum as coordinate
descent. The two solvers share no code beyond the objective function, so
agreement is a genuine cross-check."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enetpipe import (PenaltyConfig, PipelineConfig, SyntheticSpec,
                      elastic_net_fit_cd, elastic_net_fit_svm_reduction,
                      elastic_net_objective, generate_synthetic, pca_fit,
                      pca_transform, run_pipeline, standardize_columns, sven)
from enetpipe.errors import (ConfigError, ContractError, DataFormatError,
                             NumericalError)
from enetpipe.sven import _ridge_solve
from helpers import (duplicated_instance, regression_instance,
                     tiny_lambda2_instance)


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


# A fit whose active-set steps are not certified runs the root find on the
# budget multiplier, which needs a handful of budget solves; a bracketing
# search that spends dozens is a regression.
_MAX_BUDGET_SOLVES = 30


# Measured levels against CD at stop_thr 1e-9 / 1e-10, where CD's own
# stopping error dominates: relative objective gap 3.0e-16 and coefficient
# distance 9.3e-13; the tolerances leave a margin of a few decades.
_OBJECTIVE_REL_TOL = 1e-14
_COEFFICIENT_ATOL = 1e-11

# The KKT certificate of a fit that ends in a support solve.
_EXACT_KKT = 1e-12


def test_matches_coordinate_descent_objective():
    worst = 0.0
    for seed in range(15):
        n = 12 + 3 * (seed % 5)
        m = 2 + seed % 6
        X, y = regression_instance(500 + seed, n, m)
        lam1 = 0.02 + 0.01 * (seed % 4)
        lam2 = 0.05 + 0.05 * (seed % 3)
        cfg = PenaltyConfig(lambda1=lam1, lambda2=lam2, stop_thr=1e-9)
        cd = elastic_net_fit_cd(X, y, cfg)
        sven = elastic_net_fit_svm_reduction(X, y, cfg)
        worst = max(worst, _rel_gap(sven.objective_value, cd.objective_value))
        assert sven.sweeps_used <= _MAX_BUDGET_SOLVES
        assert sven.kkt_violation <= _EXACT_KKT
    assert worst <= _OBJECTIVE_REL_TOL


def test_coefficients_agree_with_cd():
    # lambda2 > 0 makes the optimum unique, so the points must match too
    X, y = regression_instance(600, 25, 5)
    cfg = PenaltyConfig(lambda1=0.03, lambda2=0.2, stop_thr=1e-10)
    cd = elastic_net_fit_cd(X, y, cfg)
    sven = elastic_net_fit_svm_reduction(X, y, cfg)
    np.testing.assert_allclose(sven.coefficients, cd.coefficients, rtol=0.0,
                               atol=_COEFFICIENT_ATOL)
    assert sven.sweeps_used <= _MAX_BUDGET_SOLVES


def test_grouping_effect_survives_the_reduction():
    X, y, (i, j) = duplicated_instance(601)
    cfg = PenaltyConfig(lambda1=0.05, lambda2=0.5)
    sven = elastic_net_fit_svm_reduction(X, y, cfg)
    assert abs(sven.coefficients[i] - sven.coefficients[j]) <= 1e-6
    assert abs(sven.coefficients[i]) > 1e-3


def test_objective_field_is_the_true_objective():
    X, y = regression_instance(602, 20, 4)
    cfg = PenaltyConfig(lambda1=0.04, lambda2=0.1)
    sven = elastic_net_fit_svm_reduction(X, y, cfg)
    recomputed = elastic_net_objective(X, y, sven.coefficients,
                                       cfg.lambda1, cfg.lambda2)
    assert sven.objective_value == pytest.approx(recomputed, rel=1e-12)


def test_wide_matrix_agrees_with_cd_and_is_certified():
    # more columns than rows: 2p > n margin rows, an n < p support system
    X, y = regression_instance(603, 8, 14, noise=0.5)
    cfg = PenaltyConfig(lambda1=0.05, lambda2=0.3, stop_thr=1e-9)
    cd = elastic_net_fit_cd(X, y, cfg)
    sven = elastic_net_fit_svm_reduction(X, y, cfg)
    assert _rel_gap(sven.objective_value, cd.objective_value) <= \
        _OBJECTIVE_REL_TOL
    assert sven.kkt_violation <= _EXACT_KKT
    assert sven.sweeps_used <= _MAX_BUDGET_SOLVES


@pytest.mark.parametrize("n, m", [(20, 600), (40, 3000)])
def test_wide_bracket_end_solves_the_n_by_n_ridge_system(n, m):
    # with fewer rows than columns the ridge solution that ends the budget
    # bracket comes from an N x N system; it is the P x P system's solution
    X, y = regression_instance(3, n, m)
    lam2 = 0.1
    full = np.linalg.solve(X.T @ X / n + 2.0 * lam2 * np.eye(m), X.T @ y / n)
    ridge = _ridge_solve(X, X.T @ y / n, lam2)
    assert np.linalg.norm(ridge - full) <= 1e-9 * np.linalg.norm(full)
    cfg = PenaltyConfig(lambda1=0.2 * np.abs(X.T @ y).max() / n,
                        lambda2=lam2, stop_thr=1e-9)
    sven = elastic_net_fit_svm_reduction(X, y, cfg)
    cd = elastic_net_fit_cd(X, y, cfg)
    assert sven.kkt_violation <= 1e-9
    assert _rel_gap(sven.objective_value, cd.objective_value) <= 1e-4
    assert sven.sweeps_used <= _MAX_BUDGET_SOLVES


def test_pure_l1_is_rejected():
    X, y = regression_instance(604, 10, 3)
    with pytest.raises(ConfigError):
        elastic_net_fit_svm_reduction(X, y, PenaltyConfig(lambda1=0.1,
                                                          lambda2=0.0))


def test_zero_targets_give_degenerate_zero_solution():
    X, _ = regression_instance(605, 12, 3)
    cfg = PenaltyConfig(lambda1=0.1, lambda2=0.5)
    result = elastic_net_fit_svm_reduction(X, np.zeros(12), cfg)
    np.testing.assert_array_equal(result.coefficients, np.zeros(3))
    assert result.degenerate


def test_requires_standardized_input():
    X = np.arange(20, dtype=float).reshape(10, 2)
    with pytest.raises(ContractError):
        elastic_net_fit_svm_reduction(X, np.arange(10, dtype=float),
                                      PenaltyConfig(lambda1=0.1, lambda2=0.1))


def test_non_finite_label_is_rejected_as_in_coordinate_descent():
    # unchecked, a NaN label gives zeros with a KKT violation of 0.0
    X, y = regression_instance(607, 12, 3)
    y[4] = np.nan
    cfg = PenaltyConfig(lambda1=0.1, lambda2=0.5)
    for fit in (elastic_net_fit_cd, elastic_net_fit_svm_reduction):
        with pytest.raises(DataFormatError):
            fit(X, y, cfg)


def test_large_lambda1_zeroes_out():
    X, y = regression_instance(606, 15, 4)
    lam_max = float(np.abs(X.T @ y).max()) / 15
    cfg = PenaltyConfig(lambda1=lam_max * 2.0, lambda2=0.1)
    result = elastic_net_fit_svm_reduction(X, y, cfg)
    np.testing.assert_allclose(result.coefficients, np.zeros(4), atol=1e-8)


@pytest.mark.parametrize("seed, n, m, lam2", [
    (602, 15, 4, 0.1),    # 2p <= n margin rows
    (608, 8, 14, 0.3),    # 2p > n margin rows
])
def test_zero_at_and_above_lambda_max_on_both_branches(seed, n, m, lam2):
    # At lambda1 >= lambda_max the KKT conditions hold at zero, so the route
    # must return exactly zero rather than search toward t = 0, where the
    # margin solve breaks down.
    X, y = regression_instance(seed, n, m, noise=0.5)
    lam_max = float(np.abs(X.T @ y).max()) / n
    for factor in (1.0, 1.5):
        cfg = PenaltyConfig(lambda1=lam_max * factor, lambda2=lam2)
        result = elastic_net_fit_svm_reduction(X, y, cfg)
        np.testing.assert_array_equal(result.coefficients, np.zeros(m))
        assert result.kkt_violation == 0.0
    # Just inside lambda_max the search still runs and must match CD. The
    # objective alone barely moves there (zero is within 1e-6 relative), so
    # the small nonzero coefficient is what pins the boundary in place.
    cfg = PenaltyConfig(lambda1=lam_max * 0.999, lambda2=lam2, stop_thr=1e-10)
    cd = elastic_net_fit_cd(X, y, cfg)
    sven = elastic_net_fit_svm_reduction(X, y, cfg)
    assert _rel_gap(sven.objective_value, cd.objective_value) <= 1e-4
    assert np.abs(cd.coefficients).max() > 1e-3
    np.testing.assert_allclose(sven.coefficients, cd.coefficients, atol=1e-5)
    assert sven.sweeps_used <= _MAX_BUDGET_SOLVES


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 10_000), n=st.integers(5, 20),
       m=st.integers(1, 24), duplicate=st.booleans(),
       factor=st.sampled_from([0.5, 0.99, 0.999, 1.0, 1.5]),
       lam2=st.sampled_from([0.05, 0.5]))
def test_edge_inputs_agree_with_cd_and_closed_form_zero(seed, n, m, duplicate,
                                                        factor, lam2):
    # lambda1 around lambda_max, duplicated columns, n < p and p = 1: the
    # route raises nothing, matches CD, and is exactly zero at and above
    # lambda_max. Each draw runs again with the steps forced empty, so the
    # budget search is checked against CD as well.
    X, y = regression_instance(seed, n, m, noise=0.5)
    if duplicate:
        X = np.column_stack([X[:, 0], X])
    lam_max = float(np.abs(X.T @ y).max()) / n
    cfg = PenaltyConfig(lambda1=factor * lam_max, lambda2=lam2,
                        stop_thr=1e-10)
    cd = elastic_net_fit_cd(X, y, cfg)
    stepped = elastic_net_fit_svm_reduction(X, y, cfg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sven, "_step_pattern", _empty_pattern)
        searched = elastic_net_fit_svm_reduction(X, y, cfg)
    for fit in (stepped, searched):
        assert _rel_gap(fit.objective_value, cd.objective_value) <= 1e-4
    if factor >= 1.0:
        zero = np.zeros(X.shape[1])
        np.testing.assert_array_equal(cd.coefficients, zero)
        for fit in (stepped, searched):
            np.testing.assert_array_equal(fit.coefficients, zero)
            assert fit.objective_value == elastic_net_objective(
                X, y, zero, cfg.lambda1, cfg.lambda2)


def _empty_pattern(X, y, cfg, beta):
    # the support solve on no columns is zero, and the pattern repeats at
    # once: the budget search runs unless zero is the optimum
    return np.zeros(X.shape[1])


def test_failed_budget_solve_counts_as_infeasible(monkeypatch):
    # A budget whose margin solves both fail counts as a budget below the
    # optimum, not raised; the optimum lies elsewhere, so the result still
    # matches CD. On this instance t* = 0.964 and the search visits
    # t = 0.812, so failures below t = 0.9 are hit and must be stepped over.
    # The active-set steps certify this instance before any budget solve,
    # so they are replaced by the empty pattern, which never certifies.
    real = sven._budget_solution
    calls = {"failed": 0}

    def flaky(X, y, t, lambda2_unnorm):
        if t < 0.9:
            calls["failed"] += 1
            raise np.linalg.LinAlgError("Singular matrix")
        return real(X, y, t, lambda2_unnorm)

    monkeypatch.setattr(sven, "_budget_solution", flaky)
    monkeypatch.setattr(sven, "_step_pattern", _empty_pattern)
    X, y = regression_instance(602, 15, 4, noise=0.5)
    lam_max = float(np.abs(X.T @ y).max()) / 15
    cfg = PenaltyConfig(lambda1=0.5 * lam_max, lambda2=0.1, stop_thr=1e-10)
    cd = elastic_net_fit_cd(X, y, cfg)
    result = elastic_net_fit_svm_reduction(X, y, cfg)
    assert calls["failed"] > 0
    assert np.abs(result.coefficients).sum() >= 0.9
    np.testing.assert_allclose(result.coefficients, cd.coefficients, atol=1e-5)


@pytest.mark.parametrize("n, m", [(20, 600), (40, 3000)])
def test_wide_fits_end_in_a_certified_support_solve(n, m):
    # On n << p data Brent alone stops at KKT 1e-8; the support solve
    # finishes the fit exactly, on its N x N form when the support is wider
    # than N.
    X, y = regression_instance(3, n, m)
    cfg = PenaltyConfig(lambda1=0.1 * np.abs(X.T @ y).max() / n,
                        lambda2=0.1)
    sven = elastic_net_fit_svm_reduction(X, y, cfg)
    assert sven.kkt_violation <= _EXACT_KKT
    assert sven.converged
    assert sven.sweeps_used <= _MAX_BUDGET_SOLVES


def test_narrow_compare_folds_end_in_a_certified_support_solve(monkeypatch):
    # The benchmark's README-default data, 10 folds, lambda1 0.05: with PCA
    # (180 x 22 designs) every fold's fit meets the certificate at its
    # gradient-at-zero pattern, and without it (180 x 29) after a few
    # active-set steps; neither makes a budget solve.
    import enetpipe.pipeline as pl
    real, fits = pl.elastic_net_fit_svm_reduction, []

    def record(X, y, cfg):
        fits.append(real(X, y, cfg))
        return fits[-1]

    monkeypatch.setattr(pl, "elastic_net_fit_svm_reduction", record)
    X, labels, _ = generate_synthetic(SyntheticSpec(200, 3, 3, 0.8, 0.3, 20,
                                                    seed=1))
    for use_pca in (True, False):
        fits.clear()
        run_pipeline(PipelineConfig(selector="elastic_net_svm", lambda1=0.05,
                                    k_folds=10, seed=1, use_pca=use_pca),
                     X, labels)
        assert len(fits) == 10
        assert max(f.kkt_violation for f in fits) <= _EXACT_KKT
        assert [f.sweeps_used for f in fits] == [0] * 10


def test_uncertified_support_solves_fall_back_to_the_cached_minimum(
        monkeypatch):
    # With every support solve failing its certificate, the active-set steps
    # repeat a pattern and the root find runs to its bracket width; it
    # returns the budget solution of lowest objective, bit for bit the
    # route's answer before the exact finish, and says whether that budget
    # solution meets the certificate on its own.
    real, solved = sven._budget_solution, [np.zeros(5)]

    def record(X, y, t, lambda2_unnorm):
        beta, degenerate = real(X, y, t, lambda2_unnorm)
        solved.append(beta)
        return beta, degenerate

    monkeypatch.setattr(sven, "_budget_solution", record)
    monkeypatch.setattr(sven, "_support_solution",
                        lambda X, y, cfg, beta: beta + 1.0)
    X, y = regression_instance(600, 25, 5, noise=0.5)
    lam_max = float(np.abs(X.T @ y).max()) / 25
    cfg = PenaltyConfig(lambda1=0.5 * lam_max, lambda2=0.1)
    result = elastic_net_fit_svm_reduction(X, y, cfg)
    cached_min = min(solved, key=lambda b: elastic_net_objective(
        X, y, b, cfg.lambda1, cfg.lambda2))
    assert result.coefficients.tobytes() == cached_min.tobytes()
    assert result.sweeps_used == len(solved) - 1 == 7
    assert hashlib.sha256(result.coefficients.tobytes()).hexdigest() == (
        "d96a2aea6e86800dcb42a4dcc2692cf396fdcf454b4389ecdd9e78d306487f91")
    assert result.kkt_violation <= 1e-9
    assert result.converged == (result.kkt_violation <= _EXACT_KKT)


def _pca_design(X):
    """PCA scores re-standardized on their own rows, as a fold's design."""
    scores = pca_transform(pca_fit(X, retain=0.95), X)
    return standardize_columns(scores)[0]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 10_000), n=st.integers(8, 60),
       m=st.integers(1, 30), duplicate=st.booleans(),
       factor=st.floats(0.001, 0.99),
       lam2=st.sampled_from([0.01, 0.1, 0.5, 2.0]))
def test_pca_designs_certify_before_any_budget_solve(seed, n, m, duplicate,
                                                     factor, lam2):
    # X'X/N = I, so the optimum's support and signs are the gradient's at
    # zero; the fit ends there, bit for bit where the budget search ends
    X, y = regression_instance(seed, n, m, noise=0.5)
    if duplicate:
        X = np.column_stack([X[:, 0], X])
    X = _pca_design(X)
    cfg = PenaltyConfig(lambda1=factor * np.abs(X.T @ y).max() / n,
                        lambda2=lam2)
    fit = elastic_net_fit_svm_reduction(X, y, cfg)
    assert fit.sweeps_used == 0
    assert fit.kkt_violation <= _EXACT_KKT
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sven, "_step_pattern", _empty_pattern)
        searched = elastic_net_fit_svm_reduction(X, y, cfg)
    assert searched.sweeps_used > 0
    assert searched.coefficients.tobytes() == fit.coefficients.tobytes()
    assert searched.kkt_violation == fit.kkt_violation


_step_pattern = sven._step_pattern


def _flipped_pattern(X, y, cfg, beta):
    return -_step_pattern(X, y, cfg, beta)


def _singular_pattern(X, y, cfg, beta):
    raise np.linalg.LinAlgError("Singular matrix")


@pytest.mark.parametrize("first_step", [_flipped_pattern, _singular_pattern,
                                        _empty_pattern])
def test_a_failed_first_step_leaves_the_budget_search_as_it_was(
        monkeypatch, first_step):
    # Steps that fail the certificate, or whose pattern raises, hand the fit
    # to the budget search, which ends as it did before the steps existed:
    # 3 budget solves and the same coefficient bytes.
    X, y = regression_instance(609, 30, 8, noise=0.5)
    cfg = PenaltyConfig(lambda1=0.5 * np.abs(X.T @ y).max() / 30,
                        lambda2=0.1)
    first = elastic_net_fit_svm_reduction(X, y, cfg)
    monkeypatch.setattr(sven, "_step_pattern", first_step)
    searched = elastic_net_fit_svm_reduction(X, y, cfg)
    assert (first.sweeps_used, searched.sweeps_used) == (0, 3)
    assert searched.coefficients.tobytes() == first.coefficients.tobytes()
    assert hashlib.sha256(searched.coefficients.tobytes()).hexdigest() == (
        "4a5ec8646f0170e12299af1e557164ee0aa33db619cc9ceaf9f2aad2450f71b7")


def test_a_fit_certified_at_once_builds_no_budget_search(monkeypatch):
    # the budget bracket's ridge solve runs only when the search does, so a
    # fit certified at its first step makes the support solve's alone
    real, calls = sven._ridge_solve, []

    def record(X, rhs, lambda2):
        calls.append(X.shape)
        return real(X, rhs, lambda2)

    monkeypatch.setattr(sven, "_ridge_solve", record)
    X, y = regression_instance(609, 30, 8, noise=0.5)
    cfg = PenaltyConfig(lambda1=0.5 * np.abs(X.T @ y).max() / 30,
                        lambda2=0.1)
    fit = elastic_net_fit_svm_reduction(X, y, cfg)
    assert fit.sweeps_used == 0 and fit.converged
    assert len(calls) == 1


def _tiny_lambda2_design(duplicate, shape=(40, 6)):
    X, y = tiny_lambda2_instance(duplicate, shape)
    return standardize_columns(X)[0], y


@pytest.mark.parametrize("duplicate, lam2", [
    (False, 1e-320),   # the margin cost overflows: a budget solve would fail
    (False, 1e-16),    # the gradient-at-zero pattern is not the optimum's
    (True, 1e-300),    # the ridge system bounding the budget is singular
    (True, 1e-30),
])
def test_tiny_lambda2_gives_a_finite_fit_that_says_if_it_is_certified(
        duplicate, lam2):
    # the active-set steps certify the plain design before any budget
    # solve, at CD's optimum; with the copied column no support solve
    # certifies and the search returns zero, flagged unconverged
    X, y = _tiny_lambda2_design(duplicate)
    cfg = PenaltyConfig(lambda1=0.05, lambda2=lam2)
    fit = elastic_net_fit_svm_reduction(X, y, cfg)
    assert np.isfinite(fit.coefficients).all()
    assert fit.objective_value == elastic_net_objective(
        X, y, fit.coefficients, 0.05, lam2)
    if duplicate:
        assert fit.kkt_violation > _EXACT_KKT and not fit.converged
    else:
        assert fit.kkt_violation <= _EXACT_KKT and fit.converged
        assert fit.sweeps_used == 0
        cd = elastic_net_fit_cd(X, y, cfg)
        assert _rel_gap(fit.objective_value, cd.objective_value) <= \
            _OBJECTIVE_REL_TOL
        assert fit.objective_value == pytest.approx(0.2317, abs=1e-4)


@pytest.mark.parametrize("fit", [elastic_net_fit_cd,
                                 elastic_net_fit_svm_reduction],
                         ids=["cd", "svm"])
@pytest.mark.parametrize("duplicate, shape, lam2", [
    (False, (40, 6), 1e308),   # 2 lambda2 overflows in the ridge terms
    (True, (40, 6), 1e308),
    (False, (20, 60), 1e308),
    (False, (20, 60), 1e-310),  # the push-through form's division overflows
    (False, (20, 60), 1e-320),
], ids=["plain-1e308", "duplicated-1e308", "wide-1e308", "wide-1e-310",
        "wide-1e-320"])
def test_extreme_lambda2_fits_are_finite_flagged_and_silent(
        fit, duplicate, shape, lam2):
    # pytest turns any RuntimeWarning these fits emit into a failure
    X, y = _tiny_lambda2_design(duplicate, shape)
    cfg = PenaltyConfig(lambda1=0.05, lambda2=lam2)
    result = fit(X, y, cfg)
    assert np.isfinite(result.coefficients).all()
    assert np.isfinite(result.objective_value)
    assert np.isfinite(result.kkt_violation)
    if fit is elastic_net_fit_svm_reduction:
        assert result.converged == (result.kkt_violation <= _EXACT_KKT)
    if lam2 == 1e308:
        # both routes return zero, which is 0.45-0.53 from the KKT
        # conditions: the ridge term 2 lambda2 beta must not turn it NaN
        np.testing.assert_array_equal(result.coefficients, 0.0)
        assert result.kkt_violation == (
            np.abs(X.T @ y).max() / X.shape[0] - 0.05)
        assert result.kkt_violation > 0.4


@pytest.mark.parametrize("lam2", [1e-300, 1e-30])
def test_singular_budget_bound_without_lambda1_is_a_numerical_error(lam2):
    # with lambda1 = 0 the objective gives no bound on the budget either
    X, y = _tiny_lambda2_design(True)
    with pytest.raises(NumericalError, match="singular"):
        elastic_net_fit_svm_reduction(
            X, y, PenaltyConfig(lambda1=0.0, lambda2=lam2))


def test_a_non_finite_budget_solution_is_a_failed_solve():
    # a NaN handed to the root find would raise ValueError out of brentq
    X, y = _tiny_lambda2_design(False)
    with pytest.raises(np.linalg.LinAlgError, match="not finite"):
        sven._budget_solution(X, y, 1.0, 2.0 * 40 * 1e-320)
