"""Elastic net solved through a squared-hinge margin problem.

The penalized problem is handled in two layers. For a fixed L1 budget t the
feature columns are turned into 2p labeled rows, ``x_j - y/t`` with label +1
and ``x_j + y/t`` with label -1, and a bias-free squared-hinge classifier is
fit on them; its multipliers alpha recover the budget-constrained minimizer
as ``beta = t * (alpha[:p] - alpha[p:]) / sum(alpha)``. The budget itself is
the root of h(t) = mu(t) - lambda1, where mu(t) is the multiplier of the
budget constraint read off the recovered point; it is found by Brent's
method.

The solution is piecewise linear in t: on one piece it is fixed by its
support A and signs s alone, beta_A = (X_A'X_A/N + 2 lambda2 I)^-1
(X_A'y/N - lambda1 s) (the LARS-EN piece solve). After each budget solve
that system is solved on the recovered point's support and signs; once its
KKT violation is at most 1e-12, the certificate the fit reports, it is the
optimum and the root find stops. So the answer depends on the data, the
penalties, the support and the signs, not on the bits of the budget solves.
If no support solve is certified, Brent runs until the budget bracket is
1e-12 * max(1, t_hi) wide and the budget solution of lowest objective is
returned.

Before any budget solve, that system is solved along primal-dual active-set
steps (Hintermueller, Ito and Kunisch 2002; Fan, Jiao and Lu 2014): from
beta the next pattern is sign(z_j) where |z_j| > lambda1, z = beta +
X'(y - X beta)/N. From zero these are the columns whose KKT condition fails
there, with signs sign(x_j'y); on an orthogonal design, X'X/N = I as for PCA
scores re-standardized on their own rows, that is the optimum's pattern. A
certified step ends the fit with no budget solve and without loading
scipy.optimize; a repeated pattern, a LinAlgError or 10 uncertified steps
leave the budget search to run as above.

The margin problem is solved in the primal by Newton's method, which is not
reliable at very small budgets: once t nears sqrt(eps) * max|y| the y/t
part of the augmented rows swamps the x_j part and the Newton system can
turn singular. A budget whose solve fails with ``LinAlgError`` or gives a
non-finite point counts as a budget below the optimum (h > 0) in the root
find, never raised.

When max|X'y|/N <= lambda1 the gradient-at-zero pattern is empty, its
support solve is zero, and zero meets the certificate whatever lambda2;
this covers lambda1 >= lambda_max, where the root sits at t = 0, in the
unreliable small-t band, and X'y = 0, the one fit flagged degenerate
without a budget solve.

``converged`` says the returned point meets the 1e-12 certificate. A tiny
lambda2 can defeat it: near 1e-16 the support solves may all miss it, once
the margin cost 1/(2 lambda2) overflows every budget solve fails, and on
duplicated columns the ridge system bounding the budget turns singular, so
y'y/(2 N lambda1) bounds it instead (NumericalError when lambda1 = 0). So
can a huge lambda2: once 2 N lambda2 overflows the margin cost is zero and
every budget solution is zero, and once the ridge term of the support
system (2 lambda2, or 2 N lambda2 in the push-through form) overflows the
support solves are not finite. The fit then returns the
lowest-objective budget solution, zero if none succeeded, with converged
False. The solves run with numpy's floating-point warnings off: an
overflow shows as a non-finite, uncertified point.
"""

from __future__ import annotations

from contextlib import suppress

import numpy as np

from .data import validate_labels
from .errors import ConfigError, NumericalError
from .solvers import (
    PenaltyConfig,
    SolverResult,
    check_standardized,
    elastic_net_objective,
    kkt_violation,
)

# Width of the final budget bracket, relative to max(1, t_hi).
_ROOT_REL_WIDTH = 1e-12
# A support solve whose KKT violation is at most this ends the fit.
_EXACT_KKT = 1e-12
# Active-set steps taken at most before the budget search.
_MAX_STEPS = 10

__all__ = ["elastic_net_fit_svm_reduction"]


def _primal_margin_solve(aug, labels, cost, tol=1e-11, max_iters=200):
    """Minimize 0.5||w||^2 + cost * sum max(0, 1 - m_i)^2 over w by Newton
    and return the multipliers cost * max(0, 1 - m_i).

    m_i = labels[i] * (aug[i] @ w). Piecewise quadratic and strictly convex,
    so Newton with backtracking terminates on the exact active set. A step
    that is not finite or does not decrease raises LinAlgError at once.
    """
    n_cols = aug.shape[1]
    signed = labels[:, None] * aug
    w = np.zeros(n_cols)
    for _ in range(max_iters):
        margins = signed @ w
        active = margins < 1.0
        grad = w - 2.0 * cost * signed[active].T @ (1.0 - margins[active])
        if np.abs(grad).max(initial=0.0) <= tol * max(1.0, 2.0 * cost):
            break
        hess = np.eye(n_cols) + 2.0 * cost * signed[active].T @ signed[active]
        step_dir = np.linalg.solve(hess, -grad)
        if not (np.isfinite(grad).all() and np.isfinite(step_dir).all()):
            raise np.linalg.LinAlgError("the Newton step is not finite")
        f0 = 0.5 * w @ w + cost * np.sum(np.maximum(0.0, 1.0 - margins) ** 2)
        slope = grad @ step_dir
        step = 1.0
        for _ in range(60):
            w_try = w + step * step_dir
            f_try = (0.5 * w_try @ w_try
                     + cost * np.sum(np.maximum(0.0, 1.0 - signed @ w_try) ** 2))
            if f_try <= f0 + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            raise np.linalg.LinAlgError("no decrease along the Newton step")
        w = w + step * step_dir
    return cost * np.maximum(1.0 - labels * (aug @ w), 0.0)


def _budget_solution(X, y, t, lambda2_unnorm):
    """Constrained solution at budget t. Returns (beta, degenerate); raises
    LinAlgError when the margin solve fails or gives a non-finite point, as
    it does once lambda2 is so small that the cost overflows."""
    p = X.shape[1]
    cost = 1.0 / (2.0 * lambda2_unnorm)
    aug = np.vstack([X.T - y / t, X.T + y / t])
    labels = np.concatenate([np.ones(p), -np.ones(p)])
    with np.errstate(all="ignore"):      # overflow shows as a non-finite beta
        alpha = _primal_margin_solve(aug, labels, cost)
        total = alpha.sum()
        if total <= 0.0:
            return np.zeros(p), True
        beta = t * (alpha[:p] - alpha[p:]) / total
    if not np.isfinite(beta).all():
        raise np.linalg.LinAlgError("the budget solution is not finite")
    return beta, False


def _ridge_solve(X, rhs, lambda2):
    """(X'X/N + 2 lambda2 I)^-1 rhs. With fewer rows than columns it is
    solved in the push-through form (rhs - X'(2 lambda2 N I + XX')^-1 X rhs)
    / (2 lambda2), an N x N system in place of the P x P one."""
    n, p = X.shape
    if n < p:
        inner = np.linalg.solve(X @ X.T + 2.0 * lambda2 * n * np.eye(n),
                                X @ rhs)
        return (rhs - X.T @ inner) / (2.0 * lambda2)
    return np.linalg.solve(X.T @ X / n + 2.0 * lambda2 * np.eye(p), rhs)


def _support_solution(X, y, cfg: PenaltyConfig, beta):
    """The penalized optimum if beta's support A and signs s are the
    optimum's: beta_A = (X_A'X_A/N + 2 lambda2 I)^-1 (X_A'y/N - lambda1 s),
    zero elsewhere (the LARS-EN piece solve)."""
    support = np.flatnonzero(beta)
    X_a = X[:, support]
    exact = np.zeros_like(beta)
    exact[support] = _ridge_solve(
        X_a, X_a.T @ y / X.shape[0] - cfg.lambda1 * np.sign(beta[support]),
        cfg.lambda2)
    return exact


def _step_pattern(X, y, cfg: PenaltyConfig, beta):
    """Signs of z = beta + X'(y - X beta)/N where |z_j| > lambda1, zero
    elsewhere: the active-set step from beta, as a beta whose support and
    signs _support_solution reads."""
    z = beta + X.T @ (y - X @ beta) / X.shape[0]
    return np.where(np.abs(z) > cfg.lambda1, np.sign(z), 0.0)


class _Certified(Exception):
    """Ends the root find: a support solve met the KKT certificate."""


def elastic_net_fit_svm_reduction(X, y, cfg: PenaltyConfig) -> SolverResult:
    """Fit the elastic net via the margin-problem route.

    Active-set steps from zero or else the margin problem find the
    optimum's support; an exact solve on that support finishes the fit, at
    KKT violation <= 1e-12, the optimum elastic_net_fit_cd converges to.
    sweeps_used counts budget solves, 0 when a step was certified;
    converged says the returned point meets that certificate. Requires
    lambda2 > 0 because the margin cost 1/(2*lambda2) is undefined at zero.
    """
    if cfg.lambda2 <= 0.0:
        raise ConfigError(
            "the margin route needs lambda2 > 0; use elastic_net_fit_cd "
            "for the pure L1 problem")
    X = np.ascontiguousarray(X, dtype=np.float64)
    check_standardized(X)
    n, p = X.shape
    y = validate_labels(y, n)

    def support_solve(pattern):
        """The support solve on pattern's support and signs, and whether its
        KKT violation is at most _EXACT_KKT. LinAlgError passes through;
        callers silence numpy's warnings, as an overflow gives a non-finite
        solve."""
        exact = _support_solution(X, y, cfg, pattern)
        return exact, kkt_violation(X, y, cfg, exact) <= _EXACT_KKT

    def result(beta, evals, degenerate=False):
        kkt = kkt_violation(X, y, cfg, beta)
        return SolverResult(
            coefficients=beta,
            objective_value=elastic_net_objective(X, y, beta, cfg.lambda1,
                                                  cfg.lambda2),
            sweeps_used=evals,
            converged=kkt <= _EXACT_KKT,
            kkt_violation=kkt,
            degenerate=degenerate,
        )

    # Active-set steps from zero. The first one's support solve is exact
    # when X'X/N = I and zero when its pattern is empty (degenerate when
    # X'y = 0).
    beta, seen = np.zeros(p), set()
    with np.errstate(all="ignore"), suppress(np.linalg.LinAlgError):
        for _ in range(_MAX_STEPS):
            pattern = _step_pattern(X, y, cfg, beta)
            if pattern.tobytes() in seen:
                break
            seen.add(pattern.tobytes())
            beta, done = support_solve(pattern)
            if done:
                return result(beta, 0, degenerate=not (X.T @ y).any())

    # Quadratic weight of the unnormalized objective ||y-Xb||^2 + w||b||^2,
    # matching 2N times the per-sample penalized objective.
    lambda2_unnorm = 2.0 * n * cfg.lambda2

    # The budget never exceeds the L1 norm of the pure ridge solution, and
    # lambda1 * t can never exceed the objective at zero; the second bound
    # stands in when the ridge system is singular at a tiny lambda2.
    try:
        with np.errstate(all="ignore"):  # overflow: a non-finite bound
            t_hi = float(np.abs(_ridge_solve(X, X.T @ y / n,
                                             cfg.lambda2)).sum())
    except np.linalg.LinAlgError:
        t_hi = np.nan
    if cfg.lambda1 > 0.0:
        t_hi = float(np.fmin(t_hi, float(y @ y) / (2.0 * n * cfg.lambda1)))
    if not np.isfinite(t_hi):
        raise NumericalError(
            "the ridge system bounding the L1 budget is singular at lambda2 "
            f"= {cfg.lambda2:g}; raise lambda2 or use elastic_net_fit_cd")

    zero = np.zeros(p)
    zero_kkt = kkt_violation(X, y, cfg, zero)
    evals = 0
    degenerate_hit = False
    cache: dict[float, tuple[float, np.ndarray]] = {
        0.0: (elastic_net_objective(X, y, zero, cfg.lambda1, cfg.lambda2),
              zero)}

    def excess_multiplier(t: float) -> float:
        """h(t) = mu(t) - lambda1 at the budget-t solution."""
        nonlocal evals, degenerate_hit
        evals += 1
        try:
            beta, degen = _budget_solution(X, y, t, lambda2_unnorm)
        except np.linalg.LinAlgError:
            # The margin solves break down only at small budgets: count
            # the budget as below the optimum.
            return zero_kkt
        degenerate_hit = degenerate_hit or degen
        with np.errstate(all="ignore"), suppress(np.linalg.LinAlgError):
            exact, done = support_solve(beta)
            if done:
                raise _Certified(exact)
        cache[t] = (elastic_net_objective(X, y, beta, cfg.lambda1,
                                          cfg.lambda2), beta)
        grad = X.T @ (y - X @ beta) / n - 2.0 * (cfg.lambda2 * beta)
        return float(np.abs(grad).max()) - cfg.lambda1

    def bracketed(t: float) -> float:
        if t == 0.0:
            return zero_kkt                  # lambda_max - lambda1 > 0
        if t == t_hi:
            return -cfg.lambda1              # exact when t_hi is the ridge
        return excess_multiplier(t)

    # The optimal budget is the root of h on [0, t_hi]. mu(t), the
    # multiplier of the budget constraint, is |g_j| on the support of the
    # budget-t solution (g = X'(y - X beta)/N - 2 lambda2 beta), which is
    # also the largest |g_j| overall. It falls from lambda_max at t = 0 to
    # 0 at the ridge norm and is piecewise linear in t. The penalized
    # objective along the budget path has slope lambda1 - mu(t) = -h(t), so
    # its minimizer t* is where h changes sign, and t* <= t_hi gives
    # h(t_hi) <= 0: the bracket needs no solve at either end.
    from scipy.optimize import brentq
    try:
        root = brentq(bracketed, 0.0, t_hi,
                      xtol=_ROOT_REL_WIDTH * max(1.0, t_hi), disp=False)
        if root not in cache:                # brentq may return unsolved t_hi
            excess_multiplier(root)
    except _Certified as done:
        return result(done.args[0], evals)
    t_best = min(cache, key=lambda t: cache[t][0])
    return result(cache[t_best][1], evals, degenerate_hit and t_best > 0.0)
