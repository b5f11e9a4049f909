"""Coordinate-descent sparse regression: lasso and elastic net.

The fitted objective is

    f(beta) = (1/(2N)) * ||y - X beta||^2 + lambda1 * ||beta||_1
              + lambda2 * ||beta||_2^2

on columns standardized to squared norm N (see ``standardize_columns``).
Under that convention the partial-residual statistic

    z_j = (x_j' y - x_j' X beta) / N + beta_j

makes ``soft_threshold(z_j, lambda1) / (1 + 2 lambda2)`` the exact
coordinate minimizer, which is the update iterated here in fixed ascending
sweep order.  Gradient components ``gc = X'X beta`` are kept incrementally;
above ``_GRAM_COLUMN_LIMIT`` columns the mathematically identical residual
form is used instead of materializing the Gram matrix.

The sweep runs on plain Python floats and inlines the soft-threshold as
``(z - t) / d`` above ``t``, ``(z + t) / d`` below ``-t`` and ``0.0``
between; ``x - 0`` and ``0 - (-z - t)`` are exact, so its coefficients are
bitwise what ``soft_threshold(z, t) / d`` gives.
"""

from dataclasses import dataclass

import numpy as np

from .data import validate_feature_matrix, validate_labels
from .errors import ConfigError, ContractError, DimensionError
from .textio import read_blocks, write_blocks

_GRAM_COLUMN_LIMIT = 1024

# A standardized column must have squared norm within this relative band of
# N; columns with essentially zero norm are degenerate and skipped.
_NORM_REL_TOL = 1e-6
_ZERO_NORM_REL_TOL = 1e-8


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty weights and stopping rule for the coordinate-descent solvers.

    ``lambda1`` weights the L1 term, ``lambda2`` the quadratic term (the two
    penalties are deliberately named apart).  Iteration stops once the
    largest coefficient change in a sweep drops below ``stop_thr``.
    """

    lambda1: float
    lambda2: float = 0.0
    stop_thr: float = 1e-7
    max_sweeps: int = 10_000

    def __post_init__(self):
        if self.lambda1 < 0.0:
            raise ConfigError("lambda1 must be >= 0")
        if self.lambda2 < 0.0:
            raise ConfigError("lambda2 must be >= 0")
        if not self.stop_thr > 0.0:
            raise ConfigError("stop_thr must be > 0")
        if self.max_sweeps < 1:
            raise ConfigError("max_sweeps must be >= 1")


@dataclass
class SolverResult:
    """Outcome of a sparse-regression fit.

    ``kkt_violation`` is evaluated on the returned point.  ``converged``
    means the last sweep moved every coefficient by less than ``stop_thr``;
    non-convergence is reported through this flag, never as an exception.
    For the SVM-reduction route ``sweeps_used`` counts budget solves instead.
    """

    coefficients: np.ndarray
    objective_value: float
    sweeps_used: int
    converged: bool
    kkt_violation: float
    degenerate: bool = False


def soft_threshold(z: float, t: float) -> float:
    """max(0, z - t) - max(0, -z - t), i.e. sign(z) * max(|z| - t, 0)."""
    if t < 0.0:
        raise ConfigError("threshold must be >= 0")
    return max(0.0, z - t) - max(0.0, -z - t)


def elastic_net_objective(X, y, beta, lambda1, lambda2=0.0) -> float:
    """(1/(2N)) ||y - X beta||^2 + lambda1 ||beta||_1 + lambda2 ||beta||_2^2."""
    X = np.asarray(X, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    resid = y - X @ beta
    n = X.shape[0]
    return (
        0.5 * float(resid @ resid) / n
        + lambda1 * float(np.abs(beta).sum())
        + lambda2 * float(beta @ beta)
    )


def check_standardized(X) -> np.ndarray:
    """Verify every column has squared norm N (degenerate columns excepted).

    Returns the boolean mask of degenerate (near-zero) columns; raises
    ContractError if any live column is off by more than 1e-6 relative.
    """
    X = validate_feature_matrix(X)
    n = X.shape[0]
    sq = (X**2).sum(axis=0)
    degenerate = sq <= _ZERO_NORM_REL_TOL * n
    off = np.abs(sq / n - 1.0)
    bad = ~degenerate & (off > _NORM_REL_TOL)
    if np.any(bad):
        j = int(np.flatnonzero(bad)[0])
        raise ContractError(
            f"column {j} has squared norm {sq[j]:.6g}, expected {n} "
            "(input must be standardized)"
        )
    return degenerate


def _coordinate_descent(X, y, lambda1, lambda2, stop_thr, max_sweeps):
    n, m = X.shape
    ipy = (X.T @ y).tolist()
    beta = [0.0] * m
    # Python floats: the penalties may arrive as numpy scalars
    t = float(lambda1)
    denom = float(1.0 + 2.0 * lambda2)
    use_gram = m <= _GRAM_COLUMN_LIMIT
    if use_gram:
        gram = X.T @ X
        cols = [gram[:, j] for j in range(m)]
        gc = np.zeros(m)
    else:
        cols = [X[:, j] for j in range(m)]
        resid = y.astype(np.float64).copy()
    sweeps = 0
    converged = False
    while sweeps < max_sweeps:
        max_dif = 0.0
        for j in range(m):
            b_old = beta[j]
            if use_gram:
                z = (ipy[j] - gc.item(j)) / n + b_old
            else:
                z = float(cols[j] @ resid) / n + b_old
            # soft_threshold(z, t) / denom, bit for bit
            if z > t:
                b_new = (z - t) / denom
            elif z < -t:
                b_new = (z + t) / denom
            else:
                b_new = 0.0
            dif = b_new - b_old
            if dif != 0.0:
                beta[j] = b_new
                if use_gram:
                    gc += cols[j] * dif
                else:
                    resid -= cols[j] * dif
                max_dif = max(max_dif, abs(dif))
        sweeps += 1
        if max_dif < stop_thr:
            converged = True
            break
    return np.array(beta), sweeps, converged


def lasso_fit(X, y, cfg: PenaltyConfig) -> SolverResult:
    """L1-penalized least squares by cyclic coordinate descent.

    Requires ``cfg.lambda2 == 0``; use :func:`elastic_net_fit_cd` otherwise.
    """
    if cfg.lambda2 != 0.0:
        raise ConfigError("lasso_fit requires lambda2 == 0")
    return elastic_net_fit_cd(X, y, cfg)


def elastic_net_fit_cd(X, y, cfg: PenaltyConfig) -> SolverResult:
    """Elastic-net fit by cyclic coordinate descent.

    With ``lambda2 == 0`` this degenerates coefficient-for-coefficient to
    :func:`lasso_fit`.
    """
    X = validate_feature_matrix(X)
    y = validate_labels(y, X.shape[0])
    check_standardized(X)
    beta, sweeps, converged = _coordinate_descent(
        X, y, cfg.lambda1, cfg.lambda2, cfg.stop_thr, cfg.max_sweeps
    )
    return SolverResult(
        coefficients=beta,
        objective_value=elastic_net_objective(X, y, beta, cfg.lambda1, cfg.lambda2),
        sweeps_used=sweeps,
        converged=converged,
        kkt_violation=kkt_violation(X, y, cfg, beta),
    )


def kkt_violation(X, y, cfg: PenaltyConfig, beta) -> float:
    """Maximum breach of the subgradient optimality conditions at ``beta``.

    With g_j = -x_j'(y - X beta)/N + 2 lambda2 beta_j, the violation is
    max(0, |g_j| - lambda1) where beta_j == 0 and |g_j + lambda1 sign(beta_j)|
    elsewhere.
    """
    X = np.asarray(X, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape[0] != X.shape[1]:
        raise DimensionError(
            f"beta has length {beta.shape[0]}, expected {X.shape[1]}"
        )
    n = X.shape[0]
    g = -(X.T @ (y - X @ beta)) / n + 2.0 * cfg.lambda2 * beta
    zero = beta == 0.0
    viol_zero = np.maximum(0.0, np.abs(g[zero]) - cfg.lambda1)
    viol_live = np.abs(g[~zero] + cfg.lambda1 * np.sign(beta[~zero]))
    worst = 0.0
    if viol_zero.size:
        worst = max(worst, float(viol_zero.max()))
    if viol_live.size:
        worst = max(worst, float(viol_live.max()))
    return worst


def select_support(result, min_magnitude: float = 0.0) -> np.ndarray:
    """Indices with |beta_j| > min_magnitude, ascending."""
    if min_magnitude < 0.0:
        raise ConfigError("min_magnitude must be >= 0")
    beta = result.coefficients if isinstance(result, SolverResult) else result
    beta = np.asarray(beta, dtype=np.float64)
    return np.flatnonzero(np.abs(beta) > min_magnitude)


def save_coefficients(path, beta):
    write_blocks(path, {"coefficients": np.asarray(beta, dtype=np.float64)})


def load_coefficients(path) -> np.ndarray:
    blocks = read_blocks(path)
    if "coefficients" not in blocks:
        raise ConfigError(f"no coefficients block in {path}")
    return blocks["coefficients"]
