"""Kernel extreme learning machine.

Instead of a random hidden layer, the hidden representation is the RBF Gram
matrix of the training inputs, and the output weights solve the ridge system
(Omega + I/ridge_c) W = T for one-hot targets T. Training is a single
symmetric linear solve, LAPACK's Cholesky factorization and solve called
directly; no iteration and no random weight generation. Each kernel matrix,
in training and in prediction, is built in the buffer of its cross product,
so a call makes one matrix of that size, not one per arithmetic step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import validate_feature_matrix
from .errors import ConfigError, DimensionError, NumericalError

__all__ = ["DEFAULT_RIDGE_C", "ElmModel", "elm_train", "elm_predict",
           "predicted_labels"]

DEFAULT_RIDGE_C = 100.0
_NORM_BLOCK = 1 << 16


@dataclass(frozen=True)
class ElmModel:
    training_inputs: np.ndarray    # (N, K) row-ordered copy
    row_norms: np.ndarray          # (N,) squared norms of training_inputs
    output_weights: np.ndarray     # (N, C) C-ordered
    classes: np.ndarray            # (C,) sorted distinct label values
    gamma: float                   # the median heuristic's when not given


def _row_norms(A: np.ndarray) -> np.ndarray:
    return np.add.reduce(A * A, axis=1)


def _stored_row_norms(X: np.ndarray) -> np.ndarray:
    """``_row_norms(X.copy())``, the norms of the row-ordered copy a model
    keeps, which differ in the last bits from those of a column-ordered X.
    Rows are copied and summed in blocks of about ``_NORM_BLOCK`` elements,
    each row the same contiguous reduction, so no X-sized temporary is made
    next to the copy."""
    rows = max(1, _NORM_BLOCK // X.shape[1])
    return np.concatenate([_row_norms(np.ascontiguousarray(X[i:i + rows]))
                           for i in range(0, X.shape[0], rows)])


def _squared_distances(A, a_norms, B, b_norms) -> np.ndarray:
    """||a_i - b_j||^2 from the row norms, rounding negatives kept, written
    over the cross product's buffer."""
    cross = 2.0 * A @ B.T
    return np.subtract(np.add(a_norms[:, None], b_norms[None, :]), cross,
                       out=cross)


def _gram(sq: np.ndarray, gamma: float) -> np.ndarray:
    """The RBF kernel of squared distances, computed in place in ``sq``."""
    np.maximum(sq, 0.0, out=sq)     # clip the rounding negatives
    np.multiply(sq, -gamma, out=sq)
    return np.exp(sq, out=sq)


def _median_gamma(sq: np.ndarray, n_features: int) -> float:
    """1 / (n_features * median pairwise squared distance); falls back to
    1.0 when the median is not positive (e.g. heavily duplicated rows).
    The median is ``np.median``'s, bit for bit: a NaN distance if there is
    one, else, after one in-place partition, the middle value, or for an
    even count ``(a + b) / 2`` of the two middle values."""
    n = sq.shape[0]
    if n < 2:
        return 1.0
    # the median depends only on the values of the strict upper triangle,
    # so a boolean mask gathers them, cheaper than triu_indices' arrays
    upper = sq[~np.tri(n, dtype=bool)]
    nans = np.isnan(upper)
    if nans.any():
        med = float(upper[nans][0])     # elm_train rejects the NaN gamma
    else:
        k = upper.size // 2
        upper.partition(k)
        med = float(upper[k] if upper.size % 2 else
                    (upper[:k].max() + upper[k]) / 2.0)
    if med <= 0.0:
        return 1.0
    return 1.0 / (n_features * med)


def elm_train(X, labels, gamma: float | None = None,
              ridge_c: float = DEFAULT_RIDGE_C) -> ElmModel:
    """Solve (Omega + I/ridge_c) W = T with one-hot targets (+1/0).

    gamma=None selects the median heuristic. Duplicate samples with
    conflicting labels are allowed; the ridge term absorbs them. The
    system is solved by its upper-triangle Cholesky factorization, LAPACK's
    dpotrf and dpotrs, the routines scipy's cho_factor and cho_solve call.
    """
    X = validate_feature_matrix(X)
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != X.shape[0]:
        raise DimensionError(
            f"labels have shape {labels.shape}, expected ({X.shape[0]},)")
    if not ridge_c > 0:         # inf: no ridge term
        raise ConfigError(f"ridge_c must be positive, got {ridge_c}")

    classes, class_idx = np.unique(labels, return_inverse=True)
    targets = np.zeros((X.shape[0], classes.shape[0]))
    targets[np.arange(X.shape[0]), class_idx] = 1.0

    # the median heuristic and the Gram matrix share one distance matrix
    norms = _row_norms(X)
    sq = _squared_distances(X, norms, X, norms)
    if gamma is None:
        gamma = _median_gamma(sq, X.shape[1])  # 0: an infinite median
    if not 0.0 < gamma < np.inf:
        raise ConfigError(f"gamma must be positive and finite, got {gamma}")
    system = _gram(sq, gamma)
    system[np.diag_indices_from(system)] += 1.0 / ridge_c
    # overflowing squared norms leave NaN distances; this one check covers
    # both solve paths, and LAPACK is handed only finite matrices
    if not np.isfinite(system).all():
        raise NumericalError("ridge system has a non-finite entry")
    if system.shape == (1, 1):
        # one training row: divide, as scipy's solve does; a Cholesky
        # factor and solve give other bits
        weights = targets / system
    else:
        # loaded here: only ELM training needs it
        from scipy.linalg.lapack import dpotrf, dpotrs
        factor, info = dpotrf(system, lower=0, clean=0, overwrite_a=1)
        if info > 0:
            raise NumericalError(
                "ridge system could not be solved: "
                f"{info}-th leading minor of the array is not positive "
                "definite")
        # dpotrs returns Fortran order; predict's product takes its last
        # bits from the weights' layout, so they are stored C-ordered
        weights, _ = dpotrs(factor, targets, lower=0, overwrite_b=1)
        weights = np.ascontiguousarray(weights)
    row_norms = _stored_row_norms(X)
    return ElmModel(training_inputs=X.copy(), row_norms=row_norms,
                    output_weights=weights, classes=classes,
                    gamma=float(gamma))


def elm_predict(model: ElmModel, X) -> np.ndarray:
    """The (Q, C) class scores of the query rows, columns in the order of
    ``model.classes``."""
    X = validate_feature_matrix(X)
    n_features = model.training_inputs.shape[1]
    if X.shape[1] != n_features:
        raise DimensionError(
            f"query has {X.shape[1]} features, model expects {n_features}")
    sq = _squared_distances(X, _row_norms(X), model.training_inputs,
                            model.row_norms)
    return _gram(sq, model.gamma) @ model.output_weights


def predicted_labels(model: ElmModel, scores) -> np.ndarray:
    """Each row's highest-scoring label value; a tie goes to the lowest
    class."""
    return model.classes[np.asarray(scores).argmax(axis=1)]
