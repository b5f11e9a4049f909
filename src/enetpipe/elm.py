"""Kernel extreme learning machine.

Instead of a random hidden layer, the hidden representation is the RBF Gram
matrix of the training inputs, and the output weights solve the ridge system
(Omega + I/ridge_c) W = T for one-hot targets T. Training is a single
symmetric linear solve; no iteration and no random weight generation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .data import validate_feature_matrix
from .errors import ConfigError, DimensionError, NumericalError

__all__ = ["ElmModel", "ClassScores", "rbf_gram", "median_heuristic_gamma",
           "elm_train", "elm_predict"]

DEFAULT_RIDGE_C = 100.0


@dataclass(frozen=True)
class ElmModel:
    training_inputs: np.ndarray    # (N, K)
    output_weights: np.ndarray     # (N, C)
    classes: np.ndarray            # (C,) sorted distinct label values
    gamma: float
    ridge_c: float

    @property
    def n_features(self) -> int:
        return self.training_inputs.shape[1]


@dataclass(frozen=True)
class ClassScores:
    """Per-sample class scores; predicted_class is the argmax index with
    ties broken toward the lowest index."""

    scores: np.ndarray             # (Q, C)
    predicted_class: np.ndarray    # (Q,) indices into the model's classes


def rbf_gram(A, B, gamma: float) -> np.ndarray:
    """exp(-gamma * ||a_i - b_j||^2) for all row pairs."""
    if gamma <= 0:
        raise ConfigError(f"gamma must be positive, got {gamma}")
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    sq = (np.sum(A * A, axis=1)[:, None]
          + np.sum(B * B, axis=1)[None, :]
          - 2.0 * A @ B.T)
    np.maximum(sq, 0.0, out=sq)     # clip the rounding negatives
    return np.exp(-gamma * sq)


def median_heuristic_gamma(X) -> float:
    """1 / (n_features * median pairwise squared distance); falls back to
    1.0 when the median is not positive (e.g. heavily duplicated rows)."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n < 2:
        return 1.0
    sq = (np.sum(X * X, axis=1)[:, None]
          + np.sum(X * X, axis=1)[None, :]
          - 2.0 * X @ X.T)
    upper = sq[np.triu_indices(n, k=1)]
    med = float(np.median(upper))
    if med <= 0.0:
        return 1.0
    return 1.0 / (X.shape[1] * med)


def elm_train(X, labels, gamma: float | None = None,
              ridge_c: float = DEFAULT_RIDGE_C) -> ElmModel:
    """Solve (Omega + I/ridge_c) W = T with one-hot targets (+1/0).

    gamma=None selects the median heuristic. Duplicate samples with
    conflicting labels are allowed; the ridge term absorbs them.
    """
    X = validate_feature_matrix(X)
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != X.shape[0]:
        raise DimensionError(
            f"labels have shape {labels.shape}, expected ({X.shape[0]},)")
    if ridge_c <= 0:
        raise ConfigError(f"ridge_c must be positive, got {ridge_c}")
    if gamma is None:
        gamma = median_heuristic_gamma(X)
    elif gamma <= 0:
        raise ConfigError(f"gamma must be positive, got {gamma}")

    classes, class_idx = np.unique(labels, return_inverse=True)
    targets = np.zeros((X.shape[0], classes.shape[0]))
    targets[np.arange(X.shape[0]), class_idx] = 1.0

    system = rbf_gram(X, X, gamma)
    system[np.diag_indices_from(system)] += 1.0 / ridge_c
    try:
        weights = scipy.linalg.solve(system, targets, assume_a="pos")
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"ridge system could not be solved: {exc}") from exc
    return ElmModel(training_inputs=X.copy(), output_weights=weights,
                    classes=classes, gamma=float(gamma), ridge_c=float(ridge_c))


def elm_predict(model: ElmModel, X) -> ClassScores:
    X = validate_feature_matrix(X)
    if X.shape[1] != model.n_features:
        raise DimensionError(
            f"query has {X.shape[1]} features, model expects {model.n_features}")
    scores = rbf_gram(X, model.training_inputs, model.gamma) @ model.output_weights
    return ClassScores(scores=scores, predicted_class=np.argmax(scores, axis=1))


def predicted_labels(model: ElmModel, result: ClassScores) -> np.ndarray:
    """Map argmax indices back to the original label values."""
    return model.classes[result.predicted_class]
