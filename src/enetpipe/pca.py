"""Principal component analysis on feature matrices.

Fit takes one of two routes, by the shape of the N x M data:

- N >= M: the singular value decomposition of the centered data C.
- N < M (short, wide data such as CNN features of a few dozen subjects):
  Sirovich's method of snapshots. ``eigh`` of the N x N Gram matrix C C^T
  gives the squared singular values and the left singular vectors V, and
  each kept component is ``V[:, k]^T C / s_k``.

Either way the eigenvalues of the sample covariance (divisor N-1) are the
squared singular values over N-1. The Gram matrix squares the condition
number, so its rank cut is a tolerance on eigenvalues (see `pca_fit`).
Component signs follow a fixed convention so repeated fits and
cross-implementation comparisons are stable: the largest-magnitude entry of
each component is made positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import validate_feature_matrix
from .errors import DimensionError, InsufficientDataError, NumericalError

__all__ = ["PcaModel", "pca_fit", "pca_transform"]


@dataclass(frozen=True)
class PcaModel:
    """Orthonormal projection onto the leading covariance eigenvectors."""

    mean: np.ndarray                 # (M,)
    components: np.ndarray           # (K, M), rows orthonormal
    explained_variance: np.ndarray   # (K,), non-increasing

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    @property
    def n_features(self) -> int:
        return self.components.shape[1]


def _apply_sign_convention(components: np.ndarray) -> None:
    """Flip rows in place so each one's first largest-magnitude entry is
    positive. That entry is the row's first maximum or its first minimum,
    whichever is larger in magnitude or, on a tie, comes first, so no
    temporary of the rows' size is made."""
    rows = np.arange(components.shape[0])
    top = components.argmax(axis=1)
    bottom = components.argmin(axis=1)
    high, low = components[rows, top], -components[rows, bottom]
    flip = (low > high) | ((low == high) & (bottom < top))
    np.negative(components, out=components, where=flip[:, None])


def pca_fit(X, retain=0.95) -> PcaModel:
    """Fit a PCA model retaining `retain` components (int) or enough
    components to cover a `retain` fraction of the variance (float in (0,1]).

    A float of exactly 1.0 keeps the numerical rank of the centered data.
    With N >= M that rank counts singular values ``s_k > s_0 * max(N, M) *
    eps``, and integer counts above min(N-1, M) are clamped to it. With
    N < M it counts Gram eigenvalues ``lambda_k > lambda_0 * max(N, M) *
    eps``, that is ``s_k > s_0 * sqrt(max(N, M) * eps)``; no component is
    built from an eigenvalue at or below that tolerance, so an integer count
    above the rank is reduced to it. A kept component carries a relative
    error of about ``eps * (s_0 / s_k)**2`` on that route, at most about
    1/max(N, M) at the cut, and a Gram matrix that overflows or an ``eigh``
    that fails raises NumericalError.
    """
    X = validate_feature_matrix(X)
    n, m = X.shape
    if n < 2:
        raise InsufficientDataError(
            f"need at least 2 samples to fit a covariance, got {n}")

    mean = X.mean(axis=0)
    centered = X - mean
    max_rank = min(n - 1, m)
    if n < m:
        with np.errstate(over="ignore", invalid="ignore"):
            gram = centered @ centered.T
        if not np.isfinite(gram).all():
            raise NumericalError("PCA Gram matrix is not finite")
        try:
            gram_eigenvalues, left = np.linalg.eigh(gram)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"PCA Gram eigendecomposition failed: {exc}") from None
        gram_eigenvalues = np.maximum(gram_eigenvalues[::-1], 0.0)
        left = left[:, ::-1]
        tol = gram_eigenvalues[0] * max(n, m) * np.finfo(np.float64).eps
        rank = min(int(np.sum(gram_eigenvalues > tol)), max_rank)
        eigenvalues = gram_eigenvalues / (n - 1)
        max_rank = rank
    else:
        _, sing, vt = np.linalg.svd(centered, full_matrices=False)
        eigenvalues = sing ** 2 / (n - 1)
        rank_tol = sing[0] * max(n, m) * np.finfo(np.float64).eps
        rank = int(np.sum(sing > rank_tol))

    if isinstance(retain, (int, np.integer)) and not isinstance(retain, bool):
        k = int(retain)
        if k < 1:
            raise DimensionError(f"component count must be >= 1, got {k}")
        k = min(k, max_rank)
    else:
        fraction = float(retain)
        if not 0.0 < fraction <= 1.0:
            raise DimensionError(
                f"variance fraction must be in (0, 1], got {fraction}")
        if fraction == 1.0 or eigenvalues.sum() <= 0.0:
            k = rank
        else:
            cumulative = np.cumsum(eigenvalues) / eigenvalues.sum()
            k = int(np.searchsorted(cumulative, fraction - 1e-12) + 1)
            k = min(k, max_rank)

    if n < m:
        # one k x M buffer: the centered copy goes before the scaling
        components = left[:, :k].T @ centered
        del centered
        components /= np.sqrt(gram_eigenvalues[:k, None])
    else:
        components = vt[:k].copy()
    _apply_sign_convention(components)
    return PcaModel(mean=mean,
                    components=components,
                    explained_variance=eigenvalues[:k].copy())


def pca_transform(model: PcaModel, X) -> np.ndarray:
    X = validate_feature_matrix(X)
    if X.shape[1] != model.n_features:
        raise DimensionError(
            f"data has {X.shape[1]} columns, model expects {model.n_features}")
    return (X - model.mean) @ model.components.T
