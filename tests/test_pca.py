import tracemalloc

import numpy as np
import pytest

from enetpipe import (PipelineConfig, PortableRng, pca_fit, pca_transform,
                      run_pipeline)
from enetpipe.errors import (DimensionError, EnetPipeError,
                             InsufficientDataError, NumericalError)
from enetpipe.pca import _apply_sign_convention
from helpers import reference_sign_convention


def _blobs(seed: int = 0, n: int = 60, m: int = 8):
    rng = PortableRng(seed)
    X = rng.normal_matrix(n, m)
    X[:, 0] *= 4.0
    X[:, 1] *= 2.0
    return X + rng.normals(m)  # shift so centering matters


def test_components_are_orthonormal():
    model = pca_fit(_blobs(), retain=5)
    gram = model.components @ model.components.T
    np.testing.assert_allclose(gram, np.eye(5), atol=1e-10)


def test_full_rank_reconstruction():
    X = _blobs(1, n=40, m=6)
    model = pca_fit(X, retain=6)
    Z = pca_transform(model, X)
    np.testing.assert_allclose(Z @ model.components + model.mean, X,
                               atol=1e-8)


def test_eigendecomposition_oracle_agreement():
    # independent oracle: eigh of the sample covariance
    X = _blobs(2, n=80, m=7)
    model = pca_fit(X, retain=7)
    cov = np.cov(X, rowvar=False, ddof=1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
    np.testing.assert_allclose(model.explained_variance, eigvals[:7],
                               atol=1e-8)
    for k in range(7):
        dot = abs(float(model.components[k] @ eigvecs[:, k]))
        assert dot == pytest.approx(1.0, abs=1e-8)


def test_variance_fraction_picks_smallest_covering_k():
    X = _blobs(3, n=100, m=6)
    full = pca_fit(X, retain=6)
    total = full.explained_variance.sum()
    cum = np.cumsum(full.explained_variance) / total
    for fraction in (0.5, 0.8, 0.95, 0.999):
        expected_k = int(np.searchsorted(cum, fraction - 1e-12) + 1)
        model = pca_fit(X, retain=fraction)
        assert model.n_components == expected_k


def test_retain_one_point_zero_keeps_numerical_rank():
    rng = PortableRng(4)
    latent = rng.normal_matrix(50, 2)
    mix = rng.normal_matrix(2, 5)
    X = latent @ mix  # rank 2 by construction
    model = pca_fit(X, retain=1.0)
    assert model.n_components == 2


def test_integer_retain_clamps_to_rank_with_note():
    X = _blobs(5, n=4, m=9)  # at most 3 nontrivial directions
    model = pca_fit(X, retain=8)
    assert model.n_components == 3


def test_sign_convention_largest_entry_positive():
    model = pca_fit(_blobs(6), retain=4)
    for row in model.components:
        assert row[np.argmax(np.abs(row))] > 0


def test_sign_convention_matches_the_row_by_row_rule():
    # ties between a maximum and a minimum of equal magnitude go to the
    # first; signed zeros and NaN rows flip nothing
    rows = [[-3.0, 3.0], [3.0, -3.0], [0.0, -0.0], [-0.0, 0.0],
            [1.0, -2.0, 2.0, -2.0], [-1.0, 2.0, -2.0], [np.nan, -2.0],
            [2.0, -2.0, np.nan], [-np.inf, np.inf], [5e-324, -5e-324]]
    cases = [np.array([row]) for row in rows]
    rng = PortableRng(8)
    for _ in range(200):    # small integers: many ties
        cases.append(np.round(3.0 * rng.normal_matrix(4, 5)))
    for components in cases:
        expected = components.copy()
        reference_sign_convention(expected)
        _apply_sign_convention(components)
        assert components.tobytes() == expected.tobytes()


def test_sign_convention_makes_no_temporary_of_the_components_size():
    # the shape of pca_fit's components on volume_features' CNN features
    components = PortableRng(9).normal_matrix(15, 27648)
    tracemalloc.start()
    try:
        _apply_sign_convention(components)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < components.nbytes / 8


def test_transform_centers_before_projection():
    X = _blobs(7, n=30, m=5)
    model = pca_fit(X, retain=3)
    Z = pca_transform(model, X)
    np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(Z, (X - model.mean) @ model.components.T,
                               atol=1e-12)


@pytest.mark.parametrize("retain", [0, -1, 0.0, 1.5, -0.2])
def test_invalid_retain_values(retain):
    with pytest.raises(DimensionError):
        pca_fit(_blobs(9), retain=retain)


def test_single_sample_rejected():
    with pytest.raises(InsufficientDataError):
        pca_fit(np.ones((1, 4)))


def test_transform_dimension_mismatch():
    model = pca_fit(_blobs(10), retain=2)
    with pytest.raises(DimensionError):
        pca_transform(model, np.zeros((3, 2)))


# Wide data (N < M) takes the snapshot route: eigh of the N x N Gram matrix.

def _wide(seed: int, n: int, m: int):
    X = PortableRng(seed).normal_matrix(n, m)
    X[:, :n] *= np.linspace(6.0, 1.5, n)  # well-separated leading spectrum
    return X + 3.0


@pytest.mark.parametrize("n, m", [(12, 300), (30, 500)])
def test_snapshot_route_agrees_with_svd(n, m):
    X = _wide(11, n, m)
    model = pca_fit(X, retain=0.95)
    k = model.n_components
    centered = X - X.mean(axis=0)
    _, sing, vt = np.linalg.svd(centered, full_matrices=False)
    assert abs(float(model.components[0] @ vt[0])) >= 1.0 - 1e-12
    np.testing.assert_allclose(model.explained_variance,
                               sing[:k] ** 2 / (n - 1), rtol=1e-12, atol=0.0)
    signs = np.sign(np.sum(model.components * vt[:k], axis=1))
    np.testing.assert_allclose(pca_transform(model, X),
                               (centered @ vt[:k].T) * signs, atol=1e-10)


@pytest.mark.parametrize("n, m", [(12, 300), (30, 500)])
def test_snapshot_components_orthonormal_with_sign_convention(n, m):
    model = pca_fit(_wide(12, n, m), retain=1.0)
    assert model.n_components == n - 1
    gram = model.components @ model.components.T
    np.testing.assert_allclose(gram, np.eye(n - 1), atol=1e-10)
    for row in model.components:
        assert row[np.argmax(np.abs(row))] > 0


def test_snapshot_rank_deficient_data_keeps_rank():
    distinct = _wide(13, 4, 300)
    X = np.repeat(distinct, 3, axis=0)  # 12 rows, centered rank 3 < N-1
    assert pca_fit(X, retain=1.0).n_components == 3
    model = pca_fit(X, retain=8)
    assert model.n_components == 3
    np.testing.assert_allclose(np.linalg.norm(model.components, axis=1),
                               1.0, atol=1e-10)


def test_constant_wide_matrix_has_no_components_and_fails_typed():
    X = np.full((12, 40), 2.5)
    assert pca_fit(X).n_components == 0
    assert pca_fit(X, retain=3).n_components == 0
    cfg = PipelineConfig(k_folds=3, seed=1, lambda1=0.1)
    with pytest.raises(EnetPipeError, match="DimensionError"):
        run_pipeline(cfg, X, np.arange(12) % 2)


def test_overflowing_wide_matrix_raises_numerical_error():
    # the centered Gram matrix overflows; eigh would raise LinAlgError
    X = _wide(14, 10, 400) * 2.0 ** 510
    assert np.isfinite(X).all()
    with pytest.raises(NumericalError, match="Gram"):
        pca_fit(X)


def test_failed_gram_eigh_raises_numerical_error(monkeypatch):
    def fails(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fails)
    with pytest.raises(NumericalError, match="did not converge"):
        pca_fit(_wide(14, 10, 400))
