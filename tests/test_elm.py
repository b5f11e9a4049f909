import numpy as np
import pytest

from enetpipe import (PortableRng, elm_predict, elm_train,
                      median_heuristic_gamma, predicted_labels, rbf_gram)
from enetpipe.errors import ConfigError, DimensionError


XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0.0, 1.0, 1.0, 0.0])


def _blobs(seed: int, n_per: int = 40, separation: float = 3.0):
    rng = PortableRng(seed)
    a = rng.normal_matrix(n_per, 2)
    b = rng.normal_matrix(n_per, 2) + separation
    X = np.vstack([a, b])
    y = np.concatenate([np.zeros(n_per), np.ones(n_per)])
    return X, y


def test_rbf_gram_shape_and_symmetry():
    X = PortableRng(0).normal_matrix(6, 3)
    gram = rbf_gram(X, X, gamma=0.3)
    assert gram.shape == (6, 6)
    np.testing.assert_allclose(gram, gram.T, atol=1e-15)
    np.testing.assert_allclose(np.diag(gram), 1.0, atol=1e-12)


def test_xor_is_learned_exactly():
    model = elm_train(XOR_X, XOR_Y, gamma=1.0)
    scored = elm_predict(model, XOR_X)
    np.testing.assert_array_equal(predicted_labels(model, scored), XOR_Y)


def test_two_blobs_generalize():
    X, y = _blobs(1)
    X_test, y_test = _blobs(2)
    model = elm_train(X, y)
    scored = elm_predict(model, X_test)
    acc = np.mean(predicted_labels(model, scored) == y_test)
    assert acc >= 0.95


def test_training_row_permutation_leaves_predictions_unchanged():
    X, y = _blobs(3)
    X_test, _ = _blobs(4, n_per=10)
    base = elm_predict(elm_train(X, y, gamma=0.5), X_test)
    perm = PortableRng(5).permutation(len(y))
    permuted = elm_predict(elm_train(X[perm], y[perm], gamma=0.5), X_test)
    np.testing.assert_allclose(permuted.scores, base.scores, atol=1e-10)
    np.testing.assert_array_equal(permuted.predicted_class,
                                  base.predicted_class)


def test_three_class_problem():
    rng = PortableRng(6)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    X = np.vstack([rng.normal_matrix(30, 2) * 0.5 + c for c in centers])
    y = np.repeat([3.0, 1.0, 2.0], 30)  # deliberately unsorted label values
    model = elm_train(X, y)
    np.testing.assert_array_equal(model.classes, [1.0, 2.0, 3.0])
    scored = elm_predict(model, X)
    assert np.mean(predicted_labels(model, scored) == y) >= 0.95


def test_score_tie_breaks_to_lowest_class_index():
    # two identical training rows with different labels: symmetric scores
    X = np.array([[1.0, 1.0], [1.0, 1.0]])
    y = np.array([0.0, 1.0])
    model = elm_train(X, y, gamma=1.0)
    scored = elm_predict(model, np.array([[1.0, 1.0]]))
    assert scored.scores[0, 0] == pytest.approx(scored.scores[0, 1], abs=1e-12)
    assert scored.predicted_class[0] == 0


def test_median_heuristic_positive_and_fallback():
    X = PortableRng(7).normal_matrix(12, 3)
    assert median_heuristic_gamma(X) > 0
    assert median_heuristic_gamma(np.ones((5, 2))) == 1.0


def test_invalid_settings():
    X, y = _blobs(8, n_per=5)
    with pytest.raises(ConfigError):
        elm_train(X, y, gamma=-1.0)
    with pytest.raises(ConfigError):
        elm_train(X, y, ridge_c=0.0)
    with pytest.raises(ConfigError):
        rbf_gram(X, X, gamma=0.0)


def test_predict_dimension_mismatch():
    X, y = _blobs(9, n_per=5)
    model = elm_train(X, y)
    with pytest.raises(DimensionError):
        elm_predict(model, np.zeros((2, 7)))


def test_model_keeps_a_row_ordered_copy_of_its_inputs():
    # the pipeline passes X[:, support], which numpy lays out column by
    # column; predict's row norms and products take their last bits from
    # the stored layout, so the model keeps its own row-ordered copy
    X, y = _blobs(12)
    rows = X[:, np.arange(X.shape[1])]
    model = elm_train(rows, y)
    assert model.training_inputs.flags.c_contiguous
    assert not np.shares_memory(model.training_inputs, rows)
