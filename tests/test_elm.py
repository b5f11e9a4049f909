import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from enetpipe import (PipelineConfig, PortableRng, elm_predict, elm_train,
                      predicted_labels, run_pipeline)
from enetpipe.errors import (ConfigError, DimensionError, EnetPipeError,
                             NumericalError)

from enetpipe.elm import _median_gamma, _row_norms, _squared_distances
from helpers import (reference_elm_weights, reference_median_gamma,
                     reference_rbf_gram)


XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0.0, 1.0, 1.0, 0.0])


def _blobs(seed: int, n_per: int = 40, separation: float = 3.0):
    rng = PortableRng(seed)
    a = rng.normal_matrix(n_per, 2)
    b = rng.normal_matrix(n_per, 2) + separation
    X = np.vstack([a, b])
    y = np.concatenate([np.zeros(n_per), np.ones(n_per)])
    return X, y


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
    np.testing.assert_allclose(permuted, base, atol=1e-10)
    np.testing.assert_array_equal(permuted.argmax(axis=1),
                                  base.argmax(axis=1))


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
    scores = elm_predict(model, np.array([[1.0, 1.0]]))
    assert scores[0, 0] == pytest.approx(scores[0, 1], abs=1e-12)
    assert predicted_labels(model, scores)[0] == 0.0


def test_median_heuristic_positive_and_fallback():
    X = PortableRng(7).normal_matrix(12, 3)
    assert elm_train(X, np.arange(12) % 2).gamma > 0
    assert elm_train(np.ones((5, 2)), np.arange(5) % 2).gamma == 1.0


def _distance_rows(n, rows):
    X = PortableRng(n).normal_matrix(n, 3)
    if rows == "repeated":          # ties, and rounding-level distances
        X = X[np.arange(n) % max(1, n // 3)]
    elif rows == "all-equal":       # every distance 0: the 1.0 fallback
        X = np.full((n, 3), 2.0)
    elif rows == "inf":             # an overflowing norm: inf distances
        X[0, 0] = 1e160
    elif rows == "nan":             # two of them: inf - inf is NaN
        X[:2, 0] = 1e155
    return X


@pytest.mark.parametrize("n", [2, 3, 4, 5, 180])   # 1, 3, 6, 10, 16110 pairs
@pytest.mark.parametrize("rows", ["distinct", "repeated", "all-equal", "inf",
                                  "nan"])
def test_median_gamma_matches_np_median_bit_for_bit(n, rows):
    X = _distance_rows(n, rows)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _row_norms(X)
        sq = _squared_distances(X, norms, X, norms)
        want = reference_median_gamma(X)
    got = _median_gamma(sq, X.shape[1])
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    if rows == "all-equal":
        assert got == 1.0
    if rows in ("inf", "nan"):
        # an inf or NaN median leaves gamma 0 or NaN, which elm_train
        # rejects; a finite one meets the NaN on the overflowing row's
        # diagonal in the ridge system
        if 0.0 < want < np.inf:
            error = NumericalError
            words = "ridge system has a non-finite entry"
        else:
            error, words = ConfigError, (
                f"gamma must be positive and finite, got {want}")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(error) as caught:
                elm_train(X, np.arange(n) % 2)
        assert str(caught.value) == words


def test_invalid_settings():
    X, y = _blobs(8, n_per=5)
    with pytest.raises(ConfigError):
        elm_train(X, y, gamma=-1.0)
    with pytest.raises(ConfigError):
        elm_train(X, y, ridge_c=0.0)
    with pytest.raises(ConfigError):
        elm_train(X, y, gamma=0.0)


@pytest.mark.parametrize("kwargs", [
    dict(gamma=np.inf), dict(gamma=np.nan), dict(ridge_c=np.nan)])
def test_non_finite_settings_are_config_errors(kwargs):
    X, y = _blobs(8, n_per=5)
    match = "gamma must be positive" if "gamma" in kwargs else "ridge_c"
    with pytest.raises(ConfigError, match=match):
        elm_train(X, y, **kwargs)


@pytest.mark.parametrize("rows", [3, 1], ids=["3x3", "1x1"])
def test_overflowing_rows_are_a_numerical_error(rows):
    # a squared norm near 1e310 overflows, and inf - inf leaves a NaN
    # distance in the ridge system
    X = np.array([[1e155, 0.0], [0.0, 1.0], [2.0, 3.0]])[:rows]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError,
                           match="^ridge system has a non-finite entry$"):
            elm_train(X, np.array([0.0, 1.0, 0.0])[:rows], gamma=1.0)


def test_infinite_median_distance_is_a_config_error():
    # a squared norm overflows, the median distance is inf and gamma 0
    X = np.array([[1e160, 0.0], [0.0, 1.0], [2.0, 3.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConfigError, match="gamma must be positive"):
            elm_train(X, np.array([0.0, 1.0, 0.0]))


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


class TestSolveBits:
    """The Cholesky solve, the shared distance matrix, the masked median
    and the stored row norms give the bytes of the plain route."""

    @staticmethod
    def _instance(seed, n, k, n_classes, column_ordered):
        rng = PortableRng(seed)
        wide = rng.normal_matrix(n + 3, k + 2)
        # the pipeline passes X[:, support], which numpy lays out by column
        support = np.arange(1, k + 1)
        X = wide[:n, support] if column_ordered else wide[:n, 1:k + 1].copy()
        queries = wide[n:, support]
        labels = np.arange(n) % n_classes * 1.5
        return X, labels, queries

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**16),
           n=st.integers(1, 60),
           k=st.sampled_from([1, 2, 7, 12, 29, 300, 1100, 2500]),
           n_classes=st.sampled_from([2, 3]),
           column_ordered=st.booleans(),
           median=st.booleans())
    @example(seed=1, n=10, k=40, n_classes=2, column_ordered=True,
             median=True)                                       # n < k
    @example(seed=2, n=30, k=1, n_classes=2, column_ordered=False,
             median=True)                                       # k = 1
    @example(seed=5, n=1, k=12, n_classes=2, column_ordered=True,
             median=True)                       # a 1 x 1 ridge system
    @example(seed=3, n=45, k=12, n_classes=3, column_ordered=True,
             median=False)                                      # 3 classes
    @example(seed=4, n=54, k=2500, n_classes=2, column_ordered=True,
             median=True)                       # norms in blocks of rows
    def test_train_and_predict_match_the_solve_route(
            self, seed, n, k, n_classes, column_ordered, median):
        X, labels, queries = self._instance(seed, n, k, n_classes,
                                            column_ordered)
        assert X.flags.c_contiguous == (not column_ordered or 1 in (n, k))
        gamma = None if median else 0.7 / k
        model = elm_train(X, labels, gamma=gamma)
        weights, ref_gamma = reference_elm_weights(X, labels, gamma)

        assert model.gamma == ref_gamma
        assert model.output_weights.flags.c_contiguous
        assert model.output_weights.tobytes() == weights.tobytes()
        stored = model.training_inputs
        assert model.row_norms.tobytes() == np.sum(stored * stored,
                                                   axis=1).tobytes()
        # the pipeline scores one test row at a time; direct callers, blocks
        for rows in (queries[:1], queries[1:2], queries):
            scores = elm_predict(model, rows)
            expected = reference_rbf_gram(rows, stored, ref_gamma) @ weights
            assert scores.tobytes() == expected.tobytes()


class TestNonPositiveDefinite:
    """Repeated rows with a vanishing ridge term leave the system singular."""

    @staticmethod
    def _repeated_rows():
        X = np.repeat(PortableRng(4).normal_matrix(5, 3), 4, axis=0)
        return X, np.tile([0.0, 1.0], 10)

    def test_train_raises_numerical_error(self):
        X, labels = self._repeated_rows()
        with pytest.raises(NumericalError, match=(
                "^ridge system could not be solved: 2-th leading minor of "
                "the array is not positive definite$")):
            elm_train(X, labels, ridge_c=1e16)

    def test_every_fold_fails_in_the_pipeline(self):
        X, labels = self._repeated_rows()
        cfg = PipelineConfig(selector="none", k_folds=4, elm_ridge=1e16)
        with pytest.raises(EnetPipeError, match=(
                "^every fold failed; first failure: NumericalError: "
                "ridge system could not be solved")):
            run_pipeline(cfg, X, labels)
