"""Standardization, linear SVM and KNN."""

import numpy as np
import pytest

from ecgstress.classifiers import (
    SvmModel,
    knn_predict_batch,
    standardize_fit,
    svm_predict,
    train_linear_svm,
)
from oracles import (
    hinge_objective,
    knn_predict,
    loop_train_linear_svm,
    one_lambda_train_linear_svm,
)


class TestStandardize:
    def test_constant_column_zeros(self):
        X = np.column_stack([np.full(5, 3.0), np.arange(5.0)])
        Xs, _ = standardize_fit(X)
        np.testing.assert_array_equal(Xs[:, 0], np.zeros(5))

    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 4)) * 7 + 2
        Xs, _ = standardize_fit(X)
        np.testing.assert_allclose(Xs.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(Xs.std(axis=0), 1.0, atol=1e-6)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((20, 3))
        Xs, stats = standardize_fit(X)
        np.testing.assert_allclose(Xs * stats.std + stats.mean, X, atol=1e-9)

    def test_stats_reusable_on_new_rows(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 3))
        _, stats = standardize_fit(X)
        row = rng.standard_normal(3)
        np.testing.assert_allclose(stats.transform(row), (row - stats.mean) / stats.std)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            standardize_fit(np.zeros((0, 3)))


def _blobs(seed=0, n=40, spread=0.3):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    X = np.concatenate([c + spread * rng.standard_normal((n, 2)) for c in centers])
    y = np.repeat([0, 1, 2], n)
    return X, y


class TestSvm:
    def test_two_class_margin_fixture(self):
        X = np.array([[-2.0, 0.0], [-3.0, 1.0], [2.0, 0.0], [3.0, -1.0]])
        y = np.array([0, 0, 1, 1])
        model = train_linear_svm(X, y)
        assert np.all(svm_predict(model, X) == y)

    def test_three_blobs(self):
        X, y = _blobs()
        Xs, _ = standardize_fit(X)
        model = train_linear_svm(Xs, y)
        assert np.mean(svm_predict(model, Xs) == y) >= 0.99

    def test_determinism(self):
        X, y = _blobs(seed=3)
        a = train_linear_svm(X, y)
        b = train_linear_svm(X, y)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.biases, b.biases)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train_linear_svm(np.zeros((4, 2)), np.zeros(4, dtype=int))

    def test_training_reduces_objective(self):
        X, y = _blobs(seed=4)
        Xs, _ = standardize_fit(X)
        model = train_linear_svm(Xs, y, lam=0.01)
        for c in range(3):
            y_signed = np.where(y == c, 1.0, -1.0)
            at_zero = hinge_objective(Xs, y_signed, np.zeros(2), 0.0, 0.01)
            at_fit = hinge_objective(Xs, y_signed, model.weights[c], model.biases[c], 0.01)
            assert at_fit < at_zero

    @pytest.mark.parametrize("classes", [3, 4])
    @pytest.mark.parametrize("d", [9, 32])
    def test_matches_per_class_loop(self, classes, d):
        rng = np.random.default_rng(10 * classes + d)
        X = rng.standard_normal((120, d))
        y = rng.integers(0, classes, size=120)
        for lam in (0.001, 0.01, 0.1):
            model = train_linear_svm(X, y, lam=lam, epochs=60)
            weights, biases = loop_train_linear_svm(X, y, lam=lam, epochs=60)
            np.testing.assert_allclose(model.weights, weights, rtol=0, atol=1e-12)
            np.testing.assert_allclose(model.biases, biases, rtol=0, atol=1e-12)

    def test_zero_model_ties_to_class_zero(self):
        model = SvmModel(weights=np.zeros((3, 2)), biases=np.zeros(3), lam=0.01)
        assert np.all(svm_predict(model, np.ones((4, 2))) == 0)

    def test_hand_set_weights(self):
        model = SvmModel(
            weights=np.array([[1.0, 0.0], [0.0, 1.0]]), biases=np.zeros(2), lam=0.01
        )
        assert svm_predict(model, np.array([2.0, 1.0]))[0] == 0

    def test_score_scale_invariance(self):
        X, y = _blobs(seed=5)
        model = train_linear_svm(X, y)
        scaled = SvmModel(weights=2 * model.weights, biases=2 * model.biases, lam=model.lam)
        np.testing.assert_array_equal(svm_predict(model, X), svm_predict(scaled, X))

    def test_dimension_mismatch(self):
        model = SvmModel(weights=np.zeros((2, 3)), biases=np.zeros(2), lam=0.1)
        with pytest.raises(ValueError):
            svm_predict(model, np.zeros((1, 4)))


class TestSvmGrid:
    """A λ grid trains in one pass, bit-identical to one call per λ."""

    @pytest.mark.parametrize(
        "grid",
        [(0.01,), (1e-3, 1e-2, 1e-1, 1.0), (3e-4, 0.02, 0.5, 2.0, 7.0), (0.1, 1e-3, 0.1, 0.1)],
        ids=["one", "four", "five", "repeated"],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_one_lambda_oracle(self, grid, seed):
        rng = np.random.default_rng([seed, len(grid)])
        n, d = int(rng.integers(8, 577)), int(rng.integers(2, 33))
        classes = int(rng.integers(2, 5))
        X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, d)
        y = np.concatenate([np.arange(classes), rng.integers(0, classes, n - classes)])
        models = train_linear_svm(X, y, lam=grid)
        assert [m.lam for m in models] == list(grid)
        for lam, model in zip(grid, models):
            weights, biases = one_lambda_train_linear_svm(X, y, lam=lam)
            np.testing.assert_array_equal(model.weights, weights)
            np.testing.assert_array_equal(model.biases, biases)

    def test_largest_shape(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((576, 32))
        y = rng.integers(0, 3, 576)
        grid = (1e-3, 1e-2, 1e-1, 1.0)
        for lam, model in zip(grid, train_linear_svm(X, y, lam=grid)):
            weights, biases = one_lambda_train_linear_svm(X, y, lam=lam)
            np.testing.assert_array_equal(model.weights, weights)
            np.testing.assert_array_equal(model.biases, biases)

    def test_one_feature_within_rounding(self):
        # With d = 1, X.T @ A is a matrix-vector product whose BLAS rounding
        # depends on the column count, so the grid matches to rounding only
        rng = np.random.default_rng(8)
        X = rng.standard_normal((150, 1))
        y = rng.integers(0, 3, 150)
        grid = (1e-3, 1e-2, 1e-1, 1.0)
        for lam, model in zip(grid, train_linear_svm(X, y, lam=grid)):
            weights, biases = one_lambda_train_linear_svm(X, y, lam=lam)
            np.testing.assert_allclose(model.weights, weights, rtol=0, atol=1e-14)
            np.testing.assert_allclose(model.biases, biases, rtol=0, atol=1e-14)

    def test_scalar_gives_one_model_and_sequence_a_tuple(self):
        X, y = _blobs(seed=9)
        single = train_linear_svm(X, y, lam=0.1)
        assert isinstance(single, SvmModel) and single.lam == 0.1
        (only,) = train_linear_svm(X, y, lam=[0.1])
        np.testing.assert_array_equal(only.weights, single.weights)
        np.testing.assert_array_equal(only.biases, single.biases)
        assert single.weights.flags.c_contiguous and not single.weights.flags.writeable


class TestKnn:
    def test_k1_reproduces_training_labels(self):
        X, y = _blobs(seed=6, n=10)
        for i in range(len(X)):
            assert knn_predict_batch(X, y, X[i], 1)[0] == y[i]

    def test_majority_vote(self):
        X = np.array([[0.0], [0.1], [0.2], [5.0]])
        y = np.array([1, 1, 2, 0])
        assert knn_predict_batch(X, y, np.array([0.05]), 3)[0] == 1

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((30, 3))
        y = rng.integers(0, 3, size=30)
        for _ in range(20):
            q = rng.standard_normal(3)
            k = int(rng.integers(1, 8))
            d = [(float(np.sum((x - q) ** 2)), i) for i, x in enumerate(X)]
            d.sort()
            votes = np.bincount(y[[i for _, i in d[:k]]], minlength=3)
            assert knn_predict_batch(X, y, q, k)[0] == int(np.argmax(votes))

    def test_distance_tie_lower_index(self):
        X = np.array([[1.0], [-1.0]])
        y = np.array([2, 0])
        assert knn_predict_batch(X, y, np.array([0.0]), 1)[0] == 2

    def test_vote_tie_lowest_class(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([2, 1])
        assert knn_predict_batch(X, y, np.array([0.5]), 2)[0] == 1

    def test_empty_training_set(self):
        with pytest.raises(ValueError):
            knn_predict_batch(np.zeros((0, 2)), np.zeros(0, dtype=int), np.zeros(2), 1)[0]

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            knn_predict_batch(np.zeros((2, 1)), np.array([0, 1]), np.zeros(1), 3)[0]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_batch_matches_per_row_on_ties(self, k):
        # Integer features put many training rows at equal distances and
        # even k gives split votes, so both tie rules decide many rows.
        rng = np.random.default_rng(k)
        X = np.round(rng.uniform(-2, 2, size=(25, 2)))
        y = rng.integers(0, 3, size=25)
        Q = np.round(rng.uniform(-2, 2, size=(60, 2)))
        expected = [knn_predict(X, y, q, k) for q in Q]
        np.testing.assert_array_equal(knn_predict_batch(X, y, Q, k), expected)

    def test_batch_wrapper(self):
        X, y = _blobs(seed=8, n=5)
        preds = knn_predict_batch(X, y, X[:4], 1)
        np.testing.assert_array_equal(preds, y[:4])
