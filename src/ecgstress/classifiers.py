"""Feature standardization, linear one-vs-rest SVM and KNN."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal_core import freeze

STD_FLOOR = 1e-12


@dataclass(frozen=True)
class StandardizationStats:
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        freeze(self, "mean", "std")
        if np.any(self.std < STD_FLOOR):
            raise ValueError(f"stds must be >= {STD_FLOOR}")

    def transform(self, X) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean) / self.std


def standardize_fit(X):
    """Column-wise z-scoring; constant columns map to zero via the std floor."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or len(X) < 1:
        raise ValueError("X must be a nonempty 2D matrix")
    stats = StandardizationStats(
        mean=X.mean(axis=0), std=np.maximum(X.std(axis=0), STD_FLOOR)
    )
    return stats.transform(X), stats


@dataclass(frozen=True)
class SvmModel:
    weights: np.ndarray  # [classes, d]
    biases: np.ndarray  # [classes]
    lam: float

    def __post_init__(self):
        freeze(self, "weights", "biases")
        if self.weights.shape[0] < 2 or self.weights.shape[0] != len(self.biases):
            raise ValueError("need one weight vector and bias per class (>= 2 classes)")


def train_linear_svm(X, y, lam=0.01, epochs=200) -> SvmModel | tuple[SvmModel, ...]:
    """One-vs-rest linear SVMs via deterministic full-batch subgradient descent.

    Minimizes (lam/2)||w||^2 + mean hinge loss per class. ``lam`` is one λ,
    which gives one SvmModel, or a sequence of L values, which gives one
    SvmModel per λ in grid order. Every (λ, class) pair trains at once as one
    column of W (d, L·C): column l·C + c is class c against the rest under
    the l-th λ. Zero init and full batches leave nothing to seed.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(np.unique(y)) < 2:
        raise ValueError("training data must contain at least 2 classes")
    lams = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    classes = int(y.max()) + 1
    Y = np.tile(np.where(y[:, None] == np.arange(classes), 1.0, -1.0), len(lams))  # (n, L·C)
    col_lam = np.repeat(lams, classes)
    n = len(X)
    W = np.zeros((X.shape[1], Y.shape[1]))
    b = np.zeros(Y.shape[1])
    for step in range(epochs):
        lr = 0.1 / (1.0 + 0.01 * step)
        A = np.where(Y * (X @ W + b) < 1.0, Y, 0.0)  # active hinge terms
        W -= lr * (col_lam * W - X.T @ A / n)
        b -= lr * (-A.sum(axis=0) / n)
    models = tuple(
        SvmModel(weights=np.ascontiguousarray(weights), biases=biases, lam=float(value))
        for weights, biases, value in zip(
            W.T.reshape(len(lams), classes, -1), b.reshape(len(lams), classes), lams
        )
    )
    return models if np.ndim(lam) else models[0]


def svm_predict(model: SvmModel, X) -> np.ndarray:
    """Argmax of per-class scores; ties break toward the lowest class index."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[-1] != model.weights.shape[1]:
        raise ValueError(
            f"feature dim {X.shape[-1]} does not match model dim {model.weights.shape[1]}"
        )
    return np.argmax(X @ model.weights.T + model.biases, axis=1)


def knn_predict_batch(train_X, train_y, X, k: int) -> np.ndarray:
    """Majority vote over the k nearest Euclidean neighbors of each row of X.

    Distance ties break by lower training index, vote ties by lowest class.
    """
    train_X = np.asarray(train_X, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.int64)
    if len(train_X) == 0:
        raise ValueError("training set is empty")
    if not (1 <= k <= len(train_X)):
        raise ValueError(f"k must be in [1, {len(train_X)}], got {k}")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    dists = np.linalg.norm(X[:, None, :] - train_X, axis=2)
    nearest = train_y[np.argsort(dists, axis=1, kind="stable")[:, :k]]
    votes = (nearest[:, :, None] == np.arange(train_y.max() + 1)).sum(axis=1)
    return np.argmax(votes, axis=1)
