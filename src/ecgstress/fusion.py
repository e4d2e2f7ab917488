"""Eigenvector-weighted feature fusion.

Per-modality weights are the principal eigenvector of the un-centered Gram
matrix F^T F; fused features are the column-wise weighted sum of the two
modalities. The average-fusion ablation replaces both weight vectors with
the scalar 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FusionWeights:
    w1: np.ndarray
    w2: np.ndarray
    sign_convention: str = "first-nonzero-nonnegative"

    def __post_init__(self):
        w1 = np.asarray(self.w1, dtype=np.float64)
        w2 = np.asarray(self.w2, dtype=np.float64)
        w1.setflags(write=False)
        w2.setflags(write=False)
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "w2", w2)
        for name, w in (("w1", w1), ("w2", w2)):
            if abs(np.linalg.norm(w) - 1.0) > 1e-9:
                raise ValueError(f"{name} must be unit-norm")


def gram_covariance(F) -> np.ndarray:
    """Un-centered Gram matrix F^T F (no mean subtraction)."""
    F = np.asarray(F, dtype=np.float64)
    if not np.all(np.isfinite(F)):
        raise ValueError("feature matrix contains non-finite values")
    return F.T @ F


def _fix_sign(v: np.ndarray) -> np.ndarray:
    """Flip v so its first component of non-negligible magnitude is >= 0."""
    nz = np.flatnonzero(np.abs(v) > 1e-12 * max(1.0, np.abs(v).max()))
    if len(nz) and v[nz[0]] < 0:
        return -v
    return v


def eig_sym(A) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix (LAPACK, via np.linalg.eigh).

    Returns eigenvalues in descending order and the matching orthonormal
    eigenvector columns, each sign-fixed so its first nonzero component is
    nonnegative.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    scale = max(1.0, np.abs(A).max())
    if np.abs(A - A.T).max() > 1e-10 * scale:
        raise ValueError("matrix must be symmetric")
    eigenvalues, vectors = np.linalg.eigh((A + A.T) / 2.0)
    vectors = vectors[:, ::-1]
    for j in range(vectors.shape[1]):
        vectors[:, j] = _fix_sign(vectors[:, j])
    return eigenvalues[::-1].copy(), vectors


def principal_weights(F) -> np.ndarray:
    """Top eigenvector of F^T F, used as per-dimension fusion weights.

    Falls back to the uniform unit vector when the Gram matrix is
    numerically zero.
    """
    gram = gram_covariance(F)
    d = gram.shape[0]
    if np.abs(gram).max() < 1e-12:
        return np.full(d, 1.0 / np.sqrt(d))
    _, vectors = eig_sym(gram)
    return vectors[:, 0].copy()


def compute_fusion_weights(F1, F2) -> FusionWeights:
    return FusionWeights(w1=principal_weights(F1), w2=principal_weights(F2))


def weighted_fuse(F1, F2, weights: FusionWeights) -> np.ndarray:
    """Column-wise weighted sum w1*F1 + w2*F2 under the training fold's weights."""
    F1 = np.asarray(F1, dtype=np.float64)
    F2 = np.asarray(F2, dtype=np.float64)
    if F1.shape != F2.shape:
        raise ValueError(f"shape mismatch: {F1.shape} vs {F2.shape}")
    if len(weights.w1) != F1.shape[1]:
        raise ValueError(
            f"weight length {len(weights.w1)} does not match feature dim {F1.shape[1]}"
        )
    return F1 * weights.w1[None, :] + F2 * weights.w2[None, :]


def average_fuse(F1, F2) -> np.ndarray:
    """Ablation: both weight vectors replaced by the scalar 0.5."""
    F1 = np.asarray(F1, dtype=np.float64)
    F2 = np.asarray(F2, dtype=np.float64)
    if F1.shape != F2.shape:
        raise ValueError(f"shape mismatch: {F1.shape} vs {F2.shape}")
    return 0.5 * F1 + 0.5 * F2
