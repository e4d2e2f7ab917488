"""Gram covariance, symmetric eigendecomposition and weighted fusion."""

import numpy as np
import pytest

from ecgstress.fusion import (
    FusionWeights,
    average_fuse,
    compute_fusion_weights,
    eig_sym,
    gram_covariance,
    principal_weights,
    weighted_fuse,
)


class TestGram:
    def test_identity(self):
        np.testing.assert_array_equal(gram_covariance(np.eye(2)), np.eye(2))

    def test_hand_example(self):
        got = gram_covariance([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(got, [[10.0, 14.0], [14.0, 20.0]])

    def test_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            F = rng.standard_normal((7, 5))
            values, _ = eig_sym(gram_covariance(F))
            assert np.all(values >= -1e-10)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            gram_covariance([[np.inf, 0.0]])


class TestEigSym:
    def test_diagonal(self):
        values, vectors = eig_sym(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(values, [3.0, 1.0])
        np.testing.assert_allclose(vectors, np.eye(2), atol=1e-12)

    def test_classic_2x2(self):
        values, vectors = eig_sym([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(values, [3.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(
            np.abs(vectors[:, 0]), [1 / np.sqrt(2)] * 2, atol=1e-12
        )
        assert vectors[0, 0] >= 0  # sign convention

    def test_reconstruction_64(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((64, 64))
        A = (A + A.T) / 2
        values, vectors = eig_sym(A)
        diag = vectors.T @ A @ vectors
        off = diag - np.diag(np.diag(diag))
        assert np.abs(off).max() < 1e-8
        np.testing.assert_allclose(np.diag(diag), values, atol=1e-8)

    def test_matches_reference_eigenvalues(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((16, 16))
        A = A @ A.T
        values, _ = eig_sym(A)
        reference = np.sort(np.linalg.eigvalsh(A))[::-1]
        np.testing.assert_allclose(values, reference, rtol=1e-10, atol=1e-10)

    def test_descending_and_orthonormal(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((20, 20))
        A = (A + A.T) / 2
        values, vectors = eig_sym(A)
        assert np.all(np.diff(values) <= 1e-12)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(20), atol=1e-9)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            eig_sym([[1.0, 2.0], [0.0, 1.0]])

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            eig_sym(np.zeros((2, 3)))


class TestPrincipalWeights:
    def test_single_nonzero_column(self):
        F = np.zeros((5, 4))
        F[:, 2] = [1.0, -2.0, 3.0, 0.5, 1.5]
        w = principal_weights(F)
        expected = np.zeros(4)
        expected[2] = 1.0
        np.testing.assert_allclose(w, expected, atol=1e-10)

    def test_zero_matrix_uniform_fallback(self):
        w = principal_weights(np.zeros((3, 4)))
        np.testing.assert_allclose(w, np.full(4, 0.5))

    def test_scale_invariance(self):
        rng = np.random.default_rng(10)
        F = rng.standard_normal((8, 6))
        w = principal_weights(F)
        for a in (0.5, 3.0, 100.0):
            np.testing.assert_allclose(principal_weights(a * F), w, atol=1e-12)

    def test_unit_norm(self):
        rng = np.random.default_rng(11)
        w = principal_weights(rng.standard_normal((10, 7)))
        assert abs(np.linalg.norm(w) - 1.0) < 1e-9


class TestFusionWeights:
    def test_norm_validated(self):
        with pytest.raises(ValueError, match="unit-norm"):
            FusionWeights(w1=np.array([1.0, 1.0]), w2=np.array([1.0, 0.0]))

    def test_compute_pairs_modalities(self):
        rng = np.random.default_rng(12)
        F1 = rng.standard_normal((6, 4))
        F2 = rng.standard_normal((6, 4))
        w = compute_fusion_weights(F1, F2)
        np.testing.assert_array_equal(w.w1, principal_weights(F1))
        np.testing.assert_array_equal(w.w2, principal_weights(F2))


class TestWeightedFuse:
    def test_zero_second_modality(self):
        rng = np.random.default_rng(13)
        F1 = rng.standard_normal((5, 3))
        e1 = np.array([1.0, 0.0, 0.0])
        fused = weighted_fuse(F1, np.zeros_like(F1), FusionWeights(w1=e1, w2=e1))
        np.testing.assert_array_equal(fused[:, 0], F1[:, 0])
        np.testing.assert_array_equal(fused[:, 1:], np.zeros((5, 2)))

    def test_equal_modalities_double_weight(self):
        rng = np.random.default_rng(14)
        F = rng.standard_normal((4, 3))
        u = np.full(3, 1 / np.sqrt(3))
        fused = weighted_fuse(F, F, FusionWeights(w1=u, w2=u))
        np.testing.assert_allclose(fused, 2 * u[None, :] * F)

    def test_linearity_per_modality(self):
        rng = np.random.default_rng(15)
        F1, F2, G = (rng.standard_normal((6, 4)) for _ in range(3))
        w = compute_fusion_weights(F1, F2)
        lhs = weighted_fuse(F1 + G, F2, w)
        rhs = weighted_fuse(F1, F2, w) + G * w.w1[None, :]
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 4\)"):
            weighted_fuse(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_weight_length_checked(self):
        u = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            weighted_fuse(np.zeros((2, 3)), np.zeros((2, 3)), FusionWeights(w1=u, w2=u))

    def test_row_independent_application(self):
        rng = np.random.default_rng(16)
        F1 = rng.standard_normal((10, 4))
        F2 = rng.standard_normal((10, 4))
        w = compute_fusion_weights(F1, F2)
        full = weighted_fuse(F1, F2, w)
        row = weighted_fuse(F1[3:4], F2[3:4], w)
        np.testing.assert_array_equal(full[3:4], row)


class TestAverageFuse:
    def test_identical_inputs(self):
        F = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(average_fuse(F, F), F)

    def test_opposite_inputs(self):
        F = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(average_fuse(F, -F), np.zeros((2, 3)))

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(17)
        F1 = rng.standard_normal((5, 4))
        F2 = rng.standard_normal((5, 4))
        np.testing.assert_array_equal(average_fuse(F1, F2), 0.5 * F1 + 0.5 * F2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            average_fuse(np.zeros((2, 3)), np.zeros((3, 3)))
