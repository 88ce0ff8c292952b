"""Bilinear pooling chain: hand values, algebraic properties, gradients."""

import numpy as np
import pytest

from msml import bilinear as bl
from msml.errors import DimensionError
from msml.gradcheck import TOLERANCES, check_case


def pool(f1, f2):
    return bl.bilinear_pool_batch(f1[None], f2[None])[0][0]


def l2_normalize(v):
    return bl.l2_normalize_batch(v[None])[0][0]


class TestBilinearPool:
    def test_hand_outer_product(self):
        f1 = np.array([1.0, 2.0]).reshape(2, 1, 1)
        f2 = np.array([3.0, 4.0, 5.0]).reshape(3, 1, 1)
        np.testing.assert_array_equal(pool(f1, f2), [3, 4, 5, 6, 8, 10])

    def test_single_channel_square(self):
        f = np.array([[[3.0]]])
        np.testing.assert_array_equal(pool(f, f), [9.0])

    def test_two_locations_average(self):
        rng = np.random.default_rng(0)
        f1 = rng.normal(size=(3, 2, 1))
        f2 = rng.normal(size=(4, 2, 1))
        p = np.outer(f1[:, 0, 0], f2[:, 0, 0]).ravel()
        q = np.outer(f1[:, 1, 0], f2[:, 1, 0]).ravel()
        np.testing.assert_allclose(pool(f1, f2), (p + q) / 2, atol=1e-15)

    def test_self_pool_is_symmetric_psd(self):
        rng = np.random.default_rng(1)
        f = rng.normal(size=(5, 3, 3))
        mat = pool(f, f).reshape(5, 5)
        np.testing.assert_allclose(mat, mat.T, atol=1e-14)
        assert np.linalg.eigvalsh(mat).min() >= -1e-12

    def test_scale_bilinearity(self):
        rng = np.random.default_rng(2)
        f1 = rng.normal(size=(3, 2, 2))
        f2 = rng.normal(size=(4, 2, 2))
        base = pool(f1, f2)
        np.testing.assert_allclose(pool(2.5 * f1, -1.5 * f2), 2.5 * -1.5 * base, atol=1e-10)

    def test_spatial_mismatch(self):
        with pytest.raises(DimensionError):
            pool(np.zeros((2, 3, 3)), np.zeros((2, 2, 3)))


class TestSignedSqrt:
    def test_values(self):
        np.testing.assert_array_equal(bl.signed_sqrt(np.array([4.0, -9.0, 0.0]))[0], [2.0, -3.0, 0.0])

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_away_from_zero(self, seed):
        assert check_case("bilinear", "signed_sqrt", seed) <= TOLERANCES["signed_sqrt"]


class TestL2Normalize:
    def test_hand_value(self):
        np.testing.assert_allclose(l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-15)

    def test_zero_vector_stays_zero(self):
        out = l2_normalize(np.zeros(4))
        np.testing.assert_array_equal(out, np.zeros(4))
        assert np.isfinite(out).all()

    def test_unit_vector_fixed_point(self):
        v = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(l2_normalize(v), v, atol=1e-15)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=9)
        for c in (0.1, 3.0, 1e6):
            np.testing.assert_allclose(l2_normalize(c * v), l2_normalize(v), atol=1e-12)

    def test_output_norm_is_one(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=(4, 6))
        out, _ = bl.l2_normalize_batch(v)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient(self, seed):
        assert check_case("bilinear", "l2_normalize", seed) <= TOLERANCES["l2_normalize"]


class TestBilinearHead:
    def test_zero_maps_give_bias_logits(self):
        # zero maps give a zero feature vector; the fce bias path is checked in test_model
        u, _ = bl.bilinear_features(np.zeros((1, 3, 2, 2)), np.zeros((1, 3, 2, 2)))
        np.testing.assert_array_equal(u, np.zeros((1, 9)))

    def test_output_width_is_class_count(self):
        # the feature width is d1 * d2, the projection's input width
        rng = np.random.default_rng(8)
        u, _ = bl.bilinear_features(rng.normal(size=(3, 2, 3, 2)), rng.normal(size=(3, 5, 3, 2)))
        assert u.shape == (3, 10)

    @pytest.mark.parametrize("seed", range(20))
    def test_end_to_end_gradient(self, seed):
        assert check_case("bilinear", "bilinear_head", seed) <= TOLERANCES["bilinear_head"]
