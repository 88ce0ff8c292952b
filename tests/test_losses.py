"""Loss function tests: exact values, analytic properties, gradient oracles."""

import math

import numpy as np
import pytest

from helpers import loop_msml
from msml.errors import DimensionError, ParameterError
from msml.gradcheck import TOLERANCES, check_case
from msml.losses import LossWeights, msml, msml_batch, sigmoid_bce, sigmoid_bce_batch, total_loss
from msml.ops import sigmoid


def random_case(seed, c_min=2, c_max=12):
    """Logits plus labels with 1 <= |Y| <= C-1."""
    rng = np.random.default_rng(seed)
    c = int(rng.integers(c_min, c_max))
    x = rng.normal(scale=2.0, size=c)
    y = np.zeros(c, dtype=np.int8)
    y[rng.choice(c, size=int(rng.integers(1, c)), replace=False)] = 1
    return x, y


class TestSigmoidBce:
    def test_single_positive_at_zero(self):
        loss, grad = sigmoid_bce([0.0], [1])
        assert loss == pytest.approx(math.log(2), abs=1e-12)
        np.testing.assert_allclose(grad, [-0.5], atol=1e-15)

    def test_saturated_positive(self):
        loss, grad = sigmoid_bce([40.0], [1])
        assert loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, [0.0], atol=1e-12)
        assert np.isfinite(loss) and np.isfinite(grad).all()

    def test_two_class_sum(self):
        loss, grad = sigmoid_bce([0.0, 0.0], [1, 0])
        assert loss == pytest.approx(2 * math.log(2), abs=1e-12)
        np.testing.assert_allclose(grad, [-0.5, 0.5], atol=1e-15)

    def test_loss_nonnegative(self):
        for seed in range(50):
            x, y = random_case(seed)
            loss, _ = sigmoid_bce(x, y)
            assert loss >= 0.0

    def test_gradient_is_z_minus_y_exactly(self):
        # the logit-space gradient must equal independently computed
        # sigmoid(x) - y to machine precision
        for seed in range(50):
            x, y = random_case(seed)
            _, grad = sigmoid_bce(x, y)
            np.testing.assert_array_equal(grad, sigmoid(x) - y)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        assert check_case("losses", "sigmoid_bce", seed) <= TOLERANCES["sigmoid_bce"]

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            sigmoid_bce([0.0, 1.0], [1])


class TestMsml:
    def test_uniform_logits_single_positive(self):
        loss, _ = msml([0.0, 0.0, 0.0], [1, 0, 0])
        assert loss == pytest.approx(math.log(3), abs=1e-12)

    def test_uniform_logits_two_positives(self):
        loss, _ = msml([0.0, 0.0, 0.0], [1, 1, 0])
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_all_positive_is_zero(self):
        loss, grad = msml([1.0, -2.0, 3.0], [1, 1, 1])
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_all_negative_is_zero(self):
        loss, grad = msml([1.0, -2.0, 3.0], [0, 0, 0])
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_nonnegative(self):
        for seed in range(200):
            x, y = random_case(seed)
            loss, _ = msml(x, y)
            assert loss >= 0.0

    def test_shift_invariance(self):
        for seed in range(50):
            x, y = random_case(seed)
            loss, grad = msml(x, y)
            for shift in (-7.3, 0.5, 123.0):
                loss_s, grad_s = msml(x + shift, y)
                assert abs(loss_s - loss) <= 1e-10
                np.testing.assert_allclose(grad_s, grad, atol=1e-10)

    def test_monotone_in_positive_logit(self):
        for seed in range(50):
            x, y = random_case(seed)
            loss, _ = msml(x, y)
            bumped = x.copy()
            bumped[np.flatnonzero(y == 1)[0]] += 0.5
            loss_b, _ = msml(bumped, y)
            assert loss_b < loss

    def test_permutation_equivariance(self):
        for seed in range(50):
            x, y = random_case(seed)
            rng = np.random.default_rng([seed, 1])
            perm = rng.permutation(x.size)
            loss, grad = msml(x, y)
            loss_p, grad_p = msml(x[perm], y[perm])
            assert loss_p == pytest.approx(loss, abs=1e-12)
            np.testing.assert_allclose(grad_p, grad[perm], atol=1e-12)

    def test_gradient_sign_structure(self):
        # loss falls as positive logits rise, grows as negative logits rise
        for seed in range(200):
            x, y = random_case(seed)
            _, grad = msml(x, y)
            assert (grad[y == 1] <= 0).all()
            assert (grad[y == 0] >= 0).all()

    def test_extreme_logits_stay_finite(self):
        loss, grad = msml([800.0, -800.0, 750.0], [1, 1, 0])
        assert np.isfinite(loss) and np.isfinite(grad).all()

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_finite_differences(self, seed):
        assert check_case("losses", "msml", seed) <= TOLERANCES["msml"]

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            msml([0.0], [1, 0])


class TestTotalLoss:
    def test_weighted_sum(self):
        assert total_loss(1.0, 1.0, 1.0, LossWeights(0.2, 0.6)) == pytest.approx(1.0)

    def test_zero(self):
        assert total_loss(0.0, 0.0, 0.0, LossWeights(0.9, 0.4)) == 0.0

    def test_ce_only(self):
        assert total_loss(1.0, 0.0, 0.0, LossWeights(0.2, 0.6)) == pytest.approx(0.2)

    def test_default_weights(self):
        w = LossWeights()
        assert (w.alpha, w.beta) == (0.2, 0.6)

    def test_rejects_negative_weights(self):
        with pytest.raises(ParameterError):
            LossWeights(-0.1, 0.6)

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            total_loss(float("nan"), 0.0, 0.0)


class TestBatchVariants:
    def test_batch_mean_matches_per_sample(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 5))
        y = (rng.random((6, 5)) < 0.4).astype(np.int8)
        loss_b, grad_b = sigmoid_bce_batch(x, y)
        losses = [sigmoid_bce(x[i], y[i]) for i in range(6)]
        assert loss_b == pytest.approx(np.mean([l for l, _ in losses]), abs=1e-12)
        np.testing.assert_allclose(grad_b, np.stack([g for _, g in losses]) / 6, atol=1e-15)

        loss_m, grad_m = msml_batch(x, y)
        loss_o, grad_o = loop_msml(x, y)
        assert loss_m == pytest.approx(loss_o, abs=1e-12)
        np.testing.assert_allclose(grad_m, grad_o, atol=1e-15)


class TestMsmlBatchOracle:
    """``msml_batch`` against the per-sample loop of ``helpers.loop_msml``."""

    @staticmethod
    def assert_matches_oracle(x, y):
        loss, grad = msml_batch(x, y)
        loss_o, grad_o = loop_msml(x, y)
        np.testing.assert_allclose(loss, loss_o, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grad, grad_o, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("c", range(2, 13))
    def test_random_batches(self, c):
        rng = np.random.default_rng([23, c])
        for scale in (0.1, 2.0, 30.0):
            for _ in range(20):
                n = int(rng.integers(1, 20))
                x = rng.normal(scale=scale, size=(n, c))
                y = (rng.random((n, c)) < rng.random()).astype(np.int8)
                self.assert_matches_oracle(x, y)

    def test_all_positive_and_all_negative_rows(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(5, 6))
        y = np.array([[1] * 6, [0] * 6, [1, 0, 0, 1, 0, 0], [0] * 6, [1] * 6], dtype=np.int8)
        self.assert_matches_oracle(x, y)
        _, grad = msml_batch(x, y)
        np.testing.assert_array_equal(grad[[0, 1, 3, 4]], 0.0)
        loss, grad = msml_batch(x, np.zeros_like(y))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_extreme_logits(self):
        rng = np.random.default_rng(25)
        x = rng.choice([-800.0, 800.0], size=(8, 5)) + rng.normal(size=(8, 5))
        y = (rng.random((8, 5)) < 0.5).astype(np.int8)
        y[0] = [1, 0, 1, 0, 1]
        self.assert_matches_oracle(x, y)
        loss, grad = msml_batch(x, y)
        assert np.isfinite(loss) and np.isfinite(grad).all()

    def test_batch_of_one(self):
        x, y = random_case(26)
        self.assert_matches_oracle(x[None], y[None])
        loss, grad = msml(x, y)
        loss_b, grad_b = msml_batch(x[None], y[None])
        assert loss == loss_b
        np.testing.assert_array_equal(grad, grad_b[0])
