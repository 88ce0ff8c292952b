"""Model construction, forward contracts, optimizer, and checkpoints."""

import numpy as np
import pytest

from msml.errors import ConfigError, DimensionError, FormatError
from msml.gradcheck import TOLERANCES, run_scope
from msml.model import (
    Adam,
    BackboneConfig,
    BaselineModel,
    Model,
    ModelConfig,
    TwoStreamModel,
    ensemble_fuse,
    lr_schedule,
    model_from_checkpoint,
    predict,
    read_checkpoint,
    save_checkpoint,
)

TINY = ModelConfig(
    num_classes=4,
    input_size=(8, 8),
    backbone=BackboneConfig(input_channels=1, conv_blocks=((4, 3, True), (6, 3, True))),
    proj_width=5,
)


def params_dict(model):
    return {name: value.copy() for name, value, _ in model.params()}


class TestBuild:
    def test_streams_start_bit_identical(self):
        m = TwoStreamModel(TINY, seed=3)
        a = dict(p[:2] for p in m.stream_a.params("s"))
        b = dict(p[:2] for p in m.stream_b.params("s"))
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_same_seed_same_model(self):
        a = params_dict(TwoStreamModel(TINY, seed=5))
        b = params_dict(TwoStreamModel(TINY, seed=5))
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_different_seed_differs(self):
        a = params_dict(TwoStreamModel(TINY, seed=5))
        b = params_dict(TwoStreamModel(TINY, seed=6))
        assert any(not np.array_equal(a[name], b[name]) for name in a)

    def test_heads_independently_initialized(self):
        m = TwoStreamModel(TINY, seed=3)
        assert not np.array_equal(m.head_ce.w, m.head_msml.w)

    def test_too_small_input_rejected(self):
        cfg = ModelConfig(num_classes=2, input_size=(4, 4),
                          backbone=BackboneConfig(1, ((4, 3, True), (4, 3, True))))
        with pytest.raises(ConfigError):
            TwoStreamModel(cfg, seed=0)


class TestForward:
    def test_zero_batch_gives_bias_logits(self):
        m = TwoStreamModel(TINY, seed=1)
        out = m.forward(np.zeros((2, 1, 8, 8)), training=False)
        # conv biases are zero at init, so features vanish and only the
        # classifier bias paths remain
        np.testing.assert_allclose(out.logits_ce, np.tile(m.head_ce.b, (2, 1)), atol=1e-12)
        np.testing.assert_allclose(
            out.logits_fce, np.tile(m.proj.b @ m.cls.w + m.cls.b, (2, 1)), atol=1e-12
        )

    def test_eval_deterministic(self):
        rng = np.random.default_rng(2)
        m = TwoStreamModel(TINY, seed=1)
        batch = rng.normal(size=(3, 1, 8, 8))
        a = m.forward(batch, training=False)
        b = m.forward(batch, training=False)
        np.testing.assert_array_equal(a.logits_fce, b.logits_fce)

    def test_training_mode_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        m = TwoStreamModel(TINY, seed=1)
        batch = rng.normal(size=(3, 1, 8, 8))
        a = m.forward(batch, training=True, seed=7)
        b = m.forward(batch, training=True, seed=7)
        np.testing.assert_array_equal(a.logits_ce, b.logits_ce)

    def test_logit_widths(self):
        m = TwoStreamModel(TINY, seed=1)
        out = m.forward(np.zeros((5, 1, 8, 8)))
        for logits in (out.logits_ce, out.logits_msml, out.logits_fce):
            assert logits.shape == (5, TINY.num_classes)

    def test_wrong_spatial_size_rejected(self):
        m = TwoStreamModel(TINY, seed=1)
        with pytest.raises(DimensionError):
            m.forward(np.zeros((2, 1, 9, 9)))

    def test_whole_model_gradient_check(self):
        assert run_scope("model")["model"] <= TOLERANCES["model"]


def _layers(obj):
    """The object and every layer reachable through its attributes and lists."""
    yield obj
    for value in vars(obj).values():
        for item in value if isinstance(value, list) else [value]:
            if hasattr(item, "forward"):
                yield from _layers(item)


class TestNoPerCallState:
    """A forward pass returns its tape; the model and its layers keep nothing."""

    @pytest.mark.parametrize("build", [TwoStreamModel, BaselineModel], ids=lambda model: f"build_{model.kind}")
    def test_forward_leaves_every_layer_unchanged(self, build):
        m = build(TINY, seed=1)
        before = [(layer, dict(vars(layer))) for layer in _layers(m)]
        assert len(before) > 3
        batch = np.random.default_rng(8).normal(size=(2, 1, 8, 8))
        for training in (True, False):
            m.forward(batch, training=training, seed=5)
            for layer, attrs in before:
                now = vars(layer)
                assert now.keys() == attrs.keys(), type(layer).__name__
                assert all(now[k] is v for k, v in attrs.items()), type(layer).__name__

    @pytest.mark.parametrize("build", [TwoStreamModel, BaselineModel], ids=lambda model: f"build_{model.kind}")
    def test_backward_uses_only_its_tape(self, build):
        rng = np.random.default_rng(9)
        first, second = rng.normal(size=(2, 3, 1, 8, 8))
        grads = [rng.normal(size=(3, TINY.num_classes)) for _ in range(3)]

        def grads_after(batches):
            m = build(TINY, seed=2)
            outs = [m.forward(b, training=True, seed=4) for b in batches]
            m.zero_grads()
            m.backward(outs[0].tape, *grads)
            return [g.copy() for _, _, g in m.params()]

        for a, b in zip(grads_after([first]), grads_after([first, second])):
            np.testing.assert_array_equal(a, b)

    def test_models_share_one_base(self):
        for build, heads in ((TwoStreamModel, ("ce", "msml", "fce")), (BaselineModel, ("ce",))):
            m = build(TINY, seed=1)
            assert isinstance(m, Model)
            assert m.heads == heads and m.primary_head == heads[-1]
            groups = m.param_groups()
            assert m.params() == groups["backbones"] + groups["stream_heads"] + groups["bilinear_head"]


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = np.ones((3, 2))
        g = np.zeros((3, 2))
        opt = Adam([("p", p, g)], lr=0.1)
        opt.step()
        np.testing.assert_array_equal(p, np.ones((3, 2)))

    def test_hand_computed_first_step(self):
        # m1 = (1-b1) g, v1 = (1-b2) g^2; bias-corrected m=g, v=g^2
        # update = -lr * g / (|g| + eps)
        g = np.array([0.3, -2.0, 0.001])
        p = np.zeros(3)
        opt = Adam([("p", p, g.copy())], lr=1e-2)
        opt.step()
        expected = -1e-2 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(p, expected, rtol=1e-12)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(4)
        grads = [rng.normal(size=(4, 3)) for _ in range(5)]

        def run():
            p = np.ones((4, 3))
            g = np.zeros((4, 3))
            opt = Adam([("p", p, g)], lr=1e-3)
            for step_grad in grads:
                g[...] = step_grad
                opt.step()
            return p

        np.testing.assert_array_equal(run(), run())

    def test_shape_mismatch(self):
        opt = Adam([("p", np.zeros((2, 2)), np.zeros((2, 2)))])
        opt.params[0] = ("p", np.zeros((2, 2)), np.zeros(3))
        with pytest.raises(DimensionError):
            opt.step()


class TestLrSchedule:
    def test_values(self):
        assert lr_schedule(1e-4, 0) == 1e-4
        assert lr_schedule(1e-4, 1) == 1e-4
        assert lr_schedule(1e-4, 2) == 1e-4
        assert lr_schedule(1e-4, 3) == pytest.approx(1e-5, rel=1e-12)
        assert lr_schedule(1e-4, 7) == pytest.approx(1e-6, rel=1e-12)

    def test_negative_epoch(self):
        with pytest.raises(ConfigError):
            lr_schedule(1e-4, -1)


class TestPredict:
    def test_zero_logits_give_half(self):
        m = TwoStreamModel(TINY, seed=1)
        for layer in (m.head_ce, m.head_msml, m.proj, m.cls):
            layer.w[...] = 0.0
            layer.b[...] = 0.0
        probs = predict(m, np.zeros((3, 1, 8, 8)))
        for head in ("ce", "msml", "fce"):
            np.testing.assert_array_equal(probs[head], np.full((3, 4), 0.5))

    def test_monotone_in_logits(self):
        m = TwoStreamModel(TINY, seed=2)
        rng = np.random.default_rng(5)
        batch = rng.normal(size=(4, 1, 8, 8))
        out = m.forward(batch)
        probs = predict(m, batch)
        order_logits = np.argsort(out.logits_ce.ravel())
        order_probs = np.argsort(probs["ce"].ravel())
        np.testing.assert_array_equal(order_logits, order_probs)
        assert (probs["ce"] > 0).all() and (probs["ce"] < 1).all()

    def test_shapes_per_head(self):
        m = BaselineModel(TINY, seed=1)
        probs = predict(m, np.zeros((6, 1, 8, 8)))
        assert set(probs) == {"ce"}
        assert probs["ce"].shape == (6, 4)


class TestEnsembleFuse:
    def test_identical_inputs_idempotent(self):
        a = np.random.default_rng(0).random((4, 3))
        np.testing.assert_array_equal(ensemble_fuse([a, a]), a)

    def test_mean_of_two(self):
        a = np.full((2, 2), 0.2)
        b = np.full((2, 2), 0.8)
        np.testing.assert_allclose(ensemble_fuse([a, b]), np.full((2, 2), 0.5), atol=1e-15)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        sets = [rng.random((3, 2)) for _ in range(4)]
        np.testing.assert_allclose(
            ensemble_fuse(sets), ensemble_fuse(sets[::-1]), atol=1e-15
        )

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ensemble_fuse([np.zeros((2, 2)), np.zeros((3, 2))])


class TestCheckpoints:
    def test_round_trip_parameters(self, tmp_path):
        m = TwoStreamModel(TINY, seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(m, path)
        back = model_from_checkpoint(path)
        assert back.kind == "two_stream"
        assert back.cfg == m.cfg
        orig = params_dict(m)
        for name, value, _ in back.params():
            np.testing.assert_array_equal(value, orig[name])

    def test_baseline_round_trip(self, tmp_path):
        m = BaselineModel(TINY, seed=9)
        path = tmp_path / "b.ckpt"
        save_checkpoint(m, path)
        back = model_from_checkpoint(path)
        assert back.kind == "baseline"
        out_a = m.forward(np.ones((2, 1, 8, 8)))
        out_b = back.forward(np.ones((2, 1, 8, 8)))
        np.testing.assert_array_equal(out_a.logits_ce, out_b.logits_ce)

    def test_save_is_byte_deterministic(self, tmp_path):
        m = TwoStreamModel(TINY, seed=9)
        save_checkpoint(m, tmp_path / "a.ckpt")
        save_checkpoint(m, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_magic_and_class_count(self, tmp_path):
        m = TwoStreamModel(TINY, seed=9)
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        blob = path.read_bytes()
        assert blob[:8] == b"MSML0001"
        num_classes, tensors = read_checkpoint(path)
        assert num_classes == 4
        assert "stream_a.block0.conv.w" in tensors

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(TwoStreamModel(TINY, seed=9), path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as err:
            read_checkpoint(path)
        assert err.value.offset == 0

    def test_truncation(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(TwoStreamModel(TINY, seed=9), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            read_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, bad):
        m = TwoStreamModel(TINY, seed=9)
        m.head_ce.w[1, 2] = bad
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        with pytest.raises(FormatError, match="head_ce.w holds a NaN or an infinity"):
            read_checkpoint(path)
