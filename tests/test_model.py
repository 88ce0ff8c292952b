"""Model construction, forward contracts, optimizer, and checkpoints."""

import dataclasses
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from helpers import peak_memory
from msml import model as model_mod
from msml import ops
from msml.errors import ConfigError, DimensionError, FormatError
from msml.gradcheck import TOLERANCES, run_scope
from msml.model import (
    Adam,
    Backbone,
    BaselineModel,
    Conv2d,
    Model,
    ModelConfig,
    Slab,
    TwoStreamModel,
    lr_schedule,
    model_from_checkpoint,
    predict,
    save_checkpoint,
)

TINY = ModelConfig(
    num_classes=4,
    input_size=(8, 8),
    conv_blocks=((4, 3, True), (6, 3, True)),
    proj_width=5,
)


def save_with_block_line(path, line):
    """Save a TINY two-stream checkpoint whose model block holds ``line`` in place
    of the line with the same key."""
    save_checkpoint(TwoStreamModel(TINY, seed=9), path)
    blob = path.read_bytes()
    (size,) = struct.unpack_from("<I", blob, 8)
    key = line.partition(" = ")[0]
    lines = [line if old.partition(" = ")[0] == key else old for old in blob[12 : 12 + size].decode().splitlines()]
    block = ("\n".join(lines) + "\n").encode()
    path.write_bytes(blob[:8] + struct.pack("<I", len(block)) + block + blob[12 + size :])


def params_dict(model):
    return {name: value.copy() for name, value, _ in model.params()}


class TestBuild:
    def test_streams_start_bit_identical(self):
        m = TwoStreamModel(TINY, seed=3)
        a = {name.removeprefix("stream_a."): value for name, value, _ in m.params() if name.startswith("stream_a.")}
        b = {name.removeprefix("stream_b."): value for name, value, _ in m.params() if name.startswith("stream_b.")}
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
        cfg = ModelConfig(num_classes=2, input_size=(4, 4), conv_blocks=((4, 3, True), (4, 3, True)))
        with pytest.raises(ConfigError):
            TwoStreamModel(cfg, seed=0)

    def test_invalid_dropout_rate_rejected(self):
        for rate in (1.0, 1.5, -0.1, np.nan):
            for build in (TwoStreamModel, BaselineModel):
                with pytest.raises(ConfigError, match="dropout_rate"):
                    build(dataclasses.replace(TINY, dropout_rate=rate), seed=0)


class TestForward:
    def test_zero_batch_gives_bias_logits(self):
        m = TwoStreamModel(TINY, seed=1)
        out = m.forward(np.zeros((2, 1, 8, 8)), training=False)
        # conv biases are zero at init, so features vanish and only the
        # classifier bias paths remain
        np.testing.assert_allclose(out.logits["ce"], np.tile(m.head_ce.b, (2, 1)), atol=1e-12)
        np.testing.assert_allclose(
            out.logits["fce"], np.tile(m.proj.b @ m.cls.w + m.cls.b, (2, 1)), atol=1e-12
        )

    def test_eval_deterministic(self):
        rng = np.random.default_rng(2)
        m = TwoStreamModel(TINY, seed=1)
        batch = rng.normal(size=(3, 1, 8, 8))
        a = m.forward(batch, training=False)
        b = m.forward(batch, training=False)
        np.testing.assert_array_equal(a.logits["fce"], b.logits["fce"])

    def test_training_mode_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        m = TwoStreamModel(TINY, seed=1)
        batch = rng.normal(size=(3, 1, 8, 8))
        a = m.forward(batch, training=True, seed=7)
        b = m.forward(batch, training=True, seed=7)
        np.testing.assert_array_equal(a.logits["ce"], b.logits["ce"])

    def test_logit_widths(self):
        m = TwoStreamModel(TINY, seed=1)
        out = m.forward(np.zeros((5, 1, 8, 8)))
        for logits in out.logits.values():
            assert logits.shape == (5, TINY.num_classes)

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("build", [TwoStreamModel, BaselineModel], ids=lambda model: f"build_{model.kind}")
    def test_logits_are_keyed_by_the_heads_in_order(self, build, training):
        m = build(TINY, seed=1)
        assert tuple(m.forward(np.zeros((2, 1, 8, 8)), training=training).logits) == m.heads

    def test_logits_read_by_attribute_name(self):
        out = BaselineModel(TINY, seed=1).forward(np.zeros((2, 1, 8, 8)))
        assert out.logits_ce is out.logits["ce"] and out.logits_fce is None
        with pytest.raises(AttributeError):
            out.scores

    @pytest.mark.parametrize("build", [TwoStreamModel, BaselineModel], ids=lambda model: f"build_{model.kind}")
    def test_backward_without_head_gradients_leaves_every_gradient_zero(self, build):
        m = build(TINY, seed=1)
        out = m.forward(np.random.default_rng(4).normal(size=(2, 1, 8, 8)), training=True, seed=2)
        m.zero_grads()
        m.backward(out.tape, {})
        for name, _, grad in m.params():
            assert not grad.any(), name

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "training"])
    @pytest.mark.parametrize("build", [TwoStreamModel, BaselineModel], ids=lambda model: f"build_{model.kind}")
    def test_float32_batch_gives_the_float64_logits(self, build, training):
        # the model converts its input once; every op after it sees float64
        model = build(TINY, seed=6)
        batch = np.random.default_rng(15).normal(size=(3, 1, 8, 8)).astype(np.float32)
        single = model.forward(batch, training=training, seed=1).logits
        double = model.forward(batch.astype(np.float64), training=training, seed=1).logits
        for head in model.heads:
            assert single[head].dtype == np.float64
            np.testing.assert_array_equal(single[head], double[head])

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
        grads = {head: rng.normal(size=(3, TINY.num_classes)) for head in ("ce", "msml", "fce")}

        def grads_after(batches):
            m = build(TINY, seed=2)
            outs = [m.forward(b, training=True, seed=4) for b in batches]
            m.zero_grads()
            m.backward(outs[0].tape, grads)
            return [g.copy() for _, _, g in m.params()]

        for a, b in zip(grads_after([first]), grads_after([first, second])):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("build", [TwoStreamModel, BaselineModel], ids=lambda model: f"build_{model.kind}")
    def test_backward_empties_the_backbone_tapes(self, build):
        rng = np.random.default_rng(11)
        m = build(TINY, seed=2)
        out = m.forward(rng.normal(size=(3, 1, 8, 8)), training=True, seed=4)
        m.backward(out.tape, {head: rng.normal(size=(3, TINY.num_classes)) for head in m.heads})
        # the streams' tapes, or the baseline's two halves' tapes
        tapes = list(out.tape[1:3]) if build is TwoStreamModel else out.tape[0]
        assert len(tapes) == 2 and all(tape == [] for tape in tapes)

    @pytest.mark.parametrize("build,bound", [(TwoStreamModel, 16), (BaselineModel, 8)],
                             ids=["build_two_stream", "build_baseline"])
    def test_training_pass_frees_each_block_after_its_backward(self, monkeypatch, build, bound):
        """Each block's input-gradient columns overwrite its forward's, and its cache is
        freed before the next block's backward allocates (bound in MiB)."""
        monkeypatch.setenv("MSML_THREADS", "1")
        rng = np.random.default_rng(12)
        m = build(ModelConfig(), seed=2)
        batch = rng.normal(size=(16, 1, 28, 28))
        grads = {head: rng.normal(size=(16, m.cfg.num_classes)) for head in m.heads}

        def training_pass():
            m.backward(m.forward(batch, training=True, seed=3).tape, grads)

        training_pass()  # warm numpy's and BLAS's buffers
        training_pass()
        with peak_memory() as peak:
            training_pass()
        assert peak[0] < bound * 2**20

    def test_models_share_one_base(self):
        for build, heads in ((TwoStreamModel, ("ce", "msml", "fce")), (BaselineModel, ("ce",))):
            m = build(TINY, seed=1)
            assert isinstance(m, Model)
            assert m.heads == heads and m.primary_head == heads[-1]


class TestStreamThreads:
    """A training pass runs stream_a, or the first half of a baseline batch, on
    the worker pool and stream_b, or the second half, on the caller; an eval
    pass, which score_fold already runs on the pool, runs both on the caller."""

    def threads_of_backbone_passes(self, monkeypatch, build, training):
        """{(part, method, ran here)} over the backbone passes of a 3-row batch. The part
        is the stream, "a" or "b", of a two-stream model, or the half of a baseline's
        batch: "first" (1 row) or "second" (2 rows)."""
        calls = []
        for method in ("forward", "backward"):
            real = getattr(Backbone, method)

            def record(backbone, x, *args, real=real, method=method):
                calls.append((backbone, len(x), method, threading.get_ident()))
                return real(backbone, x, *args)

            monkeypatch.setattr(Backbone, method, record)
        m = build(TINY, seed=1)
        rng = np.random.default_rng(10)
        out = m.forward(rng.normal(size=(3, 1, 8, 8)), training=training, seed=3)
        if training:  # an eval pass keeps no tape to run backward on
            m.backward(out.tape, {head: rng.normal(size=(3, TINY.num_classes)) for head in m.heads})
        here = threading.get_ident()

        def part(backbone, rows):
            if build is BaselineModel:
                return {1: "first", 2: "second"}[rows]
            return "a" if backbone is m.stream_a else "b"

        return {(part(backbone, rows), method, thread == here) for backbone, rows, method, thread in calls}

    def test_training_runs_stream_a_on_the_pool(self, monkeypatch):
        monkeypatch.setenv("MSML_THREADS", "2")
        assert self.threads_of_backbone_passes(monkeypatch, TwoStreamModel, training=True) == {
            ("a", "forward", False), ("b", "forward", True),
            ("a", "backward", False), ("b", "backward", True)}

    def test_eval_forward_runs_both_streams_here(self, monkeypatch):
        monkeypatch.setenv("MSML_THREADS", "2")
        assert self.threads_of_backbone_passes(monkeypatch, TwoStreamModel, training=False) == {
            ("a", "forward", True), ("b", "forward", True)}

    def test_baseline_training_runs_the_first_half_on_the_pool(self, monkeypatch):
        monkeypatch.setenv("MSML_THREADS", "2")
        assert self.threads_of_backbone_passes(monkeypatch, BaselineModel, training=True) == {
            ("first", "forward", False), ("second", "forward", True),
            ("first", "backward", False), ("second", "backward", True)}

    def test_baseline_eval_forward_runs_both_halves_here(self, monkeypatch):
        monkeypatch.setenv("MSML_THREADS", "2")
        assert self.threads_of_backbone_passes(monkeypatch, BaselineModel, training=False) == {
            ("first", "forward", True), ("second", "forward", True)}

    def test_one_thread_runs_everything_here(self, monkeypatch):
        monkeypatch.setenv("MSML_THREADS", "1")
        for build in (TwoStreamModel, BaselineModel):
            assert {here for _, _, here in self.threads_of_backbone_passes(monkeypatch, build, training=True)} == {True}

    def test_default_pool_size_is_the_cpus_the_process_may_run_on(self, monkeypatch):
        monkeypatch.delenv("MSML_THREADS", raising=False)
        monkeypatch.setattr(model_mod.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert model_mod.worker_pool() is None

    def test_default_pool_size_without_affinity_is_the_cpu_count(self, monkeypatch):
        monkeypatch.delenv("MSML_THREADS", raising=False)
        monkeypatch.delattr(model_mod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(model_mod.os, "cpu_count", lambda: None)
        assert model_mod.worker_pool() is None

    @pytest.mark.parametrize("value", ["0", "-4", "two"])
    def test_thread_count_below_one_or_not_an_integer_rejected(self, monkeypatch, value):
        monkeypatch.setenv("MSML_THREADS", value)
        with pytest.raises(ConfigError, match=f"MSML_THREADS must be an integer >= 1, got '{value}'"):
            model_mod.worker_pool()


class TestBaselineHalves:
    """A baseline batch of n >= 2 rows runs its backbone as the halves [:n // 2]
    and [n // 2:]; a batch of one row runs it once, whole."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_step_gradient_is_the_sum_of_the_samples_gradients(self, n):
        rng = np.random.default_rng(16)
        batch, g = rng.normal(size=(n, 1, 8, 8)), rng.normal(size=(n, TINY.num_classes))
        m = BaselineModel(dataclasses.replace(TINY, dropout_rate=0.0), seed=2)  # no mask that depends on n
        out = m.forward(batch, training=True, seed=3)
        backbone_tapes, _ = out.tape
        assert len(backbone_tapes) == min(n, 2)
        m.zero_grads()
        m.backward(out.tape, {"ce": g})
        assert np.any(m.backbone.convs[0].dw != 0)
        step = m.slab.grads.copy()
        m.zero_grads()
        for i in range(n):
            m.backward(m.forward(batch[i : i + 1], training=True, seed=3).tape, {"ce": g[i : i + 1]})
        np.testing.assert_allclose(step, m.slab.grads, rtol=1e-10, atol=1e-13)


class TestEvalPass:
    """An eval forward keeps no tape, and its logits are the bits of a taped
    training pass of the same model without dropout."""

    # an unpooled block, then pools that drop an odd last row and column
    ODD = ModelConfig(num_classes=3, input_size=(11, 9), proj_width=4,
                      conv_blocks=((4, 3, False), (5, 3, True), (6, 5, True)))

    @pytest.mark.parametrize("build", [TwoStreamModel, BaselineModel], ids=lambda model: f"build_{model.kind}")
    def test_eval_forward_keeps_no_tape(self, build):
        assert build(TINY, seed=1).forward(np.zeros((2, 1, 8, 8)), training=False).tape is None

    @pytest.mark.parametrize("cfg", [ModelConfig(), ODD], ids=["default", "odd"])
    @pytest.mark.parametrize("build", [TwoStreamModel, BaselineModel], ids=lambda model: f"build_{model.kind}")
    def test_eval_logits_match_a_dropout_free_training_pass(self, build, cfg):
        rng = np.random.default_rng(14)
        model = build(cfg, seed=3)
        oracle = build(dataclasses.replace(cfg, dropout_rate=0.0), seed=3)
        for (name, value, _), (_, same, _) in zip(model.params(), oracle.params()):
            if name.endswith(".b"):  # biases start at zero; give them values
                value[...] = same[...] = rng.normal(scale=0.1, size=value.shape)
        batch = rng.normal(size=(5, 1, *cfg.input_size))
        out = model.forward(batch, training=False)
        ref = oracle.forward(batch, training=True, seed=2)
        assert ref.tape is not None
        for head in model.heads:
            np.testing.assert_array_equal(out.logits[head], ref.logits[head])

    def test_eval_forward_frees_its_intermediates(self):
        model = TwoStreamModel(ModelConfig(), seed=1)
        batch = np.random.default_rng(15).normal(size=(64, 1, 28, 28))

        def traced(training):
            model.forward(batch, training=training, seed=2)  # warm the pool and BLAS buffers
            tracemalloc.start()
            try:
                out = model.forward(batch, training=training, seed=2)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert out.logits["fce"].shape == (64, 8)
            return kept, peak

        kept, eval_peak = traced(False)
        _, train_peak = traced(True)
        assert kept < 4 * 2**20
        assert eval_peak < train_peak / 2


class TestConvBlock:
    """A block pools before its bias and ReLU; the forward bits are those of
    the reference order conv -> +bias -> relu -> pool."""

    @pytest.mark.parametrize("pool", [True, False])
    def test_forward_matches_reference_order(self, pool):
        rng = np.random.default_rng(8)
        conv = Conv2d(Slab(5 * 3 * 3 * 3 + 5), "conv", 3, 5, 3, rng, pool)
        conv.b[...] = rng.normal(size=5)
        x = rng.normal(size=(4, 3, 9, 8))
        out, _ = conv.forward(x)
        ref, _ = ops.conv2d_forward(x, conv.w)
        ref, _ = ops.relu_forward(ref + conv.b[None, :, None, None])
        if pool:
            ref, _ = ops.maxpool2d_forward(ref)
        assert out.shape == ref.shape
        assert np.ascontiguousarray(out).tobytes() == np.ascontiguousarray(ref).tobytes()

    def test_block_output_is_batch_last(self):
        rng = np.random.default_rng(9)
        out, _ = Conv2d(Slab(4 * 3 * 3 + 4), "conv", 1, 4, 3, rng, True).forward(rng.normal(size=(6, 1, 8, 8)))
        assert out.shape == (6, 4, 4, 4)
        assert out.transpose(1, 2, 3, 0).flags.c_contiguous


def reference_adam(params, grads_per_step, lr):
    """Each tensor of ``params`` after Adam steps on ``grads_per_step``, one tensor at a time."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    params = [p.copy() for p in params]
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    for t, step_grads in enumerate(grads_per_step, start=1):
        c1, c2 = 1.0 - b1**t, 1.0 - b2**t
        for p, m, v, g in zip(params, ms, vs, step_grads):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return params


class TestAdam:
    SHAPES = [(4, 3), (7,), (2, 3, 3, 3)]

    def test_zero_gradient_leaves_params(self):
        p = np.ones((3, 2))
        g = np.zeros((3, 2))
        opt = Adam(p, g)
        opt.step(0.1)
        np.testing.assert_array_equal(p, np.ones((3, 2)))

    def test_hand_computed_first_step(self):
        # m1 = (1-b1) g, v1 = (1-b2) g^2; bias-corrected m=g, v=g^2
        # update = -lr * g / (|g| + eps)
        g = np.array([0.3, -2.0, 0.001])
        p = np.zeros(3)
        opt = Adam(p, g.copy())
        opt.step(1e-2)
        expected = -1e-2 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(p, expected, rtol=1e-12)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(4)
        grads = [rng.normal(size=(4, 3)) for _ in range(5)]

        def run():
            p = np.ones((4, 3))
            g = np.zeros((4, 3))
            opt = Adam(p, g)
            for step_grad in grads:
                g[...] = step_grad
                opt.step(1e-3)
            return p

        np.testing.assert_array_equal(run(), run())

    def test_matches_reference_expression_bit_for_bit(self):
        rng = np.random.default_rng(6)
        grads = [[rng.normal(size=s) for s in self.SHAPES] for _ in range(6)]
        params = [rng.normal(size=s) for s in self.SHAPES]
        opts = [Adam(p.copy(), np.zeros(p.shape)) for p in params]
        for step_grads in grads:
            for opt, step_grad in zip(opts, step_grads):
                opt.grads[...] = step_grad
                opt.step(3e-3)
        for opt, ref in zip(opts, reference_adam(params, grads, 3e-3)):
            assert opt.values.tobytes() == ref.tobytes()

    def test_one_adam_over_a_concatenation_matches_the_per_tensor_reference(self):
        # a model's slab is such a concatenation; the update is elementwise, so its bits are each tensor's own
        rng = np.random.default_rng(7)
        grads = [[rng.normal(size=s) for s in self.SHAPES] for _ in range(6)]
        params = [rng.normal(size=s) for s in self.SHAPES]
        values = np.concatenate([p.ravel() for p in params])
        opt = Adam(values, np.zeros_like(values))
        for step_grads in grads:
            opt.grads[...] = np.concatenate([g.ravel() for g in step_grads])
            opt.step(3e-3)
        ref = np.concatenate([p.ravel() for p in reference_adam(params, grads, 3e-3)])
        assert values.tobytes() == ref.tobytes()


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
        order_logits = np.argsort(out.logits["ce"].ravel())
        order_probs = np.argsort(probs["ce"].ravel())
        np.testing.assert_array_equal(order_logits, order_probs)
        assert (probs["ce"] > 0).all() and (probs["ce"] < 1).all()

    def test_shapes_per_head(self):
        m = BaselineModel(TINY, seed=1)
        probs = predict(m, np.zeros((6, 1, 8, 8)))
        assert set(probs) == {"ce"}
        assert probs["ce"].shape == (6, 4)


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
        assert (back.kind, back.cfg) == ("baseline", TINY)
        out_a = m.forward(np.ones((2, 1, 8, 8)))
        out_b = back.forward(np.ones((2, 1, 8, 8)))
        np.testing.assert_array_equal(out_a.logits["ce"], out_b.logits["ce"])

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
        assert blob[:8] == b"MSML0003"
        (size,) = struct.unpack_from("<I", blob, 8)
        block = blob[12 : 12 + size]
        assert b"num_classes = 4\n" in block and b"kind = two_stream\n" in block
        values = np.concatenate([value.ravel() for _, value, _ in m.params()])
        assert blob[12 + size :] == values.astype("<f8").tobytes()
        back = model_from_checkpoint(path)
        assert (back.cfg.num_classes, back.kind) == (4, "two_stream")

    @pytest.mark.parametrize("build, expected", [
        (TwoStreamModel, [
            ("stream_a.block0.conv.w", (4, 1, 3, 3)), ("stream_a.block0.conv.b", (4,)),
            ("stream_a.block1.conv.w", (6, 4, 3, 3)), ("stream_a.block1.conv.b", (6,)),
            ("stream_b.block0.conv.w", (4, 1, 3, 3)), ("stream_b.block0.conv.b", (4,)),
            ("stream_b.block1.conv.w", (6, 4, 3, 3)), ("stream_b.block1.conv.b", (6,)),
            ("head_ce.w", (24, 4)), ("head_ce.b", (4,)), ("head_msml.w", (24, 4)), ("head_msml.b", (4,)),
            ("bilinear.proj.w", (36, 5)), ("bilinear.proj.b", (5,)),
            ("bilinear.cls.w", (5, 4)), ("bilinear.cls.b", (4,)),
        ]),
        (BaselineModel, [
            ("backbone.block0.conv.w", (4, 1, 3, 3)), ("backbone.block0.conv.b", (4,)),
            ("backbone.block1.conv.w", (6, 4, 3, 3)), ("backbone.block1.conv.b", (6,)),
            ("head_ce.w", (24, 4)), ("head_ce.b", (4,)),
        ]),
    ], ids=["two_stream", "baseline"])
    def test_params_order_is_pinned(self, build, expected):
        # a checkpoint stores the values in this order and nothing else
        assert [(name, value.shape) for name, value, _ in build(TINY, seed=9).params()] == expected

    @pytest.mark.parametrize("cfg", [
        ModelConfig(), TINY,
        ModelConfig(num_classes=3, input_size=(15, 11), input_channels=2,
                    conv_blocks=((3, 5, True), (7, 1, False), (5, 3, True)), proj_width=7, dropout_rate=0.0),
    ], ids=["default", "tiny", "odd"])
    @pytest.mark.parametrize("build", [TwoStreamModel, BaselineModel], ids=["two_stream", "baseline"])
    def test_value_count_before_building_matches_the_built_model(self, build, cfg):
        model = build(cfg, seed=1)
        assert model_mod._value_count(cfg, model.kind) == sum(v.size for _, v, _ in model.params())
        assert model.slab.at == model.slab.values.size  # every entry belongs to a parameter

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(TwoStreamModel(TINY, seed=9), path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as err:
            model_from_checkpoint(path)
        assert err.value.offset == 0

    def test_version_two_checkpoint_names_its_magic(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(TwoStreamModel(TINY, seed=9), path)
        path.write_bytes(b"MSML0002" + path.read_bytes()[8:])
        monkeypatch.setattr(Model, "__init__", lambda *args: pytest.fail("a model was built"))
        with pytest.raises(FormatError, match="checkpoint magic b'MSML0002' is not b'MSML0003'") as err:
            model_from_checkpoint(path)
        assert err.value.offset == 0

    def test_truncation(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(TwoStreamModel(TINY, seed=9), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            model_from_checkpoint(path)

    @pytest.mark.parametrize("change", [-8, 8], ids=["one-value-short", "one-value-long"])
    def test_payload_not_the_block_value_count_rejected_before_building(self, tmp_path, monkeypatch, change):
        path = tmp_path / "m.ckpt"
        save_checkpoint(TwoStreamModel(TINY, seed=9), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:change] if change < 0 else blob + bytes(change))
        (size,) = struct.unpack_from("<I", blob, 8)
        monkeypatch.setattr(Model, "__init__", lambda *args: pytest.fail("a model was built"))
        with pytest.raises(FormatError, match=f"describes {len(blob) - 12 - size} bytes of values; "
                                              f"{len(blob) - 12 - size + change} follow it") as err:
            model_from_checkpoint(path)
        assert err.value.offset == 12 + size

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, bad):
        m = TwoStreamModel(TINY, seed=9)
        m.head_ce.w[1, 2] = bad
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        (size,) = struct.unpack_from("<I", path.read_bytes(), 8)
        names = [name for name, _, _ in m.params()]
        before = sum(v.size for _, v, _ in m.params()[: names.index("head_ce.w")])
        with pytest.raises(FormatError, match="parameter head_ce.w holds a NaN or an infinity") as err:
            model_from_checkpoint(path)
        assert err.value.offset == 12 + size + 8 * (before + np.ravel_multi_index((1, 2), m.head_ce.w.shape))

    # the last entry of head_ce.b, the first of head_msml.w after it, and both: the first one poisoned is named
    BOUNDARY = [[("head_ce.b", -1)], [("head_msml.w", 0)], [("head_ce.b", -1), ("head_msml.w", 0)]]

    @pytest.mark.parametrize("poisoned", BOUNDARY, ids=["last-of-head_ce.b", "first-of-head_msml.w", "both"])
    def test_non_finite_entry_at_a_parameter_boundary_named_with_its_offset(self, tmp_path, poisoned):
        m = TwoStreamModel(TINY, seed=9)
        params = {name: value for name, value, _ in m.params()}
        for name, i in poisoned:
            params[name].reshape(-1)[i] = np.nan
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        (size,) = struct.unpack_from("<I", path.read_bytes(), 8)
        name, i = poisoned[0]
        names = list(params)
        index = sum(params[n].size for n in names[: names.index(name)]) + i % params[name].size
        with pytest.raises(FormatError, match=f"parameter {name} holds a NaN or an infinity") as err:
            model_from_checkpoint(path)
        assert err.value.offset == 12 + size + 8 * index

    @pytest.mark.parametrize(
        "line",
        ["conv_blocks = -16:3:1, 6:3:1", "conv_blocks = 4:3:2, 6:3:1", "input_size = 8", "input_size = 1, 1",
         "input_channels = 0.5", "kind = 3", "dropout_rate = 1.0"],
        ids=["negative-channels", "pool-flag-2", "one-entry-size", "size-1x1", "fractional-channels",
             "kind-3", "dropout-1"],
    )
    def test_bad_meta_tensor_named_before_building(self, tmp_path, monkeypatch, line):
        save_with_block_line(tmp_path / "m.ckpt", line)
        monkeypatch.setattr(Model, "__init__", lambda *args: pytest.fail("a model was built"))
        with pytest.raises(FormatError, match=f"checkpoint model block: .*{line.partition(' = ')[0]}"):
            model_from_checkpoint(tmp_path / "m.ckpt")

    def test_meta_describing_a_weight_larger_than_the_file_is_rejected(self, tmp_path, monkeypatch):
        # 2**50 projection columns would need far more memory than exists
        save_with_block_line(tmp_path / "m.ckpt", f"proj_width = {2**50}")
        monkeypatch.setattr(Model, "__init__", lambda *args: pytest.fail("a model was built"))
        with pytest.raises(FormatError, match="model block describes .* bytes of values"):
            model_from_checkpoint(tmp_path / "m.ckpt")
