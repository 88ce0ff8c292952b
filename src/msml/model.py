"""Model zoo: a small configurable CNN backbone, the two-stream bilinear
network with CE / MSML / FCE heads, a plain single-stream baseline, the Adam
optimizer, and checkpoint serialization.

The two streams start from bit-identical backbone weights (built from the
same seed) and are driven apart during training by their different head
losses. The bilinear head consumes both streams' final feature maps.

A model's parameters are views of one ``Slab``, a value and a gradient vector.
Checkpoints use magic ``MSML0003``, a little-endian uint32 length, a UTF-8
``key = value`` block (the ModelConfig fields and the model ``kind``, in the
syntax of ``dataset.parse_fields``), then the value vector as raw little-endian
float64. The block alone describes the architecture: a model is rebuilt from
it, and its value vector filled in one copy.
"""

from __future__ import annotations

import os
import re
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import bilinear as bl
from . import ops
from .dataset import decode_utf8, format_fields, parse_fields, write_atomic
from .errors import ConfigError, DimensionError, FormatError

FLOAT = np.float64

CHECKPOINT_MAGIC = b"MSML0003"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelConfig:
    num_classes: int = 8
    input_size: tuple[int, int] = (28, 28)
    input_channels: int = 1
    # (out_channels, odd kernel, pool) per block; conv is same-padded, stride 1,
    # pool is a 2x2/2 max pool.
    conv_blocks: tuple = ((16, 3, True), (32, 3, True), (32, 3, True))
    proj_width: int = 128
    dropout_rate: float = 0.5

    def validate(self):
        """The one architecture check: raise ConfigError, naming the key, unless
        this describes a model that can be built."""
        if self.num_classes < 1 or self.input_channels < 1:
            raise ConfigError(f"num_classes {self.num_classes} and input_channels {self.input_channels} must be >= 1")
        if not self.conv_blocks:
            raise ConfigError("conv_blocks needs at least one block")
        for out_ch, kernel, _ in self.conv_blocks:
            if out_ch < 1 or kernel < 1 or kernel % 2 == 0:
                raise ConfigError(f"conv_blocks {out_ch}:{kernel}: needs out_channels >= 1 and an odd kernel >= 1")
        if len(self.input_size) != 2:
            raise ConfigError(f"input_size needs two values, got {self.input_size}")
        _, h, w = self.feature_shape
        if h < 2 or w < 2:
            raise ConfigError(f"input_size {self.input_size} leaves {h}x{w} feature maps after conv_blocks; need at least 2x2")
        if self.proj_width < 1:
            raise ConfigError(f"proj_width must be >= 1, got {self.proj_width}")
        if not 0 <= self.dropout_rate < 1:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        return self

    @property
    def feature_shape(self):
        """(channels, height, width) of the backbone's feature maps."""
        h, w = self.input_size
        for _, _, pool in self.conv_blocks:
            if pool:
                h, w = h // 2, w // 2
        return self.conv_blocks[-1][0], h, w


# ---------------------------------------------------------------------------
# the worker pool
# ---------------------------------------------------------------------------

_pool = None
_pool_lock = threading.Lock()


def _num_threads():
    env = os.environ.get("MSML_THREADS", "").strip()
    if env:
        workers = int(env) if re.fullmatch(r"[+-]?\d+", env) else 0
        if workers < 1:
            raise ConfigError(f"MSML_THREADS must be an integer >= 1, got {env!r}")
        return workers
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def worker_pool():
    """The process's one thread pool, or None when ``MSML_THREADS=1`` asks for
    sequential runs.

    It is built on first use with ``MSML_THREADS`` workers (default: the CPUs
    the process may run on) and lives as long as the process. Training runs
    one stream of a two-stream pass, or the first half of a baseline batch,
    on it while the caller runs the other; ``score_fold`` runs all but the
    caller's share of its batches on it, one share per worker at most. A
    task on the pool never submits to it, so no task waits for a free
    worker, and at two workers scoring starts no thread that training did
    not.
    """
    global _pool
    workers = _num_threads()
    if workers == 1:
        return None
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="msml")
    return _pool


def _spread(pool, tasks):
    """[task() for task in tasks], with every task but the last on ``pool`` while the last runs
    here (all here, in order, if pool is None). Returns, or raises, only once every task has
    finished. The tasks must write no memory in common, so a backbone backward returns its
    gradients for the caller to add."""
    if pool is None:
        return [task() for task in tasks]
    futures = [pool.submit(task) for task in tasks[:-1]]
    try:
        last = tasks[-1]()
    finally:
        wait(futures)
    return [future.result() for future in futures] + [last]


def _halves(pool, n, task):
    """[task(rows, i)] over the row slices of an n-row batch: the halves [:n // 2] and [n // 2:],
    run by ``_spread`` with the first on ``pool``, or all rows, run here, when n is 1."""
    if n < 2:
        return [task(slice(None), 0)]
    cut = n // 2
    return _spread(pool, [lambda: task(slice(cut), 0), lambda: task(slice(cut, None), 1)])


# ---------------------------------------------------------------------------
# parameterized layers
# ---------------------------------------------------------------------------

class Slab:
    """One model's parameters: a float64 ``values`` vector and its ``grads``,
    handed out to the layers in checkpoint order as named views."""

    def __init__(self, size):
        self.values, self.grads = np.zeros(size, dtype=FLOAT), np.zeros(size, dtype=FLOAT)
        self.at = 0  # entries handed out so far
        self.params = []  # (name, value, grad) triples

    def take(self, name, init):
        """(value, grad): views of the next ``init.shape`` entries, the value set to ``init``."""
        stop = self.at + init.size
        value, grad = (vector[self.at : stop].reshape(init.shape) for vector in (self.values, self.grads))
        value[...] = init
        self.params.append((name, value, grad))
        self.at = stop
        return value, grad

    def name_at(self, i):
        """The name of the parameter that holds ``values[i]``, for reporting a fault there."""
        ends = np.cumsum([value.size for _, value, _ in self.params])
        return self.params[int(np.searchsorted(ends, i, side="right"))][0]


class Linear:
    """A dense layer: each sample flattened, inverted dropout at ``rate`` in
    training passes (its mask seeded by ``forward``'s ``seed``), then the affine map."""

    def __init__(self, slab, name, in_dim, out_dim, rng, rate=0.0):
        self.w, self.dw = slab.take(f"{name}.w", rng.normal(0.0, np.sqrt(2.0 / in_dim), size=(in_dim, out_dim)))
        self.b, self.db = slab.take(f"{name}.b", np.zeros(out_dim))
        self.rate = rate

    def forward(self, x, training=False, seed=None):
        dropped, mask = ops.dropout_forward(x.reshape(len(x), -1), self.rate, training, seed)
        out, cache = ops.affine_forward(dropped, self.w, self.b)
        return out, (x.shape, mask, cache)

    def backward(self, dout, cache):
        shape, mask, affine_cache = cache
        dx, dw, db = ops.affine_backward(dout, affine_cache)
        self.dw += dw
        self.db += db
        return ops.dropout_backward(dx, mask).reshape(shape)


class Conv2d:
    """One backbone block: conv, then the optional 2x2/2 max-pool, then +bias and
    ReLU. Pooling first gives the same forward bits as pooling last (a 2x2 max
    commutes with a per-channel bias add and with ReLU, both monotone), and the
    bias add and ReLU then touch a quarter of the elements."""

    def __init__(self, slab, name, in_ch, out_ch, kernel, rng, pool):
        std = np.sqrt(2.0 / (in_ch * kernel * kernel))
        self.w, self.dw = slab.take(f"{name}.w", rng.normal(0.0, std, size=(out_ch, in_ch, kernel, kernel)))
        self.b, self.db = slab.take(f"{name}.b", np.zeros(out_ch))
        self.pool = pool

    def forward(self, x, training=False):
        """(output, cache); an eval pass keeps no cache, so its column matrix is freed after the GEMM."""
        if not training:
            out = ops.conv2d_forward(x, self.w)[0]
            if self.pool:
                out = ops.maxpool2d(out)
            return np.maximum(out + self.b[None, :, None, None], 0.0), None
        out, conv_cache = ops.conv2d_forward(x, self.w)
        pool_cache = None
        if self.pool:
            out, pool_cache = ops.maxpool2d_forward(out)
        out, relu_mask = ops.relu_forward(out + self.b[None, :, None, None])
        return out, (conv_cache, pool_cache, relu_mask)

    def backward(self, dout, cache, input_grad=True):
        """(dx, (dw, db)); the gradients are returned, not added into ``self.dw`` and ``self.db``."""
        conv_cache, pool_cache, relu_mask = cache
        dout = ops.relu_backward(dout, relu_mask)
        db = dout.sum(axis=(0, 2, 3))
        if pool_cache is not None:
            dout = ops.maxpool2d_backward(dout, pool_cache)
        dx, dw = ops.conv2d_backward(dout, conv_cache, input_grad)
        return dx, (dw, db)


class Backbone:
    """Stack of same-padded conv blocks (``Conv2d``: conv -> optional 2x2 maxpool
    -> +bias -> relu)."""

    def __init__(self, slab, name, cfg: ModelConfig, rng):
        self.convs = []
        in_ch = cfg.input_channels
        for i, (out_ch, kernel, pool) in enumerate(cfg.conv_blocks):
            self.convs.append(Conv2d(slab, f"{name}.block{i}.conv", in_ch, out_ch, kernel, rng, pool))
            in_ch = out_ch

    def forward(self, x, training=False):
        """Return the feature maps and the tape ``backward`` needs, or None in eval mode."""
        tape = []
        for conv in self.convs:
            x, cache = conv.forward(x, training)
            tape.append(cache)
        return x, tape if training else None

    def backward(self, dout, tape):
        """Each block's (dw, db), which ``accumulate`` adds in; the input image gets no gradient.
        Writing no parameter gradient, two passes of one backbone can run side by side. It pops
        each block's cache, freeing it before the next block's backward, and leaves ``tape`` empty."""
        block_grads = [None] * len(self.convs)
        for i in reversed(range(len(self.convs))):
            dout, block_grads[i] = self.convs[i].backward(dout, tape.pop(), input_grad=i > 0)
        return block_grads

    def accumulate(self, block_grads):
        """Add ``backward``'s per-block (dw, db) into the parameter gradients."""
        for conv, (dw, db) in zip(self.convs, block_grads):
            conv.dw += dw
            conv.db += db


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

@dataclass
class ForwardPass:
    logits: dict  # head -> (N, C) logits, in the model's ``heads`` order
    tape: tuple | None  # all backward needs (None in eval mode), and it empties the backbone tapes; models keep no per-call state

    def __getattr__(self, name):
        """``logits_<head>``: that head's logits, or None for a head the model
        lacks. perfbench/run.py reads logits in this form."""
        if name.startswith("logits_"):
            return self.logits.get(name.removeprefix("logits_"))
        raise AttributeError(name)


def _check_batch(batch, cfg: ModelConfig):
    batch = np.asarray(batch, dtype=FLOAT)
    expected = (cfg.input_channels, *cfg.input_size)
    if batch.ndim != 4 or batch.shape[1:] != expected:
        raise DimensionError.mismatch("model input", batch.shape, ("N", *expected))
    return batch


class Model:
    """What both models share. Subclasses set ``kind``, ``heads`` and ``primary_head``; the two-stream
    model also sets ``bilinear_start``, the slab entry where its bilinear head begins. They define
    ``forward(batch, training, seed)``, which returns a ForwardPass with one logits entry per head, and
    ``backward(tape, grads)``, which takes a dict head -> logit gradient. The loss weights belong to training."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg.validate()
        self.slab = Slab(_value_count(cfg, self.kind))

    def params(self):
        """Every (name, value, grad) triple, in checkpoint order."""
        return self.slab.params

    def zero_grads(self):
        self.slab.grads.fill(0.0)


class TwoStreamModel(Model):
    """Two backbones with CE and MSML heads plus a bilinear FCE head."""

    kind = "two_stream"
    heads = ("ce", "msml", "fce")
    primary_head = "fce"

    def __init__(self, cfg: ModelConfig, seed: int):
        super().__init__(cfg)
        d, h, w = cfg.feature_shape
        flat, classes = d * h * w, cfg.num_classes
        # Streams share one seed stream so their initial weights are
        # bit-identical; every head draws from its own stream.
        slab = self.slab
        self.stream_a = Backbone(slab, "stream_a", cfg, np.random.default_rng([seed, 0]))
        self.stream_b = Backbone(slab, "stream_b", cfg, np.random.default_rng([seed, 0]))
        self.head_ce = Linear(slab, "head_ce", flat, classes, np.random.default_rng([seed, 1]), cfg.dropout_rate)
        self.head_msml = Linear(slab, "head_msml", flat, classes, np.random.default_rng([seed, 2]), cfg.dropout_rate)
        self.bilinear_start = slab.at
        self.proj = Linear(slab, "bilinear.proj", d * d, cfg.proj_width, np.random.default_rng([seed, 3]))
        self.cls = Linear(slab, "bilinear.cls", cfg.proj_width, classes, np.random.default_rng([seed, 4]))

    def forward(self, batch, training=False, seed=0) -> ForwardPass:
        batch = _check_batch(batch, self.cfg)
        # Eval-mode passes run inline: score_fold already spreads them over the caller and the pool.
        (fa, tape_a), (fb, tape_b) = _spread(
            worker_pool() if training else None,
            [lambda: self.stream_a.forward(batch, training), lambda: self.stream_b.forward(batch, training)],
        )
        ce, ce_cache = self.head_ce.forward(fa, training, [seed, 0])
        ms, msml_cache = self.head_msml.forward(fb, training, [seed, 1])
        u, feat_cache = bl.bilinear_features(fa, fb)
        h, proj_cache = self.proj.forward(u)
        fce, cls_cache = self.cls.forward(h)
        tape = (fa.shape, tape_a, tape_b, ce_cache, msml_cache, feat_cache, proj_cache, cls_cache) if training else None
        return ForwardPass({"ce": ce, "msml": ms, "fce": fce}, tape)

    def backward(self, tape, grads):
        """Accumulate parameter gradients from ``grads``, a dict head -> logit gradient.

        A head left out contributes nothing, which is how the staged training
        strategies exclude loss terms.
        """
        shape, tape_a, tape_b, ce_cache, msml_cache, feat_cache, proj_cache, cls_cache = tape
        d_fa = np.zeros(shape, dtype=FLOAT)
        d_fb = np.zeros(shape, dtype=FLOAT)
        if "ce" in grads:
            d_fa += self.head_ce.backward(grads["ce"], ce_cache)
        if "msml" in grads:
            d_fb += self.head_msml.backward(grads["msml"], msml_cache)
        if "fce" in grads:
            du = self.proj.backward(self.cls.backward(grads["fce"], cls_cache), proj_cache)
            g_fa, g_fb = bl.bilinear_features_backward(du, feat_cache)
            d_fa += g_fa
            d_fb += g_fb
        grads_a, grads_b = _spread(worker_pool(), [lambda: self.stream_a.backward(d_fa, tape_a),
                                                   lambda: self.stream_b.backward(d_fb, tape_b)])
        self.stream_a.accumulate(grads_a)
        self.stream_b.accumulate(grads_b)


class BaselineModel(Model):
    """Single backbone with a sigmoid-CE classifier; the plain reference model."""

    kind = "baseline"
    heads = ("ce",)
    primary_head = "ce"

    def __init__(self, cfg: ModelConfig, seed: int):
        super().__init__(cfg)
        d, h, w = cfg.feature_shape
        self.backbone = Backbone(self.slab, "backbone", cfg, np.random.default_rng([seed, 0]))
        rng = np.random.default_rng([seed, 1])
        self.head_ce = Linear(self.slab, "head_ce", d * h * w, cfg.num_classes, rng, cfg.dropout_rate)

    def forward(self, batch, training=False, seed=0) -> ForwardPass:
        """The backbone runs the batch's halves side by side, the first on the pool in training;
        eval passes, which score_fold spreads over the threads, split alike but run both halves here,
        so they round as training does. The head runs once on the joined feature maps."""
        batch = _check_batch(batch, self.cfg)
        parts = _halves(worker_pool() if training else None, len(batch),
                        lambda rows, i: self.backbone.forward(batch[rows], training))
        ce, head_cache = self.head_ce.forward(np.concatenate([f for f, _ in parts]), training, [seed, 0])
        tape = ([t for _, t in parts], head_cache) if training else None
        return ForwardPass({"ce": ce}, tape)

    def backward(self, tape, grads):
        if "ce" not in grads:
            return
        backbone_tapes, head_cache = tape
        d_f = self.head_ce.backward(grads["ce"], head_cache)
        # the backward of a sum over samples: the halves' gradients, added first half first
        for block_grads in _halves(worker_pool(), len(d_f),
                                   lambda rows, i: self.backbone.backward(d_f[rows], backbone_tapes[i])):
            self.backbone.accumulate(block_grads)


MODELS = {model_cls.kind: model_cls for model_cls in (TwoStreamModel, BaselineModel)}


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def predict(model, batch):
    """Eval-mode per-head sigmoid probabilities, as a dict head -> (N, C)."""
    return {head: ops.sigmoid(logits) for head, logits in model.forward(batch, training=False).logits.items()}


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------

class Adam:
    """Standard Adam with bias correction, updating ``values`` in place from ``grads``."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, values, grads):
        self.values, self.grads = values, grads
        self.t = 0
        self.m, self.v, self._s, self._r = (np.zeros_like(values) for _ in range(4))

    def step(self, lr):
        """p -= lr * (m / c1) / (sqrt(v / c2) + eps), evaluated in that order
        into two scratch vectors, so no step allocates."""
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        p, g, m, v, s, r = self.values, self.grads, self.m, self.v, self._s, self._r
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, g, out=s)
        v *= self.beta2
        np.multiply(1.0 - self.beta2, g, out=s)
        v += np.multiply(s, g, out=s)
        np.divide(v, c2, out=r)
        np.sqrt(r, out=r)
        r += self.eps
        np.divide(m, c1, out=s)
        s *= lr
        p -= np.divide(s, r, out=s)


def lr_schedule(initial_lr, epoch):
    """Decade decay every third epoch: lr = initial * 0.1 ** floor(epoch / 3)."""
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    return initial_lr * 0.1 ** (epoch // 3)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Header(ModelConfig):
    """A checkpoint's ``key = value`` block: the model's ModelConfig and its kind."""

    kind: str = TwoStreamModel.kind


def save_checkpoint(model, path):
    block = format_fields(_Header(**vars(model.cfg), kind=model.kind)).encode("utf-8")
    values = np.ascontiguousarray(model.slab.values, dtype="<f8")
    write_atomic(path, CHECKPOINT_MAGIC, struct.pack("<I", len(block)), block, values)


def _value_count(cfg: ModelConfig, kind):
    """How many float64 values a ``kind`` model of ``cfg`` holds, without building it."""
    d, h, w = cfg.feature_shape
    in_chs = (cfg.input_channels, *(o for o, _, _ in cfg.conv_blocks))
    backbone = sum(o * (i * k * k + 1) for (o, k, _), i in zip(cfg.conv_blocks, in_chs))
    head = (d * h * w + 1) * cfg.num_classes
    if kind == BaselineModel.kind:
        return backbone + head
    return 2 * (backbone + head) + (d * d + 1) * cfg.proj_width + (cfg.proj_width + 1) * cfg.num_classes


def model_from_checkpoint(path):
    """Rebuild a model from a checkpoint's model block and load its weights.

    FormatError, with a byte offset where one applies, on any corruption the
    format can detect. A payload that is not exactly the block's value count
    is rejected before anything is built, so a corrupt size allocates nothing.
    """
    raw = Path(path).read_bytes()
    if raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise FormatError(f"checkpoint magic {raw[:8]!r} is not {CHECKPOINT_MAGIC!r}", offset=0)
    start = len(CHECKPOINT_MAGIC) + 4
    if len(raw) < start:
        raise FormatError("checkpoint truncated while reading the block length", offset=len(raw))
    end = start + struct.unpack_from("<I", raw, len(CHECKPOINT_MAGIC))[0]
    if end > len(raw):
        raise FormatError("checkpoint truncated while reading the model block", offset=len(raw))
    try:
        header = parse_fields(_Header, decode_utf8(raw[start:end], "checkpoint model block", start))
    except ConfigError as exc:
        raise FormatError(f"checkpoint model block: {exc}") from exc
    if header.kind not in MODELS:
        raise FormatError(f"checkpoint model block: kind must be one of {sorted(MODELS)}, got {header.kind!r}")
    cfg = ModelConfig(**{f.name: getattr(header, f.name) for f in fields(ModelConfig)})
    count = _value_count(cfg, header.kind)
    if len(raw) - end != 8 * count:
        raise FormatError(f"checkpoint model block describes {8 * count} bytes of values; {len(raw) - end} follow it",
                          offset=end)
    values = np.frombuffer(raw, dtype="<f8", offset=end)
    model = MODELS[header.kind](cfg, seed=0)
    finite = np.isfinite(values)
    if not finite.all():
        i = int(finite.argmin())
        raise FormatError(f"checkpoint parameter {model.slab.name_at(i)} holds a NaN or an infinity",
                          offset=end + 8 * i)
    model.slab.values[...] = values
    return model
