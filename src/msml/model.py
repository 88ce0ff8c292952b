"""Model zoo: a small configurable CNN backbone, the two-stream bilinear
network with CE / MSML / FCE heads, a plain single-stream baseline, the Adam
optimizer, and checkpoint serialization.

The two streams start from bit-identical backbone weights (built from the
same seed) and are driven apart during training by their different head
losses. The bilinear head consumes both streams' final feature maps.

Checkpoints use magic ``MSML0001`` followed by little-endian uint32 class
count and tensor count, then per tensor: uint32 name length, UTF-8 name,
uint32 rank, uint32 dims, raw little-endian float64 data. A few ``meta.*``
tensors carry the architecture so a model can be rebuilt from the file
alone.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bilinear as bl
from . import ops
from .dataset import write_atomic
from .errors import ConfigError, DimensionError, FormatError
from .losses import LossWeights

FLOAT = np.float64

CHECKPOINT_MAGIC = b"MSML0001"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BackboneConfig:
    input_channels: int = 1
    # (out_channels, odd kernel, pool) per block; conv is same-padded, stride 1,
    # pool is a 2x2/2 max pool.
    conv_blocks: tuple = ((16, 3, True), (32, 3, True), (32, 3, True))

    @property
    def feature_channels(self):
        return self.conv_blocks[-1][0]

    def feature_shape(self, input_hw):
        h, w = input_hw
        for _, _, pool in self.conv_blocks:
            if pool:
                h, w = h // 2, w // 2
        if h < 2 or w < 2:
            raise ConfigError(
                f"backbone yields {h}x{w} feature maps for input {input_hw}; need at least 2x2"
            )
        return self.feature_channels, h, w


@dataclass(frozen=True)
class ModelConfig:
    num_classes: int = 8
    input_size: tuple[int, int] = (28, 28)
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    proj_width: int = 128
    dropout_rate: float = 0.5


# ---------------------------------------------------------------------------
# parameterized layers
# ---------------------------------------------------------------------------

class Linear:
    def __init__(self, in_dim, out_dim, rng):
        std = np.sqrt(2.0 / in_dim)
        self.w = rng.normal(0.0, std, size=(in_dim, out_dim))
        self.b = np.zeros(out_dim, dtype=FLOAT)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)

    def forward(self, x):
        return ops.affine_forward(x, self.w, self.b)

    def backward(self, dout, cache):
        dx, dw, db = ops.affine_backward(dout, cache)
        self.dw += dw
        self.db += db
        return dx

    def params(self, prefix):
        return [(f"{prefix}.w", self.w, self.dw), (f"{prefix}.b", self.b, self.db)]


class Conv2d:
    def __init__(self, in_ch, out_ch, kernel, rng):
        std = np.sqrt(2.0 / (in_ch * kernel * kernel))
        self.w = rng.normal(0.0, std, size=(out_ch, in_ch, kernel, kernel))
        self.b = np.zeros(out_ch, dtype=FLOAT)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)

    def forward(self, x):
        out, cache = ops.conv2d_forward(x, self.w)
        return out + self.b[None, :, None, None], cache

    def backward(self, dout, cache):
        self.db += dout.sum(axis=(0, 2, 3))
        dx, dw = ops.conv2d_backward(dout, cache)
        self.dw += dw
        return dx

    def params(self, prefix):
        return [(f"{prefix}.w", self.w, self.dw), (f"{prefix}.b", self.b, self.db)]


class Backbone:
    """Stack of same-padded conv blocks: conv -> relu -> optional 2x2 maxpool."""

    def __init__(self, cfg: BackboneConfig, rng):
        self.cfg = cfg
        self.convs = []
        in_ch = cfg.input_channels
        for out_ch, kernel, _ in cfg.conv_blocks:
            self.convs.append(Conv2d(in_ch, out_ch, kernel, rng))
            in_ch = out_ch

    def forward(self, x):
        """Return the feature maps and the tape ``backward`` needs."""
        tape = []
        for conv, (_, _, pool) in zip(self.convs, self.cfg.conv_blocks):
            x, conv_cache = conv.forward(x)
            x, relu_mask = ops.relu_forward(x)
            pool_cache = None
            if pool:
                x, pool_cache = ops.maxpool2d_forward(x)
            tape.append((conv_cache, relu_mask, pool_cache))
        return x, tape

    def backward(self, dout, tape):
        for conv, (conv_cache, relu_mask, pool_cache) in zip(reversed(self.convs), reversed(tape)):
            if pool_cache is not None:
                dout = ops.maxpool2d_backward(dout, pool_cache)
            dout = ops.relu_backward(dout, relu_mask)
            dout = conv.backward(dout, conv_cache)
        return dout

    def params(self, prefix):
        out = []
        for i, conv in enumerate(self.convs):
            out.extend(conv.params(f"{prefix}.block{i}.conv"))
        return out


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

@dataclass
class ForwardPass:
    logits_ce: np.ndarray | None
    logits_msml: np.ndarray | None
    logits_fce: np.ndarray | None
    tape: tuple  # all that the model's backward needs; models keep no per-call state


def _check_batch(batch, cfg: ModelConfig):
    batch = np.asarray(batch, dtype=FLOAT)
    expected = (cfg.backbone.input_channels, *cfg.input_size)
    if batch.ndim != 4 or batch.shape[1:] != expected:
        raise DimensionError.mismatch("model input", batch.shape, ("N", *expected))
    return batch


class Model:
    """What both models share. Subclasses set ``kind``, ``heads`` and ``primary_head``
    and define ``param_groups``, ``forward`` and ``backward(tape, d_ce, d_msml, d_fce)``."""

    def __init__(self, cfg: ModelConfig, seed: int, loss_weights: LossWeights = LossWeights()):
        self.cfg = cfg
        self.seed = seed
        self.loss_weights = loss_weights

    def params(self):
        """Every (name, value, grad) triple, in checkpoint order."""
        return [p for group in self.param_groups().values() for p in group]

    def zero_grads(self):
        for _, _, g in self.params():
            g[...] = 0.0


class TwoStreamModel(Model):
    """Two backbones with CE and MSML heads plus a bilinear FCE head."""

    kind = "two_stream"
    heads = ("ce", "msml", "fce")
    primary_head = "fce"

    def __init__(self, cfg: ModelConfig, seed: int, loss_weights: LossWeights = LossWeights()):
        super().__init__(cfg, seed, loss_weights)
        d, h, w = cfg.backbone.feature_shape(cfg.input_size)
        flat = d * h * w
        # Streams share one seed stream so their initial weights are
        # bit-identical; every head draws from its own stream.
        self.stream_a = Backbone(cfg.backbone, np.random.default_rng([seed, 0]))
        self.stream_b = Backbone(cfg.backbone, np.random.default_rng([seed, 0]))
        self.head_ce = Linear(flat, cfg.num_classes, np.random.default_rng([seed, 1]))
        self.head_msml = Linear(flat, cfg.num_classes, np.random.default_rng([seed, 2]))
        self.proj = Linear(d * d, cfg.proj_width, np.random.default_rng([seed, 3]))
        self.cls = Linear(cfg.proj_width, cfg.num_classes, np.random.default_rng([seed, 4]))

    def forward(self, batch, training=False, seed=0) -> ForwardPass:
        batch = _check_batch(batch, self.cfg)
        n = batch.shape[0]
        rate = self.cfg.dropout_rate
        fa, tape_a = self.stream_a.forward(batch)
        fb, tape_b = self.stream_b.forward(batch)

        drop_a, mask_a = ops.dropout_forward(fa.reshape(n, -1), rate, training, [seed, 0])
        logits_ce, ce_cache = self.head_ce.forward(drop_a)

        drop_b, mask_b = ops.dropout_forward(fb.reshape(n, -1), rate, training, [seed, 1])
        logits_msml, msml_cache = self.head_msml.forward(drop_b)

        logits_fce, head_cache = bl.bilinear_head_batch(
            fa, fb, self.proj.w, self.proj.b, self.cls.w, self.cls.b
        )
        tape = (fa.shape, tape_a, tape_b, mask_a, mask_b, ce_cache, msml_cache, head_cache)
        return ForwardPass(logits_ce, logits_msml, logits_fce, tape)

    def backward(self, tape, d_ce=None, d_msml=None, d_fce=None):
        """Accumulate parameter gradients for the supplied head gradients.

        Omitted heads contribute nothing, which is how the staged training
        strategies exclude loss terms.
        """
        shape, tape_a, tape_b, mask_a, mask_b, ce_cache, msml_cache, head_cache = tape
        d_fa = np.zeros(shape, dtype=FLOAT)
        d_fb = np.zeros(shape, dtype=FLOAT)
        if d_ce is not None:
            d_drop = self.head_ce.backward(d_ce, ce_cache)
            d_fa += ops.dropout_backward(d_drop, mask_a).reshape(shape)
        if d_msml is not None:
            d_drop = self.head_msml.backward(d_msml, msml_cache)
            d_fb += ops.dropout_backward(d_drop, mask_b).reshape(shape)
        if d_fce is not None:
            g_fa, g_fb, dproj_w, dproj_b, dcls_w, dcls_b = bl.bilinear_head_backward(d_fce, head_cache)
            self.proj.dw += dproj_w
            self.proj.db += dproj_b
            self.cls.dw += dcls_w
            self.cls.db += dcls_b
            d_fa += g_fa
            d_fb += g_fb
        self.stream_a.backward(d_fa, tape_a)
        self.stream_b.backward(d_fb, tape_b)

    def param_groups(self):
        """Named parameter subsets used by the training strategies."""
        return {
            "backbones": self.stream_a.params("stream_a") + self.stream_b.params("stream_b"),
            "stream_heads": self.head_ce.params("head_ce") + self.head_msml.params("head_msml"),
            "bilinear_head": self.proj.params("bilinear.proj") + self.cls.params("bilinear.cls"),
        }


class BaselineModel(Model):
    """Single backbone with a sigmoid-CE classifier; the plain reference model."""

    kind = "baseline"
    heads = ("ce",)
    primary_head = "ce"

    def __init__(self, cfg: ModelConfig, seed: int):
        super().__init__(cfg, seed)
        d, h, w = cfg.backbone.feature_shape(cfg.input_size)
        self.backbone = Backbone(cfg.backbone, np.random.default_rng([seed, 0]))
        self.head_ce = Linear(d * h * w, cfg.num_classes, np.random.default_rng([seed, 1]))

    def forward(self, batch, training=False, seed=0) -> ForwardPass:
        batch = _check_batch(batch, self.cfg)
        n = batch.shape[0]
        fa, backbone_tape = self.backbone.forward(batch)
        drop, mask = ops.dropout_forward(fa.reshape(n, -1), self.cfg.dropout_rate, training, [seed, 0])
        logits_ce, head_cache = self.head_ce.forward(drop)
        return ForwardPass(logits_ce, None, None, (fa.shape, backbone_tape, mask, head_cache))

    def backward(self, tape, d_ce=None, d_msml=None, d_fce=None):
        if d_ce is None:
            return
        shape, backbone_tape, mask, head_cache = tape
        d_drop = self.head_ce.backward(d_ce, head_cache)
        self.backbone.backward(ops.dropout_backward(d_drop, mask).reshape(shape), backbone_tape)

    def param_groups(self):
        return {"backbones": self.backbone.params("backbone"),
                "stream_heads": self.head_ce.params("head_ce"),
                "bilinear_head": []}


# ---------------------------------------------------------------------------
# prediction and fusion
# ---------------------------------------------------------------------------

def predict(model, batch, batch_seed=0):
    """Eval-mode per-head sigmoid probabilities, as a dict head -> (N, C)."""
    out = model.forward(batch, training=False, seed=batch_seed)
    probs = {}
    for head in model.heads:
        logits = getattr(out, f"logits_{head}")
        probs[head] = ops.sigmoid(logits)
    return probs


def ensemble_fuse(score_sets):
    """Elementwise mean of equally-shaped probability arrays."""
    if not score_sets:
        raise DimensionError("ensemble_fuse needs at least one score set")
    arrays = [np.asarray(s, dtype=FLOAT) for s in score_sets]
    for a in arrays[1:]:
        if a.shape != arrays[0].shape:
            raise DimensionError.mismatch("ensemble_fuse inputs", a.shape, arrays[0].shape)
    return np.mean(arrays, axis=0)


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------

class Adam:
    """Standard Adam with bias correction, updating parameters in place."""

    def __init__(self, params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)  # (name, value, grad) triples
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for _, p, _ in self.params]
        self.v = [np.zeros_like(p) for _, p, _ in self.params]

    def step(self, lr=None):
        lr = self.lr if lr is None else lr
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for (_, p, g), m, v in zip(self.params, self.m, self.v):
            if g.shape != p.shape:
                raise DimensionError.mismatch("adam grad", g.shape, p.shape)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def lr_schedule(initial_lr, epoch):
    """Decade decay every third epoch: lr = initial * 0.1 ** floor(epoch / 3)."""
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    return initial_lr * 0.1 ** (epoch // 3)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _meta_tensors(model):
    cfg = model.cfg
    blocks = np.array(
        [[out_ch, kernel, 1.0 if pool else 0.0] for out_ch, kernel, pool in cfg.backbone.conv_blocks],
        dtype=FLOAT,
    )
    return [
        ("meta.kind", np.array([0.0 if model.kind == "baseline" else 1.0])),
        ("meta.input_size", np.array(cfg.input_size, dtype=FLOAT)),
        ("meta.input_channels", np.array([cfg.backbone.input_channels], dtype=FLOAT)),
        ("meta.conv_blocks", blocks),
        ("meta.proj_width", np.array([cfg.proj_width], dtype=FLOAT)),
        ("meta.dropout_rate", np.array([cfg.dropout_rate], dtype=FLOAT)),
    ]


def save_checkpoint(model, path):
    tensors = [(name, value) for name, value, _ in model.params()]
    tensors += _meta_tensors(model)
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<2I", model.cfg.num_classes, len(tensors))
    for name, value in tensors:
        encoded = name.encode("utf-8")
        blob += struct.pack("<I", len(encoded))
        blob += encoded
        blob += struct.pack("<I", value.ndim)
        blob += struct.pack(f"<{value.ndim}I", *value.shape)
        blob += np.ascontiguousarray(value, dtype="<f8").tobytes()
    write_atomic(path, bytes(blob))


def read_checkpoint(path):
    """Return (num_classes, dict name -> float64 array)."""
    raw = Path(path).read_bytes()
    if len(raw) < len(CHECKPOINT_MAGIC) or raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {raw[:8]!r}", offset=0)
    off = len(CHECKPOINT_MAGIC)

    def take(n, what):
        nonlocal off
        if off + n > len(raw):
            raise FormatError(f"checkpoint truncated while reading {what}", offset=len(raw))
        chunk = raw[off : off + n]
        off += n
        return chunk

    num_classes, n_tensors = struct.unpack("<2I", take(8, "header"))
    tensors = {}
    for _ in range(n_tensors):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        name = take(name_len, "name").decode("utf-8")
        (rank,) = struct.unpack("<I", take(4, "rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims"))
        count = int(np.prod(dims, dtype=np.int64)) if rank else 1
        data = np.frombuffer(take(8 * count, f"data of {name}"), dtype="<f8")
        if not np.isfinite(data).all():
            raise FormatError(f"checkpoint tensor {name} holds a NaN or an infinity", offset=off - 8 * count)
        tensors[name] = data.reshape(dims).astype(FLOAT)
    if off != len(raw):
        raise FormatError(f"{len(raw) - off} trailing bytes after last tensor", offset=off)
    return num_classes, tensors


def model_from_checkpoint(path):
    """Rebuild a model from a checkpoint's meta tensors and load its weights."""
    num_classes, tensors = read_checkpoint(path)
    required = ["meta.kind", "meta.input_size", "meta.input_channels", "meta.conv_blocks",
                "meta.proj_width", "meta.dropout_rate"]
    for key in required:
        if key not in tensors:
            raise FormatError(f"checkpoint lacks {key}; cannot rebuild the model")
    blocks = tuple(
        (int(row[0]), int(row[1]), bool(row[2])) for row in np.atleast_2d(tensors["meta.conv_blocks"])
    )
    cfg = ModelConfig(
        num_classes=num_classes,
        input_size=(int(tensors["meta.input_size"][0]), int(tensors["meta.input_size"][1])),
        backbone=BackboneConfig(int(tensors["meta.input_channels"][0]), blocks),
        proj_width=int(tensors["meta.proj_width"][0]),
        dropout_rate=float(tensors["meta.dropout_rate"][0]),
    )
    model = (BaselineModel if tensors["meta.kind"][0] == 0.0 else TwoStreamModel)(cfg, seed=0)
    for name, value, _ in model.params():
        if name not in tensors:
            raise FormatError(f"checkpoint lacks parameter {name}")
        stored = tensors[name]
        if stored.shape != value.shape:
            raise FormatError(
                f"checkpoint parameter {name} has shape {stored.shape}, model expects {value.shape}"
            )
        value[...] = stored
    return model
