"""Central finite-difference verification of every analytic gradient.

``CASES`` maps each scope (layers, losses, bilinear, model) to its cases, and
each case to its number of draws, its tolerance and a ``draw(rng, i)`` that
returns the arrays to differentiate, a scalar objective of them and the
analytic gradients; ``TOLERANCES`` is read off it. Op objectives contract the
op's output with a random weighting; loss objectives are the (N, C) batch
losses the training step calls; the model objective is the composite loss at
one parameter coordinate of a miniature model in training mode, without
dropout for the first half of the draws and with a fixed dropout mask for the
second half. Even draws build a two-stream model on a 2-sample batch, odd
draws a baseline on a 3-sample batch, whose backbone runs as halves of 1 and 2.

The error of a draw is the max-norm relative error
``max|a - n| / max(max|a|, max|n|, 1e-8)``, worst over its gradient tensors.
``check_case`` scores one draw and ``run_scope`` the worst draw of each case
of a scope; the CLI and the tests call only these two.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import bilinear as bl
from . import ops
from .losses import LossWeights, msml_batch, sigmoid_bce_batch
from .model import BaselineModel, Linear, ModelConfig, Slab, TwoStreamModel
from .train import _losses_and_grads, _phases

STEP = 1e-5


def numerical_gradient(f, x):
    """Central differences of scalar ``f()`` w.r.t. ``x``, mutated in place."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + STEP
        fp = f()
        flat[i] = old - STEP
        fm = f()
        flat[i] = old
        gflat[i] = (fp - fm) / (2.0 * STEP)
    return grad


def rel_error(analytic, numeric):
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-8)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def _contracted(rng, forward, backward, *arrays):
    """The objective sum(forward(*arrays)[0] * r) for a random r, with the
    gradients ``backward(r, cache)`` gives for it."""
    out, cache = forward(*arrays)
    r = rng.normal(size=out.shape)
    grads = backward(r, cache)
    if not isinstance(grads, tuple):
        grads = (grads,)
    return arrays, lambda: float(np.sum(forward(*arrays)[0] * r)), grads


def _batch_loss(loss):
    """Draws of ``loss`` on (N, C) batches, N = 1-4; a row may have no
    positive or no negative."""

    def draw(rng, i):
        n, c = int(rng.integers(1, 5)), int(rng.integers(2, 10))
        x = rng.normal(scale=2.0, size=(n, c))
        y = rng.integers(0, 2, size=(n, c))
        return (x,), lambda: loss(x, y)[0], (loss(x, y)[1],)

    return draw


def _bilinear_head(rng, i):
    """The feature chain, then a projection and a classifier ``Linear``; the
    layers' own weights and biases are the last four arrays."""
    slab = Slab(9 * 6 + 6 + 6 * 4 + 4)
    proj, cls = Linear(slab, "proj", 9, 6, rng), Linear(slab, "cls", 6, 4, rng)
    proj.b[...], cls.b[...] = rng.normal(size=6), rng.normal(size=4)

    def forward(f1, f2, *weights):
        u, feature_cache = bl.bilinear_features(f1, f2)
        h, proj_cache = proj.forward(u)
        logits, cls_cache = cls.forward(h)
        return logits, (feature_cache, proj_cache, cls_cache)

    def backward(r, cache):
        feature_cache, proj_cache, cls_cache = cache
        du = proj.backward(cls.backward(r, cls_cache), proj_cache)
        return (*bl.bilinear_features_backward(du, feature_cache), proj.dw, proj.db, cls.dw, cls.db)

    # positive maps keep the pooled vector away from the signed-sqrt kink at zero
    return _contracted(rng, forward, backward, rng.uniform(0.5, 1.5, size=(1, 3, 2, 2)),
                       rng.uniform(0.5, 1.5, size=(1, 3, 2, 2)), proj.w, proj.b, cls.w, cls.b)


MODEL_DRAWS = 20
_MODEL_CFG = ModelConfig(
    num_classes=4,
    input_size=(8, 8),
    conv_blocks=((4, 3, True), (6, 3, True)),
    proj_width=5,
)


def _model(rng, i):
    """Composite-loss gradient of a training pass at one random parameter coordinate:
    the head gradients the ``global`` phase's weights give, against the losses summed at those weights.
    The first half of the draws run without dropout, the rest with dropout mask seed ``i``.
    Even draws build a two-stream model on 2 samples, odd draws a baseline on 3."""
    cfg = _MODEL_CFG if i >= MODEL_DRAWS // 2 else dataclasses.replace(_MODEL_CFG, dropout_rate=0.0)
    model, n = (TwoStreamModel(cfg, seed=4), 2) if i % 2 == 0 else (BaselineModel(cfg, seed=4), 3)
    batch = rng.normal(size=(n, 1, 8, 8))
    labels = rng.integers(0, 2, size=(n, 4))
    weights = _phases("global", 1, model, LossWeights())[0][1]
    out = model.forward(batch, training=True, seed=i)
    model.backward(out.tape, _losses_and_grads(out, labels, weights)[1])

    def objective():
        losses, _ = _losses_and_grads(model.forward(batch, True, i), labels, {})
        return sum(weights[h] * losses[h] for h in weights)

    params = model.params()
    _, value, grad = params[int(rng.integers(len(params)))]
    j = int(rng.integers(value.size))
    return (value.reshape(-1)[j : j + 1],), objective, (grad.reshape(-1)[j : j + 1],)


# scope -> case name -> (number of draws, relative error tolerance, draw(rng, i))
CASES = {
    "layers": {
        "affine": (20, 1e-6, lambda rng, i: _contracted(
            rng, ops.affine_forward, ops.affine_backward,
            rng.normal(size=(3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5))),
        # kernel sizes 1, 3 and 5
        "conv2d": (20, 1e-6, lambda rng, i: _contracted(
            rng, ops.conv2d_forward, ops.conv2d_backward,
            rng.normal(size=(2, 2, 5, 4)), rng.normal(size=(3, 2, 1 + 2 * (i % 3), 1 + 2 * (i % 3))))),
        # even and odd extents
        "maxpool2d": (20, 1e-6, lambda rng, i: _contracted(
            rng, ops.maxpool2d_forward, ops.maxpool2d_backward, rng.normal(size=(2, 2, 6 + i % 2, 5 - i % 2)))),
        "relu": (20, 1e-6, lambda rng, i: _contracted(rng, ops.relu_forward, ops.relu_backward, rng.normal(size=(4, 7)))),
        "dropout": (20, 1e-6, lambda rng, i: _contracted(
            rng, lambda x: ops.dropout_forward(x, 0.5, True, [i, 3]), ops.dropout_backward,
            rng.normal(size=(5, 6)))),
    },
    "losses": {
        "sigmoid_bce": (100, 1e-6, _batch_loss(sigmoid_bce_batch)),
        "msml": (100, 1e-6, _batch_loss(msml_batch)),
    },
    "bilinear": {
        "bilinear_pool": (20, 1e-6, lambda rng, i: _contracted(
            rng, bl.bilinear_pool_batch, bl.bilinear_pool_backward,
            rng.normal(size=(1, 3, 2, 2)), rng.normal(size=(1, 4, 2, 2)))),
        # away from the origin, where the epsilon smoothing is negligible
        "signed_sqrt": (20, 1e-5, lambda rng, i: _contracted(
            rng, bl.signed_sqrt, bl.signed_sqrt_backward,
            rng.uniform(0.1, 2.0, size=9) * rng.choice([-1.0, 1.0], size=9))),
        "l2_normalize": (20, 1e-6, lambda rng, i: _contracted(
            rng, bl.l2_normalize_batch, bl.l2_normalize_backward, rng.normal(size=(2, 7)))),
        "bilinear_head": (20, 1e-5, _bilinear_head),
    },
    "model": {"model": (MODEL_DRAWS, 1e-4, _model)},
}

TOLERANCES = {name: tol for cases in CASES.values() for name, (_, tol, _) in cases.items()}
SCOPES = tuple(CASES)


def check_case(scope, name, i):
    """Relative error of draw ``i`` of one case, worst over its gradient tensors."""
    arrays, objective, grads = CASES[scope][name][2](np.random.default_rng([*name.encode(), i]), i)
    return max(rel_error(g, numerical_gradient(objective, a)) for a, g in zip(arrays, grads))


def run_scope(scope):
    """Case name -> worst error over the case's draws, for every case of ``scope``."""
    return {name: max(check_case(scope, name, i) for i in range(draws))
            for name, (draws, _, _) in CASES[scope].items()}
