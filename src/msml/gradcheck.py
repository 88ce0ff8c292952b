"""Central finite-difference verification of every analytic gradient.

``CASES`` maps each scope (layers, losses, bilinear, model) to its cases, and
each case to its number of draws and a ``draw(rng, i)`` that returns the
arrays to differentiate, a scalar objective of them and the analytic
gradients. Op objectives contract the op's output with a random weighting;
loss objectives are the (N, C) batch losses the training step calls; the
model objective is the composite loss at one parameter coordinate of a
miniature two-stream model, in eval mode for the first half of the draws and
in training mode, with a fixed dropout mask, for the second half.

The error of a draw is the max-norm relative error
``max|a - n| / max(max|a|, max|n|, 1e-8)``, worst over its gradient tensors.
``check_case`` scores one draw and ``run_scope`` the worst draw of each case
of a scope; the CLI and the tests call only these two. ``perturb`` injects a
bias into every analytic gradient; it exists so the harness can prove it
would catch a wrong gradient.
"""

from __future__ import annotations

import numpy as np

from . import bilinear as bl
from . import ops
from .losses import msml_batch, sigmoid_bce_batch, total_loss
from .model import BackboneConfig, ModelConfig, TwoStreamModel
from .train import _losses_and_grads

STEP = 1e-5

# case name -> relative error tolerance
TOLERANCES = {
    "affine": 1e-6,
    "conv2d": 1e-6,
    "maxpool2d": 1e-6,
    "relu": 1e-6,
    "dropout": 1e-6,
    "sigmoid_bce": 1e-6,
    "msml": 1e-6,
    "bilinear_pool": 1e-6,
    "signed_sqrt": 1e-5,
    "l2_normalize": 1e-6,
    "bilinear_head": 1e-5,
    "model": 1e-4,
}


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
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
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


def _l2_normalize(v):
    u, norms = bl.l2_normalize_batch(v)
    return u, (v, norms)


def _bilinear_head(rng, i):
    # positive maps keep the pooled vector away from the signed-sqrt kink at zero
    return _contracted(
        rng, bl.bilinear_head_batch, bl.bilinear_head_backward,
        rng.uniform(0.5, 1.5, size=(1, 3, 2, 2)), rng.uniform(0.5, 1.5, size=(1, 3, 2, 2)),
        rng.normal(size=(9, 6)), rng.normal(size=6), rng.normal(size=(6, 4)), rng.normal(size=4),
    )


MODEL_DRAWS = 20
_MODEL_CFG = ModelConfig(
    num_classes=4,
    input_size=(8, 8),
    backbone=BackboneConfig(input_channels=1, conv_blocks=((4, 3, True), (6, 3, True))),
    proj_width=5,
)


def _model(rng, i):
    """Composite-loss gradient at one random parameter coordinate; draws in
    the second half run in training mode with dropout mask seed ``i``."""
    model = TwoStreamModel(_MODEL_CFG, seed=4)
    batch = rng.normal(size=(2, 1, 8, 8))
    labels = rng.integers(0, 2, size=(2, 4))
    training = i >= MODEL_DRAWS // 2
    w = model.loss_weights
    out = model.forward(batch, training=training, seed=i)
    model.backward(out.tape, *_losses_and_grads(out, labels, ("ce", "msml", "fce"), w.alpha, w.beta)[1])

    def objective():
        (ce, ms, fce), _ = _losses_and_grads(model.forward(batch, training, i), labels, (), 0.0, 0.0)
        return total_loss(ce, ms, fce, w)

    params = model.params()
    _, value, grad = params[int(rng.integers(len(params)))]
    j = int(rng.integers(value.size))
    return (value.reshape(-1)[j : j + 1],), objective, (grad.reshape(-1)[j : j + 1],)


# scope -> case name -> (number of draws, draw(rng, i))
CASES = {
    "layers": {
        "affine": (20, lambda rng, i: _contracted(
            rng, ops.affine_forward, ops.affine_backward,
            rng.normal(size=(3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5))),
        # kernel sizes 1, 3 and 5
        "conv2d": (20, lambda rng, i: _contracted(
            rng, ops.conv2d_forward, ops.conv2d_backward,
            rng.normal(size=(2, 2, 5, 4)), rng.normal(size=(3, 2, 1 + 2 * (i % 3), 1 + 2 * (i % 3))))),
        # even and odd extents
        "maxpool2d": (20, lambda rng, i: _contracted(
            rng, ops.maxpool2d_forward, ops.maxpool2d_backward, rng.normal(size=(2, 2, 6 + i % 2, 5 - i % 2)))),
        "relu": (20, lambda rng, i: _contracted(rng, ops.relu_forward, ops.relu_backward, rng.normal(size=(4, 7)))),
        "dropout": (20, lambda rng, i: _contracted(
            rng, lambda x: ops.dropout_forward(x, 0.5, True, [i, 3]), ops.dropout_backward,
            rng.normal(size=(5, 6)))),
    },
    "losses": {
        "sigmoid_bce": (100, _batch_loss(sigmoid_bce_batch)),
        "msml": (100, _batch_loss(msml_batch)),
    },
    "bilinear": {
        "bilinear_pool": (20, lambda rng, i: _contracted(
            rng, lambda f1, f2: (bl.bilinear_pool_batch(f1, f2), (f1, f2)),
            lambda r, maps: bl.bilinear_pool_backward(r, *maps),
            rng.normal(size=(1, 3, 2, 2)), rng.normal(size=(1, 4, 2, 2)))),
        # away from the origin, where the epsilon smoothing is negligible
        "signed_sqrt": (20, lambda rng, i: _contracted(
            rng, lambda v: (bl.signed_sqrt(v), v), bl.signed_sqrt_backward,
            rng.uniform(0.1, 2.0, size=9) * rng.choice([-1.0, 1.0], size=9))),
        "l2_normalize": (20, lambda rng, i: _contracted(
            rng, _l2_normalize, lambda r, cache: bl.l2_normalize_backward(r, *cache), rng.normal(size=(2, 7)))),
        "bilinear_head": (20, _bilinear_head),
    },
    "model": {"model": (MODEL_DRAWS, _model)},
}

SCOPES = tuple(CASES)


def check_case(scope, name, i, perturb=0.0):
    """Relative error of draw ``i`` of one case, worst over its gradient tensors."""
    arrays, objective, grads = CASES[scope][name][1](np.random.default_rng([*name.encode(), i]), i)
    return max(rel_error(g + perturb, numerical_gradient(objective, a)) for a, g in zip(arrays, grads))


def run_scope(scope, perturb=0.0):
    """Case name -> worst error over the case's draws, for every case of ``scope``."""
    return {name: max(check_case(scope, name, i, perturb) for i in range(draws))
            for name, (draws, _) in CASES[scope].items()}
