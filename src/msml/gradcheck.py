"""Central finite-difference verification of every analytic gradient.

Scalar objectives are built by contracting op outputs with a fixed random
weighting, so backward passes can be compared against numerical derivatives
of the same scalar. The error measure is the max-norm relative error
``max|a - n| / max(max|a|, max|n|, 1e-8)`` per gradient tensor.

``run_scope`` drives the four suites (layers, losses, bilinear, model) and
is what the CLI and the acceptance tests call. ``perturb`` injects a bias
into every analytic gradient; it exists so the harness can prove it would
catch a wrong gradient.
"""

from __future__ import annotations

import numpy as np

from . import bilinear as bl
from . import ops
from .losses import msml, sigmoid_bce, total_loss
from .model import BackboneConfig, ModelConfig, TwoStreamModel
from .train import _losses_and_grads

STEP = 1e-5

# op name -> relative error tolerance
TOLERANCES = {
    "affine": 1e-6,
    "conv2d": 1e-6,
    "maxpool2d": 1e-6,
    "relu": 1e-6,
    "dropout": 1e-6,
    "sigmoid": 1e-6,
    "sigmoid_bce": 1e-6,
    "msml": 1e-6,
    "bilinear_pool": 1e-6,
    "signed_sqrt": 1e-5,
    "l2_normalize": 1e-6,
    "bilinear_head": 1e-5,
    "model": 1e-4,
}

SCOPES = ("layers", "losses", "bilinear", "model")


def numerical_gradient(f, x, step=STEP):
    """Central differences of scalar ``f()`` w.r.t. ``x``, mutated in place."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + step
        fp = f()
        flat[i] = old - step
        fm = f()
        flat[i] = old
        gflat[i] = (fp - fm) / (2.0 * step)
    return grad


def rel_error(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-8)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def _merge(errs, name, value):
    errs[name] = max(errs.get(name, 0.0), value)


# ---------------------------------------------------------------------------
# layer ops
# ---------------------------------------------------------------------------

def check_layers(seeds=20, perturb=0.0):
    errs = {}
    for seed in range(seeds):
        rng = np.random.default_rng([914, seed])

        # affine: gradients w.r.t. input, weight, and bias
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 5))
        b = rng.normal(size=5)
        r = rng.normal(size=(3, 5))
        out, cache = ops.affine_forward(x, w, b)
        dx, dw, db = ops.affine_backward(r, cache)
        for a, arr in ((dx, x), (dw, w), (db, b)):
            n = numerical_gradient(lambda: float(np.sum(ops.affine_forward(x, w, b)[0] * r)), arr)
            _merge(errs, "affine", rel_error(a + perturb, n))

        # conv2d at kernel sizes 1, 3 and 5
        ksize = (1, 3, 5)[seed % 3]
        x = rng.normal(size=(2, 2, 5, 4))
        k = rng.normal(size=(3, 2, ksize, ksize))
        out, cache = ops.conv2d_forward(x, k)
        r = rng.normal(size=out.shape)
        dx, dk = ops.conv2d_backward(r, cache)
        for a, arr in ((dx, x), (dk, k)):
            n = numerical_gradient(lambda: float(np.sum(ops.conv2d_forward(x, k)[0] * r)), arr)
            _merge(errs, "conv2d", rel_error(a + perturb, n))

        # maxpool2d on even and odd extents
        x = rng.normal(size=(2, 2, 6 + seed % 2, 6 + seed % 2))
        out, cache = ops.maxpool2d_forward(x)
        r = rng.normal(size=out.shape)
        a = ops.maxpool2d_backward(r, cache)
        n = numerical_gradient(lambda: float(np.sum(ops.maxpool2d_forward(x)[0] * r)), x)
        _merge(errs, "maxpool2d", rel_error(a + perturb, n))

        # relu
        x = rng.normal(size=(4, 7))
        out, mask = ops.relu_forward(x)
        r = rng.normal(size=out.shape)
        a = ops.relu_backward(r, mask)
        n = numerical_gradient(lambda: float(np.sum(ops.relu_forward(x)[0] * r)), x)
        _merge(errs, "relu", rel_error(a + perturb, n))

        # dropout with a fixed mask seed
        x = rng.normal(size=(5, 6))
        r = rng.normal(size=x.shape)
        out, cache = ops.dropout_forward(x, 0.5, True, [seed, 3])
        a = ops.dropout_backward(r, cache)
        n = numerical_gradient(
            lambda: float(np.sum(ops.dropout_forward(x, 0.5, True, [seed, 3])[0] * r)), x
        )
        _merge(errs, "dropout", rel_error(a + perturb, n))

        # sigmoid
        x = rng.normal(size=(4, 5))
        r = rng.normal(size=x.shape)
        z = ops.sigmoid(x)
        a = ops.sigmoid_backward(r, z)
        n = numerical_gradient(lambda: float(np.sum(ops.sigmoid(x) * r)), x)
        _merge(errs, "sigmoid", rel_error(a + perturb, n))
    return errs


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _random_labels(rng, c):
    """Binary labels with at least one positive and one negative."""
    y = np.zeros(c, dtype=np.int8)
    n_pos = int(rng.integers(1, c))
    y[rng.choice(c, size=n_pos, replace=False)] = 1
    return y


def check_losses(cases=100, perturb=0.0):
    errs = {}
    for case in range(cases):
        rng = np.random.default_rng([517, case])
        c = int(rng.integers(2, 10))
        x = rng.normal(scale=2.0, size=c)
        y = _random_labels(rng, c)

        _, a = sigmoid_bce(x, y)
        n = numerical_gradient(lambda: sigmoid_bce(x, y)[0], x)
        _merge(errs, "sigmoid_bce", rel_error(a + perturb, n))

        _, a = msml(x, y)
        n = numerical_gradient(lambda: msml(x, y)[0], x)
        _merge(errs, "msml", rel_error(a + perturb, n))
    return errs


# ---------------------------------------------------------------------------
# bilinear chain
# ---------------------------------------------------------------------------

def check_bilinear(seeds=20, perturb=0.0):
    errs = {}
    for seed in range(seeds):
        rng = np.random.default_rng([312, seed])

        f1 = rng.normal(size=(1, 3, 2, 2))
        f2 = rng.normal(size=(1, 4, 2, 2))
        r = rng.normal(size=(1, 12))
        df1, df2 = bl.bilinear_pool_backward(r, f1, f2)
        for a, arr in ((df1, f1), (df2, f2)):
            n = numerical_gradient(lambda: float(np.sum(bl.bilinear_pool_batch(f1, f2) * r)), arr)
            _merge(errs, "bilinear_pool", rel_error(a + perturb, n))

        # signed sqrt away from the origin, where the epsilon smoothing is negligible
        v = rng.uniform(0.1, 2.0, size=9) * rng.choice([-1.0, 1.0], size=9)
        r = rng.normal(size=9)
        a = bl.signed_sqrt_backward(r, v)
        n = numerical_gradient(lambda: float(np.sum(bl.signed_sqrt(v) * r)), v)
        _merge(errs, "signed_sqrt", rel_error(a + perturb, n))

        v = rng.normal(size=(2, 7))
        r = rng.normal(size=(2, 7))
        _, norms = bl.l2_normalize_batch(v)
        a = bl.l2_normalize_backward(r, v, norms)
        n = numerical_gradient(lambda: float(np.sum(bl.l2_normalize_batch(v)[0] * r)), v)
        _merge(errs, "l2_normalize", rel_error(a + perturb, n))

        # full head chain; positive maps keep the pooled vector away from the
        # signed-sqrt kink at zero
        f1 = rng.uniform(0.5, 1.5, size=(1, 3, 2, 2))
        f2 = rng.uniform(0.5, 1.5, size=(1, 3, 2, 2))
        pw = rng.normal(size=(9, 6))
        pb = rng.normal(size=6)
        cw = rng.normal(size=(6, 4))
        cb = rng.normal(size=4)
        r = rng.normal(size=(1, 4))

        def head_loss():
            logits, _ = bl.bilinear_head_batch(f1, f2, pw, pb, cw, cb)
            return float(np.sum(logits * r))

        _, cache = bl.bilinear_head_batch(f1, f2, pw, pb, cw, cb)
        grads = bl.bilinear_head_backward(r, cache)
        for a, arr in zip(grads, (f1, f2, pw, pb, cw, cb)):
            _merge(errs, "bilinear_head", rel_error(a + perturb, numerical_gradient(head_loss, arr)))
    return errs


# ---------------------------------------------------------------------------
# whole model
# ---------------------------------------------------------------------------

def check_model(coords=10, perturb=0.0, seed=4):
    """Composite-loss gradient at ``coords`` random parameter coordinates.

    Uses a miniature configuration (8x8 input, two conv blocks, 4 classes) in
    eval mode so the objective is deterministic.
    """
    rng = np.random.default_rng([777, seed])
    cfg = ModelConfig(
        num_classes=4,
        input_size=(8, 8),
        backbone=BackboneConfig(input_channels=1, conv_blocks=((4, 3, True), (6, 3, True))),
        proj_width=5,
    )
    model = TwoStreamModel(cfg, seed=seed)
    batch = rng.normal(size=(2, 1, 8, 8))
    labels = np.stack([_random_labels(rng, 4) for _ in range(2)])
    w = model.loss_weights

    def f():
        out = model.forward(batch, training=False, seed=0)
        (ce, ms, fce), _ = _losses_and_grads(out, labels, (), 0.0, 0.0)
        return total_loss(ce, ms, fce, w)

    out = model.forward(batch, training=False, seed=0)
    _, grads = _losses_and_grads(out, labels, ("ce", "msml", "fce"), w.alpha, w.beta)
    model.zero_grads()
    model.backward(out.tape, *grads)

    params = model.params()
    analytic = []
    numeric = []
    for _ in range(coords):
        t = int(rng.integers(len(params)))
        _, value, grad = params[t]
        i = int(rng.integers(value.size))
        analytic.append(grad.reshape(-1)[i])
        numeric.append(numerical_gradient(f, value.reshape(-1)[i : i + 1])[0])
    err = rel_error(np.asarray(analytic) + perturb, np.asarray(numeric))
    return {"model": err}


def run_scope(scope, perturb=0.0, quick=False):
    """Run one suite; returns (errors dict, pass flag)."""
    if scope == "layers":
        errs = check_layers(seeds=5 if quick else 20, perturb=perturb)
    elif scope == "losses":
        errs = check_losses(cases=20 if quick else 100, perturb=perturb)
    elif scope == "bilinear":
        errs = check_bilinear(seeds=5 if quick else 20, perturb=perturb)
    elif scope == "model":
        errs = check_model(coords=10, perturb=perturb)
    else:
        raise ValueError(f"unknown gradcheck scope {scope!r}; choose from {SCOPES}")
    ok = all(err <= TOLERANCES[name] for name, err in errs.items())
    return errs, ok
