"""Differentiable layer primitives on float64 numpy arrays.

Every layer op comes as an explicit forward/backward pair (no taped
autodiff). Forward returns ``(out, cache)``; backward consumes the upstream
gradient and the cache and returns gradients for the forward inputs. All
analytic gradients are finite-difference checked by ``msml.gradcheck``.
``sigmoid`` is a forward only: the BCE gradient in logit space is z - y.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ParameterError

FLOAT = np.float64


def _as_f64(x):
    return np.asarray(x, dtype=FLOAT)


# ---------------------------------------------------------------------------
# affine
# ---------------------------------------------------------------------------

def affine_forward(x, w, b):
    """out[n, j] = sum_i x[n, i] * w[i, j] + b[j]."""
    x, w, b = _as_f64(x), _as_f64(w), _as_f64(b)
    if x.ndim != 2 or w.ndim != 2:
        raise DimensionError(f"affine expects 2-d input and weight, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise DimensionError.mismatch("affine inner dimension", x.shape, (x.shape[0], w.shape[0]))
    if b.shape != (w.shape[1],):
        raise DimensionError.mismatch("affine bias", b.shape, (w.shape[1],))
    return x @ w + b, (x, w)


def affine_backward(dout, cache):
    x, w = cache
    dout = _as_f64(dout)
    dx = dout @ w.T
    dw = x.T @ dout
    db = dout.sum(axis=0)
    return dx, dw, db


# ---------------------------------------------------------------------------
# conv2d (same-padded, stride-1 cross-correlation) and 2x2/2 maxpool2d
# ---------------------------------------------------------------------------

def conv2d_forward(x, kernel):
    """Cross-correlate NCHW input with an odd square (C_out, C_in, k, k) kernel.

    Stride 1, zero padding k // 2, so the output keeps the input's H x W. The
    k * k shifted views of the padded input are gathered into a column matrix
    and multiplied once; ``conv2d_backward`` scatters through the same views.
    """
    x, kernel = _as_f64(x), _as_f64(kernel)
    if x.ndim != 4 or kernel.ndim != 4:
        raise DimensionError(f"conv2d expects 4-d input and kernel, got {x.shape} and {kernel.shape}")
    n, c_in, h, w = x.shape
    c_out, kc_in, kh, kw = kernel.shape
    if kc_in != c_in:
        raise DimensionError.mismatch("conv2d kernel channels", kernel.shape, (c_out, c_in, kh, kw))
    if kh != kw or kh % 2 == 0:
        raise DimensionError(f"conv2d needs an odd square kernel, got {kh}x{kw}")
    k, pad = kh, kh // 2
    if k > h + 2 * pad or k > w + 2 * pad:
        raise DimensionError(f"conv2d kernel {k}x{k} larger than padded input {h + 2 * pad}x{w + 2 * pad}")
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, h, w, c_in, k, k), dtype=FLOAT)
    for a in range(k):
        for b in range(k):
            cols[..., a, b] = xp[:, :, a : a + h, b : b + w].transpose(0, 2, 3, 1)
    cols = cols.reshape(n * h * w, c_in * k * k)
    out = (cols @ kernel.reshape(c_out, -1).T).reshape(n, h, w, c_out).transpose(0, 3, 1, 2)
    return np.ascontiguousarray(out), (cols, kernel, x.shape)


def conv2d_backward(dout, cache):
    cols, kernel, (n, c_in, h, w) = cache
    c_out, _, k, _ = kernel.shape
    pad = k // 2
    dmat = _as_f64(dout).transpose(0, 2, 3, 1).reshape(n * h * w, c_out)
    dk = (dmat.T @ cols).reshape(kernel.shape)
    dcols = (dmat @ kernel.reshape(c_out, -1)).reshape(n, h, w, c_in, k, k)
    dxp = np.zeros((n, c_in, h + 2 * pad, w + 2 * pad), dtype=FLOAT)
    for a in range(k):
        for b in range(k):
            dxp[:, :, a : a + h, b : b + w] += dcols[..., a, b].transpose(0, 3, 1, 2)
    return dxp[:, :, pad : pad + h, pad : pad + w], dk


def _pool_views(x):
    """The four strided 2x2/2 window slices in row-major order; an odd last row
    or column is dropped."""
    h, w = x.shape[2] // 2 * 2, x.shape[3] // 2 * 2
    return [x[:, :, i:h:2, j:w:2] for i in (0, 1) for j in (0, 1)]


def maxpool2d_forward(x):
    """2x2 max-pool with stride 2. Ties route to the first maximum in row-major order."""
    x = _as_f64(x)
    if x.ndim != 4 or x.shape[2] < 2 or x.shape[3] < 2:
        raise DimensionError(f"maxpool2d expects 4-d input of at least 2x2, got {x.shape}")
    views = _pool_views(x)
    out = np.maximum(np.maximum(views[0], views[1]), np.maximum(views[2], views[3]))
    taken = np.zeros(out.shape, dtype=bool)
    masks = []
    for view in views:
        masks.append((view == out) & ~taken)
        taken |= masks[-1]
    return out, (masks, x.shape)


def maxpool2d_backward(dout, cache):
    masks, x_shape = cache
    dout = _as_f64(dout)
    dx = np.zeros(x_shape, dtype=FLOAT)
    for view, mask in zip(_pool_views(dx), masks):
        np.multiply(dout, mask, out=view)
    return dx


# ---------------------------------------------------------------------------
# relu
# ---------------------------------------------------------------------------

def relu_forward(x):
    x = _as_f64(x)
    out = np.maximum(x, 0.0)
    return out, x > 0  # subgradient at 0 is 0


def relu_backward(dout, mask):
    return _as_f64(dout) * mask


# ---------------------------------------------------------------------------
# dropout (inverted: eval mode is the identity)
# ---------------------------------------------------------------------------

def dropout_forward(x, rate, training, rng_seed):
    x = _as_f64(x)
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x.copy(), None
    keep = np.random.default_rng(rng_seed).random(x.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    return x * keep * scale, (keep, scale)


def dropout_backward(dout, cache):
    dout = _as_f64(dout)
    if cache is None:
        return dout.copy()
    keep, scale = cache
    return dout * keep * scale


# ---------------------------------------------------------------------------
# sigmoid
# ---------------------------------------------------------------------------

def sigmoid(x):
    """Numerically stable logistic function; never overflows for large |x|."""
    x = _as_f64(x)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
