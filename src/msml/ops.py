"""Differentiable layer primitives on float64 numpy arrays.

Every layer op comes as an explicit forward/backward pair (no taped
autodiff). Forward returns ``(out, cache)``; backward consumes the upstream
gradient and the cache and returns gradients for the forward inputs. A cache
serves one backward (``conv2d_backward`` writes over its column matrix). All
analytic gradients are finite-difference checked by ``msml.gradcheck``.
``sigmoid`` and ``maxpool2d`` are forwards only: the BCE gradient in logit
space is z - y, and ``maxpool2d`` gives eval passes the pooled maxima without
the routing masks that ``maxpool2d_forward`` builds for its backward.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

FLOAT = np.float64

# ---------------------------------------------------------------------------
# affine
# ---------------------------------------------------------------------------

def affine_forward(x, w, b):
    """out[n, j] = sum_i x[n, i] * w[i, j] + b[j]."""
    if x.ndim != 2 or w.ndim != 2:
        raise DimensionError(f"affine expects 2-d input and weight, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise DimensionError.mismatch("affine inner dimension", x.shape, (x.shape[0], w.shape[0]))
    if b.shape != (w.shape[1],):
        raise DimensionError.mismatch("affine bias", b.shape, (w.shape[1],))
    return x @ w + b, (x, w)


def affine_backward(dout, cache):
    x, w = cache
    dx = dout @ w.T
    dw = x.T @ dout
    db = dout.sum(axis=0)
    return dx, dw, db


# ---------------------------------------------------------------------------
# conv2d (same-padded, stride-1 cross-correlation) and 2x2/2 maxpool2d
# ---------------------------------------------------------------------------

_DK_PANEL = 4096  # columns per partial product of the kernel gradient


def conv2d_forward(x, kernel):
    """Cross-correlate NCHW input with an odd square (C_out, C_in, k, k) kernel.

    Stride 1, zero padding k // 2, so the output keeps the input's H x W. The
    work runs batch-last: the input, as (C_in, H, W, N), is padded and its
    k * k shifted (H, W, N) blocks are gathered into one (C_in * k * k, H * W * N)
    column matrix, rows in (c, a, b) order, so a single product with the
    (C_out, C_in * k * k) kernel matrix gives every output. The result is NCHW
    by shape and batch-last in memory (the batch axis has the smallest stride).
    ``conv2d_backward`` scatters through the same blocks.
    """
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
    xp = np.zeros((c_in, h + 2 * pad, w + 2 * pad, n), dtype=FLOAT)
    xp[:, pad : pad + h, pad : pad + w] = x.transpose(1, 2, 3, 0)
    cols = np.empty((c_in, k, k, h, w, n), dtype=FLOAT)
    for a in range(k):
        for b in range(k):
            cols[:, a, b] = xp[:, a : a + h, b : b + w]
    cols = cols.reshape(c_in * k * k, h * w * n)
    out = kernel.reshape(c_out, -1) @ cols
    return out.reshape(c_out, h, w, n).transpose(3, 0, 1, 2), (cols, kernel, x.shape)


def conv2d_backward(dout, cache, input_grad=True):
    """Return (dx, dkernel); dx is None when ``input_grad`` is false. Batch-last
    ``dout`` is read without a copy, and dx comes back batch-last. dx's columns
    overwrite the cached ones, so a cache serves one backward unless dx is None."""
    cols, kernel, (n, c_in, h, w) = cache
    c_out, _, k, _ = kernel.shape
    pad = k // 2
    dmat = dout.transpose(1, 2, 3, 0).reshape(c_out, h * w * n)
    # The batch sum runs inside the product. Panels of _DK_PANEL columns keep a
    # long product (block 1: 12,544 columns) in cache, and cost nothing otherwise.
    dk = dmat[:, :_DK_PANEL] @ cols[:, :_DK_PANEL].T
    for i in range(_DK_PANEL, dmat.shape[1], _DK_PANEL):
        dk += dmat[:, i : i + _DK_PANEL] @ cols[:, i : i + _DK_PANEL].T
    dk = dk.reshape(kernel.shape)
    if not input_grad:
        return None, dk
    dcols = np.matmul(kernel.reshape(c_out, -1).T, dmat, out=cols).reshape(c_in, k, k, h, w, n)
    dxp = np.zeros((c_in, h + 2 * pad, w + 2 * pad, n), dtype=FLOAT)
    for a in range(k):
        for b in range(k):
            dxp[:, a : a + h, b : b + w] += dcols[:, a, b]
    return dxp[:, pad : pad + h, pad : pad + w].transpose(3, 0, 1, 2), dk


def _pool_views(x):
    """The four strided 2x2/2 window slices in row-major order; an odd last row
    or column is dropped."""
    h, w = x.shape[2] // 2 * 2, x.shape[3] // 2 * 2
    return [x[:, :, i:h:2, j:w:2] for i in (0, 1) for j in (0, 1)]


def maxpool2d(x):
    """The maxima of a 2x2 max-pool with stride 2, in x's memory order."""
    if x.ndim != 4 or x.shape[2] < 2 or x.shape[3] < 2:
        raise DimensionError(f"maxpool2d expects 4-d input of at least 2x2, got {x.shape}")
    views = _pool_views(x)
    return np.maximum(np.maximum(views[0], views[1]), np.maximum(views[2], views[3]))


def maxpool2d_forward(x):
    """2x2 max-pool with stride 2. Ties route to the first maximum in row-major order."""
    out = maxpool2d(x)
    taken = np.zeros_like(out, dtype=bool)  # the masks keep x's memory order
    masks = []
    for view in _pool_views(x):
        masks.append((view == out) & ~taken)
        taken |= masks[-1]
    return out, (masks, x.shape)


def maxpool2d_backward(dout, cache):
    masks, x_shape = cache
    dx = np.zeros_like(dout, shape=x_shape)  # in dout's memory order
    for view, mask in zip(_pool_views(dx), masks):
        np.multiply(dout, mask, out=view)
    return dx


# ---------------------------------------------------------------------------
# relu
# ---------------------------------------------------------------------------

def relu_forward(x):
    out = np.maximum(x, 0.0)
    return out, x > 0  # subgradient at 0 is 0


def relu_backward(dout, mask):
    return dout * mask


# ---------------------------------------------------------------------------
# dropout (inverted: eval mode is the identity)
# ---------------------------------------------------------------------------

def dropout_forward(x, rate, training, rng_seed):
    """(out, cache); an eval pass or rate 0 returns ``x`` itself and cache None."""
    if not training or rate == 0.0:
        return x, None
    keep = np.random.default_rng(rng_seed).random(x.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    return x * keep * scale, (keep, scale)


def dropout_backward(dout, cache):
    if cache is None:
        return dout
    keep, scale = cache
    return dout * keep * scale


# ---------------------------------------------------------------------------
# sigmoid
# ---------------------------------------------------------------------------

def sigmoid(x):
    """Numerically stable logistic function; never overflows for large |x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
