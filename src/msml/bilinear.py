"""Bilinear pooling of two feature maps and its normalization chain.

The chain is: outer product of the two local descriptors at every spatial
location, averaged over locations and vectorized row-major; then elementwise
signed square root; then L2 normalization. The model's projection (the 1x1-conv
equivalent on a pooled vector) and classifier are ``model.Linear`` layers.

Every function takes a batch of float64 arrays: (N, d, H, W) maps or (N, D)
vectors. As in ``ops``, a forward returns ``(out, cache)`` and its backward
takes ``(dout, cache)``; backward passes mirror the forwards exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

SIGNED_SQRT_EPS = 1e-8
L2_NORM_EPS = 1e-12


def bilinear_pool_batch(f1, f2):
    """Average over locations of vec(f1_{ij} outer f2_{ij}), row-major, per sample, as (pooled, (f1, f2))."""
    if f1.ndim != 4 or f2.ndim != 4:
        raise DimensionError(f"bilinear_pool expects (N, d, H, W) maps, got {f1.shape} and {f2.shape}")
    if f1.shape[0] != f2.shape[0] or f1.shape[2:] != f2.shape[2:]:
        raise DimensionError.mismatch("bilinear_pool spatial dims", f2.shape, (f2.shape[0], f2.shape[1]) + f1.shape[2:])
    n, d1 = f1.shape[:2]
    d2 = f2.shape[1]
    hw = f1.shape[2] * f1.shape[3]
    prod = np.einsum("nahw,nbhw->nab", f1, f2) / hw
    return prod.reshape(n, d1 * d2), (f1, f2)


def bilinear_pool_backward(dout, cache):
    """Gradients (df1, df2) w.r.t. both maps given dLoss/dpooled of shape (N, d1*d2)."""
    f1, f2 = cache
    n, d1 = f1.shape[:2]
    d2 = f2.shape[1]
    hw = f1.shape[2] * f1.shape[3]
    dv = dout.reshape(n, d1, d2) / hw
    df1 = np.einsum("nab,nbhw->nahw", dv, f2)
    df2 = np.einsum("nab,nahw->nbhw", dv, f1)
    return df1, df2


def signed_sqrt(v):
    """sign(v) * sqrt(|v|) elementwise, as (out, v)."""
    return np.sign(v) * np.sqrt(np.abs(v)), v


def signed_sqrt_backward(dout, v):
    # True derivative 1 / (2 sqrt|v|) is unbounded at 0; the epsilon keeps it
    # finite there while staying within 1e-8 of exact elsewhere.
    return dout / (2.0 * np.sqrt(np.abs(v)) + SIGNED_SQRT_EPS)


def l2_normalize_batch(v):
    """Each row v / max(||v||_2, eps), as (u, (v, norms)); a zero row maps to itself."""
    norms = np.maximum(np.linalg.norm(v, axis=-1, keepdims=True), L2_NORM_EPS)
    return v / norms, (v, norms)


def l2_normalize_backward(dout, cache):
    """Jacobian (I - u u^T) / ||v|| applied row-wise, with u = v / ||v||."""
    v, norms = cache
    u = v / norms
    proj = np.sum(u * dout, axis=-1, keepdims=True)
    return (dout - u * proj) / norms


def bilinear_features(f1, f2):
    """The feature chain pool -> signed sqrt -> l2 norm, as (u, cache); the cache
    feeds ``bilinear_features_backward``."""
    v, pool_cache = bilinear_pool_batch(f1, f2)
    s, sqrt_cache = signed_sqrt(v)
    u, norm_cache = l2_normalize_batch(s)
    return u, (pool_cache, sqrt_cache, norm_cache)


def bilinear_features_backward(du, cache):
    """Returns (df1, df2)."""
    pool_cache, sqrt_cache, norm_cache = cache
    ds = l2_normalize_backward(du, norm_cache)
    return bilinear_pool_backward(signed_sqrt_backward(ds, sqrt_cache), pool_cache)
