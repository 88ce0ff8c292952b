"""Bilinear pooling of two feature maps and its normalization chain.

The chain is: outer product of the two local descriptors at every spatial
location, averaged over locations and vectorized row-major; then elementwise
signed square root; then L2 normalization; then an affine projection (the
1x1-conv equivalent on a pooled vector) and an affine classifier.

Every function takes a batch: (N, d, H, W) maps or (N, D) vectors. Backward
passes mirror the forwards exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .ops import affine_backward, affine_forward

FLOAT = np.float64

SIGNED_SQRT_EPS = 1e-8
L2_NORM_EPS = 1e-12


def bilinear_pool_batch(f1, f2):
    """Average over locations of vec(f1_{ij} outer f2_{ij}), row-major, per sample."""
    f1 = np.asarray(f1, dtype=FLOAT)
    f2 = np.asarray(f2, dtype=FLOAT)
    if f1.ndim != 4 or f2.ndim != 4:
        raise DimensionError(f"bilinear_pool expects (N, d, H, W) maps, got {f1.shape} and {f2.shape}")
    if f1.shape[0] != f2.shape[0] or f1.shape[2:] != f2.shape[2:]:
        raise DimensionError.mismatch("bilinear_pool spatial dims", f2.shape, (f2.shape[0], f2.shape[1]) + f1.shape[2:])
    n, d1 = f1.shape[:2]
    d2 = f2.shape[1]
    hw = f1.shape[2] * f1.shape[3]
    prod = np.einsum("nahw,nbhw->nab", f1, f2) / hw
    return prod.reshape(n, d1 * d2)


def bilinear_pool_backward(dout, f1, f2):
    """Gradients w.r.t. both maps given dLoss/dpooled of shape (N, d1*d2)."""
    n, d1 = f1.shape[:2]
    d2 = f2.shape[1]
    hw = f1.shape[2] * f1.shape[3]
    dv = np.asarray(dout, dtype=FLOAT).reshape(n, d1, d2) / hw
    df1 = np.einsum("nab,nbhw->nahw", dv, f2)
    df2 = np.einsum("nab,nahw->nbhw", dv, f1)
    return df1, df2


def signed_sqrt(v):
    """sign(v) * sqrt(|v|) elementwise."""
    v = np.asarray(v, dtype=FLOAT)
    return np.sign(v) * np.sqrt(np.abs(v))


def signed_sqrt_backward(dout, v):
    # True derivative 1 / (2 sqrt|v|) is unbounded at 0; the epsilon keeps it
    # finite there while staying within 1e-8 of exact elsewhere.
    v = np.asarray(v, dtype=FLOAT)
    return np.asarray(dout, dtype=FLOAT) / (2.0 * np.sqrt(np.abs(v)) + SIGNED_SQRT_EPS)


def l2_normalize_batch(v):
    """Each row v / max(||v||_2, eps), with the norms; a zero row maps to itself."""
    v = np.asarray(v, dtype=FLOAT)
    norms = np.maximum(np.linalg.norm(v, axis=-1, keepdims=True), L2_NORM_EPS)
    return v / norms, norms


def l2_normalize_backward(dout, v, norms):
    """Jacobian (I - u u^T) / ||v|| applied row-wise, with u = v / ||v||."""
    dout = np.asarray(dout, dtype=FLOAT)
    u = v / norms
    proj = np.sum(u * dout, axis=-1, keepdims=True)
    return (dout - u * proj) / norms


def bilinear_head_batch(f1, f2, proj_w, proj_b, cls_w, cls_b):
    """Full chain pool -> signed sqrt -> l2 norm -> projection -> classifier.

    Returns (logits, cache); the cache feeds ``bilinear_head_backward``.
    """
    f1 = np.asarray(f1, dtype=FLOAT)
    f2 = np.asarray(f2, dtype=FLOAT)
    v = bilinear_pool_batch(f1, f2)
    s = signed_sqrt(v)
    u, norms = l2_normalize_batch(s)
    h, proj_cache = affine_forward(u, proj_w, proj_b)
    logits, cls_cache = affine_forward(h, cls_w, cls_b)
    cache = (f1, f2, v, s, norms, proj_cache, cls_cache)
    return logits, cache


def bilinear_head_backward(dlogits, cache):
    """Returns (df1, df2, dproj_w, dproj_b, dcls_w, dcls_b)."""
    f1, f2, v, s, norms, proj_cache, cls_cache = cache
    dh, dcls_w, dcls_b = affine_backward(dlogits, cls_cache)
    du, dproj_w, dproj_b = affine_backward(dh, proj_cache)
    ds = l2_normalize_backward(du, s, norms)
    dv = signed_sqrt_backward(ds, v)
    df1, df2 = bilinear_pool_backward(dv, f1, f2)
    return df1, df2, dproj_w, dproj_b, dcls_w, dcls_b
