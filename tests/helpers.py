"""Independent oracles shared by the test modules.

These deliberately avoid the library's own fast paths: the AUC oracle is the
O(N^2) pairwise definition, the convolution and max-pool oracles are direct
loops over the defining sum or maximum, and the MSML oracle loops over the
samples of a batch. The convolution and max-pool oracles take any stride,
padding or window, while the library runs only the shapes the model uses.
``peak_memory`` measures what a block allocates, for the memory bounds,
``sigmoid_bce`` and ``msml`` are the library's batch losses on one sample,
``normalize`` standardizes whole folds with the train fold's statistics, and
``bias_gradients`` makes the gradient checks see a wrong backward pass.
"""

import contextlib
import tracemalloc

import numpy as np

from msml.gradcheck import CASES
from msml.losses import msml_batch, sigmoid_bce_batch


def _one_sample(batch_loss, logits, labels):
    loss, grad = batch_loss(np.asarray(logits)[None], np.asarray(labels)[None])
    return loss, grad[0]


def sigmoid_bce(logits, labels):
    """One sample's sigmoid BCE summed over classes, and its gradient z - y."""
    return _one_sample(sigmoid_bce_batch, logits, labels)


def msml(logits, labels):
    """One sample's multi-label softmax loss and its gradient."""
    return _one_sample(msml_batch, logits, labels)


def normalize(images_by_fold, train_images):
    """Each fold of the dict as one float64 array, standardized with numpy's
    per-channel mean and std (floored at 1e-6) of ``train_images``: the
    arithmetic a fold's batches get, applied to whole folds at once."""
    train = np.asarray(train_images, dtype=np.float64)
    mean = train.mean(axis=(0, 2, 3))
    denom = np.maximum(train.std(axis=(0, 2, 3)), 1e-6)
    out = {}
    for name, imgs in images_by_fold.items():
        x = out[name] = np.array(imgs, dtype=np.float64)
        x -= mean[None, :, None, None]
        x /= denom[None, :, None, None]
    return out


@contextlib.contextmanager
def peak_memory():
    """Trace the block's Python and numpy allocations. Yields a list that,
    once the block has exited (raising or not), holds their peak in bytes."""
    peak = []
    tracemalloc.start()
    try:
        yield peak
    finally:
        peak.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


def brute_force_auc(scores, labels):
    """(#concordant + 0.5 * #tied) / (#pos * #neg) over all pos-neg pairs."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    assert pos.size and neg.size, "oracle needs both classes"
    concordant = np.sum(pos[:, None] > neg[None, :])
    tied = np.sum(pos[:, None] == neg[None, :])
    return (concordant + 0.5 * tied) / (pos.size * neg.size)


def loop_conv2d(x, kernel, stride, pad):
    """Direct quadruple-loop cross-correlation, the conv oracle."""
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    h_out = (h + 2 * pad - kh) // stride + 1
    w_out = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((n, c_out, h_out, w_out))
    for b in range(n):
        for o in range(c_out):
            for i in range(h_out):
                for j in range(w_out):
                    patch = xp[b, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[b, o, i, j] = np.sum(patch * kernel[o])
    return out


def loop_maxpool2d(x, window, stride):
    """Direct-loop max-pool, the pool oracle.

    Returns the pooled values and, per output cell, the (row, col) of the
    first maximum of its window in row-major order: the cell the gradient
    flows to.
    """
    n, c, h, w = x.shape
    h_out = (h - window) // stride + 1
    w_out = (w - window) // stride + 1
    out = np.zeros((n, c, h_out, w_out))
    source = np.zeros((n, c, h_out, w_out, 2), dtype=int)
    for b in range(n):
        for ch in range(c):
            for i in range(h_out):
                for j in range(w_out):
                    best = None
                    for a in range(window):
                        for e in range(window):
                            r, q = i * stride + a, j * stride + e
                            if best is None or x[b, ch, r, q] > x[b, ch, best[0], best[1]]:
                                best = (r, q)
                    out[b, ch, i, j] = x[b, ch, best[0], best[1]]
                    source[b, ch, i, j] = best
    return out, source


def loop_msml(x, y):
    """Mean MSML of an (N, C) batch and its gradient, one sample at a time.

    For each sample with positives Y and negatives N, each positive l gets
    p_l = exp(x_l) / (exp(x_l) + sum_{k in N} exp(x_k)) and the loss is
    -(1/|Y|) sum_l log p_l; empty Y or empty N give zero loss and gradient.
    Exponentials are shifted by a per-positive max to stay finite.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    total = 0.0
    grad = np.zeros_like(x)
    for i in range(x.shape[0]):
        pos = y[i] == 1
        neg = ~pos
        n_pos = int(pos.sum())
        if n_pos == 0 or n_pos == x.shape[1]:
            continue
        xn = x[i, neg]
        neg_max = xn.max()
        s_neg = np.exp(xn - neg_max).sum()
        xp = x[i, pos]
        shift = np.maximum(xp, neg_max)
        e_pos = np.exp(xp - shift)
        den = e_pos + np.exp(neg_max - shift) * s_neg
        total += float(-np.sum((xp - shift) - np.log(den)) / n_pos)
        grad[i, pos] = (e_pos / den - 1.0) / n_pos
        grad[i, neg] = np.exp(xn - neg_max) * float(np.sum(np.exp(neg_max - shift) / den)) / n_pos
    return total / x.shape[0], grad / x.shape[0]


def bias_gradients(monkeypatch, scope, bias):
    """Add ``bias`` to every analytic gradient that the gradcheck cases of ``scope`` draw."""
    for name, (draws, tol, draw) in CASES[scope].items():
        def biased(rng, i, draw=draw):
            arrays, objective, grads = draw(rng, i)
            return arrays, objective, tuple(g + bias for g in grads)

        monkeypatch.setitem(CASES[scope], name, (draws, tol, biased))
