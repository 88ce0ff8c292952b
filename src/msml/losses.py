"""Loss functions for multi-label classification.

Three pieces:

* ``sigmoid_bce`` - per-class sigmoid binary cross-entropy summed over
  classes, with the classic logit-space gradient z_c - y_c.
* ``msml`` - the multi-label softmax loss: for each positive class, a softmax
  restricted to that positive against all negative classes; the loss is the
  mean negative log of those restricted probabilities.
* ``total_loss`` - the weighted composite alpha * (msml + ce) + beta * fce.

Per-sample functions take 1-d logits/labels; ``*_batch`` variants take
(N, C) arrays and return the mean loss with the gradient of that mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .ops import sigmoid

FLOAT = np.float64


@dataclass(frozen=True)
class LossWeights:
    """Weights of the composite objective. Defaults follow the training recipe."""

    alpha: float = 0.2
    beta: float = 0.6

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ParameterError(f"loss weights must be nonnegative, got {self}")


def _check_pair(logits, labels):
    logits = np.asarray(logits, dtype=FLOAT)
    labels = np.asarray(labels)
    if logits.shape != labels.shape:
        raise DimensionError.mismatch("logits vs labels", logits.shape, labels.shape)
    return logits, labels


def sigmoid_bce(logits, labels):
    """Sum over classes of -[y log z + (1-y) log(1-z)], z = sigmoid(logit).

    Computed in the log-sum form max(x, 0) - x*y + log(1 + exp(-|x|)) so a
    saturated sigmoid never reaches log(). Returns (loss, grad) with
    grad[c] = z_c - y_c.
    """
    loss, grad = sigmoid_bce_batch(np.asarray(logits)[None], np.asarray(labels)[None])
    return loss, grad[0]


def msml(logits, labels):
    """Multi-label softmax loss of one sample.

    With positives Y and negatives N, each positive l gets the restricted
    probability p_l = exp(x_l) / (exp(x_l) + sum_{k in N} exp(x_k)) and the
    loss is -(1/|Y|) sum_l log p_l. Empty Y or empty N give zero loss and
    zero gradient. Exponentials are shifted by a per-positive max so
    arbitrarily large logits stay finite.
    """
    x, y = _check_pair(logits, labels)
    pos = y == 1
    neg = ~pos
    n_pos = int(pos.sum())
    grad = np.zeros_like(x)
    if n_pos == 0 or n_pos == x.size:
        return 0.0, grad
    xn = x[neg]
    neg_max = xn.max()
    s_neg = np.exp(xn - neg_max).sum()
    xp = x[pos]
    shift = np.maximum(xp, neg_max)
    e_pos = np.exp(xp - shift)
    den = e_pos + np.exp(neg_max - shift) * s_neg
    loss = float(-np.sum((xp - shift) - np.log(den)) / n_pos)
    p = e_pos / den
    grad[pos] = (p - 1.0) / n_pos
    # For negative k: (1/|Y|) sum_l exp(x_k) / (exp(x_l) + S); factor the
    # common exp(x_k - neg_max) out of the sum over positives.
    grad[neg] = np.exp(xn - neg_max) * float(np.sum(np.exp(neg_max - shift) / den)) / n_pos
    return loss, grad


def total_loss(ce, msml_value, fce, weights=LossWeights()):
    """Composite objective alpha * (msml + ce) + beta * fce."""
    for name, v in (("ce", ce), ("msml", msml_value), ("fce", fce)):
        if not np.isfinite(v):
            raise ParameterError(f"total_loss got non-finite {name}={v}")
    return weights.alpha * (msml_value + ce) + weights.beta * fce


def sigmoid_bce_batch(logits, labels):
    """Mean per-sample sigmoid BCE over an (N, C) batch, with its gradient."""
    x, y = _check_pair(logits, labels)
    y = y.astype(FLOAT)
    n = x.shape[0]
    loss = float(np.sum(np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x))))) / n
    return loss, (sigmoid(x) - y) / n


def msml_batch(logits, labels):
    """Mean per-sample msml over an (N, C) batch, with its gradient."""
    x, y = _check_pair(logits, labels)
    n = x.shape[0]
    total = 0.0
    grad = np.zeros_like(x)
    for i in range(n):
        loss_i, grad_i = msml(x[i], y[i])
        total += loss_i
        grad[i] = grad_i
    return total / n, grad / n
