"""Loss functions for multi-label classification.

Two pieces, each over an (N, C) batch, returning the mean per-sample loss
with the gradient of that mean:

* ``sigmoid_bce_batch`` - per-class sigmoid binary cross-entropy summed over
  classes, with the classic logit-space gradient z_c - y_c.
* ``msml_batch`` - the multi-label softmax loss: for each positive class, a
  softmax restricted to that positive against all negative classes; a
  sample's loss is the mean negative log of those restricted probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .ops import sigmoid

FLOAT = np.float64


@dataclass(frozen=True)
class LossWeights:
    """Weights of the composite objective alpha * (msml + ce) + beta * fce; defaults follow the training recipe."""

    alpha: float = 0.2
    beta: float = 0.6

    def __post_init__(self):
        for key in ("alpha", "beta"):
            if not 0.0 <= getattr(self, key) < np.inf:
                raise ConfigError(f"loss weight {key} must be finite and nonnegative, got {self}")


def _check_pair(logits, labels):
    logits = np.asarray(logits, dtype=FLOAT)
    labels = np.asarray(labels)
    if logits.shape != labels.shape:
        raise DimensionError.mismatch("logits vs labels", logits.shape, labels.shape)
    return logits, labels


def sigmoid_bce_batch(logits, labels):
    """Mean per-sample sigmoid BCE over an (N, C) batch, with its gradient.

    A sample's loss is the sum over classes of -[y log z + (1-y) log(1-z)],
    z = sigmoid(logit), computed in the log-sum form max(x, 0) - x*y +
    log(1 + exp(-|x|)) so a saturated sigmoid never reaches log(). The
    gradient of a sample's loss is z_c - y_c.
    """
    x, y = _check_pair(logits, labels)
    y = y.astype(FLOAT)
    n = x.shape[0]
    loss = float(np.sum(np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x))))) / n
    return loss, (sigmoid(x) - y) / n


def msml_batch(logits, labels):
    """Mean per-sample multi-label softmax loss over an (N, C) batch, with its gradient.

    With positives Y and negatives N of a row, each positive l gets the
    restricted probability p_l = exp(x_l) / (exp(x_l) + sum_{k in N} exp(x_k))
    and the row's loss is -(1/|Y|) sum_l log p_l. A row with no positive or no
    negative has zero loss and zero gradient. Each positive is shifted by
    max(x_l, largest negative logit of its row), so arbitrarily large logits
    stay finite.
    """
    x, y = _check_pair(logits, labels)
    n = x.shape[0]
    grad = np.zeros_like(x)
    pos = y == 1
    n_pos = pos.sum(axis=1)
    rows = (n_pos > 0) & (n_pos < x.shape[1])
    x, pos, n_pos = x[rows], pos[rows], n_pos[rows, None]
    neg_max = np.max(x, axis=1, where=~pos, initial=-np.inf, keepdims=True)
    # every negative is at most neg_max, so its shift is neg_max and e holds
    # exp(x_k - neg_max) on negatives and exp(x_l - shift_l) on positives
    shift = np.maximum(x, neg_max)
    e = np.exp(x - shift)
    e_top = np.exp(neg_max - shift)
    den = e + e_top * np.sum(e, axis=1, where=~pos, keepdims=True)
    loss = float(np.sum(-np.sum(x - shift - np.log(den), axis=1, where=pos, keepdims=True) / n_pos))
    # For negative k: (1/|Y|) sum_l exp(x_k) / (exp(x_l) + S); factor the
    # common exp(x_k - neg_max) out of the sum over positives.
    d_neg = e * np.sum(e_top / den, axis=1, where=pos, keepdims=True)
    grad[rows] = np.where(pos, e / den - 1.0, d_neg) / n_pos
    return loss / n, grad / n
