"""Training loop, the three optimization strategies, and fold scoring.

Strategies:

* ``global``: every parameter is updated against the full composite loss
  from the first step.
* ``local``: phase 1 (first two thirds of the epochs) trains the two streams
  against their own CE / MSML losses with the bilinear head left untouched;
  phase 2 adds the FCE term and fine-tunes everything.
* ``local_fixed``: like ``local``, but phase 2 updates only the bilinear
  head; both backbones and the stream heads stay frozen.

The objective is alpha * (msml + ce) + beta * fce, with alpha and beta from
the LossWeights ``train`` receives; the baseline trains its one head at
weight 1. Each phase gives its heads their weights: a head left out, or
weighted 0, adds no gradient. Each phase hands the optimizer one slice of
the model's parameter vector: all of it, the part before the bilinear head,
or the bilinear head. So frozen parameters are bit-identical across a phase.
Every run is deterministic from (model seed, train seed, data, config).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .dataset import crop_batch
from .errors import ConfigError, DataError, NumericalError, UndefinedMetricError
from .losses import LossWeights, msml_batch, sigmoid_bce_batch
from .metrics import ScoreMatrix, macro_auc
from .model import Adam, _spread, lr_schedule, predict, worker_pool

STRATEGIES = ("global", "local", "local_fixed")

# Samples per forward pass when scoring a fold. Each scoring thread (the caller
# and each busy pool worker) holds one batch's standardized copy and its
# temporaries, and block 2's column matrix alone is 144 x (batch * 196)
# doubles: 3.6 MB at 16, 14.5 MB at 64. BLAS may round a GEMM's last bit
# differently at another row count, so every batch is run at this size.
SCORE_BATCH = 16


@dataclass
class EpochStats:
    epoch: int
    lr: float
    alpha_ce: float
    alpha_msml: float
    beta_fce: float
    val_macro_auc: float  # nan when undefined on the validation fold

    def row(self):
        # float() first: under numpy 2, repr of a numpy scalar is "np.float64(...)".
        return [self.epoch] + [repr(float(getattr(self, name))) for name in HISTORY_COLUMNS[1:]]


HISTORY_COLUMNS = tuple(f.name for f in fields(EpochStats))


@dataclass
class FoldData:
    """One fold's images (N, ch, H, W) as stored, float32 from a dataset, its
    int8 0/1 labels (N, C), and the train fold's per-channel ``mean`` and
    ``scale``, which ``standardized`` applies to each batch as it is drawn.
    The defaults keep every value's bits, for a fold standardized already."""

    images: np.ndarray
    labels: np.ndarray
    mean: np.ndarray | float = 0.0
    scale: np.ndarray | float = 1.0

    def __len__(self):
        return self.images.shape[0]

    def standardized(self, images):
        """A float64 copy of ``images`` (N, ch, h, w), minus ``mean`` and over ``scale`` per channel."""
        x = np.array(images, dtype=np.float64)
        x -= np.reshape(self.mean, (-1, 1, 1))
        x /= np.reshape(self.scale, (-1, 1, 1))
        return x


def _phases(strategy, epochs, model, weights):
    """(epochs, head -> loss weight, the slice of the parameter vector to update) for each phase of ``strategy``."""
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}; choose one of {STRATEGIES}")
    if model.kind == "baseline":
        return [(epochs, {"ce": 1.0}, slice(None))]
    streams = {"ce": weights.alpha, "msml": weights.alpha}
    full = {**streams, "fce": weights.beta}
    if strategy == "global":
        return [(epochs, full, slice(None))]
    phase1 = max(1, (2 * epochs) // 3)
    plan = [(phase1, streams, slice(None, model.bilinear_start))]
    if epochs > phase1:
        plan.append((epochs - phase1, full, slice(None) if strategy == "local" else slice(model.bilinear_start, None)))
    return plan


def _losses_and_grads(out, labels, weights):
    """Each head's loss, and for backward the logit gradients of the heads
    ``weights`` gives a weight above zero, scaled by that weight. The one place
    a head meets its loss: MSML for ``msml``, sigmoid BCE for ``ce`` and ``fce``."""
    losses, grads = {}, {}
    for head, logits in out.logits.items():
        # looked up per call, not held in a table, so a profiler that rebinds these names sees every call
        losses[head], g = (msml_batch if head == "msml" else sigmoid_bce_batch)(logits, labels)
        if weights.get(head, 0.0) > 0.0:
            grads[head] = weights[head] * g
    return losses, grads


def train(model, train_fold: FoldData, val_fold: FoldData, *, strategy="global", epochs=6,
          batch_size=16, seed=0, initial_lr=1e-4, weights=LossWeights()):
    """Train in place with loss weights ``weights``; returns the per-epoch
    history as a list of EpochStats. Each phase builds its own Adam."""
    if len(train_fold) == 0 or len(val_fold) == 0:
        raise DataError("train and validation folds must be nonempty")
    rng = np.random.default_rng([seed, 17])
    n = len(train_fold)
    history = []
    epoch = 0
    for phase_epochs, head_weights, part in _phases(strategy, epochs, model, weights):
        opt = Adam(model.slab.values[part], model.slab.grads[part])
        for _ in range(phase_epochs):
            lr = lr_schedule(initial_lr, epoch)
            order = rng.permutation(n)
            sums = np.zeros(3)
            steps = 0
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                xb = train_fold.standardized(crop_batch(train_fold.images[idx], model.cfg.input_size,
                                                        training=True, rng=rng))
                out = model.forward(xb, training=True, seed=int(rng.integers(2**31)))
                losses, grads = _losses_and_grads(out, train_fold.labels[idx], head_weights)
                if not all(np.isfinite(v) for v in losses.values()):
                    raise NumericalError(f"non-finite loss {losses} at epoch {epoch}, step {steps}", epoch=epoch, step=steps)
                model.zero_grads()
                model.backward(out.tape, grads)
                opt.step(lr)
                finite = np.isfinite(model.slab.values)
                if not finite.all():
                    raise NumericalError(f"non-finite parameter {model.slab.name_at(int(finite.argmin()))} after the "
                                         f"update at epoch {epoch}, step {steps}", epoch=epoch, step=steps)
                # the weighted loss of each column's head, 0 for a head absent or unweighted
                sums += [head_weights.get(head, 0.0) * losses.get(head, 0.0) for head in ("ce", "msml", "fce")]
                steps += 1
            scores = score_fold(model, val_fold)
            try:
                val_auc = macro_auc(ScoreMatrix(scores[model.primary_head], val_fold.labels))
            except UndefinedMetricError:
                val_auc = float("nan")
            history.append(EpochStats(epoch, lr, *(sums / steps), val_auc))
            epoch += 1
    return history


def score_fold(model, fold: FoldData):
    """Eval-mode probabilities per head over a whole fold.

    Batches are pure forward passes, cut into one contiguous share per pool
    worker (one with MSML_THREADS=1, never more than there are batches). This
    thread scores the last share while the pool scores the rest, so scoring
    runs on the threads training runs; each task standardizes its batches one
    at a time. Results are merged in batch order and are identical at any
    thread count. The last batch is padded to SCORE_BATCH rows with repeats
    of the fold's last sample, whose scores are dropped, so a sample's scores
    do not depend on the length of its fold or its place in it.
    """
    n = len(fold)
    if n == 0:
        raise DataError("cannot score an empty fold")
    xb = crop_batch(fold.images, model.cfg.input_size, training=False)
    batches = [xb[i : i + SCORE_BATCH] for i in range(0, n, SCORE_BATCH)]
    if n % SCORE_BATCH:
        batches[-1] = np.concatenate([batches[-1], np.repeat(xb[-1:], -n % SCORE_BATCH, axis=0)])

    def run(share):
        return lambda: [predict(model, fold.standardized(batch)) for batch in share]

    pool = worker_pool()
    k = 1 if pool is None else min(pool._max_workers, len(batches))
    cuts = [len(batches) * i // k for i in range(k + 1)]
    shares = [run(batches[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
    results = [r for share in _spread(pool, shares) for r in share]
    return {head: np.concatenate([r[head] for r in results])[:n] for head in model.heads}
