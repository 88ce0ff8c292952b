"""Training loop, the three optimization strategies, and fold scoring.

Strategies:

* ``global``: every parameter is updated against the full composite loss
  from the first step.
* ``local``: phase 1 (first two thirds of the epochs) trains the two streams
  against their own CE / MSML losses with the bilinear head left untouched;
  phase 2 adds the FCE term and fine-tunes everything.
* ``local_fixed``: like ``local``, but phase 2 updates only the bilinear
  head; both backbones and the stream heads stay frozen.

Freezing is implemented by handing the optimizer only the active parameter
subset, so frozen tensors are bit-identical across a phase. Every run is
deterministic from (model seed, train seed, data, config).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dataset import crop_batch
from .errors import ConfigError, DataError, NumericalError, UndefinedMetricError
from .losses import msml_batch, sigmoid_bce_batch
from .metrics import ScoreMatrix, macro_auc
from .model import Adam, lr_schedule, predict

STRATEGIES = ("global", "local", "local_fixed")

HISTORY_COLUMNS = ("epoch", "lr", "alpha_ce", "alpha_msml", "beta_fce", "val_macro_auc")


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
        values = (self.lr, self.alpha_ce, self.alpha_msml, self.beta_fce, self.val_macro_auc)
        return [self.epoch] + [repr(float(v)) for v in values]


@dataclass
class FoldData:
    """One fold's normalized images (N, ch, H, W) and labels (N, C)."""

    images: np.ndarray
    labels: np.ndarray

    def __len__(self):
        return self.images.shape[0]


def _phases(strategy, epochs, model):
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}; choose one of {STRATEGIES}")
    groups = model.param_groups()
    all_params = model.params()
    if model.kind == "baseline":
        return [(epochs, ("ce",), all_params, 1.0, 0.0)]
    w = model.loss_weights
    if strategy == "global":
        return [(epochs, ("ce", "msml", "fce"), all_params, w.alpha, w.beta)]
    phase1 = max(1, (2 * epochs) // 3)
    phase2 = epochs - phase1
    plan = [(phase1, ("ce", "msml"), groups["backbones"] + groups["stream_heads"], w.alpha, 0.0)]
    if phase2 > 0:
        if strategy == "local":
            plan.append((phase2, ("ce", "msml", "fce"), all_params, w.alpha, w.beta))
        else:  # local_fixed
            plan.append((phase2, ("ce", "msml", "fce"), groups["bilinear_head"], w.alpha, w.beta))
    return plan


def _losses_and_grads(out, labels, active, alpha, beta):
    """Component losses plus the weighted head gradients for backward."""
    ce_val = ms_val = fce_val = 0.0
    d_ce = d_ms = d_fce = None
    if out.logits_ce is not None:
        ce_val, g = sigmoid_bce_batch(out.logits_ce, labels)
        if "ce" in active:
            d_ce = alpha * g
    if out.logits_msml is not None:
        ms_val, g = msml_batch(out.logits_msml, labels)
        if "msml" in active:
            d_ms = alpha * g
    if out.logits_fce is not None:
        fce_val, g = sigmoid_bce_batch(out.logits_fce, labels)
        if "fce" in active and beta > 0.0:
            d_fce = beta * g
    return (ce_val, ms_val, fce_val), (d_ce, d_ms, d_fce)


def train(model, train_fold: FoldData, val_fold: FoldData, *, strategy="global",
          epochs=6, batch_size=16, seed=0, initial_lr=1e-4, crop_size=None,
          on_phase_end=None):
    """Train in place; returns the per-epoch history as a list of EpochStats.

    ``on_phase_end(phase_index, model)`` fires after each strategy phase,
    which is how tests observe the parameter state at phase boundaries.
    """
    if len(train_fold) == 0 or len(val_fold) == 0:
        raise DataError("train and validation folds must be nonempty")
    crop_size = model.cfg.input_size[0] if crop_size is None else crop_size
    rng = np.random.default_rng([seed, 17])
    n = len(train_fold)
    history = []
    epoch = 0
    for phase_index, (phase_epochs, active, params, alpha, beta) in enumerate(
        _phases(strategy, epochs, model)
    ):
        opt = Adam(params, lr=initial_lr)
        for _ in range(phase_epochs):
            lr = lr_schedule(initial_lr, epoch)
            order = rng.permutation(n)
            sums = np.zeros(3)
            steps = 0
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                xb = crop_batch(train_fold.images[idx], crop_size, training=True, rng=rng)
                out = model.forward(xb, training=True, seed=int(rng.integers(2**31)))
                (ce_val, ms_val, fce_val), grads = _losses_and_grads(
                    out, train_fold.labels[idx], active, alpha, beta
                )
                if not all(np.isfinite(v) for v in (ce_val, ms_val, fce_val)):
                    raise NumericalError(
                        f"non-finite loss ({ce_val}, {ms_val}, {fce_val}) "
                        f"at epoch {epoch}, step {steps}",
                        epoch=epoch, step=steps,
                    )
                model.zero_grads()
                model.backward(out.tape, *grads)
                opt.step(lr)
                sums += (alpha * ce_val, alpha * ms_val, beta * fce_val)
                steps += 1
            scores = score_fold(model, val_fold, crop_size=crop_size)
            try:
                val_auc = macro_auc(ScoreMatrix(scores[model.primary_head], val_fold.labels))
            except UndefinedMetricError:
                val_auc = float("nan")
            history.append(EpochStats(epoch, lr, *(sums / steps), val_auc))
            epoch += 1
        if on_phase_end is not None:
            on_phase_end(phase_index, model)
    return history


def _num_threads():
    env = os.environ.get("MSML_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"MSML_THREADS must be an integer, got {env!r}") from exc
    return os.cpu_count() or 1


def score_fold(model, fold: FoldData, crop_size=None, batch_size=64):
    """Eval-mode probabilities per head over a whole fold.

    Batches are pure forward passes, so they may run on a small thread pool
    (capped by MSML_THREADS); results are merged in batch order and are
    identical at any thread count.
    """
    if len(fold) == 0:
        raise DataError("cannot score an empty fold")
    crop_size = model.cfg.input_size[0] if crop_size is None else crop_size
    xb = crop_batch(fold.images, crop_size, training=False)
    batches = [xb[i : i + batch_size] for i in range(0, xb.shape[0], batch_size)]

    def run(batch):
        return predict(model, batch)

    workers = min(_num_threads(), len(batches)) or 1
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, batches))
    else:
        results = [run(b) for b in batches]
    return {head: np.concatenate([r[head] for r in results]) for head in model.heads}
