"""ROC-AUC evaluation suite: per-class AUC plus macro, weighted, and the
disease-vs-disease / disease-vs-normal aggregates.

``roc_auc`` is the Mann-Whitney statistic computed by rank sum with average
ranks on ties, so it equals the brute-force pairwise count
(#concordant + 0.5 * #tied) / (#pos * #neg) exactly; a NaN or infinite score
makes it undefined. ``build_report``, which ``msml eval`` writes, is the one
implementation of the aggregates. An undefined per-class AUC (a single-class
column or a non-finite score) is skipped from them, and an undefined value is
reported as null, each with a warning that names it.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DimensionError, UndefinedMetricError

FLOAT = np.float64


@dataclass
class ScoreMatrix:
    """Per-sample, per-class scores in [0, 1] with binary ground truth."""

    scores: np.ndarray  # (N, C)
    labels: np.ndarray  # (N, C) in {0, 1}
    class_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=FLOAT)
        self.labels = np.asarray(self.labels)
        if self.scores.shape != self.labels.shape or self.scores.ndim != 2:
            raise DimensionError.mismatch("scores vs labels", self.scores.shape, self.labels.shape)
        if not self.class_names:
            self.class_names = [f"class_{c}" for c in range(self.scores.shape[1])]
        if len(self.class_names) != self.scores.shape[1]:
            raise DimensionError.mismatch("class names", (len(self.class_names),), (self.scores.shape[1],))

    @property
    def num_classes(self):
        return self.scores.shape[1]


@dataclass
class MetricsReport:
    """Every metric of one scored split; ``MetricsReport(**json.loads(text))`` reads it back."""

    per_class_auc: list  # one entry per class, None where undefined
    macro_auc: float | None
    w_auc: float | None
    d_auc: float | None
    n_auc: float | None
    class_weights: list
    skipped_classes: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _average_ranks(values):
    """1-based ranks with tied values sharing the average of their ranks.

    A run of equal values in stable sorted order spans ranks start+1..end and
    gets their mean; each NaN is a run of its own, placed last in input order.
    """
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size, dtype=FLOAT)
    ranks[order] = np.repeat(ends - (ends - starts - 1) / 2.0, ends - starts)
    return ranks


def roc_auc(scores, labels):
    """Probability a positive outranks a negative, ties counted half.

    Rank-sum form of the Mann-Whitney statistic, O(N log N).
    """
    scores = np.asarray(scores, dtype=FLOAT)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DimensionError.mismatch("scores vs labels", scores.shape, labels.shape)
    if not np.isfinite(scores).all():
        raise UndefinedMetricError("roc_auc needs finite scores, got a NaN or an infinity")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"roc_auc needs both classes, got {n_pos} positives and {n_neg} negatives"
        )
    ranks = _average_ranks(scores)
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _class_aucs(sm: ScoreMatrix, rows):
    """Each class c's AUC over the samples ``rows(c)`` selects, None where it is
    undefined, and a dict from each undefined class to the reason."""
    values, undefined = [], {}
    for c in range(sm.num_classes):
        keep = rows(c)
        try:
            values.append(roc_auc(sm.scores[keep, c], sm.labels[keep, c]))
        except UndefinedMetricError as exc:
            values.append(None)
            undefined[c] = exc
    return values, undefined


def per_class_auc(sm: ScoreMatrix):
    """Per-class AUC list with None for undefined classes (and a warning)."""
    values, undefined = _class_aucs(sm, lambda c: slice(None))
    for c, exc in undefined.items():
        warnings.warn(f"AUC undefined for {sm.class_names[c]} ({exc}); skipping", stacklevel=2)
    return values, list(undefined)


def macro_auc(sm: ScoreMatrix):
    """Unweighted mean of the defined per-class AUCs."""
    return _mean_defined(per_class_auc(sm)[0])


def _mean_defined(values, undefined_why="no class has both positives and negatives"):
    defined = [v for v in values if v is not None]
    if not defined:
        raise UndefinedMetricError(undefined_why)
    return float(np.mean(defined))


def class_pos_weights(labels):
    """w_c = positive count of class c / total positive labels."""
    pos_counts = np.asarray(labels).sum(axis=0).astype(FLOAT)
    total = pos_counts.sum()
    if total == 0:
        raise UndefinedMetricError("no positive labels at all")
    return pos_counts / total


def _weighted_mean(values, labels):
    """Prevalence-weighted mean AUC; weights renormalized over defined classes."""
    weights = class_pos_weights(labels)
    mask = np.array([v is not None for v in values])
    w = weights[mask]
    if w.sum() == 0:
        raise UndefinedMetricError("no defined class carries positive weight")
    vals = np.array([v for v in values if v is not None], dtype=FLOAT)
    return float(np.dot(w, vals) / w.sum())


def _disease_vs_disease(sm: ScoreMatrix, skipped_classes):
    """Mean per-class AUC over the samples with a positive label; the classes
    undefined there go, unwarned, to ``skipped_classes["d_auc"]``."""
    any_pos = sm.labels.sum(axis=1) > 0
    if not any_pos.any():
        raise UndefinedMetricError("no sample has a positive label")
    values, undefined = _class_aucs(sm, lambda c: any_pos)
    skipped_classes["d_auc"] = list(undefined)
    return _mean_defined(values)


def _normal_vs_disease(sm: ScoreMatrix, skipped_classes):
    """Mean per-class AUC of the class's positives against strictly all-normal
    samples. ``skipped_classes["n_auc"]`` already holds the classes without
    positives; it becomes every class undefined here, adding those with a
    non-finite score."""
    normal = sm.labels.sum(axis=1) == 0
    if not normal.any():
        raise UndefinedMetricError("no all-normal sample in the split")
    values, undefined = _class_aucs(sm, lambda c: normal | (sm.labels[:, c] == 1))
    skipped_classes["n_auc"] = list(undefined)
    return _mean_defined(values, "no class has positive samples and finite scores")


def _or_none(aggregate, compute):
    """``compute()``, or None with a warning naming ``aggregate`` if it is undefined."""
    try:
        return compute()
    except UndefinedMetricError as exc:
        warnings.warn(f"{aggregate} undefined: {exc}", stacklevel=3)
        return None


def build_report(sm: ScoreMatrix) -> MetricsReport:
    """Assemble every metric; undefined aggregates become None with a warning."""
    values, skipped = per_class_auc(sm)
    has_pos = sm.labels.sum(axis=0) > 0
    skipped_classes = {"per_class": skipped, "d_auc": [], "n_auc": np.flatnonzero(~has_pos).tolist()}
    return MetricsReport(
        per_class_auc=values,
        macro_auc=_or_none("macro_auc", lambda: _mean_defined(values)),
        w_auc=_or_none("w_auc", lambda: _weighted_mean(values, sm.labels)),
        d_auc=_or_none("d_auc", lambda: _disease_vs_disease(sm, skipped_classes)),
        n_auc=_or_none("n_auc", lambda: _normal_vs_disease(sm, skipped_classes)),
        class_weights=_or_none("class_weights", lambda: class_pos_weights(sm.labels).tolist())
        or [0.0] * sm.num_classes,
        skipped_classes=skipped_classes,
    )
