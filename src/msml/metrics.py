"""ROC-AUC evaluation suite: per-class AUC plus macro, weighted, and the
disease-vs-disease / disease-vs-normal aggregates.

``roc_auc`` is the Mann-Whitney statistic computed by rank sum with average
ranks on ties, so it equals the brute-force pairwise count
(#concordant + 0.5 * #tied) / (#pos * #neg) exactly, not just approximately.
Per-class AUCs that are undefined (a column with a single class) are skipped
from aggregates with a warning and reported as nulls.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

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
    per_class_auc: list  # one entry per class, None where undefined
    macro_auc: float | None
    w_auc: float | None
    d_auc: float | None
    n_auc: float | None
    class_weights: list
    skipped_classes: dict

    def to_json(self) -> str:
        payload = {
            "per_class_auc": self.per_class_auc,
            "macro_auc": self.macro_auc,
            "w_auc": self.w_auc,
            "d_auc": self.d_auc,
            "n_auc": self.n_auc,
            "class_weights": self.class_weights,
            "skipped_classes": self.skipped_classes,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MetricsReport":
        d = json.loads(text)
        return cls(
            per_class_auc=d["per_class_auc"],
            macro_auc=d["macro_auc"],
            w_auc=d["w_auc"],
            d_auc=d["d_auc"],
            n_auc=d["n_auc"],
            class_weights=d["class_weights"],
            skipped_classes=d["skipped_classes"],
        )


def _average_ranks(values):
    """1-based ranks with tied values sharing the average of their ranks.

    A run of equal values in stable sorted order spans ranks start+1..end and
    gets their mean; each NaN is a run of its own, placed last in input order.
    """
    values = np.asarray(values, dtype=FLOAT)
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


def per_class_auc(sm: ScoreMatrix):
    """Per-class AUC list with None for undefined classes (and a warning)."""
    values = []
    skipped = []
    for c in range(sm.num_classes):
        try:
            values.append(roc_auc(sm.scores[:, c], sm.labels[:, c]))
        except UndefinedMetricError:
            warnings.warn(f"AUC undefined for {sm.class_names[c]}; skipping", stacklevel=2)
            values.append(None)
            skipped.append(c)
    return values, skipped


def macro_auc(sm: ScoreMatrix):
    """Unweighted mean of the defined per-class AUCs."""
    return _mean_defined(per_class_auc(sm)[0])


def _mean_defined(values):
    defined = [v for v in values if v is not None]
    if not defined:
        raise UndefinedMetricError("macro_auc: no class has both positives and negatives")
    return float(np.mean(defined))


def class_pos_weights(labels):
    """w_c = positive count of class c / total positive labels."""
    pos_counts = np.asarray(labels).sum(axis=0).astype(FLOAT)
    total = pos_counts.sum()
    if total == 0:
        raise UndefinedMetricError("weighted_auc: no positive labels at all")
    return pos_counts / total


def weighted_auc(sm: ScoreMatrix):
    """Prevalence-weighted mean AUC; weights renormalized over defined classes."""
    return _weighted_mean(per_class_auc(sm)[0], sm.labels)


def _weighted_mean(values, labels):
    weights = class_pos_weights(labels)
    mask = np.array([v is not None for v in values])
    w = weights[mask]
    if w.sum() == 0:
        raise UndefinedMetricError("weighted_auc: no defined class carries positive weight")
    vals = np.array([v for v in values if v is not None], dtype=FLOAT)
    return float(np.dot(w, vals) / w.sum())


def disease_vs_disease_auc(sm: ScoreMatrix):
    """Mean per-class AUC restricted to samples with at least one positive label."""
    return macro_auc(_diseased(sm))


def _diseased(sm: ScoreMatrix):
    any_pos = np.asarray(sm.labels).sum(axis=1) > 0
    sub = ScoreMatrix(sm.scores[any_pos], sm.labels[any_pos], sm.class_names)
    if sub.scores.shape[0] == 0:
        raise UndefinedMetricError("d_auc: no sample has a positive label")
    return sub


def normal_vs_disease_auc(sm: ScoreMatrix):
    """Mean per-class AUC of class positives against strictly all-normal samples."""
    labels = np.asarray(sm.labels)
    normal = labels.sum(axis=1) == 0
    if not normal.any():
        raise UndefinedMetricError("n_auc: no all-normal sample in the split")
    values = []
    for c in range(sm.num_classes):
        pos = labels[:, c] == 1
        if not pos.any():
            warnings.warn(f"n_auc undefined for {sm.class_names[c]}; skipping", stacklevel=2)
            continue
        scores = np.concatenate([sm.scores[pos, c], sm.scores[normal, c]])
        ys = np.concatenate([np.ones(int(pos.sum())), np.zeros(int(normal.sum()))])
        values.append(roc_auc(scores, ys))
    if not values:
        raise UndefinedMetricError("n_auc: no class has positive samples")
    return float(np.mean(values))


def build_report(sm: ScoreMatrix) -> MetricsReport:
    """Assemble every metric; undefined aggregates become None with a warning."""
    values, skipped = per_class_auc(sm)
    skipped_classes = {"per_class": skipped, "d_auc": [], "n_auc": []}

    try:
        macro = _mean_defined(values)
    except UndefinedMetricError:
        warnings.warn("macro_auc undefined: every class skipped", stacklevel=2)
        macro = None

    try:
        w_auc_val = _weighted_mean(values, sm.labels)
    except UndefinedMetricError as exc:
        warnings.warn(f"w_auc undefined: {exc}", stacklevel=2)
        w_auc_val = None

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            d_values, d_skipped = per_class_auc(_diseased(sm))
        d_auc_val = _mean_defined(d_values)
        skipped_classes["d_auc"] = d_skipped
    except UndefinedMetricError as exc:
        warnings.warn(f"d_auc undefined: {exc}", stacklevel=2)
        d_auc_val = None

    try:
        n_auc_val = normal_vs_disease_auc(sm)
    except UndefinedMetricError as exc:
        warnings.warn(f"n_auc undefined: {exc}", stacklevel=2)
        n_auc_val = None
    labels = np.asarray(sm.labels)
    skipped_classes["n_auc"] = [c for c in range(sm.num_classes) if labels[:, c].sum() == 0]

    try:
        weights = class_pos_weights(labels).tolist()
    except UndefinedMetricError:
        weights = [0.0] * sm.num_classes

    return MetricsReport(
        per_class_auc=values,
        macro_auc=macro,
        w_auc=w_auc_val,
        d_auc=d_auc_val,
        n_auc=n_auc_val,
        class_weights=weights,
        skipped_classes=skipped_classes,
    )
