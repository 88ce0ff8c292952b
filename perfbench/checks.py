"""Correctness checks on the outputs of msml commands.

Each check recomputes a result apart from the program, or tests a property
the method must have; none compares against a stored copy of an earlier
output. Each returns a list of failure messages, empty when the check holds.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

AUC_TOL = 1e-12
LOSS_RTOL = 1e-10
GRAD_RTOL = 1e-6
FD_STEP = 1e-6
CHANCE_MARGIN = 0.1
BINOMIAL_SIGMAS = 5.0
IMAGES_HEADER_BYTES = 24  # magic MSMD0001 + four uint32


# ---------------------------------------------------------------------------
# AUC by brute-force pair counting
# ---------------------------------------------------------------------------

def pair_auc(scores, labels):
    """(#concordant + 0.5 #tied) / (#pos #neg) over every positive-negative pair."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos, neg = scores[labels == 1], scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        return None
    greater = np.count_nonzero(pos[:, None] > neg[None, :])
    tied = np.count_nonzero(pos[:, None] == neg[None, :])
    return (greater + 0.5 * tied) / (pos.size * neg.size)


def _mean_defined(values):
    defined = [v for v in values if v is not None]
    return float(np.mean(defined)) if defined else None


def expected_report(scores, labels):
    """Per-class, macro, D-AUC and N-AUC of a score matrix, by pair counting."""
    labels = np.asarray(labels)
    classes = range(labels.shape[1])
    per_class = [pair_auc(scores[:, c], labels[:, c]) for c in classes]
    diseased = labels.sum(axis=1) > 0
    normal = ~diseased
    d_auc = _mean_defined([pair_auc(scores[diseased, c], labels[diseased, c]) for c in classes])
    n_auc_values = []
    for c in classes:
        keep = (labels[:, c] == 1) | normal
        n_auc_values.append(pair_auc(scores[keep, c], labels[keep, c]))
    return {
        "per_class_auc": per_class,
        "macro_auc": _mean_defined(per_class),
        "d_auc": d_auc,
        "n_auc": _mean_defined(n_auc_values) if normal.any() else None,
    }


def _close(a, b, tol):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


def check_report(report, scores, labels):
    """The report's AUCs equal pair-counted AUCs of the scores, to AUC_TOL."""
    want = expected_report(scores, labels)
    errors = []
    got_pc, want_pc = report.get("per_class_auc", []), want["per_class_auc"]
    if len(got_pc) != len(want_pc):
        return [f"report has {len(got_pc)} per-class AUCs, expected {len(want_pc)}"]
    for c, (g, w) in enumerate(zip(got_pc, want_pc)):
        if not _close(g, w, AUC_TOL):
            errors.append(f"class {c} AUC {g} != pair-counted {w}")
    for key in ("macro_auc", "d_auc", "n_auc"):
        if not _close(report.get(key), want[key], AUC_TOL):
            errors.append(f"{key} {report.get(key)} != pair-counted {want[key]}")
    return errors


def check_identical(digests_by_output):
    """Commands run with identical inputs wrote byte-identical files."""
    return [f"{path}: identical commands wrote {len(d)} different files"
            for path, d in sorted(digests_by_output.items()) if len(d) != 1]


def check_learning(macro_auc):
    """The primary head ranks better than chance by CHANCE_MARGIN."""
    if macro_auc is None or not macro_auc > 0.5 + CHANCE_MARGIN:
        return [f"test macro AUC {macro_auc} is not above {0.5 + CHANCE_MARGIN}"]
    return []


def check_same_scores(pooled, single):
    """Scores from the thread pool are bit-identical to single-threaded scores."""
    errors = []
    for head in sorted(set(pooled) | set(single)):
        a, b = pooled.get(head), single.get(head)
        if a is None or b is None or a.shape != b.shape or a.tobytes() != b.tobytes():
            errors.append(f"{head} scores differ between the pool and MSML_THREADS=1")
    return errors


# ---------------------------------------------------------------------------
# losses against a direct implementation of the formulas
# ---------------------------------------------------------------------------

def direct_msml(logits, labels):
    """Mean over samples of -(1/|Y|) sum_{l in Y} log(e^x_l / (e^x_l + sum_{k in N} e^x_k))."""
    total = 0.0
    for x, y in zip(np.asarray(logits, dtype=np.float64), np.asarray(labels)):
        pos, neg = x[y == 1], x[y == 0]
        if pos.size == 0 or neg.size == 0:
            continue
        log_neg = np.logaddexp.reduce(neg)
        total += -np.mean([xl - np.logaddexp(xl, log_neg) for xl in pos])
    return total / len(logits)


def direct_bce(logits, labels):
    """Mean over samples of sum_c -[y log s(x) + (1 - y) log(1 - s(x))]."""
    x = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    log_s = -np.logaddexp(0.0, -x)  # log s(x), exact for large |x|
    log_1ms = -np.logaddexp(0.0, x)  # log(1 - s(x))
    return float(np.sum(-(y * log_s + (1.0 - y) * log_1ms))) / len(x)


def central_differences(f, x, step=FD_STEP):
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        old = x[i]
        x[i] = old + step
        up = f(x)
        x[i] = old - step
        down = f(x)
        x[i] = old
        grad[i] = (up - down) / (2.0 * step)
    return grad


def check_losses(logits_by_loss, labels, msml_batch, sigmoid_bce_batch):
    """Program losses equal the formulas; the MSML gradient equals central differences.

    ``logits_by_loss`` maps "msml" and "bce" to lists of logit matrices.
    """
    errors = []
    for logits in logits_by_loss["msml"]:
        value, grad = msml_batch(logits, labels)
        want = direct_msml(logits, labels)
        if not math.isclose(value, want, rel_tol=LOSS_RTOL, abs_tol=LOSS_RTOL):
            errors.append(f"msml_batch {value} != direct formula {want}")
        numeric = central_differences(lambda z: direct_msml(z, labels), logits)
        scale = max(np.abs(numeric).max(), np.abs(grad).max(), 1e-8)
        err = np.abs(grad - numeric).max() / scale
        if not err <= GRAD_RTOL:
            errors.append(f"msml_batch gradient off central differences by {err:.2e}")
    for logits in logits_by_loss["bce"]:
        value, _ = sigmoid_bce_batch(logits, labels)
        want = direct_bce(logits, labels)
        if not math.isclose(value, want, rel_tol=LOSS_RTOL, abs_tol=LOSS_RTOL):
            errors.append(f"sigmoid_bce_batch {value} != direct formula {want}")
    return errors


# ---------------------------------------------------------------------------
# training history
# ---------------------------------------------------------------------------

def check_history(text, epochs, initial_lr):
    """Every cell parses as a float; lr follows initial * 0.1 ** (epoch // 3)."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or "lr" not in rows[0] or "epoch" not in rows[0]:
        return ["history.csv has no epoch and lr columns"]
    header, body = rows[0], rows[1:]
    errors = []
    if len(body) != epochs:
        errors.append(f"history.csv has {len(body)} rows for {epochs} epochs")
    for r, row in enumerate(body):
        try:
            cells = dict(zip(header, (float(v) for v in row), strict=True))
        except ValueError as exc:
            errors.append(f"history.csv row {r + 2}: {exc}")
            continue
        want = initial_lr * 0.1 ** (int(cells["epoch"]) // 3)
        if not math.isclose(cells["lr"], want, rel_tol=1e-12):
            errors.append(f"history.csv row {r + 2}: lr {cells['lr']} != {want}")
    return errors


# ---------------------------------------------------------------------------
# generated datasets
# ---------------------------------------------------------------------------

def fold_labels(directory, fold):
    """The 0/1 label rows of one fold, read from labels.csv and splits.json."""
    directory = Path(directory)
    rows = list(csv.reader(io.StringIO((directory / "labels.csv").read_text())))[1:]
    idx = json.loads((directory / "splits.json").read_text())[fold]
    return np.array([[int(v) for v in rows[i][2:]] for i in idx], dtype=np.int64)


def implied_prevalence(spec):
    """P(class c positive) under the generator's sampling rule.

    A sample is all-normal with probability normal_fraction; otherwise class
    c is positive when its uniform draw falls below its prevalence, raised by
    a co-occurrence boost when the pair's first class is positive by its own
    draw. The draws are independent, so a boost adds prevalence[a] * boost.
    """
    q = np.array(spec["class_prevalence"], dtype=np.float64)
    for a, b, boost in spec["cooccurrence_pairs"]:
        q[b] += spec["class_prevalence"][a] * boost
    return (1.0 - spec["normal_fraction"]) * q


def check_dataset(directory, spec):
    """Size of images.bin, rows of labels.csv, the folds, and class prevalences."""
    directory = Path(directory)
    n, ch, (h, w) = spec["num_samples"], spec["channels"], spec["image_size"]
    errors = []
    size = (directory / "images.bin").stat().st_size
    if size != IMAGES_HEADER_BYTES + 4 * n * ch * h * w:
        errors.append(f"images.bin has {size} bytes, expected {IMAGES_HEADER_BYTES + 4 * n * ch * h * w}")
    rows = list(csv.reader(io.StringIO((directory / "labels.csv").read_text())))[1:]
    if len(rows) != n:
        return errors + [f"labels.csv has {len(rows)} rows for {n} samples"]
    groups = np.array([int(r[1]) for r in rows])
    labels = np.array([[int(v) for v in r[2:]] for r in rows])
    folds = json.loads((directory / "splits.json").read_text())
    members = sorted(i for idx in folds.values() for i in idx)
    if members != list(range(n)):
        errors.append("the folds do not partition the sample indices")
    seen = {}
    for name, idx in folds.items():
        for g in set(groups[np.asarray(idx, dtype=np.int64)].tolist()):
            if seen.setdefault(g, name) != name:
                errors.append(f"group {g} falls in folds {seen[g]} and {name}")
    p = implied_prevalence(spec)
    counts = labels.sum(axis=0)
    for c, (count, pc) in enumerate(zip(counts, p)):
        tolerance = BINOMIAL_SIGMAS * math.sqrt(n * pc * (1.0 - pc))
        if abs(count - n * pc) > tolerance:
            errors.append(f"class {c}: {count} positives, expected {n * pc:.1f} +- {tolerance:.1f}")
    return errors
