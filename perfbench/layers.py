"""Per-layer metrics from the spans of traced msml commands.

A layer is an ``msml`` module; a span is named ``<module>.<function>`` or
``<module>.<Class>.<method>`` (conv and pool spans add the block, ``.b1`` to
``.b3``). Every figure is per episode: the traced commands of one set-up
followed by one round of the workload.

Self time is computed per thread: a span's duration minus the durations of
its direct children on the same thread. Children on other threads (pool
tasks that name the span as their cause) run in parallel with it and are
not subtracted, so summed self time can exceed wall time only by real
parallelism.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass, field

ID, NAME, START, END, THREAD, CAUSE, TAG = range(7)

_BLOCK_FNS = ("conv2d_forward", "conv2d_backward", "maxpool2d_forward", "maxpool2d_backward")
_TIMED = (
    [f"ops.{fn}.b{b}" for fn in _BLOCK_FNS for b in (1, 2, 3)]
    + [f"ops.{fn}" for fn in ("relu_forward", "relu_backward", "affine_forward",
                              "affine_backward", "dropout_forward", "sigmoid")]
    + ["losses.msml_batch", "losses.msml", "losses.sigmoid_bce_batch"]
    + [f"bilinear.{fn}" for fn in ("bilinear_pool_batch", "bilinear_pool_backward", "signed_sqrt",
                                   "signed_sqrt_backward", "l2_normalize_batch",
                                   "l2_normalize_backward")]
    + ["model.Adam.step"]
    + [f"model.{cls}.{m}" for cls in ("Conv2d", "Backbone", "TwoStreamModel", "BaselineModel")
       for m in ("forward", "backward")]
    + ["model.predict", "model.model_from_checkpoint"]
    + ["metrics.roc_auc"]
    + [f"dataset.{fn}" for fn in ("generate", "save", "split", "load", "normalize", "crop_batch")]
    + ["cli.load_folds"]
)
_MODEL_PASSES = {f"model.{cls}.{m}" for cls in ("TwoStreamModel", "BaselineModel")
                 for m in ("forward", "backward")}
_STREAM_PASSES = {"model.Backbone.forward", "model.Backbone.backward"}
LAYERS = ("ops", "losses", "bilinear", "model", "train", "metrics", "dataset", "cli")

# (metric name, unit); BENCHMARK.json lists the same names in the same order.
PER_LAYER = (
    [(f"{n}.{kind}", unit) for n in _TIMED for kind, unit in (("self_s", "s"), ("calls", "count"))]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("model.predict.ms_p50", "ms"),
        ("model.stream_concurrency", "ratio"),
        ("train.step_ms.p50", "ms"),
        ("train.step_ms.p90", "ms"),
        ("train.score_fold.wall_s", "s"),
        ("train.score_fold.concurrency", "ratio"),
        ("train.score_fold.pool_size", "threads"),
        ("metrics.roc_auc.useful_ratio", "ratio"),
        ("dataset.normalize.useful_ratio", "ratio"),
        ("cli.startup_s", "s"),
        ("trace.spans", "count"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


@dataclass
class Command:
    """One traced msml process: its wall time and the spans it wrote."""

    wall_s: float
    install_ns: int
    spans: list = field(default_factory=list)


def self_times(spans):
    """Span id -> self time in ns: duration minus same-thread direct children."""
    by_id = {s[ID]: s for s in spans}
    covered = defaultdict(int)
    for s in spans:
        parent = by_id.get(s[CAUSE])
        if parent is not None and parent[THREAD] == s[THREAD]:
            covered[s[CAUSE]] += s[END] - s[START]
    return {s[ID]: s[END] - s[START] - covered[s[ID]] for s in spans}


def _children(spans):
    kids = defaultdict(list)
    for s in spans:
        kids[s[CAUSE]].append(s)
    return kids


def _union_ns(intervals):
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _step_gaps_ms(spans, kids):
    """Gaps between successive Adam.step ends inside one epoch of train()."""
    gaps = []
    for root in spans:
        if root[NAME] != "train.train":
            continue
        last_end = None
        for s in sorted(kids[root[ID]], key=lambda s: s[START]):
            if s[NAME] == "train.score_fold":
                last_end = None  # epoch boundary
            elif s[NAME] == "model.Adam.step":
                if last_end is not None:
                    gaps.append((s[END] - last_end) / 1e6)
                last_end = s[END]
    return gaps


def per_layer(commands, episodes, overhead_ratio):
    """Every PER_LAYER metric, per episode, from the traced commands."""
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    layer_ns = defaultdict(int)
    predict_ms, step_ms = [], []
    busy = covered = 0
    fold_wall = fold_busy = 0
    pool_size = 0
    auc_calls = auc_distinct = 0
    normalized = scored = 0
    startup = 0.0
    n_spans = 0
    for cmd in commands:
        spans = cmd.spans
        n_spans += len(spans)
        own = self_times(spans)
        kids = _children(spans)
        digests = set()
        is_eval = False
        eval_normalized = eval_scored = 0
        for s in spans:
            name = s[NAME]
            self_ns[name] += own[s[ID]]
            calls[name] += 1
            layer_ns[name.split(".", 1)[0]] += own[s[ID]]
            if name == "cli.main":
                startup += cmd.wall_s - (s[END] - s[START] + cmd.install_ns) / 1e9
            elif name == "cli.cmd_eval":
                is_eval = True
            elif name == "model.predict":
                predict_ms.append((s[END] - s[START]) / 1e6)
            elif name == "metrics.roc_auc":
                auc_calls += 1
                digests.add(s[TAG])
            elif name == "dataset.normalize":
                eval_normalized += s[TAG]
            elif name == "train.score_fold":
                eval_scored += s[TAG]
                fold_wall += s[END] - s[START]
                tasks = [k for k in kids[s[ID]] if k[NAME] == "model.predict"]
                fold_busy += sum(k[END] - k[START] for k in tasks)
                pool_size = max(pool_size, len({k[THREAD] for k in tasks}))
            elif name in _MODEL_PASSES:
                streams = [(k[START], k[END]) for k in kids[s[ID]] if k[NAME] in _STREAM_PASSES]
                busy += sum(end - start for start, end in streams)
                covered += _union_ns(streams)
        auc_distinct += len(digests)
        if is_eval:
            normalized += eval_normalized
            scored += eval_scored
        step_ms += _step_gaps_ms(spans, kids)

    per = 1.0 / episodes
    out = {}
    for n in _TIMED:
        out[f"{n}.self_s"] = self_ns[n] / 1e9 * per
        out[f"{n}.calls"] = calls[n] * per
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_ns[layer] / 1e9 * per
    out["model.predict.ms_p50"] = statistics.median(predict_ms) if predict_ms else 0.0
    out["model.stream_concurrency"] = busy / covered if covered else 0.0
    out["train.step_ms.p50"] = _percentile(step_ms, 50)
    out["train.step_ms.p90"] = _percentile(step_ms, 90)
    out["train.score_fold.wall_s"] = fold_wall / 1e9 * per
    out["train.score_fold.concurrency"] = fold_busy / fold_wall if fold_wall else 0.0
    out["train.score_fold.pool_size"] = pool_size
    out["metrics.roc_auc.useful_ratio"] = auc_distinct / auc_calls if auc_calls else 0.0
    out["dataset.normalize.useful_ratio"] = scored / normalized if normalized else 0.0
    out["cli.startup_s"] = startup * per
    out["trace.spans"] = n_spans * per
    out["trace.overhead_ratio"] = overhead_ratio
    return out
