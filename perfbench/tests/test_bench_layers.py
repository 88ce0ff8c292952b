"""Self-time and per-layer arithmetic on synthetic span trees."""

import pytest

from layers import PER_LAYER, Command, per_layer, self_times

MAIN, WORKER_A, WORKER_B = 1, 2, 3
MS = 1_000_000


def span(sid, name, start_ms, end_ms, thread=MAIN, cause=0, tag=None):
    return (sid, name, start_ms * MS, end_ms * MS, thread, cause, tag)


def test_self_time_nested():
    spans = [
        span(1, "cli.main", 0, 100),
        span(2, "train.train", 10, 90, cause=1),
        span(3, "model.Adam.step", 20, 30, cause=2),
        span(4, "model.Adam.step", 40, 55, cause=2),
    ]
    own = self_times(spans)
    assert own == {1: 20 * MS, 2: 55 * MS, 3: 10 * MS, 4: 15 * MS}
    assert sum(own.values()) == 100 * MS


def test_self_time_is_per_thread():
    # score_fold waits 0..40 on the main thread while two pool threads run
    # predict in parallel; the pool spans name score_fold as their cause.
    spans = [
        span(1, "train.score_fold", 0, 40, tag=128),
        span(2, "dataset.crop_batch", 0, 5, cause=1),
        span(3, "model.predict", 5, 35, thread=WORKER_A, cause=1),
        span(4, "model.predict", 5, 38, thread=WORKER_B, cause=1),
        span(5, "model.TwoStreamModel.forward", 6, 30, thread=WORKER_A, cause=3),
    ]
    own = self_times(spans)
    assert own[1] == 35 * MS  # only the same-thread crop is subtracted
    assert own[3] == 6 * MS
    assert own[4] == 33 * MS
    # per thread, self times add up to that thread's covered wall time
    assert own[1] + own[2] == 40 * MS
    assert own[3] + own[5] == 30 * MS


def test_per_layer_ratios_and_gaps():
    spans = [
        span(1, "cli.main", 0, 1000),
        span(2, "train.train", 0, 900, cause=1),
        span(3, "model.Adam.step", 100, 110, cause=2),
        span(4, "model.Adam.step", 200, 230, cause=2),
        span(5, "model.Adam.step", 300, 320, cause=2),
        span(6, "train.score_fold", 400, 500, cause=2, tag=64),
        span(7, "model.predict", 400, 480, thread=WORKER_A, cause=6),
        span(8, "model.predict", 400, 490, thread=WORKER_B, cause=6),
        span(9, "model.Adam.step", 600, 610, cause=2),
        span(10, "model.Adam.step", 700, 705, cause=2),
        # two streams that overlap for 10 ms inside one forward
        span(11, "model.TwoStreamModel.forward", 700, 800, cause=2),
        span(12, "model.Backbone.forward", 710, 740, cause=11),
        span(13, "model.Backbone.forward", 730, 760, thread=WORKER_A, cause=11),
        span(14, "metrics.roc_auc", 800, 801, cause=1, tag="a"),
        span(15, "metrics.roc_auc", 801, 802, cause=1, tag="a"),
        span(16, "metrics.roc_auc", 802, 803, cause=1, tag="b"),
    ]
    m = per_layer([Command(wall_s=1.5, install_ns=100 * MS, spans=spans)], episodes=2,
                  overhead_ratio=1.1)
    assert set(m) == {name for name, _ in PER_LAYER}
    # gaps between step ends: 120 and 90 ms; the score_fold at 400 ends the
    # epoch, so the next gap is 705 - 610 = 95 ms
    assert m["train.step_ms.p50"] == pytest.approx(95.0)
    assert m["model.Adam.step.calls"] == 2.5  # 5 calls over 2 episodes
    assert m["model.Adam.step.self_s"] == pytest.approx(0.075 / 2)
    assert m["train.score_fold.wall_s"] == pytest.approx(0.05)
    assert m["train.score_fold.concurrency"] == pytest.approx(1.7)
    assert m["train.score_fold.pool_size"] == 2
    assert m["model.stream_concurrency"] == pytest.approx(60 / 50)
    assert m["metrics.roc_auc.useful_ratio"] == pytest.approx(2 / 3)
    assert m["cli.startup_s"] == pytest.approx((1.5 - 1.0 - 0.1) / 2)
    assert m["trace.overhead_ratio"] == 1.1


def test_normalize_ratio_counts_eval_commands_only():
    def command(is_eval):
        spans = [span(1, "cli.main", 0, 10)]
        if is_eval:
            spans.append(span(2, "cli.cmd_eval", 0, 10, cause=1))
        spans += [span(3, "dataset.normalize", 1, 2, cause=1, tag=1000),
                  span(4, "train.score_fold", 3, 4, cause=1, tag=200)]
        return Command(wall_s=0.02, install_ns=0, spans=spans)

    m = per_layer([command(True), command(False)], episodes=1, overhead_ratio=1.0)
    assert m["dataset.normalize.useful_ratio"] == pytest.approx(0.2)
