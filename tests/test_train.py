"""Training loop behavior: smoke runs, strategies, determinism, freezing."""

import dataclasses
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import msml
from helpers import normalize, peak_memory
from msml import dataset as ds
from msml.errors import ConfigError, DataError, NumericalError
from msml.losses import LossWeights
from msml.model import BaselineModel, ModelConfig, TwoStreamModel, lr_schedule
from msml.train import FoldData, _losses_and_grads, _phases, score_fold, train

CFG = ModelConfig(
    num_classes=4,
    input_size=(16, 16),
    conv_blocks=((8, 3, True), (8, 3, True)),
    proj_width=16,
)


@pytest.fixture(scope="module")
def pixel_folds():
    """The folds as float32 pixels, each carrying the train fold's statistics."""
    spec = ds.GeneratorSpec(
        num_classes=4, num_samples=120, num_groups=12, image_size=(18, 18),
        class_prevalence=(0.4, 0.3, 0.25, 0.2), cooccurrence_pairs=(),
        normal_fraction=0.3, noise_sigma=0.05, seed=77,
    )
    data = ds.generate(spec)
    idx = ds.split(data.group_ids, 77)
    mean, scale = ds.channel_stats(data.images[idx["train"]])
    return {k: FoldData(data.images[v], data.labels[v].astype(np.float64), mean, scale) for k, v in idx.items()}


@pytest.fixture(scope="module")
def folds(pixel_folds):
    """The same folds standardized whole, so a part of one is standardized too."""
    normed = normalize({k: f.images for k, f in pixel_folds.items()}, pixel_folds["train"].images)
    return {k: FoldData(normed[k], f.labels) for k, f in pixel_folds.items()}


def snapshot(model, names=None):
    return {
        name: value.copy()
        for name, value, _ in model.params()
        if names is None or any(name.startswith(p) for p in names)
    }


class TestSmoke:
    def test_one_epoch_decreases_loss_in_most_seeds(self, folds):
        tiny = FoldData(folds["train"].images[:8], folds["train"].labels[:8])
        crops = ds.crop_batch(tiny.images, CFG.input_size[0], training=False)

        def eval_loss(model):
            losses, _ = _losses_and_grads(model.forward(crops), tiny.labels, {})
            weights = _phases("global", 1, model, LossWeights())[0][1]
            return sum(weights[h] * losses[h] for h in weights)

        wins = 0
        for seed in range(5):
            model = TwoStreamModel(CFG, seed=seed)
            before = eval_loss(model)
            history = train(model, tiny, tiny, strategy="global", epochs=1,
                            batch_size=8, seed=seed, initial_lr=1e-3)
            assert len(history) == 1
            wins += eval_loss(model) < before
        assert wins >= 4

    def test_history_length_and_lr_schedule(self, folds):
        model = TwoStreamModel(CFG, seed=0)
        history = train(model, folds["train"], folds["val"], strategy="global",
                        epochs=4, seed=0)
        assert len(history) == 4
        assert [h.epoch for h in history] == [0, 1, 2, 3]
        for h in history:
            assert h.lr == lr_schedule(1e-4, h.epoch)

    def test_baseline_trains_and_logs_only_ce(self, folds):
        model = BaselineModel(CFG, seed=1)
        history = train(model, folds["train"], folds["val"], epochs=1, seed=1)
        assert history[0].alpha_msml == 0.0
        assert history[0].beta_fce == 0.0
        assert history[0].alpha_ce > 0.0


class TestStandardizedBatches:
    def test_float32_fold_with_statistics_trains_as_the_normalized_fold(self, pixel_folds, folds):
        assert pixel_folds["train"].images.dtype == np.float32

        def run(fold_set):
            model = TwoStreamModel(CFG, seed=5)
            history = train(model, fold_set["train"], fold_set["val"], epochs=1, seed=5)
            return [h.row() for h in history], model.slab.values.tobytes(), score_fold(model, fold_set["test"])

        (rows_a, values_a, scores_a), (rows_b, values_b, scores_b) = run(pixel_folds), run(folds)
        assert rows_a == rows_b and values_a == values_b
        for head in scores_a:
            assert np.array_equal(scores_a[head], scores_b[head])


@pytest.fixture
def new_pool(monkeypatch):
    """Sets MSML_THREADS to the given count and drops the process's pool, so that
    its next use builds a new pool of that size, whatever pool ran before."""
    def of(workers):
        monkeypatch.setenv("MSML_THREADS", str(workers))
        monkeypatch.setattr(msml.model, "_pool", None)

    yield of
    if msml.model._pool is not None:
        msml.model._pool.shutdown()


class TestScoringThreads:
    def test_scoring_runs_on_the_caller_and_the_one_worker_training_started(self, folds, monkeypatch, new_pool):
        new_pool(2)
        model = TwoStreamModel(CFG, seed=14)
        one_step = FoldData(folds["train"].images[:8], folds["train"].labels[:8])
        idents = set()
        real_predict = msml.train.predict

        def record(model, batch):
            idents.add(threading.get_ident())
            return real_predict(model, batch)

        monkeypatch.setattr(msml.train, "predict", record)
        train(model, one_step, folds["train"], epochs=1, batch_size=8, seed=14)  # validates on several batches
        assert len(folds["train"]) > 2 * msml.train.SCORE_BATCH
        assert threading.get_ident() in idents
        assert len(idents) == 2

    def test_a_failing_share_raises_once_every_share_has_finished(self, folds, monkeypatch, new_pool):
        new_pool(2)
        model = TwoStreamModel(CFG, seed=15)
        caller, finished = threading.get_ident(), []
        real_predict = msml.train.predict

        def fail_here(model, batch):
            if threading.get_ident() == caller:
                raise ValueError("the caller's share failed")
            time.sleep(0.01)
            finished.append(real_predict(model, batch))
            return finished[-1]

        monkeypatch.setattr(msml.train, "predict", fail_here)
        batches = -(-len(folds["train"]) // msml.train.SCORE_BATCH)
        with pytest.raises(ValueError, match="caller's share"):
            score_fold(model, folds["train"])
        assert len(finished) == batches // 2  # the pool's share, every batch of it

    def test_more_shares_than_cores_score_as_one_thread_does(self, folds, monkeypatch, new_pool):
        model = TwoStreamModel(CFG, seed=16)
        new_pool(1)
        one = score_fold(model, folds["train"])
        new_pool(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # many more thread switches inside each share
        try:
            four = score_fold(model, folds["train"])
        finally:
            sys.setswitchinterval(interval)
        for head in one:
            assert np.array_equal(one[head], four[head])


class TestNonSquareInput:
    def test_one_epoch_and_scoring_at_16x12(self, folds):
        model = TwoStreamModel(dataclasses.replace(CFG, input_size=(16, 12)), seed=2)
        history = train(model, folds["train"], folds["val"], epochs=1, seed=2)
        assert len(history) == 1 and np.isfinite(history[0].beta_fce)
        scores = score_fold(model, folds["val"])
        assert all(scores[head].shape == folds["val"].labels.shape for head in model.heads)


class TestDeterminism:
    def test_identical_runs_bit_identical_params(self, folds):
        def run():
            model = TwoStreamModel(CFG, seed=4)
            train(model, folds["train"], folds["val"], strategy="global", epochs=2, seed=4, weights=LossWeights())
            return snapshot(model)

        a, b = run(), run()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name], err_msg=name)

    def test_score_fold_independent_of_thread_count(self, folds, monkeypatch):
        model = TwoStreamModel(CFG, seed=4)
        monkeypatch.setenv("MSML_THREADS", "1")
        one = score_fold(model, folds["val"])
        monkeypatch.setenv("MSML_THREADS", "3")
        three = score_fold(model, folds["val"])
        for head in one:
            np.testing.assert_array_equal(one[head], three[head])

    def test_score_fold_independent_of_batch_size(self, monkeypatch):
        # score_fold pads its last batch to the full size, and OpenBLAS picks
        # its kernel by matrix shape; these even sizes of 8 or more give each
        # row the same bits. 104 is a multiple of none of them.
        model = TwoStreamModel(ModelConfig(), seed=6)
        fold = FoldData(np.random.default_rng(6).normal(size=(104, 1, 32, 32)), np.zeros((104, 8)))
        scores = []
        for batch in (16, 24, 64):
            monkeypatch.setattr(msml.train, "SCORE_BATCH", batch)
            scores.append(score_fold(model, fold))
        for head in model.heads:
            assert np.array_equal(scores[0][head], scores[1][head])
            assert np.array_equal(scores[0][head], scores[2][head])

    def test_a_samples_scores_do_not_depend_on_its_fold(self):
        # Unpadded, a short tail batch rounds some last bits differently: at the
        # (0, 1), (0, 7) and (1, 34) cuts every head then differed somewhere.
        model = TwoStreamModel(ModelConfig(), seed=6)
        images = np.random.default_rng(8).normal(size=(40, 1, 28, 28))
        whole = score_fold(model, FoldData(images, np.zeros((40, 8))))
        for start, stop in ((0, 1), (0, 7), (3, 20), (5, 38), (13, 40), (39, 40), (1, 34)):
            part = score_fold(model, FoldData(images[start:stop], np.zeros((stop - start, 8))))
            for head in model.heads:
                assert np.array_equal(part[head], whole[head][start:stop]), (head, start, stop)

    def test_score_fold_peak_does_not_grow_with_the_fold(self, monkeypatch):
        monkeypatch.setenv("MSML_THREADS", "1")
        model = TwoStreamModel(ModelConfig(), seed=6)
        images = np.random.default_rng(7).normal(size=(400, 1, 32, 32))

        def peak(n):
            fold = FoldData(images[:n], np.zeros((n, 8)))
            score_fold(model, fold)  # warm numpy's and BLAS's buffers
            with peak_memory() as traced:
                score_fold(model, fold)
            return traced[0]

        short, long = peak(64), peak(400)
        assert long < 8 * 2**20
        assert abs(long - short) <= 0.1 * short

    @pytest.mark.parametrize("build", [TwoStreamModel, BaselineModel], ids=lambda model: f"build_{model.kind}")
    def test_training_independent_of_thread_count(self, folds, monkeypatch, build):
        def run(threads):
            if threads is None:
                monkeypatch.delenv("MSML_THREADS", raising=False)
            else:
                monkeypatch.setenv("MSML_THREADS", threads)
            model = build(CFG, seed=8)
            history = train(model, folds["train"], folds["val"], strategy="local", epochs=3, seed=8)
            return [h.row() for h in history], {k: v.tobytes() for k, v in snapshot(model).items()}

        default = run(None)
        assert run("1") == default
        assert run("3") == default
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # many more thread switches inside each pass
        try:
            assert run("2") == default
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("build", [TwoStreamModel, BaselineModel], ids=lambda model: f"build_{model.kind}")
    def test_train_finishes_on_a_last_batch_of_one(self, folds, build):
        fold = FoldData(folds["train"].images[:17], folds["train"].labels[:17])
        history = train(build(CFG, seed=3), fold, folds["val"], epochs=1, batch_size=16, seed=3)
        assert len(history) == 1 and np.isfinite(history[0].alpha_ce)


class TestThreadPolicy:
    """Importing msml pins OpenBLAS to one thread unless the user chose a count."""

    @staticmethod
    def blas_threads_seen_by_msml(value):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join([str(Path(msml.__file__).parents[1]), env.get("PYTHONPATH", "")])
        if value is not None:
            env["OPENBLAS_NUM_THREADS"] = value
        code = "import msml, os; print(os.environ['OPENBLAS_NUM_THREADS'])"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              check=True, timeout=120)
        return done.stdout.strip()

    def test_unset_is_pinned_to_one(self):
        assert self.blas_threads_seen_by_msml(None) == "1"

    def test_user_value_wins(self):
        assert self.blas_threads_seen_by_msml("3") == "3"


def test_package_root_binds_only_its_version_and_loads_no_numpy():
    # names come from their modules; the root only pins OpenBLAS before numpy loads
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(msml.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, msml; "
            "print(sorted(n for n in vars(msml) if not n.startswith('_')), msml.__version__, 'numpy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    assert done.stdout.strip() == f"[] {msml.__version__} False"


class TestSymmetryBreaking:
    def test_streams_diverge_after_one_global_epoch(self, folds):
        model = TwoStreamModel(CFG, seed=6)
        train(model, folds["train"], folds["val"], strategy="global", epochs=1, seed=6)
        stream_a = [value for name, value, _ in model.params() if name.startswith("stream_a.")]
        stream_b = [value for name, value, _ in model.params() if name.startswith("stream_b.")]
        diffs = [np.abs(a - b).max() for a, b in zip(stream_a, stream_b)]
        assert max(diffs) > 0.0


def snapshots_at_phase_starts(monkeypatch, model, prefixes):
    """A list that gets a snapshot of ``model`` each time ``train`` starts a
    phase, which it does by building a new Adam."""
    starts = []

    class Recording(msml.train.Adam):
        def __init__(self, values, grads):
            starts.append(snapshot(model, prefixes))
            super().__init__(values, grads)

    monkeypatch.setattr(msml.train, "Adam", Recording)
    return starts


class TestStrategies:
    def test_local_fixed_freezes_everything_but_bilinear_head(self, folds, monkeypatch):
        model = TwoStreamModel(CFG, seed=8)
        starts = snapshots_at_phase_starts(monkeypatch, model, ("stream_", "head_", "bilinear."))
        train(model, folds["train"], folds["val"], strategy="local_fixed", epochs=3, seed=8)
        boundary = starts[1]
        final = snapshot(model)
        frozen = [n for n in final if n.startswith(("stream_", "head_"))]
        for name in frozen:
            np.testing.assert_array_equal(final[name], boundary[name], err_msg=name)
        moved = [n for n in final if n.startswith("bilinear.")]
        assert any(not np.array_equal(final[n], boundary[n]) for n in moved)

    def test_local_phase_one_leaves_bilinear_head_untouched(self, folds, monkeypatch):
        model = TwoStreamModel(CFG, seed=9)
        before = snapshot(model, ("bilinear.",))
        starts = snapshots_at_phase_starts(monkeypatch, model, ("bilinear.",))
        train(model, folds["train"], folds["val"], strategy="local", epochs=3, seed=9)
        seen = starts[1]
        for name, value in before.items():
            np.testing.assert_array_equal(seen[name], value, err_msg=name)
        # phase 2 then trains it
        after = snapshot(model, ("bilinear.",))
        assert any(not np.array_equal(after[n], before[n]) for n in after)

    def test_local_phase_two_updates_backbones(self, folds, monkeypatch):
        model = TwoStreamModel(CFG, seed=10)
        starts = snapshots_at_phase_starts(monkeypatch, model, ("stream_",))
        train(model, folds["train"], folds["val"], strategy="local", epochs=3, seed=10)
        boundary = starts[1]
        final = snapshot(model, ("stream_",))
        assert any(not np.array_equal(final[n], boundary[n]) for n in final)


class TestFailureModes:
    def test_nan_input_raises_numerical_error(self, folds):
        model = TwoStreamModel(CFG, seed=11)
        poisoned = FoldData(folds["train"].images[:8].copy(), folds["train"].labels[:8])
        poisoned.images[0] = np.nan  # survives any crop window
        with pytest.raises(NumericalError) as err:
            train(model, poisoned, folds["val"], epochs=1, batch_size=8, seed=11)
        assert err.value.epoch == 0
        assert err.value.step == 0

    def test_nan_gradient_stops_at_the_update_and_names_the_parameter(self, folds, monkeypatch):
        real_backward = TwoStreamModel.backward
        calls = []

        def poisoned(model, *args, **kwargs):
            real_backward(model, *args, **kwargs)
            calls.append(1)
            if len(calls) == 2:  # the second step of the first epoch
                model.proj.dw[0, 0] = np.nan

        monkeypatch.setattr(TwoStreamModel, "backward", poisoned)
        model = TwoStreamModel(CFG, seed=11)
        with pytest.raises(NumericalError, match="bilinear.proj.w") as err:
            train(model, folds["train"], folds["val"], epochs=1, batch_size=8, seed=11)
        assert (err.value.epoch, err.value.step) == (0, 1)
        assert "epoch 0, step 1" in str(err.value)

    # the last entry of head_ce.b, the first of head_msml.w after it, and both: the first one poisoned is named
    @pytest.mark.parametrize("poisoned", [["head_ce.b"], ["head_msml.w"], ["head_ce.b", "head_msml.w"]],
                             ids=["last-of-head_ce.b", "first-of-head_msml.w", "both"])
    def test_nan_update_at_a_parameter_boundary_names_the_right_parameter(self, folds, monkeypatch, poisoned):
        real_backward = TwoStreamModel.backward

        def poison(model, *args, **kwargs):
            real_backward(model, *args, **kwargs)
            grads = {name: grad.reshape(-1) for name, _, grad in model.params()}
            for name in poisoned:
                grads[name][-1 if name == "head_ce.b" else 0] = np.nan

        monkeypatch.setattr(TwoStreamModel, "backward", poison)
        with pytest.raises(NumericalError, match=f"non-finite parameter {poisoned[0]} after the update") as err:
            train(TwoStreamModel(CFG, seed=11), folds["train"], folds["val"], epochs=1, batch_size=8, seed=11)
        assert (err.value.epoch, err.value.step) == (0, 0)

    def test_empty_fold_rejected(self, folds):
        model = TwoStreamModel(CFG, seed=12)
        empty = FoldData(folds["train"].images[:0], folds["train"].labels[:0])
        with pytest.raises(Exception, match="nonempty"):
            train(model, empty, folds["val"], epochs=1, seed=12)

    def test_empty_fold_scoring_rejected(self, folds):
        empty = FoldData(folds["test"].images[:0], folds["test"].labels[:0])
        with pytest.raises(DataError, match="empty fold"):
            score_fold(TwoStreamModel(CFG, seed=12), empty)

    def test_unknown_strategy_rejected_for_baseline(self, folds):
        model = BaselineModel(CFG, seed=13)
        with pytest.raises(ConfigError, match="bogus"):
            train(model, folds["train"], folds["val"], strategy="bogus", epochs=1, seed=13)
