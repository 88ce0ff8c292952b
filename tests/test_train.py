"""Training loop behavior: smoke runs, strategies, determinism, freezing."""

import numpy as np
import pytest

from msml import dataset as ds
from msml.errors import ConfigError, DataError, NumericalError
from msml.losses import LossWeights, total_loss
from msml.model import BackboneConfig, BaselineModel, ModelConfig, TwoStreamModel, lr_schedule
from msml.train import FoldData, _losses_and_grads, score_fold, train

CFG = ModelConfig(
    num_classes=4,
    input_size=(16, 16),
    backbone=BackboneConfig(input_channels=1, conv_blocks=((8, 3, True), (8, 3, True))),
    proj_width=16,
)


@pytest.fixture(scope="module")
def folds():
    spec = ds.GeneratorSpec(
        num_classes=4, num_samples=120, num_groups=12, image_size=(18, 18),
        class_prevalence=(0.4, 0.3, 0.25, 0.2), cooccurrence_pairs=(),
        normal_fraction=0.3, noise_sigma=0.05, seed=77,
    )
    data = ds.generate(spec)
    idx = ds.split(data, ds.SplitSpec(seed=77))
    images = {k: data.images[v] for k, v in idx.items()}
    normed, _ = ds.normalize(images)
    return {k: FoldData(normed[k], data.labels[idx[k]].astype(np.float64)) for k in idx}


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
            losses, _ = _losses_and_grads(model.forward(crops), tiny.labels, (), 0.0, 0.0)
            return total_loss(*losses, model.loss_weights)

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


class TestDeterminism:
    def test_identical_runs_bit_identical_params(self, folds):
        def run():
            model = TwoStreamModel(CFG, seed=4, loss_weights=LossWeights())
            train(model, folds["train"], folds["val"], strategy="global", epochs=2, seed=4)
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


class TestSymmetryBreaking:
    def test_streams_diverge_after_one_global_epoch(self, folds):
        model = TwoStreamModel(CFG, seed=6)
        train(model, folds["train"], folds["val"], strategy="global", epochs=1, seed=6)
        diffs = [
            np.abs(a[1] - b[1]).max()
            for a, b in zip(model.stream_a.params("s"), model.stream_b.params("s"))
        ]
        assert max(diffs) > 0.0


class TestStrategies:
    def test_local_fixed_freezes_everything_but_bilinear_head(self, folds):
        model = TwoStreamModel(CFG, seed=8)
        boundary = {}

        def capture(phase_index, m):
            if phase_index == 0:
                boundary.update(snapshot(m, ("stream_", "head_", "bilinear.")))

        train(model, folds["train"], folds["val"], strategy="local_fixed",
              epochs=3, seed=8, on_phase_end=capture)
        final = snapshot(model)
        frozen = [n for n in final if n.startswith(("stream_", "head_"))]
        for name in frozen:
            np.testing.assert_array_equal(final[name], boundary[name], err_msg=name)
        moved = [n for n in final if n.startswith("bilinear.")]
        assert any(not np.array_equal(final[n], boundary[n]) for n in moved)

    def test_local_phase_one_leaves_bilinear_head_untouched(self, folds):
        model = TwoStreamModel(CFG, seed=9)
        before = snapshot(model, ("bilinear.",))
        seen = {}

        def capture(phase_index, m):
            if phase_index == 0:
                seen.update(snapshot(m, ("bilinear.",)))

        train(model, folds["train"], folds["val"], strategy="local",
              epochs=3, seed=9, on_phase_end=capture)
        for name, value in before.items():
            np.testing.assert_array_equal(seen[name], value, err_msg=name)
        # phase 2 then trains it
        after = snapshot(model, ("bilinear.",))
        assert any(not np.array_equal(after[n], before[n]) for n in after)

    def test_local_phase_two_updates_backbones(self, folds):
        model = TwoStreamModel(CFG, seed=10)
        boundary = {}

        def capture(phase_index, m):
            if phase_index == 0:
                boundary.update(snapshot(m, ("stream_",)))

        train(model, folds["train"], folds["val"], strategy="local",
              epochs=3, seed=10, on_phase_end=capture)
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
