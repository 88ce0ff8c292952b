"""End-to-end command-line tests driven through cli.main (in-process)."""

import json
import shutil
import struct

import numpy as np
import pytest

from helpers import bias_gradients, normalize, peak_memory
from msml import dataset as ds
from msml.cli import ExperimentConfig, main
from msml.errors import ConfigError
from msml.losses import LossWeights
from msml.metrics import MetricsReport, ScoreMatrix, build_report
from msml.model import ModelConfig, TwoStreamModel, model_from_checkpoint, save_checkpoint
from msml.train import score_fold
import msml.cli as cli_mod

SPEC_TEXT = """\
num_classes = 4
num_samples = 90
num_groups = 15
image_size = 18, 18
class_prevalence = 0.4, 0.3, 0.25, 0.2
cooccurrence_pairs =
normal_fraction = 0.3
noise_sigma = 0.05
seed = 13
"""

CONFIG_TEMPLATE = """\
dataset = {data_dir}
model = {model}
strategy = {strategy}
epochs = {epochs}
batch_size = 16
seed = 3
crop_size = 16
conv_blocks = 8:3:1, 8:3:1
proj_width = 16
out_dir = {out_dir}
"""


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec_file = root / "spec.txt"
    spec_file.write_text(SPEC_TEXT)
    out = root / "data"
    assert main(["gen-data", "--spec", str(spec_file), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = out / "config.txt"
    config.write_text(CONFIG_TEMPLATE.format(
        data_dir=data_dir, model="two_stream", strategy="global", epochs=2, out_dir=out
    ))
    assert main(["train", "--config", str(config)]) == 0
    return out


class TestGenData:
    def test_outputs_exist_and_manifest_matches_spec(self, data_dir):
        assert (data_dir / "images.bin").exists()
        assert (data_dir / "labels.csv").exists()
        assert (data_dir / "splits.json").exists()
        manifest = ds.parse_fields(ds.GeneratorSpec, (data_dir / "manifest.txt").read_text())
        assert manifest == ds.parse_fields(ds.GeneratorSpec, SPEC_TEXT)

    def test_regeneration_is_byte_identical(self, data_dir, tmp_path):
        spec_file = tmp_path / "spec.txt"
        spec_file.write_text(SPEC_TEXT)
        again = tmp_path / "data2"
        assert main(["gen-data", "--spec", str(spec_file), "--out", str(again)]) == 0
        assert (again / "images.bin").read_bytes() == (data_dir / "images.bin").read_bytes()
        assert (again / "labels.csv").read_bytes() == (data_dir / "labels.csv").read_bytes()
        assert (again / "splits.json").read_bytes() == (data_dir / "splits.json").read_bytes()

    def test_invalid_prevalence_exits_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("num_classes = 2\nclass_prevalence = 1.5, 0.2\n")
        assert main(["gen-data", "--spec", str(bad), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("old,new", [("seed = 13", "seed = -3"), ("noise_sigma = 0.05", "noise_sigma = nan")])
    def test_negative_seed_or_nan_noise_exits_2(self, tmp_path, capsys, old, new):
        spec_file = tmp_path / "spec.txt"
        spec_file.write_text(SPEC_TEXT.replace(old, new))
        assert main(["gen-data", "--spec", str(spec_file), "--out", str(tmp_path / "x")]) == 2
        assert new.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_nan_cooccurrence_boost_exits_2(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.txt"
        spec_file.write_text(SPEC_TEXT.replace("cooccurrence_pairs =", "cooccurrence_pairs = 0:1:nan"))
        assert main(["gen-data", "--spec", str(spec_file), "--out", str(tmp_path / "x")]) == 2
        assert "pair (0, 1) boost nan" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_too_few_groups_exits_2_and_writes_nothing(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.txt"
        spec_file.write_text(SPEC_TEXT.replace("num_groups = 15", "num_groups = 5"))
        assert main(["gen-data", "--spec", str(spec_file), "--out", str(tmp_path / "x")]) == 2
        assert "grouped split needs >= 10 groups, got 5" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_too_few_groups_exits_2_before_generating(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(ds, "generate", lambda spec: calls.append(spec))
        spec_file = tmp_path / "spec.txt"
        spec_file.write_text("num_samples = 20000\nnum_groups = 5\n")
        assert main(["gen-data", "--spec", str(spec_file), "--out", str(tmp_path / "x")]) == 2
        assert "grouped split needs >= 10 groups, got 5" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
        assert calls == []

    def test_out_that_is_a_file_exits_2_before_generating(self, tmp_path, capsys, monkeypatch):
        def refuse(spec):
            raise AssertionError("gen-data drew the dataset before it made --out")

        monkeypatch.setattr(ds, "generate", refuse)
        spec_file, taken = tmp_path / "spec.txt", tmp_path / "taken"
        spec_file.write_text(SPEC_TEXT)
        taken.write_text("")
        assert main(["gen-data", "--spec", str(spec_file), "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(taken) in err

    def test_missing_spec_exits_2(self, tmp_path):
        assert main(["gen-data", "--spec", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "x")]) == 2


class TestTrain:
    def test_smoke_run_exits_zero_within_a_minute(self, tmp_path):
        import time

        spec_file = tmp_path / "spec.txt"
        spec_file.write_text(
            "num_classes = 4\nnum_samples = 64\nnum_groups = 16\nimage_size = 18, 18\n"
            "class_prevalence = 0.4, 0.3, 0.25, 0.2\ncooccurrence_pairs =\n"
            "normal_fraction = 0.3\nnoise_sigma = 0.05\nseed = 2\n"
        )
        data = tmp_path / "data"
        assert main(["gen-data", "--spec", str(spec_file), "--out", str(data)]) == 0
        config = tmp_path / "config.txt"
        config.write_text(CONFIG_TEMPLATE.format(
            data_dir=data, model="two_stream", strategy="global", epochs=1,
            out_dir=tmp_path / "run",
        ))
        t0 = time.perf_counter()
        assert main(["train", "--config", str(config)]) == 0
        assert time.perf_counter() - t0 < 60.0

    def test_outputs(self, trained_dir):
        assert (trained_dir / "model.ckpt").exists()
        assert (trained_dir / "resolved_config.txt").exists()
        lines = (trained_dir / "history.csv").read_text().splitlines()
        assert len(lines) == 3  # header + one row per epoch
        assert lines[0] == "epoch,lr,alpha_ce,alpha_msml,beta_fce,val_macro_auc"
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 6
            for cell in cells:
                float(cell)  # raises ValueError on e.g. "np.float64(1.2)"

    def test_history_lr_follows_schedule(self, trained_dir):
        rows = (trained_dir / "history.csv").read_text().splitlines()[1:]
        for row in rows:
            epoch, lr = row.split(",")[:2]
            assert float(lr) == 1e-4 * 0.1 ** (int(epoch) // 3)

    def test_resolved_config_reparses(self, trained_dir):
        cfg = ds.parse_fields(ExperimentConfig, (trained_dir / "resolved_config.txt").read_text())
        assert cfg.epochs == 2
        assert cfg.model == "two_stream"

    def test_missing_dataset_exits_2(self, tmp_path):
        config = tmp_path / "c.txt"
        config.write_text(CONFIG_TEMPLATE.format(
            data_dir=tmp_path / "absent", model="baseline", strategy="global",
            epochs=1, out_dir=tmp_path / "o"
        ))
        assert main(["train", "--config", str(config)]) == 2

    def test_invalid_model_value_exits_2_before_the_dataset_is_read(self, tmp_path, capsys):
        config = tmp_path / "c.txt"
        config.write_text(CONFIG_TEMPLATE.format(
            data_dir=tmp_path / "absent", model="two_stream", strategy="global", epochs=1, out_dir=tmp_path / "o"
        ) + "dropout_rate = 1.5\n")
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "dropout_rate" in err and "absent" not in err

    def test_bad_thread_count_exits_2_before_the_dataset_is_read(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MSML_THREADS", "0")
        config = tmp_path / "c.txt"
        config.write_text(CONFIG_TEMPLATE.format(
            data_dir=tmp_path / "absent", model="two_stream", strategy="global", epochs=1, out_dir=tmp_path / "o"
        ))
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "MSML_THREADS must be an integer >= 1" in err and "absent" not in err

    def test_unknown_strategy_exits_2(self, data_dir, tmp_path, capsys):
        config = tmp_path / "c.txt"
        config.write_text(CONFIG_TEMPLATE.format(
            data_dir=data_dir, model="baseline", strategy="bogus", epochs=1, out_dir=tmp_path / "o"
        ))
        assert main(["train", "--config", str(config)]) == 2
        assert "'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_three_channel_dataset_trains_and_evaluates(self, tmp_path):
        spec_file = tmp_path / "spec.txt"
        spec_file.write_text(SPEC_TEXT.replace("num_samples = 90", "num_samples = 200") + "channels = 3\n")
        data = tmp_path / "data"
        assert main(["gen-data", "--spec", str(spec_file), "--out", str(data)]) == 0
        config = tmp_path / "config.txt"
        config.write_text(CONFIG_TEMPLATE.format(
            data_dir=data, model="two_stream", strategy="global", epochs=1, out_dir=tmp_path / "run"
        ))
        assert main(["train", "--config", str(config)]) == 0
        model = model_from_checkpoint(tmp_path / "run" / "model.ckpt")
        assert model.cfg.input_channels == 3 and model.stream_a.convs[0].w.shape[1] == 3
        assert main(["eval", "--checkpoint", str(tmp_path / "run" / "model.ckpt"), "--data", str(data),
                     "--out", str(tmp_path / "report.json")]) == 0

    @pytest.mark.parametrize("line", ["conv_blocks = 8:4:1, 8:3:1", "learning_rate = -1"])
    def test_block_width_or_rate_the_model_cannot_honour_exits_2(self, data_dir, tmp_path, capsys, line):
        config = tmp_path / "c.txt"
        config.write_text(CONFIG_TEMPLATE.format(
            data_dir=data_dir, model="two_stream", strategy="global", epochs=1, out_dir=tmp_path / "o"
        ) + line + "\n")
        assert main(["train", "--config", str(config)]) == 2
        assert line.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line", ["beta = nan", "alpha = inf", "learning_rate = inf", "seed = -3"])
    def test_non_finite_or_negative_value_exits_2(self, data_dir, tmp_path, capsys, line):
        config = tmp_path / "c.txt"
        config.write_text(CONFIG_TEMPLATE.format(
            data_dir=data_dir, model="two_stream", strategy="global", epochs=1, out_dir=tmp_path / "o"
        ).replace("seed = 3\n", "") + line + "\n")
        assert main(["train", "--config", str(config)]) == 2
        assert line.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_nan_gradient_exits_3_without_a_checkpoint(self, data_dir, tmp_path, capsys, monkeypatch):
        real_backward = TwoStreamModel.backward

        def poisoned(model, *args, **kwargs):
            real_backward(model, *args, **kwargs)
            model.cls.dw[...] = np.nan

        monkeypatch.setattr(TwoStreamModel, "backward", poisoned)
        config = tmp_path / "c.txt"
        config.write_text(CONFIG_TEMPLATE.format(
            data_dir=data_dir, model="two_stream", strategy="global", epochs=1, out_dir=tmp_path / "o"
        ))
        assert main(["train", "--config", str(config)]) == 3
        assert "bilinear.cls.w after the update at epoch 0, step 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_config_key_exits_2(self, tmp_path):
        config = tmp_path / "c.txt"
        config.write_text("bogus_key = 1\n")
        assert main(["train", "--config", str(config)]) == 2

    @pytest.mark.parametrize("line", ["strategy = local", "strategy = local_fixed", "alpha = 0.5", "beta = 0"])
    def test_baseline_key_it_ignores_exits_2_before_the_dataset_is_read(self, tmp_path, capsys, line):
        text = CONFIG_TEMPLATE.format(
            data_dir=tmp_path / "absent", model="baseline", strategy="global", epochs=1, out_dir=tmp_path / "o"
        ).replace("strategy = global\n", "") + line + "\n"
        config = tmp_path / "c.txt"
        config.write_text(text)
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert line.split()[0] in err and "absent" not in err
        # the two-stream model honours every one of these keys
        ds.parse_fields(ExperimentConfig, text.replace("model = baseline", "model = two_stream"))


class TestEval:
    def test_report_written_and_consistent(self, data_dir, trained_dir, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--data", str(data_dir), "--split", "test",
                     "--head", "fce", "--out", str(report_path)]) == 0
        report = MetricsReport(**json.loads(report_path.read_text()))
        assert (tmp_path / "report.json.config.txt").exists()

        # cross-check against an in-process recomputation
        model = model_from_checkpoint(trained_dir / "model.ckpt")
        folds, class_names = cli_mod.load_folds(data_dir)
        scores = score_fold(model, folds["test"])
        expected = build_report(
            ScoreMatrix(scores["fce"], folds["test"].labels, class_names)
        )
        assert report == expected

    def test_eval_twice_identical_bytes(self, data_dir, trained_dir, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
                         "--data", str(data_dir), "--split", "val",
                         "--head", "fused", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fused_averages_ce_and_fce(self, data_dir, trained_dir, tmp_path):
        out = tmp_path / "fused.json"
        assert main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--data", str(data_dir), "--split", "test",
                     "--head", "fused", "--out", str(out)]) == 0
        model = model_from_checkpoint(trained_dir / "model.ckpt")
        folds, class_names = cli_mod.load_folds(data_dir)
        scores = score_fold(model, folds["test"])
        fused = (scores["ce"] + scores["fce"]) / 2
        expected = build_report(
            ScoreMatrix(fused, folds["test"].labels, class_names)
        )
        assert out.read_text() == expected.to_json() + "\n"

    def test_bad_head_flag_exits_2(self, data_dir, trained_dir, tmp_path):
        code = main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--data", str(data_dir), "--head", "bogus",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2

    @pytest.mark.parametrize("damage", ["label-2", "sample-id", "index-in-two-folds", "empty-test-fold",
                                        "no-test-fold", "no-train-fold"])
    def test_corrupt_dataset_exits_2(self, data_dir, trained_dir, tmp_path, capsys, damage):
        copy = tmp_path / "data"
        shutil.copytree(data_dir, copy)
        if damage == "label-2":
            lines = (copy / "labels.csv").read_text().splitlines()
            lines[1] = lines[1][: lines[1].rindex(",")] + ",2"
            (copy / "labels.csv").write_text("\n".join(lines) + "\n")
        elif damage == "sample-id":
            lines = (copy / "labels.csv").read_text().splitlines()
            lines[2] = "banana" + lines[2][lines[2].index(","):]
            (copy / "labels.csv").write_text("\n".join(lines) + "\n")
        else:
            folds = json.loads((copy / "splits.json").read_text())
            if damage == "index-in-two-folds":
                folds["test"].append(folds["train"][0])
            elif damage == "empty-test-fold":
                folds["test"] = []
            else:
                del folds[damage.split("-")[1]]
            (copy / "splits.json").write_text(json.dumps(folds))
        code = main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--data", str(copy), "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert {"label-2": "row 2", "sample-id": "row 3", "no-train-fold": "no fold 'train'"}.get(damage, "'test'") in err
        assert not (tmp_path / "r.json").exists()

    def test_loads_only_the_scored_split(self, data_dir):
        every, names = cli_mod.load_folds(data_dir)
        only, same_names = cli_mod.load_folds(data_dir, ("test",))
        assert sorted(every) == ["test", "train", "val"] and list(only) == ["test"]
        assert same_names == names
        np.testing.assert_array_equal(only["test"].images, every["test"].images)
        np.testing.assert_array_equal(only["test"].labels, every["test"].labels)

    def test_folds_stay_float32_and_standardize_as_whole_folds_did(self, data_dir):
        folds, _ = cli_mod.load_folds(data_dir)
        data = ds.load(data_dir)
        idx = ds.load_splits(data_dir / "splits.json", len(data))
        normed = normalize({name: data.images[i] for name, i in idx.items()}, data.images[idx["train"]])
        for name, fold in folds.items():
            assert fold.images.dtype == np.float32
            assert np.array_equal(fold.standardized(fold.images), normed[name]), name

    def test_labels_stay_int8(self, data_dir):
        folds, _ = cli_mod.load_folds(data_dir)
        assert {fold.labels.dtype for fold in folds.values()} == {np.dtype(np.int8)}

    def test_scoring_a_split_holds_the_pixels_and_the_train_fold_once(self, tmp_path):
        data = ds.generate(ds.GeneratorSpec(num_samples=2000, seed=5))
        folds = ds.split(data.group_ids, 5)
        ds.save(data, tmp_path)
        ds.save_splits(folds, tmp_path / "splits.json")
        # the float32 pixels, and the train fold as float64 for its statistics
        bound = 1.25 * (data.images.nbytes + 2 * data.images[folds["train"]].nbytes)
        del data
        with peak_memory() as peak:
            cli_mod.load_folds(tmp_path, ("test",))
        assert peak[0] <= bound

    def test_truncated_splits_exits_2(self, data_dir, trained_dir, tmp_path, capsys):
        copy = tmp_path / "data"
        shutil.copytree(data_dir, copy)
        (copy / "splits.json").write_text('{"train": [1, 2')
        code = main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--data", str(copy), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "splits.json is not valid JSON" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_non_finite_pixel_exits_2(self, data_dir, trained_dir, tmp_path, capsys):
        copy = tmp_path / "data"
        shutil.copytree(data_dir, copy)
        blob = bytearray((copy / "images.bin").read_bytes())
        struct.pack_into("<f", blob, 24 + 4 * 100, np.inf)
        (copy / "images.bin").write_bytes(bytes(blob))
        code = main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--data", str(copy), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "infinite pixel (at byte offset 424)" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_non_finite_checkpoint_exits_2(self, data_dir, trained_dir, tmp_path, capsys):
        model = model_from_checkpoint(trained_dir / "model.ckpt")
        model.head_ce.w[0, 0] = np.nan
        save_checkpoint(model, tmp_path / "model.ckpt")
        code = main(["eval", "--checkpoint", str(tmp_path / "model.ckpt"),
                     "--data", str(data_dir), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "head_ce.w holds a NaN" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_corrupt_checkpoint_meta_exits_2(self, data_dir, trained_dir, tmp_path, capsys):
        blob = (trained_dir / "model.ckpt").read_bytes()
        # same length, so the block length field still holds
        (tmp_path / "model.ckpt").write_bytes(blob.replace(b"conv_blocks = 8:3:1", b"conv_blocks = 8:3:2", 1))
        code = main(["eval", "--checkpoint", str(tmp_path / "model.ckpt"),
                     "--data", str(data_dir), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "checkpoint model block: line 4: cannot parse 'conv_blocks'" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_version_one_checkpoint_exits_2(self, data_dir, tmp_path, capsys):
        (tmp_path / "model.ckpt").write_bytes(b"MSML0001" + struct.pack("<2I", 4, 0))
        code = main(["eval", "--checkpoint", str(tmp_path / "model.ckpt"),
                     "--data", str(data_dir), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "checkpoint magic b'MSML0001' is not b'MSML0003' (at byte offset 0)" in capsys.readouterr().err

    def test_head_the_checkpoint_lacks_exits_2_before_the_data_is_read(self, data_dir, tmp_path, capsys):
        config = tmp_path / "c.txt"
        config.write_text(CONFIG_TEMPLATE.format(
            data_dir=data_dir, model="baseline", strategy="global", epochs=1, out_dir=tmp_path / "run"
        ))
        assert main(["train", "--config", str(config)]) == 0
        capsys.readouterr()
        for head in ("fce", "msml", "fused"):
            code = main(["eval", "--checkpoint", str(tmp_path / "run" / "model.ckpt"),
                         "--data", str(tmp_path / "absent"), "--head", head, "--out", str(tmp_path / "r.json")])
            assert code == 2
            err = capsys.readouterr().err
            assert f"the {head} head needs heads" in err and "absent" not in err

    def test_bad_thread_count_exits_2_before_the_checkpoint_is_read(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MSML_THREADS", "0")
        code = main(["eval", "--checkpoint", str(tmp_path / "absent.ckpt"), "--data", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "MSML_THREADS must be an integer >= 1" in err and "absent" not in err


class TestUnusableInput:
    """A path a command cannot read or write, or a text file that is not UTF-8, exits 2 with no traceback."""

    @pytest.mark.parametrize("case", ["spec-is-a-directory", "config-is-a-directory", "checkpoint-is-a-directory",
                                      "report-is-a-directory", "dataset-out-is-a-file", "spec-not-utf8",
                                      "config-not-utf8"])
    def test_exits_2_naming_the_path_or_offset(self, data_dir, trained_dir, tmp_path, capsys, case):
        folder = tmp_path / "folder"
        folder.mkdir()
        spec = tmp_path / "spec.txt"
        spec.write_bytes(SPEC_TEXT.encode() + b"# caf\xe9\n")  # Latin-1, not UTF-8
        config = tmp_path / "c.txt"
        config.write_bytes(CONFIG_TEMPLATE.format(
            data_dir=data_dir, model="two_stream", strategy="global", epochs=1, out_dir=tmp_path / "o"
        ).encode() + b"# r\xe9sum\xe9\n")
        good_spec, taken = tmp_path / "good_spec.txt", tmp_path / "taken"
        good_spec.write_text(SPEC_TEXT)
        taken.write_text("")

        def evaluate(checkpoint, out):
            return ["eval", "--checkpoint", str(checkpoint), "--data", str(data_dir), "--out", str(out)]

        argv, named = {
            "spec-is-a-directory": (["gen-data", "--spec", str(folder), "--out", str(tmp_path / "x")], str(folder)),
            "config-is-a-directory": (["train", "--config", str(folder)], str(folder)),
            "checkpoint-is-a-directory": (evaluate(folder, tmp_path / "r.json"), str(folder)),
            "report-is-a-directory": (evaluate(trained_dir / "model.ckpt", folder), str(folder)),
            "dataset-out-is-a-file": (["gen-data", "--spec", str(good_spec), "--out", str(taken)], str(taken)),
            "spec-not-utf8": (["gen-data", "--spec", str(spec), "--out", str(tmp_path / "x")],
                              f"{spec} is not UTF-8: invalid continuation byte (at byte offset {len(SPEC_TEXT) + 5})"),
            "config-not-utf8": (["train", "--config", str(config)],
                                f"{config} is not UTF-8: invalid continuation byte (at byte offset {config.stat().st_size - 6})"),
        }[case]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err
        assert not (tmp_path / "x").exists() and not (tmp_path / "o").exists() and not (tmp_path / "r.json").exists()
        assert list(folder.iterdir()) == [] and list(tmp_path.glob("**/*.tmp")) == []


class TestGradcheckCommand:
    def test_losses_scope_passes(self, capsys):
        assert main(["gradcheck", "--scope", "losses"]) == 0
        out = capsys.readouterr().out
        assert "sigmoid_bce" in out and "msml" in out

    def test_perturbed_gradients_fail(self, monkeypatch, capsys):
        # harness self-test: a deliberately wrong gradient must be caught, and a right one pass
        assert main(["gradcheck", "--scope", "losses"]) == 0
        bias_gradients(monkeypatch, "losses", 1e-3)
        assert main(["gradcheck", "--scope", "losses"]) == 1
        assert capsys.readouterr().out.count("FAIL") == 2
        assert main(["gradcheck", "--perturb", "1e-3"]) == 2  # no command-line knob biases a gradient

    def test_bad_scope_exits_2(self):
        assert main(["gradcheck", "--scope", "everything"]) == 2


class TestExperimentConfigParsing:
    def test_line_numbers_in_errors(self):
        with pytest.raises(ConfigError, match="line 2"):
            ds.parse_fields(ExperimentConfig, "epochs = 3\nepochs = x\n")

    def test_requires_dataset_and_out_dir(self):
        with pytest.raises(ConfigError):
            ds.parse_fields(ExperimentConfig, "epochs = 3\n")

    def test_defaults_are_the_model_and_loss_defaults(self):
        cfg = ExperimentConfig(dataset="d", out_dir="o")
        assert cfg.model_config(8, 1) == ModelConfig()
        assert cfg.loss_weights() == LossWeights()
