"""End-to-end command-line tests driven through cli.main (in-process)."""

import json
import shutil

import numpy as np
import pytest

from msml import dataset as ds
from msml.cli import ExperimentConfig, main
from msml.errors import ConfigError
from msml.metrics import MetricsReport, ScoreMatrix, build_report
from msml.model import model_from_checkpoint, read_checkpoint, save_checkpoint
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
        _, tensors = read_checkpoint(tmp_path / "run" / "model.ckpt")
        assert tensors["meta.input_channels"].tolist() == [3.0]
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

    def test_unknown_config_key_exits_2(self, tmp_path):
        config = tmp_path / "c.txt"
        config.write_text("bogus_key = 1\n")
        assert main(["train", "--config", str(config)]) == 2


class TestEval:
    def test_report_written_and_consistent(self, data_dir, trained_dir, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--data", str(data_dir), "--split", "test",
                     "--head", "fce", "--out", str(report_path)]) == 0
        report = MetricsReport.from_json(report_path.read_text())
        assert (tmp_path / "report.json.config.txt").exists()

        # cross-check against an in-process recomputation
        model = model_from_checkpoint(trained_dir / "model.ckpt")
        folds, class_names = cli_mod.load_folds(data_dir)
        scores = score_fold(model, folds["test"])
        expected = build_report(
            ScoreMatrix(scores["fce"], folds["test"].labels.astype(np.int8), class_names)
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
        report = json.loads(out.read_text())
        model = model_from_checkpoint(trained_dir / "model.ckpt")
        folds, class_names = cli_mod.load_folds(data_dir)
        scores = score_fold(model, folds["test"])
        fused = (scores["ce"] + scores["fce"]) / 2
        expected = build_report(
            ScoreMatrix(fused, folds["test"].labels.astype(np.int8), class_names)
        )
        assert report["macro_auc"] == expected.macro_auc

    def test_bad_head_flag_exits_2(self, data_dir, trained_dir, tmp_path):
        code = main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--data", str(data_dir), "--head", "bogus",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2

    @pytest.mark.parametrize("damage", ["label-2", "index-in-two-folds", "empty-test-fold"])
    def test_corrupt_dataset_exits_2(self, data_dir, trained_dir, tmp_path, capsys, damage):
        copy = tmp_path / "data"
        shutil.copytree(data_dir, copy)
        if damage == "label-2":
            lines = (copy / "labels.csv").read_text().splitlines()
            lines[1] = lines[1][: lines[1].rindex(",")] + ",2"
            (copy / "labels.csv").write_text("\n".join(lines) + "\n")
        else:
            folds = json.loads((copy / "splits.json").read_text())
            if damage == "index-in-two-folds":
                folds["test"].append(folds["train"][0])
            else:
                folds["test"] = []
            (copy / "splits.json").write_text(json.dumps(folds))
        code = main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--data", str(copy), "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert ("row 2" if damage == "label-2" else "'test'") in err
        assert not (tmp_path / "r.json").exists()

    def test_truncated_splits_exits_2(self, data_dir, trained_dir, tmp_path, capsys):
        copy = tmp_path / "data"
        shutil.copytree(data_dir, copy)
        (copy / "splits.json").write_text('{"train": [1, 2')
        code = main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--data", str(copy), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "splits.json is not valid JSON" in capsys.readouterr().err
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


class TestGradcheckCommand:
    def test_losses_scope_passes(self, capsys):
        assert main(["gradcheck", "--scope", "losses"]) == 0
        out = capsys.readouterr().out
        assert "sigmoid_bce" in out and "msml" in out

    def test_perturbed_gradients_fail(self):
        # harness self-test: a deliberately wrong gradient must be caught
        assert main(["gradcheck", "--scope", "losses", "--perturb", "1e-3"]) == 1

    def test_bad_scope_exits_2(self):
        assert main(["gradcheck", "--scope", "everything"]) == 2


class TestExperimentConfigParsing:
    def test_line_numbers_in_errors(self):
        with pytest.raises(ConfigError, match="line 2"):
            ds.parse_fields(ExperimentConfig, "epochs = 3\nepochs = x\n")

    def test_requires_dataset_and_out_dir(self):
        with pytest.raises(ConfigError):
            ds.parse_fields(ExperimentConfig, "epochs = 3\n")
