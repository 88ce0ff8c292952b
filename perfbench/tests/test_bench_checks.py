"""Each correctness check holds on the program's output and fails on a corrupted one."""

import json
import subprocess
import sys

import numpy as np
import pytest

import checks
from msml.losses import msml_batch, sigmoid_bce_batch
from msml.metrics import ScoreMatrix, build_report
from run import BASE_SPEC, CLI, SRC, spec_text

SPEC = {**BASE_SPEC, "num_samples": 600, "num_groups": 30, "seed": 5}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("gen")
    (root / "spec.txt").write_text(spec_text(SPEC))
    subprocess.run([sys.executable, "-c", CLI, "gen-data", "--spec", str(root / "spec.txt"),
                    "--out", str(root / "data")], env={"PYTHONPATH": str(SRC)},
                   check=True, capture_output=True, timeout=120)
    return root / "data"


def corrupted_copy(src, dst):
    dst.mkdir()
    for name in ("images.bin", "labels.csv", "splits.json"):
        (dst / name).write_bytes((src / name).read_bytes())
    return dst


def test_dataset(dataset, tmp_path):
    assert checks.check_dataset(dataset, SPEC) == []

    bad = corrupted_copy(dataset, tmp_path / "truncated")
    (bad / "images.bin").write_bytes((bad / "images.bin").read_bytes()[:-4])
    assert checks.check_dataset(bad, SPEC)

    bad = corrupted_copy(dataset, tmp_path / "row")
    (bad / "labels.csv").write_text("".join((bad / "labels.csv").read_text().splitlines(True)[:-1]))
    assert checks.check_dataset(bad, SPEC)

    folds = json.loads((dataset / "splits.json").read_text())
    bad = corrupted_copy(dataset, tmp_path / "overlap")
    (bad / "splits.json").write_text(json.dumps({**folds, "test": folds["test"] + folds["val"][:1]}))
    assert checks.check_dataset(bad, SPEC)

    # one sample moves to another fold: still a partition, but its group leaks
    bad = corrupted_copy(dataset, tmp_path / "leak")
    moved = folds["val"][0]
    leak = {**folds, "val": folds["val"][1:], "test": sorted(folds["test"] + [moved])}
    (bad / "splits.json").write_text(json.dumps(leak))
    assert any("group" in e for e in checks.check_dataset(bad, SPEC))

    bad = corrupted_copy(dataset, tmp_path / "prevalence")
    lines = (bad / "labels.csv").read_text().splitlines()
    lines[1:] = [",".join(r.split(",")[:-1] + ["1"]) for r in lines[1:]]
    (bad / "labels.csv").write_text("\n".join(lines) + "\n")
    assert any("class 7" in e for e in checks.check_dataset(bad, SPEC))


def scores_and_labels(seed=0, n=300, c=4):
    rng = np.random.default_rng(seed)
    labels = (rng.random((n, c)) < 0.3).astype(np.int8)
    labels[: n // 3] = 0  # all-normal samples
    scores = np.round(0.5 * labels + rng.random((n, c)), 2)  # rounding makes ties
    return scores, labels


def test_report():
    scores, labels = scores_and_labels()
    report = json.loads(build_report(ScoreMatrix(scores, labels)).to_json())
    assert checks.check_report(report, scores, labels) == []
    for key in ("macro_auc", "d_auc", "n_auc"):
        assert checks.check_report({**report, key: report[key] + 1e-9}, scores, labels)
    per_class = list(report["per_class_auc"])
    per_class[2] += 1e-9
    assert checks.check_report({**report, "per_class_auc": per_class}, scores, labels)


def test_fused_report_must_be_the_mean():
    ce, labels = scores_and_labels(1)
    fce, _ = scores_and_labels(2)
    mean = (ce + fce) / 2.0
    fused = json.loads(build_report(ScoreMatrix(mean, labels)).to_json())
    assert checks.check_report(fused, mean, labels) == []
    fce_only = json.loads(build_report(ScoreMatrix(fce, labels)).to_json())
    assert checks.check_report(fce_only, mean, labels)


def test_pair_auc_counts_ties_half():
    assert checks.pair_auc([0.5, 0.5, 0.2], [1, 0, 0]) == 0.75
    assert checks.pair_auc([0.1, 0.2], [0, 0]) is None


def test_same_scores():
    a = {"ce": np.linspace(0, 1, 12).reshape(3, 4)}
    assert checks.check_same_scores(a, {"ce": a["ce"].copy()}) == []
    b = a["ce"].copy()
    b[1, 1] = np.nextafter(b[1, 1], 2.0)
    assert checks.check_same_scores(a, {"ce": b})
    assert checks.check_same_scores(a, {})


def test_losses():
    rng = np.random.default_rng(3)
    logits = rng.normal(0, 3, size=(16, 8))
    labels = (rng.random((16, 8)) < 0.3).astype(np.int8)
    labels[0] = 0
    labels[1] = 1
    batches = {"msml": [logits], "bce": [logits, 40.0 * logits]}
    assert checks.check_losses(batches, labels, msml_batch, sigmoid_bce_batch) == []

    def off_value(logits, labels):
        value, grad = msml_batch(logits, labels)
        return value * (1 + 1e-8), grad

    def off_grad(logits, labels):
        value, grad = msml_batch(logits, labels)
        grad = grad.copy()
        grad[3, 2] += 1e-4
        return value, grad

    def off_bce(logits, labels):
        value, grad = sigmoid_bce_batch(logits, labels)
        return value + 1e-8, grad

    assert checks.check_losses(batches, labels, off_value, sigmoid_bce_batch)
    assert checks.check_losses(batches, labels, off_grad, sigmoid_bce_batch)
    assert checks.check_losses(batches, labels, msml_batch, off_bce)


HISTORY = (
    "epoch,lr,alpha_ce,alpha_msml,beta_fce,val_macro_auc\n"
    "0,0.001,0.5,0.25,1.5,0.8\n1,0.001,0.4,0.2,1.2,0.85\n2,0.001,0.3,0.2,1.1,0.9\n"
    "3,0.0001,0.3,0.2,1.0,0.9\n"
)


def test_history():
    assert checks.check_history(HISTORY, 4, 1e-3) == []
    assert checks.check_history(HISTORY, 5, 1e-3)
    assert checks.check_history(HISTORY.replace("0.0001", "0.001"), 4, 1e-3)
    assert checks.check_history(HISTORY.replace("0.85", "np.float64(0.85)"), 4, 1e-3)
    assert checks.check_history(HISTORY.replace(",0.9\n3", ",\n3"), 4, 1e-3)


def test_learning():
    assert checks.check_learning(0.9) == []
    assert checks.check_learning(0.55)
    assert checks.check_learning(None)


def test_identical_outputs():
    assert checks.check_identical({"a/model.ckpt": {"x"}}) == []
    assert checks.check_identical({"a/model.ckpt": {"x", "y"}})
