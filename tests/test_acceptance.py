"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines
and the experiment tables. The two training experiments (fusion ordering and
strategy comparison) share one session-scoped set of 5-seed runs on the
default synthetic dataset; expect the full module to take several minutes.
"""

import math
import time

import numpy as np
import pytest

from helpers import brute_force_auc
from msml import dataset as ds
from msml.cli import main as cli_main
from msml.gradcheck import TOLERANCES, run_scope
from msml.losses import msml, sigmoid_bce
from msml.metrics import (
    ScoreMatrix,
    disease_vs_disease_auc,
    macro_auc,
    normal_vs_disease_auc,
    roc_auc,
    weighted_auc,
)
from msml.model import BaselineModel, ModelConfig, TwoStreamModel, ensemble_fuse
from msml.train import FoldData, score_fold, train

SEEDS = (1, 2, 3, 4, 5)
EXPERIMENT_EPOCHS = 6


def report(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared data and training runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def default_data():
    spec = ds.GeneratorSpec()  # C=8, N=2000, 100 groups, 32x32, seed-controlled
    data = ds.generate(spec)
    folds_idx = ds.split(data, ds.SplitSpec(seed=spec.seed))
    images = {k: data.images[v] for k, v in folds_idx.items()}
    normed, _ = ds.normalize(images)
    folds = {
        k: FoldData(normed[k], data.labels[folds_idx[k]].astype(np.float64))
        for k in folds_idx
    }
    return {"spec": spec, "data": data, "folds_idx": folds_idx, "folds": folds}


@pytest.fixture(scope="session")
def experiments(default_data):
    """Per-seed test macro-AUC of baseline, fused, and all three strategies."""
    folds = default_data["folds"]
    test = folds["test"]

    def test_auc(scores):
        return macro_auc(ScoreMatrix(scores, test.labels))

    rows = {}
    ordering_seconds = 0.0
    for seed in SEEDS:
        t0 = time.perf_counter()
        baseline = BaselineModel(ModelConfig(), seed=seed)
        train(baseline, folds["train"], folds["val"], strategy="global",
              epochs=EXPERIMENT_EPOCHS, seed=seed)
        base_scores = score_fold(baseline, test)
        row = {"baseline": test_auc(base_scores["ce"])}
        for strategy in ("global", "local", "local_fixed"):
            model = TwoStreamModel(ModelConfig(), seed=seed)
            train(model, folds["train"], folds["val"], strategy=strategy,
                  epochs=EXPERIMENT_EPOCHS, seed=seed)
            scores = score_fold(model, test)
            row[strategy] = test_auc(scores["fce"])
            if strategy == "global":
                row["fused"] = test_auc(ensemble_fuse([base_scores["ce"], scores["fce"]]))
                ordering_seconds += time.perf_counter() - t0
        rows[seed] = row
        print(f"\nseed {seed}: " + "  ".join(f"{k}={v:.4f}" for k, v in row.items()))
    return {"rows": rows, "ordering_seconds": ordering_seconds}


def median_of(rows, key):
    return float(np.median([row[key] for row in rows.values()]))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_gradient_correctness():
    """Finite-difference checks for every op, both losses, the bilinear chain,
    and a whole-model parameter subset, inside the 2-minute budget."""
    t0 = time.perf_counter()
    worst = {}
    for scope in ("layers", "losses", "bilinear", "model"):
        errs = run_scope(scope)
        worst.update(errs)
        assert all(err <= TOLERANCES[name] for name, err in errs.items()), \
            f"{scope} gradcheck exceeded tolerance: {errs}"
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items()) + f" ({elapsed:.1f}s)"
    report("gradient correctness", elapsed < 120.0, detail)


def test_msml_analytic_properties():
    rng_cases = 1000
    for case in range(rng_cases):
        rng = np.random.default_rng([88, case])
        c = int(rng.integers(2, 12))
        x = rng.normal(scale=3.0, size=c)
        y = np.zeros(c, dtype=np.int8)
        y[rng.choice(c, size=int(rng.integers(1, c)), replace=False)] = 1

        loss, grad = msml(x, y)
        assert loss >= 0.0
        assert (grad[y == 1] <= 0).all() and (grad[y == 0] >= 0).all()

        shift = float(rng.uniform(-50, 50))
        loss_s, grad_s = msml(x + shift, y)
        assert abs(loss_s - loss) <= 1e-10
        assert np.abs(grad_s - grad).max() <= 1e-10

        all_pos_loss, all_pos_grad = msml(x, np.ones(c, dtype=np.int8))
        assert all_pos_loss == 0.0 and not all_pos_grad.any()
        all_neg_loss, all_neg_grad = msml(x, np.zeros(c, dtype=np.int8))
        assert all_neg_loss == 0.0 and not all_neg_grad.any()
    report("msml analytic properties", True, f"{rng_cases} random cases")


def test_metric_oracle_equivalence():
    mismatches = 0
    for case in range(1000):
        rng = np.random.default_rng([99, case])
        n = int(rng.integers(4, 50))
        levels = int(rng.integers(2, 6))  # few levels -> heavy ties
        scores = rng.integers(0, levels, size=n) / max(levels - 1, 1)
        labels = np.zeros(n, dtype=np.int8)
        labels[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1
        if roc_auc(scores, labels) != brute_force_auc(scores, labels):
            mismatches += 1
    assert mismatches == 0

    six = ScoreMatrix(
        scores=np.array([[0.9, 0.1], [0.3, 0.8], [0.6, 0.7],
                         [0.2, 0.3], [0.4, 0.2], [0.3, 0.75]]),
        labels=np.array([[1, 0], [0, 1], [1, 1], [0, 0], [0, 0], [1, 0]]),
    )
    diseased = six.labels.sum(axis=1) > 0
    d_oracle = np.mean([
        brute_force_auc(six.scores[diseased, c], six.labels[diseased, c]) for c in (0, 1)
    ])
    assert disease_vs_disease_auc(six) == d_oracle
    normal = six.labels.sum(axis=1) == 0
    n_oracle = np.mean([
        brute_force_auc(
            np.concatenate([six.scores[six.labels[:, c] == 1, c], six.scores[normal, c]]),
            np.concatenate([np.ones((six.labels[:, c] == 1).sum(), int),
                            np.zeros(normal.sum(), int)]),
        )
        for c in (0, 1)
    ])
    assert normal_vs_disease_auc(six) == n_oracle

    w_fixture = ScoreMatrix(
        scores=np.array([[0.9, 0.4], [0.8, 0.4], [0.7, 0.4],
                         [0.2, 0.4], [0.1, 0.4], [0.05, 0.4]]),
        labels=np.array([[1, 1], [1, 0], [1, 0], [0, 0], [0, 0], [0, 0]]),
    )
    assert weighted_auc(w_fixture) == pytest.approx(0.875, abs=1e-15)
    report("metric oracle equivalence", True,
           f"1000 tie-heavy instances exact, D={d_oracle:.4f}, N={n_oracle:.4f}, W=0.875")


def test_bce_gradient_contract():
    """The loss gradient in logit space must equal z - y to machine precision,
    with z recomputed independently of the loss implementation."""
    worst = 0.0
    for case in range(200):
        rng = np.random.default_rng([111, case])
        c = int(rng.integers(1, 16))
        x = rng.uniform(-30.0, 30.0, size=c)  # safe range for the naive formula
        y = (rng.random(c) < 0.5).astype(np.float64)
        _, grad = sigmoid_bce(x, y)
        z_independent = 1.0 / (1.0 + np.exp(-x))
        worst = max(worst, np.abs(grad - (z_independent - y)).max())
    report("sigmoid-bce gradient equals z - y", worst <= 1e-12, f"max dev {worst:.2e}")


def test_symmetry_breaking(default_data):
    folds = default_data["folds"]
    model = TwoStreamModel(ModelConfig(), seed=42)
    train(model, folds["train"], folds["val"], strategy="global", epochs=1, seed=42)
    diffs = [
        np.abs(pa[1] - pb[1]).max()
        for pa, pb in zip(model.stream_a.params("s"), model.stream_b.params("s"))
    ]
    report("symmetry breaking after one global epoch", max(diffs) > 0.0,
           f"max stream parameter difference {max(diffs):.3e}")


def test_ordering_experiment(experiments):
    rows = experiments["rows"]
    fused = median_of(rows, "fused")
    baseline = median_of(rows, "baseline")
    elapsed = experiments["ordering_seconds"]
    ok = fused >= baseline and elapsed <= 1800.0
    report("ordering experiment (fused vs baseline)", ok,
           f"median fused {fused:.4f} >= baseline {baseline:.4f}, {elapsed:.0f}s")


def test_strategy_experiment(experiments):
    rows = experiments["rows"]
    medians = {k: median_of(rows, k) for k in ("global", "local", "local_fixed")}
    print("\nstrategy medians: " + "  ".join(f"{k}={v:.4f}" for k, v in medians.items()))
    report("strategy experiment (global vs local)",
           medians["global"] >= medians["local"],
           f"global {medians['global']:.4f} >= local {medians['local']:.4f}, "
           f"local_fixed {medians['local_fixed']:.4f}")


def test_reproducibility(tmp_path):
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(
        "num_classes = 4\nnum_samples = 90\nnum_groups = 15\nimage_size = 18, 18\n"
        "class_prevalence = 0.4, 0.3, 0.25, 0.2\ncooccurrence_pairs =\n"
        "normal_fraction = 0.3\nnoise_sigma = 0.05\nseed = 21\n"
    )
    data_dir = tmp_path / "data"
    assert cli_main(["gen-data", "--spec", str(spec_file), "--out", str(data_dir)]) == 0

    blobs = {}
    for run in ("one", "two"):
        out_dir = tmp_path / run
        config = tmp_path / f"{run}.txt"
        config.write_text(
            f"dataset = {data_dir}\nmodel = two_stream\nstrategy = global\n"
            f"epochs = 2\nbatch_size = 16\nseed = 5\ncrop_size = 16\n"
            f"conv_blocks = 8:3:1, 8:3:1\nproj_width = 16\nout_dir = {out_dir}\n"
        )
        assert cli_main(["train", "--config", str(config)]) == 0
        rep = tmp_path / f"report_{run}.json"
        assert cli_main(["eval", "--checkpoint", str(out_dir / "model.ckpt"),
                         "--data", str(data_dir), "--split", "test",
                         "--head", "fce", "--out", str(rep)]) == 0
        blobs[run] = ((out_dir / "model.ckpt").read_bytes(), rep.read_bytes())
    ok = blobs["one"] == blobs["two"]
    report("reproducibility (byte-identical checkpoint and report)", ok)


def test_data_integrity(default_data, tmp_path):
    data = default_data["data"]
    folds_idx = default_data["folds_idx"]
    groups = {name: set(data.group_ids[idx].tolist()) for name, idx in folds_idx.items()}
    leaks = (
        len(groups["train"] & groups["val"])
        + len(groups["train"] & groups["test"])
        + len(groups["val"] & groups["test"])
    )
    ds.save(data, tmp_path)
    back = ds.load(tmp_path)
    round_trip = (
        np.array_equal(back.images, data.images)
        and np.array_equal(back.labels, data.labels)
        and np.array_equal(back.group_ids, data.group_ids)
        and back.class_names == data.class_names
    )
    report("data integrity (no split leakage, bit-exact round trip)",
           leaks == 0 and round_trip, f"shared groups {leaks}")


def test_gradcheck_tolerances_are_pinned():
    """The acceptance tolerances live in one table and match the contracts."""
    assert TOLERANCES["affine"] == 1e-6
    assert TOLERANCES["msml"] == 1e-6
    assert TOLERANCES["sigmoid_bce"] == 1e-6
    assert TOLERANCES["bilinear_head"] == 1e-5
    assert TOLERANCES["model"] == 1e-4
