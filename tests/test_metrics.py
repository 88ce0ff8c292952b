"""AUC family tests: rank-based implementation against the O(N^2) oracle."""

import numpy as np
import pytest

from helpers import brute_force_auc
from msml import metrics
from msml.errors import UndefinedMetricError
from msml.metrics import (
    MetricsReport,
    ScoreMatrix,
    build_report,
    disease_vs_disease_auc,
    macro_auc,
    normal_vs_disease_auc,
    roc_auc,
    weighted_auc,
)


def random_instance(seed, max_n=40, levels=None):
    """Scores and labels with both classes present; few score levels force ties."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, max_n))
    if levels is None:
        levels = int(rng.integers(2, 8))
    scores = rng.integers(0, levels, size=n) / max(levels - 1, 1)
    labels = np.zeros(n, dtype=np.int8)
    labels[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1
    return scores.astype(np.float64), labels


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.1], [1, 0]) == 1.0

    def test_all_tied_is_half(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_hand_case(self):
        # 3 of 4 pos-neg pairs concordant
        assert roc_auc([0.8, 0.6, 0.4, 0.2], [1, 0, 1, 0]) == 0.75

    def test_single_class_raises(self):
        with pytest.raises(UndefinedMetricError):
            roc_auc([0.1, 0.2], [1, 1])

    def test_equals_brute_force_exactly_on_1000_instances(self):
        for seed in range(1000):
            scores, labels = random_instance(seed)
            assert roc_auc(scores, labels) == brute_force_auc(scores, labels)

    def test_invariant_under_monotone_transforms(self):
        for seed in range(50):
            scores, labels = random_instance(seed)
            base = roc_auc(scores, labels)
            assert roc_auc(np.exp(scores), labels) == base
            assert roc_auc(3.0 * scores + 1.0, labels) == base
            assert roc_auc(np.tanh(scores), labels) == base

    def test_complement_symmetry(self):
        for seed in range(100):
            scores, labels = random_instance(seed)
            lhs = roc_auc(1.0 - scores, labels)
            assert abs(lhs - (1.0 - roc_auc(scores, labels))) < 1e-12


SIX = ScoreMatrix(
    scores=np.array([
        [0.9, 0.1],
        [0.3, 0.8],
        [0.6, 0.7],
        [0.2, 0.3],
        [0.4, 0.2],
        [0.3, 0.75],
    ]),
    labels=np.array([
        [1, 0],
        [0, 1],
        [1, 1],
        [0, 0],
        [0, 0],
        [1, 0],
    ]),
)


class TestSixSampleFixture:
    """Expected values frozen from the pairwise oracle on the filtered subsets."""

    def test_per_class_and_macro(self):
        for c, expected in ((0, 5 / 6), (1, 7 / 8)):
            assert roc_auc(SIX.scores[:, c], SIX.labels[:, c]) == expected
            assert brute_force_auc(SIX.scores[:, c], SIX.labels[:, c]) == expected
        assert macro_auc(SIX) == pytest.approx(41 / 48, abs=1e-15)

    def test_d_auc_matches_subset_oracle(self):
        diseased = SIX.labels.sum(axis=1) > 0
        per_class = [
            brute_force_auc(SIX.scores[diseased, c], SIX.labels[diseased, c]) for c in (0, 1)
        ]
        assert per_class == [5 / 6, 3 / 4]
        assert disease_vs_disease_auc(SIX) == np.mean(per_class)
        assert disease_vs_disease_auc(SIX) == pytest.approx(19 / 24, abs=1e-15)

    def test_n_auc_matches_subset_oracle(self):
        normal = SIX.labels.sum(axis=1) == 0
        vals = []
        for c in (0, 1):
            pos = SIX.labels[:, c] == 1
            scores = np.concatenate([SIX.scores[pos, c], SIX.scores[normal, c]])
            labels = np.concatenate([np.ones(pos.sum(), dtype=int), np.zeros(normal.sum(), dtype=int)])
            vals.append(brute_force_auc(scores, labels))
        assert vals == [5 / 6, 1.0]
        assert normal_vs_disease_auc(SIX) == np.mean(vals)
        assert normal_vs_disease_auc(SIX) == pytest.approx(11 / 12, abs=1e-15)

    def test_w_auc(self):
        # weights (3/5, 2/5) over class AUCs (5/6, 7/8)
        assert weighted_auc(SIX) == pytest.approx(0.6 * 5 / 6 + 0.4 * 7 / 8, abs=1e-15)


class TestMacroAuc:
    def test_arithmetic_mean(self):
        sm = ScoreMatrix(
            scores=np.array([[0.9, 0.5], [0.8, 0.5], [0.1, 0.5], [0.2, 0.5]]),
            labels=np.array([[1, 1], [1, 0], [0, 1], [0, 0]]),
        )
        assert macro_auc(sm) == pytest.approx((1.0 + 0.5) / 2)

    def test_skips_undefined_class_with_warning(self):
        sm = ScoreMatrix(
            scores=np.array([[0.9, 0.9], [0.8, 0.8], [0.1, 0.2]]),
            labels=np.array([[1, 1], [1, 1], [0, 1]]),  # class 1 has no negatives
        )
        with pytest.warns(UserWarning, match="class_1"):
            value = macro_auc(sm)
        assert value == roc_auc(sm.scores[:, 0], sm.labels[:, 0])

    def test_single_class_equals_roc_auc(self):
        scores, labels = random_instance(3)
        sm = ScoreMatrix(scores[:, None], labels[:, None])
        assert macro_auc(sm) == roc_auc(scores, labels)

    def test_all_undefined_raises(self):
        sm = ScoreMatrix(scores=np.array([[0.5], [0.4]]), labels=np.array([[1], [1]]))
        with pytest.warns(UserWarning):
            with pytest.raises(UndefinedMetricError):
                macro_auc(sm)


class TestWeightedAuc:
    def test_reference_fixture(self):
        # class 0: AUC 1.0 with 3 positives; class 1: all scores tied, AUC 0.5,
        # 1 positive -> (3 * 1.0 + 1 * 0.5) / 4
        sm = ScoreMatrix(
            scores=np.array([
                [0.9, 0.4], [0.8, 0.4], [0.7, 0.4], [0.2, 0.4], [0.1, 0.4], [0.05, 0.4],
            ]),
            labels=np.array([[1, 1], [1, 0], [1, 0], [0, 0], [0, 0], [0, 0]]),
        )
        assert weighted_auc(sm) == pytest.approx(0.875, abs=1e-15)

    def test_equal_prevalence_equals_macro(self):
        rng = np.random.default_rng(12)
        scores = rng.random((20, 3))
        labels = np.zeros((20, 3), dtype=np.int8)
        for c in range(3):
            labels[rng.choice(20, size=7, replace=False), c] = 1
        sm = ScoreMatrix(scores, labels)
        assert weighted_auc(sm) == pytest.approx(macro_auc(sm), abs=1e-12)

    def test_single_class_equals_auc(self):
        scores, labels = random_instance(8)
        sm = ScoreMatrix(scores[:, None], labels[:, None])
        assert weighted_auc(sm) == roc_auc(scores, labels)

    def test_no_positives_raises(self):
        sm = ScoreMatrix(scores=np.array([[0.5], [0.4]]), labels=np.array([[0], [0]]))
        with pytest.warns(UserWarning):
            with pytest.raises(UndefinedMetricError):
                weighted_auc(sm)


class TestDAndNAuc:
    def test_d_auc_equals_macro_without_normals(self):
        rng = np.random.default_rng(21)
        scores = rng.random((30, 3))
        labels = (rng.random((30, 3)) < 0.4).astype(np.int8)
        labels[labels.sum(axis=1) == 0, 0] = 1  # make every sample diseased
        sm = ScoreMatrix(scores, labels)
        assert disease_vs_disease_auc(sm) == macro_auc(sm)

    def test_n_auc_requires_normals(self):
        rng = np.random.default_rng(22)
        labels = np.ones((10, 2), dtype=np.int8)
        sm = ScoreMatrix(rng.random((10, 2)), labels)
        with pytest.raises(UndefinedMetricError):
            normal_vs_disease_auc(sm)

    def test_n_auc_perfect_when_normals_scored_zero(self):
        labels = np.array([[1, 0], [0, 1], [0, 0], [0, 0]])
        scores = np.where(labels == 1, 1.0, 0.0)
        sm = ScoreMatrix(scores, labels)
        assert normal_vs_disease_auc(sm) == 1.0

    def test_d_auc_skips_class_all_positive_in_subset(self):
        # class 0 positive in every diseased sample -> skipped from D-AUC
        labels = np.array([[1, 1], [1, 0], [1, 1], [0, 0]])
        rng = np.random.default_rng(23)
        sm = ScoreMatrix(rng.random((4, 2)), labels)
        with pytest.warns(UserWarning, match="class_0"):
            value = disease_vs_disease_auc(sm)
        diseased = labels.sum(axis=1) > 0
        assert value == brute_force_auc(sm.scores[diseased, 1], labels[diseased, 1])


class TestBuildReport:
    def test_perfect_classifier_all_aggregates_one(self):
        rng = np.random.default_rng(31)
        labels = (rng.random((40, 4)) < 0.3).astype(np.int8)
        labels[0] = 0  # ensure at least one all-normal sample
        labels[1] = [1, 1, 0, 0]
        labels[2] = [0, 0, 1, 1]
        scores = labels.astype(np.float64)
        report = build_report(ScoreMatrix(scores, labels))
        assert report.macro_auc == 1.0
        assert report.w_auc == 1.0
        assert report.d_auc == 1.0
        assert report.n_auc == 1.0

    def test_round_trip_is_lossless(self):
        rng = np.random.default_rng(32)
        labels = (rng.random((50, 3)) < 0.35).astype(np.int8)
        labels[:5] = 0
        labels[5] = [1, 1, 1]
        report = build_report(ScoreMatrix(rng.random((50, 3)), labels))
        again = MetricsReport.from_json(report.to_json())
        assert again == report
        assert again.to_json() == report.to_json()

    def test_aggregates_match_recomputation(self):
        rng = np.random.default_rng(33)
        labels = (rng.random((60, 4)) < 0.3).astype(np.int8)
        labels[:6] = 0
        report = build_report(ScoreMatrix(rng.random((60, 4)), labels))
        defined = [v for v in report.per_class_auc if v is not None]
        assert report.macro_auc == pytest.approx(np.mean(defined), abs=1e-15)
        w = np.asarray(report.class_weights)
        mask = np.array([v is not None for v in report.per_class_auc])
        vals = np.array([v for v in report.per_class_auc if v is not None])
        assert report.w_auc == pytest.approx(np.dot(w[mask], vals) / w[mask].sum(), abs=1e-12)
        assert sum(report.class_weights) == pytest.approx(1.0, abs=1e-12)

    def test_each_distinct_auc_computed_once(self, monkeypatch):
        rng = np.random.default_rng(35)
        labels = (rng.random((80, 8)) < 0.3).astype(np.int8)
        labels[:4] = 0
        labels[4:8] = 1
        calls = []

        def counting_roc_auc(scores, ys, real=metrics.roc_auc):
            calls.append(1)
            return real(scores, ys)

        monkeypatch.setattr(metrics, "roc_auc", counting_roc_auc)
        report = build_report(ScoreMatrix(rng.random((80, 8)), labels))
        assert report.skipped_classes == {"per_class": [], "d_auc": [], "n_auc": []}
        assert None not in (report.w_auc, report.d_auc, report.n_auc)
        assert len(calls) == 24  # 8 per class, 8 on diseased samples, 8 against normals

    def test_undefined_aggregates_become_null(self):
        labels = np.array([[1, 1], [1, 1], [1, 0]])  # no normals, class 0 single-class
        rng = np.random.default_rng(34)
        with pytest.warns(UserWarning):
            report = build_report(ScoreMatrix(rng.random((3, 2)), labels))
        assert report.per_class_auc[0] is None
        assert report.n_auc is None
        assert 0 in report.skipped_classes["per_class"]
