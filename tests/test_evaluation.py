"""Folds, confusion metrics, ROC/AUC and the cross-validation protocol."""

import json
import os
import signal
import time

import numpy as np
import pytest

import oracles
from test_layers import run_check, usable_cpus

from voxscreen.errors import (
    ConfigError,
    EmptyEvaluationError,
    InsufficientClassCountError,
    LengthMismatchError,
    NonFiniteLossError,
    SingleClassDataError,
    WorkerDiedError,
)
from voxscreen.evaluation import (
    ConfusionCounts,
    confusion_at_threshold,
    cross_validate,
    metrics,
    roc_auc,
    stratified_folds,
)


def fold_class_counts(plan, labels):
    labels = np.asarray(labels)
    return [(int(np.sum(labels[plan.test_indices(f)] == 1)),
             int(np.sum(labels[plan.test_indices(f)] == 0)))
            for f in range(plan.k)]


class TestStratifiedFolds:
    def test_divisible_case_exact(self):
        labels = np.array([1] * 10 + [0] * 20)
        plan = stratified_folds(labels, k=5, seed=0)
        assert fold_class_counts(plan, labels) == [(2, 4)] * 5

    def test_cohort_shaped_counts(self):
        """308 positives / 585 negatives, k=10."""
        labels = np.array([1] * 308 + [0] * 585)
        plan = stratified_folds(labels, k=10, seed=1)
        for pos, neg in fold_class_counts(plan, labels):
            assert pos in (30, 31)
            assert neg in (58, 59)

    def test_every_example_in_exactly_one_fold(self):
        labels = np.array([0, 1] * 25)
        plan = stratified_folds(labels, k=7, seed=3)
        seen = np.concatenate([plan.test_indices(f) for f in range(7)])
        assert sorted(seen.tolist()) == list(range(50))

    def test_deterministic_per_seed(self):
        labels = np.array([0, 1] * 30)
        a = stratified_folds(labels, k=5, seed=4)
        b = stratified_folds(labels, k=5, seed=4)
        c = stratified_folds(labels, k=5, seed=5)
        assert np.array_equal(a.assignments, b.assignments)
        assert not np.array_equal(a.assignments, c.assignments)

    @pytest.mark.parametrize("k", [1, 0])
    def test_fewer_than_two_folds_is_a_config_error(self, k):
        with pytest.raises(ConfigError, match=f"^k={k}: cross-validation needs at least 2 folds$"):
            stratified_folds(np.array([0, 1] * 4), k=k)

    def test_insufficient_class_count(self):
        with pytest.raises(InsufficientClassCountError):
            stratified_folds(np.array([1, 0, 0, 0, 0]), k=2)

    def test_balance_over_random_shapes(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            k = int(rng.integers(2, 11))
            n_pos = int(rng.integers(k, 60))
            n_neg = int(rng.integers(k, 60))
            labels = np.array([1] * n_pos + [0] * n_neg)
            plan = stratified_folds(labels, k=k, seed=int(rng.integers(1 << 30)))
            counts = fold_class_counts(plan, labels)
            pos_counts = [c[0] for c in counts]
            neg_counts = [c[1] for c in counts]
            assert max(pos_counts) - min(pos_counts) <= 1
            assert max(neg_counts) - min(neg_counts) <= 1


class TestConfusion:
    def test_perfectly_separated(self):
        c = confusion_at_threshold([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0])
        assert (c.tp, c.fp, c.tn, c.fn) == (2, 0, 2, 0)

    def test_threshold_is_inclusive(self):
        c = confusion_at_threshold([0.5, 0.5], [1, 0])
        assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 0, 0)

    def test_hand_case(self):
        c = confusion_at_threshold([0.6, 0.4], [0, 1])
        assert (c.tp, c.fp, c.tn, c.fn) == (0, 1, 0, 1)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            confusion_at_threshold([0.5], [1, 0])


class TestMetrics:
    def test_hand_arithmetic(self):
        m = metrics(ConfusionCounts(tp=8, fp=5, tn=85, fn=2))
        assert m["sensitivity"] == 0.8
        assert abs(m["specificity"] - 85 / 90) < 1e-12
        assert m["ppv"] == 8 / 13
        assert m["npv"] == 85 / 87
        assert m["accuracy"] == 0.93

    def test_undefined_ratio_is_none(self):
        m = metrics(ConfusionCounts(tp=0, fp=0, tn=5, fn=5))
        assert m["ppv"] is None
        assert m["sensitivity"] == 0.0

    def test_perfect_classifier(self):
        m = metrics(ConfusionCounts(tp=10, fp=0, tn=10, fn=0))
        assert all(v == 1.0 for v in m.values())

    def test_empty_rejected(self):
        with pytest.raises(EmptyEvaluationError):
            metrics(ConfusionCounts(0, 0, 0, 0))


class TestRocAuc:
    def test_three_of_four_pairs(self):
        roc = roc_auc([0.9, 0.4, 0.6, 0.1], [1, 1, 0, 0])
        assert roc.auc == 0.75

    def test_perfect_separation(self):
        roc = roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert roc.auc == 1.0

    def test_all_ties_give_half(self):
        roc = roc_auc([0.5] * 6, [1, 1, 1, 0, 0, 0])
        assert roc.auc == 0.5

    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(7)
        scores = rng.uniform(size=30)
        labels = rng.integers(0, 2, 30)
        labels[0], labels[1] = 0, 1
        roc = roc_auc(scores, labels)
        assert tuple(roc.points[0]) == (0.0, 0.0)
        assert tuple(roc.points[-1]) == (1.0, 1.0)
        assert np.all(np.diff(roc.points[:, 0]) >= 0)
        assert np.all(np.diff(roc.points[:, 1]) >= 0)

    def test_matches_pairwise_oracle(self):
        """Trapezoid equals the Mann-Whitney estimate, ties included."""
        rng = np.random.default_rng(8)
        for trial in range(50):
            n = int(rng.integers(4, 200))
            labels = rng.integers(0, 2, n)
            labels[:2] = [0, 1]
            if trial % 2:
                scores = rng.choice([0.1, 0.3, 0.5, 0.7], size=n)  # tie-heavy
            else:
                scores = rng.uniform(size=n)
            fast = roc_auc(scores, labels).auc
            assert abs(fast - oracles.pairwise_auc(scores, labels)) <= 1e-12

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(9)
        scores = rng.uniform(size=60)
        labels = rng.integers(0, 2, 60)
        labels[:2] = [0, 1]
        base = roc_auc(scores, labels).auc
        sig = 1.0 / (1.0 + np.exp(-(3.0 * scores - 1.0)))
        assert roc_auc(sig, labels).auc == base
        assert roc_auc(0.2 * scores + 0.4, labels).auc == base

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassDataError):
            roc_auc([0.5, 0.6], [1, 1])

    def test_bytes_match_loop_form(self):
        """Points, thresholds and AUC equal the tie-group loop it replaced
        (tests/oracles.py) byte for byte, with ties, +-0 and +-inf."""
        rng = np.random.default_rng(10)
        pool = np.array([0.0, -0.0, np.inf, -np.inf, 0.25, 0.5, 0.75])
        for trial in range(2000):
            n = int(rng.integers(2, 40))
            labels = rng.integers(0, 2, n)
            labels[:2] = [0, 1]
            scores = np.where(rng.uniform(size=n) < trial % 5 / 4,
                              rng.choice(pool, size=n), rng.uniform(-1, 1, size=n))
            roc = roc_auc(scores, labels)
            points, thresholds, auc = oracles.roc_loop(scores, labels)
            assert roc.points.tobytes() == points.tobytes(), scores
            assert roc.thresholds.tobytes() == thresholds.tobytes(), scores
            assert roc.auc == auc, scores

    def test_nan_score_returns(self):
        """The loop form never ended on a NaN score. The check runs in a fresh
        interpreter with a time limit, so a loop brought back fails the suite
        instead of hanging it."""
        run_check("import test_evaluation; test_evaluation.check_nan_score()", {}, timeout=60)


def check_nan_score():
    roc = roc_auc([0.2, np.nan, 0.7], [0, 1, 1])
    assert roc.points.tolist() == [[0, 0], [0, 0.5], [1, 0.5], [1, 1]]
    assert roc.thresholds[:3].tolist() == [np.inf, 0.7, 0.2] and np.isnan(roc.thresholds[3])
    assert roc.auc == 0.5


class _MeanThreshold:
    """Toy one-dimensional learner for protocol tests."""

    def __init__(self, features, labels):
        rows = np.asarray(features, dtype=np.float64).reshape(len(features), -1)
        pos = rows[np.asarray(labels) == 1].mean(axis=0)
        neg = rows[np.asarray(labels) == 0].mean(axis=0)
        self.direction = pos - neg
        self.offset = (pos + neg) / 2.0

    def score_batch(self, features):
        rows = np.asarray(features, dtype=np.float64).reshape(len(features), -1)
        z = (rows - self.offset) @ self.direction
        return 1.0 / (1.0 + np.exp(-z))


def _mean_threshold_fit(features, labels, seed):
    return _MeanThreshold(features, labels)


class TestCrossValidate:
    def test_deterministic_reports(self):
        rng = np.random.default_rng(10)
        feats = list(rng.normal(size=(40, 3)) + 0.5)
        labels = rng.integers(0, 2, 40)
        labels[:4] = [0, 1, 0, 1]
        a = cross_validate(feats, labels, {"model": "toy", "feature": "raw"},
                           k=4, seed=2, fit_fn=_mean_threshold_fit)
        b = cross_validate(feats, labels, {"model": "toy", "feature": "raw"},
                           k=4, seed=2, fit_fn=_mean_threshold_fit)
        assert a.to_json() == b.to_json()

    def test_fold_confusions_partition_classes(self):
        rng = np.random.default_rng(11)
        feats = list(rng.normal(size=(60, 2)))
        labels = np.array([0, 1] * 30)
        report = cross_validate(feats, labels, {"model": "toy"}, k=5, seed=0,
                                fit_fn=_mean_threshold_fit)
        plan_counts = []
        for fold, conf in enumerate(report.confusions):
            assert conf.tp + conf.fn == 6  # fold positives
            assert conf.tn + conf.fp == 6  # fold negatives
            plan_counts.append(conf.total)
        assert sum(plan_counts) == 60

    def test_aggregate_regenerates_from_folds(self):
        rng = np.random.default_rng(12)
        feats = list(rng.normal(size=(50, 2)) * [1.0, 0.2]
                     + np.outer(rng.integers(0, 2, 50), [2.0, 0.0]))
        labels = (np.asarray(feats)[:, 0] > 1.0).astype(int)
        labels[:2] = [0, 1]
        report = cross_validate(feats, labels, {"model": "toy"}, k=5, seed=1,
                                fit_fn=_mean_threshold_fit)
        agg = report.aggregate()
        for name, pair in agg.items():
            vals = [m[name] for m in report.fold_metrics if m[name] is not None]
            if pair is None:
                assert not vals
            else:
                assert abs(pair[0] - np.mean(vals)) <= 1e-12
                assert abs(pair[1] - np.std(vals)) <= 1e-12

    def test_label_canary_leaks_noise_canary_does_not(self):
        """A label-copy feature is learnable out of fold; noise is not."""
        rng = np.random.default_rng(13)
        n = 300
        labels = np.array([0, 1] * (n // 2))
        noise = rng.normal(size=(n, 4))
        leak_feats = list(np.column_stack([noise, labels]))
        leak = cross_validate(leak_feats, labels, {"model": "toy"}, k=10,
                              seed=3, fit_fn=_mean_threshold_fit)
        assert leak.pooled_roc.auc >= 0.99
        noise_feats = list(np.column_stack([noise, rng.normal(size=n)]))
        blank = cross_validate(noise_feats, labels, {"model": "toy"}, k=10,
                               seed=3, fit_fn=_mean_threshold_fit)
        assert 0.4 <= blank.pooled_roc.auc <= 0.6

    def test_report_artifacts_parse(self):
        rng = np.random.default_rng(14)
        feats = list(rng.normal(size=(30, 2)))
        labels = np.array([0, 1] * 15)
        report = cross_validate(feats, labels, {"model": "toy"}, k=3, seed=0,
                                fit_fn=_mean_threshold_fit)
        doc = json.loads(report.to_json())
        assert doc["k"] == 3
        assert len(doc["folds"]) == 3
        assert set(doc["cells"]) == {"accuracy", "sensitivity", "specificity",
                                     "ppv", "npv"}
        table = report.to_table()
        assert "pooled AUC" in table
        csv_lines = report.roc_csv().strip().splitlines()
        assert csv_lines[0] == "threshold,fpr,tpr"
        assert len(csv_lines) == len(report.pooled_roc.points) + 1


def _toy_data():
    rng = np.random.default_rng(15)
    labels = np.array([0, 1] * 16)
    return rng.normal(size=(32, 2)) + labels[:, None], labels


def check_dead_worker_raises():
    """A fold worker killed by SIGKILL ends cross_validate with
    WorkerDiedError. Had the fold run in this process, the kill would end
    the interpreter; had fit reached the worker by pickling, a closure would
    not get there at all."""
    feats, labels = _toy_data()

    def fit(features, labels, seed):
        if seed == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return _MeanThreshold(features, labels)
    with pytest.MonkeyPatch.context() as mp:
        usable_cpus(mp, 2)
        with pytest.raises(WorkerDiedError, match="fold worker died"):
            cross_validate(feats, labels, {"model": "cnn"}, k=4, seed=0, fit_fn=fit)


class TestFoldPool:
    def test_dead_worker_is_a_typed_error_not_a_hang(self):
        """In a fresh `python -c` interpreter with a time limit, so a hang fails
        instead of stalling the suite; fork never re-imports its __main__."""
        run_check("import test_evaluation; test_evaluation.check_dead_worker_raises()", {},
                  timeout=60)

    def test_fold_error_keeps_its_type_and_cancels_the_rest(self, monkeypatch, tmp_path):
        """Fold 0 fails at once while the others take 0.5 s each, so the
        parent cancels the folds that have not started."""
        usable_cpus(monkeypatch, 2)
        feats, labels = _toy_data()

        def fit(features, labels, seed):
            (tmp_path / f"fold{seed}").touch()
            if seed == 0:
                raise NonFiniteLossError("loss diverged in fold 0")
            time.sleep(0.5)
            return _MeanThreshold(features, labels)
        with pytest.raises(NonFiniteLossError, match="fold 0"):
            cross_validate(feats, labels, {"model": "lstm"}, k=8, seed=0, fit_fn=fit)
        assert len(list(tmp_path.iterdir())) < 8

    def test_unpooled_kinds_train_in_this_process(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        feats, labels = _toy_data()
        parent, pids = os.getpid(), set()

        def fit(features, labels, seed):
            pids.add(os.getpid())
            return _MeanThreshold(features, labels)
        for model in ("logreg", "svm", "toy"):
            cross_validate(feats, labels, {"model": model}, k=4, seed=0, fit_fn=fit)
        assert pids == {parent}
