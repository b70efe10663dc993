"""SMO solver: examples, KKT audit, invariances."""

import numpy as np
import pytest

from voxscreen.errors import SingleClassDataError
from voxscreen.learners import kkt_violations, smo_solve, train_svm_smo


def blob_pair(rng, n_per, spread=0.5, gap=2.0):
    a = rng.normal([-gap, 0.0], spread, size=(n_per, 2))
    b = rng.normal([gap, 0.0], spread, size=(n_per, 2))
    rows = np.vstack([a, b])
    labels = np.array([0] * n_per + [1] * n_per)
    return rows, labels


class TestSmo:
    def test_two_point_symmetry(self):
        model = train_svm_smo(np.array([[-1.0], [1.0]]), np.array([0, 1]),
                              gamma=0.5)
        assert abs(model.decision_values(np.array([[0.0]]))[0]) <= 1e-6

    def test_dual_equality_constraint(self):
        rng = np.random.default_rng(3)
        rows, labels = blob_pair(rng, 15, spread=1.2, gap=1.0)  # overlapping
        model = train_svm_smo(rows, labels, gamma=0.5)
        assert abs(model.dual_coefs.sum()) <= 1e-9

    def test_separable_40_points_kkt_clean(self):
        """Full KKT audit after convergence on a separable set."""
        rng = np.random.default_rng(4)
        rows, labels = blob_pair(rng, 20)
        y = np.where(labels == 1, 1.0, -1.0)
        alphas, b, converged = smo_solve(rows, y, C=1.0, gamma=0.5,
                                         tol=1e-3, max_passes=200)
        assert converged
        assert kkt_violations(rows, y, alphas, b, C=1.0, gamma=0.5) == []
        assert abs((alphas * y).sum()) <= 1e-9
        model = train_svm_smo(rows, labels, gamma=0.5)
        pred = (model.decision_values(rows) >= 0).astype(int)
        assert np.array_equal(pred, labels)
        margins = y * model.decision_values(rows)
        assert np.all(margins >= 1.0 - 1e-3)

    def test_row_order_invariance(self):
        """Permuted training data yields the same decision function.

        Solved tightly: the unique dual optimum is order-free, while a
        loose stop (the default screening tol) is only tol-close to it.
        """
        rng = np.random.default_rng(5)
        rows, labels = blob_pair(rng, 12, spread=0.9, gap=1.2)
        model_a = train_svm_smo(rows, labels, gamma=0.3, tol=1e-8,
                                max_passes=2000)
        perm = rng.permutation(len(rows))
        model_b = train_svm_smo(rows[perm], labels[perm], gamma=0.3, tol=1e-8,
                                max_passes=2000)
        probe = rng.normal(size=(25, 2))
        assert np.max(np.abs(model_a.decision_values(probe)
                             - model_b.decision_values(probe))) <= 1e-6
        sv_a = set(map(tuple, np.round(model_a.support_vectors, 9)))
        sv_b = set(map(tuple, np.round(model_b.support_vectors, 9)))
        assert sv_a == sv_b

    def test_alphas_within_box(self):
        rng = np.random.default_rng(6)
        rows, labels = blob_pair(rng, 20, spread=1.5, gap=0.8)
        y = np.where(labels == 1, 1.0, -1.0)
        alphas, _, _ = smo_solve(rows, y, C=1.0, gamma=0.5, tol=1e-3,
                                 max_passes=200)
        assert np.all(alphas >= 0.0) and np.all(alphas <= 1.0)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassDataError):
            train_svm_smo(np.zeros((4, 2)), np.zeros(4))

    def test_gate_gamma_on_standardized_features(self):
        """The screening configuration: gamma 0.001, C 1, 40-dim rows."""
        rng = np.random.default_rng(7)
        pos = rng.normal(0.4, 1.0, size=(30, 40))
        neg = rng.normal(-0.4, 1.0, size=(30, 40))
        rows = np.vstack([neg, pos])
        labels = np.array([0] * 30 + [1] * 30)
        model = train_svm_smo(rows, labels)  # defaults: C=1, gamma=0.001
        assert model.converged
        acc = np.mean((model.decision_values(rows) >= 0).astype(int) == labels)
        assert acc >= 0.9
