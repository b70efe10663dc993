"""Logistic regression training contract."""

import numpy as np
import pytest

from gradcheck import max_relative_error, numeric_grad
from oracles import logreg_loss_grad

from voxscreen.errors import SingleClassDataError
from voxscreen.learners import train_logreg
from voxscreen.learners.logreg import LOGREG_EPOCHS, LOGREG_LR, LogRegModel


def brute_force_linearly_separable(rows, labels, rng, tries=20000):
    """Random-direction search for a separating hyperplane."""
    rows = np.asarray(rows)
    y = np.asarray(labels)
    for _ in range(tries):
        w = rng.normal(size=rows.shape[1])
        z = rows @ w
        for b in -z:
            pred = (z + b + 1e-12) > 0
            if np.all(pred == (y == 1)):
                return True
    return False


class TestTrainLogreg:
    def test_symmetric_pair_scores_half_at_midpoint(self):
        model = train_logreg(np.array([[-1.0], [1.0]]), np.array([0, 1]))
        assert abs(model.scores(np.array([[0.0]]))[0] - 0.5) <= 1e-6
        lo, hi = model.scores(np.array([[-2.0], [2.0]]))
        assert lo < 0.5 < hi

    def test_zero_init_scores_half(self):
        model = LogRegModel(weights=np.zeros(4), bias=0.0)
        scores = model.scores(np.random.default_rng(0).normal(size=(6, 4)))
        assert np.all(scores == 0.5)

    def test_separable_blobs_reach_perfect_accuracy(self):
        """20-point 2-D blob pair, separability confirmed by brute force."""
        rng = np.random.default_rng(1)
        a = rng.normal([-2, 0], 0.4, size=(10, 2))
        b = rng.normal([2, 0], 0.4, size=(10, 2))
        rows = np.vstack([a, b])
        labels = np.array([0] * 10 + [1] * 10)
        assert brute_force_linearly_separable(rows, labels, rng)
        model = train_logreg(rows, labels)
        acc = np.mean((model.scores(rows) >= 0.5).astype(int) == labels)
        assert acc == 1.0

    def test_loss_non_increasing_full_batch(self):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(30, 3))
        labels = (rows[:, 0] + 0.3 * rng.normal(size=30) > 0).astype(int)
        w = np.zeros(3)
        b = 0.0
        last = np.inf
        for _ in range(200):
            loss, gw, gb = logreg_loss_grad(w, b, rows, labels)
            assert loss <= last + 1e-12
            last = loss
            w -= 0.05 * gw
            b -= 0.05 * gb

    def test_analytic_gradient_matches_fd(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(12, 4))
        labels = rng.integers(0, 2, 12).astype(float)
        w = rng.normal(size=4)
        b = 0.3
        _, gw, gb = logreg_loss_grad(w, b, rows, labels)
        num = numeric_grad(lambda v: logreg_loss_grad(v, b, rows, labels)[0], w)
        assert max_relative_error(gw, num) < 1e-5
        num_b = numeric_grad(
            lambda v: logreg_loss_grad(w, float(v[0]), rows, labels)[0],
            np.array([b]))
        assert max_relative_error(np.array([gb]), num_b) < 1e-5

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassDataError):
            train_logreg(np.zeros((4, 2)), np.ones(4))

    @pytest.mark.parametrize("n, d", [(180, 40), (6, 512), (2000, 40)])
    def test_weights_match_the_loss_computing_loop(self, n, d):
        """train_logreg's loop, which computes no loss, gives the bytes of the
        loop through the loss and gradient it replaced (tests/oracles.py)."""
        rng = np.random.default_rng(n + d)
        rows = rng.normal(size=(n, d))
        labels = (rows[:, 0] + rng.normal(size=n) > 0).astype(np.float64)
        model = train_logreg(rows, labels)
        w, b = np.zeros(d), 0.0
        for _ in range(LOGREG_EPOCHS):
            _, gw, gb = logreg_loss_grad(w, b, rows, labels)
            w = w - LOGREG_LR * gw
            b = b - LOGREG_LR * gb
        assert model.weights.tobytes() == w.tobytes()
        assert np.float64(model.bias).tobytes() == np.float64(b).tobytes()
