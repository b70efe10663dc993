"""Bidirectional LSTM: output contract, BPTT gradient check, training."""

import numpy as np
import pytest

from gradcheck import max_relative_error, numeric_grad

from voxscreen.errors import EmptySequenceError, SingleClassDataError
from voxscreen.learners import train_lstm
from voxscreen.learners.lstm import (
    LstmConfig,
    init_lstm_params,
    lstm_backward,
    lstm_forward,
    lstm_loss_grad,
)


def ramp_sequences(rng, n, length=20):
    """Class 1 = ascending ramp, class 0 = descending, plus noise."""
    labels = rng.integers(0, 2, n)
    base = np.linspace(-1, 1, length)
    xs = np.stack([(base if lab else base[::-1]) + rng.normal(0, 0.05, length)
                   for lab in labels])
    return xs[:, :, None], labels


class TestForward:
    def test_zero_input_zero_dense_outputs_half(self):
        cfg = LstmConfig(hidden=4, dense=3)
        params = init_lstm_params(1, cfg, np.random.default_rng(0))
        params["w1"][:] = 0.0
        params["w2"][:] = 0.0
        xs = np.zeros((3, 8, 1))
        p, _ = lstm_forward(params, xs, cfg, training=False, rng=None)
        assert np.all(p == 0.5)

    def test_outputs_in_open_unit_interval(self):
        cfg = LstmConfig(hidden=6, dense=4)
        params = init_lstm_params(2, cfg, np.random.default_rng(1))
        xs = np.random.default_rng(2).normal(size=(5, 7, 2))
        p, _ = lstm_forward(params, xs, cfg, training=False, rng=None)
        assert np.all((p > 0.0) & (p < 1.0))

    def test_direction_swap_symmetry(self):
        """Reversed input + swapped direction blocks = identical output."""
        cfg = LstmConfig(hidden=5, dense=4)
        params = init_lstm_params(2, cfg, np.random.default_rng(3))
        xs = np.random.default_rng(4).normal(size=(4, 9, 2))
        swapped = dict(params)
        for block in ("wx", "wh", "b"):
            swapped[f"{block}_f"] = params[f"{block}_b"]
            swapped[f"{block}_b"] = params[f"{block}_f"]
        a, _ = lstm_forward(params, xs, cfg, training=False, rng=None)
        b, _ = lstm_forward(swapped, xs[:, ::-1, :], cfg, training=False, rng=None)
        assert np.array_equal(a, b)


class TestGradients:
    @pytest.mark.parametrize("loss", ["mae", "bce"])
    def test_bptt_matches_finite_differences(self, loss):
        rng = np.random.default_rng(5)
        cfg = LstmConfig(hidden=3, dense=4, dropout=0.0, loss=loss)
        xs = rng.normal(size=(3, 6, 2))
        ys = np.array([0.0, 1.0, 1.0])
        params = init_lstm_params(2, cfg, rng)

        def loss_of(p):
            return lstm_loss_grad(p, xs, ys, cfg, training=False, rng=None)[0]

        _, cache, dz2 = lstm_loss_grad(params, xs, ys, cfg,
                                       training=False, rng=None)
        grads = lstm_backward(params, cache, dz2, cfg)
        for name in params:
            num = numeric_grad(lambda v, n=name: loss_of({**params, n: v}),
                               params[name])
            assert max_relative_error(grads[name], num) < 1e-4, name


class TestTrainLstm:
    def test_ramp_direction_learned(self):
        """100 ramp sequences, ascending vs descending."""
        rng = np.random.default_rng(6)
        xs, labels = ramp_sequences(rng, 100)
        model = train_lstm(xs, labels, epochs=40, batch=32, seed=1,
                           config=LstmConfig(hidden=16, dense=8))
        acc = np.mean((model.scores(xs) >= 0.5).astype(int) == labels)
        assert acc >= 0.95

    def test_final_loss_not_above_initial(self):
        rng = np.random.default_rng(7)
        xs, labels = ramp_sequences(rng, 40)
        cfg = LstmConfig(hidden=8, dense=4)
        params0 = init_lstm_params(1, cfg, np.random.default_rng(1))
        initial = lstm_loss_grad(params0, xs, labels.astype(float), cfg,
                                 training=False, rng=None)[0]
        model = train_lstm(xs, labels, epochs=25, batch=32, seed=1, config=cfg)
        final = lstm_loss_grad(model.params, xs, labels.astype(float), cfg,
                               training=False, rng=None)[0]
        assert final <= initial

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        xs, labels = ramp_sequences(rng, 20, length=10)
        cfg = LstmConfig(hidden=4, dense=3)
        a = train_lstm(xs, labels, epochs=3, seed=2, config=cfg)
        b = train_lstm(xs, labels, epochs=3, seed=2, config=cfg)
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_empty_sequence_rejected(self):
        with pytest.raises(EmptySequenceError):
            train_lstm(np.zeros((4, 0, 1)), np.array([0, 1, 0, 1]), epochs=1)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassDataError):
            train_lstm(np.zeros((4, 5, 1)), np.zeros(4), epochs=1)

    def test_bce_option_trains(self):
        rng = np.random.default_rng(9)
        xs, labels = ramp_sequences(rng, 30)
        model = train_lstm(xs, labels, epochs=20, batch=32, seed=3,
                           config=LstmConfig(hidden=8, dense=4, loss="bce"))
        acc = np.mean((model.scores(xs) >= 0.5).astype(int) == labels)
        assert acc >= 0.9

    def test_frame_sequence_mode(self):
        """Alternate input: a frame sequence (width > 1) per example."""
        rng = np.random.default_rng(10)
        labels = rng.integers(0, 2, 24)
        xs = np.stack([rng.normal(lab * 1.0, 0.3, size=(12, 5))
                       for lab in labels])
        model = train_lstm(xs, labels, epochs=40, batch=8, seed=4,
                           config=LstmConfig(hidden=6, dense=4))
        assert model.params["wx_f"].shape[0] == 5
        acc = np.mean((model.scores(xs) >= 0.5).astype(int) == labels)
        assert acc >= 0.9
