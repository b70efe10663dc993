"""Bidirectional LSTM: output contract, BPTT gradient check, training,
and the stacked recurrence's byte equality with one direction at a time."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import oracles
from gradcheck import max_relative_error, numeric_grad
from test_layers import ONE_BLAS_THREAD, REDUCED_DISPATCH, run_check

from voxscreen.errors import EmptySequenceError, NonFiniteLossError, SingleClassDataError
from voxscreen.learners import lstm, train_lstm
from voxscreen.learners.layers import (dense_backward, dense_forward, dropout_backward,
                                       dropout_forward, relu, relu_grad, sigmoid)
from voxscreen.learners.lstm import (
    LstmConfig,
    LstmModel,
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
        swapped = {**params, **{block: params[block][::-1] for block in ("wx", "wh", "b")}}
        a, _ = lstm_forward(params, xs, cfg, training=False, rng=None)
        b, _ = lstm_forward(swapped, xs[:, ::-1, :], cfg, training=False, rng=None)
        assert np.array_equal(a, b)


class TestGradients:
    def test_bptt_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        cfg = LstmConfig(hidden=3, dense=4, dropout=0.0)
        xs = rng.normal(size=(3, 6, 2))
        ys = np.array([0.0, 1.0, 1.0])
        params = init_lstm_params(2, cfg, rng)

        def loss_of(p):
            return lstm_loss_grad(p, xs, ys, cfg, training=False, rng=None)[0]

        _, cache, dz2 = lstm_loss_grad(params, xs, ys, cfg,
                                       training=True, rng=None)
        grads = lstm_backward(params, cache, dz2, cfg)
        for name in params:
            num = numeric_grad(lambda v, n=name: loss_of({**params, n: v}),
                               params[name])
            assert max_relative_error(grads[name], num) < 1e-4, name


class TestScoringMemory:
    def test_scoring_keeps_no_backward_cache(self):
        """Scoring 200 rows of 40 steps at the default hidden size peaks under
        10 MiB of numpy memory; keeping every step's cache peaked at 56.5 MiB."""
        cfg = LstmConfig()
        model = LstmModel(init_lstm_params(1, cfg, np.random.default_rng(0)), cfg)
        x = np.random.default_rng(1).normal(size=(200, 40))
        tracemalloc.start()
        try:
            model.scores(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, peak


class TestTrainLstm:
    def test_nan_input_stops_before_backward(self):
        xs, _ = ramp_sequences(np.random.default_rng(9), 4, length=6)
        xs[2, 3] = np.nan
        with pytest.raises(NonFiniteLossError, match=r"loss diverged at step 0: .*nan"):
            train_lstm(xs, np.array([0, 1, 0, 1]), seed=0,
                       config=LstmConfig(hidden=4, dense=3, epochs=1, batch=4))

    def test_ramp_direction_learned(self):
        """100 ramp sequences, ascending vs descending."""
        rng = np.random.default_rng(6)
        xs, labels = ramp_sequences(rng, 100)
        model = train_lstm(xs, labels, seed=1,
                           config=LstmConfig(hidden=16, dense=8, epochs=40, batch=32))
        acc = np.mean((model.scores(xs) >= 0.5).astype(int) == labels)
        assert acc >= 0.95

    def test_final_loss_not_above_initial(self):
        rng = np.random.default_rng(7)
        xs, labels = ramp_sequences(rng, 40)
        cfg = LstmConfig(hidden=8, dense=4, epochs=25, batch=32)
        params0 = init_lstm_params(1, cfg, np.random.default_rng(1))
        initial = lstm_loss_grad(params0, xs, labels.astype(float), cfg,
                                 training=False, rng=None)[0]
        model = train_lstm(xs, labels, seed=1, config=cfg)
        final = lstm_loss_grad(model.params, xs, labels.astype(float), cfg,
                               training=False, rng=None)[0]
        assert final <= initial

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        xs, labels = ramp_sequences(rng, 20, length=10)
        cfg = LstmConfig(hidden=4, dense=3, epochs=3)
        a = train_lstm(xs, labels, seed=2, config=cfg)
        b = train_lstm(xs, labels, seed=2, config=cfg)
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_empty_sequence_rejected(self):
        with pytest.raises(EmptySequenceError):
            train_lstm(np.zeros((4, 0, 1)), np.array([0, 1, 0, 1]), seed=0,
                       config=LstmConfig(epochs=1))

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassDataError):
            train_lstm(np.zeros((4, 5, 1)), np.zeros(4), seed=0, config=LstmConfig(epochs=1))

    def test_frame_sequence_mode(self):
        """Alternate input: a frame sequence (width > 1) per example."""
        rng = np.random.default_rng(10)
        labels = rng.integers(0, 2, 24)
        xs = np.stack([rng.normal(lab * 1.0, 0.3, size=(12, 5))
                       for lab in labels])
        model = train_lstm(xs, labels, seed=4,
                           config=LstmConfig(hidden=6, dense=4, epochs=40, batch=8))
        assert model.params["wx"][0].shape[0] == 5
        acc = np.mean((model.scores(xs) >= 0.5).astype(int) == labels)
        assert acc >= 0.9


def per_direction_forward(params, xs, cfg, training, rng):
    """lstm_forward as first written: each direction by itself
    (tests/oracles.py), the same dense head."""
    h = cfg.hidden
    hf, caches_f = oracles.lstm_run_direction(xs, params["wx"][0], params["wh"][0],
                                              params["b"][0], h)
    hb, caches_b = oracles.lstm_run_direction(xs[:, ::-1, :], params["wx"][1], params["wh"][1],
                                              params["b"][1], h)
    dropped, mask = dropout_forward(hf + hb, cfg.dropout, rng, training)
    a1 = dense_forward(dropped, params["w1"], params["b1"])
    r1 = relu(a1)
    z2 = dense_forward(r1, params["w2"], params["b2"])
    return sigmoid(z2[:, 0]), ((hf, caches_f), (hb, caches_b), mask, dropped, a1, r1, z2)


def per_direction_backward(params, cache, dz2, cfg):
    """lstm_backward as first written, for per_direction_forward's cache; each
    direction's gradients are stacked as the parameters are."""
    (_, caches_f), (_, caches_b), mask, dropped, a1, r1, z2 = cache
    grads = {}
    dr1, grads["w2"], grads["b2"] = dense_backward(r1, params["w2"], dz2)
    ddropped, grads["w1"], grads["b1"] = dense_backward(dropped, params["w1"],
                                                        dr1 * relu_grad(a1))
    dmerged = dropout_backward(mask, ddropped)
    per_direction = [oracles.lstm_direction_backward(caches, params["wx"][d], params["wh"][d],
                                                     dmerged, cfg.hidden)
                     for d, caches in enumerate((caches_f, caches_b))]
    for name, blocks in zip(("wx", "wh", "b"), zip(*per_direction)):
        grads[name] = np.stack(blocks)
    return grads


def train_per_direction(*args, **kwargs):
    """train_lstm with the per-direction forward and backward swapped in."""
    saved = lstm.lstm_forward, lstm.lstm_backward
    lstm.lstm_forward, lstm.lstm_backward = per_direction_forward, per_direction_backward
    try:
        return train_lstm(*args, **kwargs)
    finally:
        lstm.lstm_forward, lstm.lstm_backward = saved


# (n, T, D, hidden): one row and a full batch, one step and the 40 MFCC
# coefficients the cv recipe feeds, scalar and wider inputs
STACK_CASES = [(n, T, D, h) for n in (1, 32) for T in (1, 40) for D in (1, 3, 13)
               for h in (3, 64)]


def assert_same_bytes(got, want, label):
    assert got.shape == want.shape and got.dtype == want.dtype, label
    assert got.tobytes() == want.tobytes(), label


def check_every_stacked_case():
    """The stacked recurrence's final h of each direction, scores and every
    gradient (dropout on), and parameters trained for a few epochs, equal
    the per-direction form byte for byte."""
    for n, T, D, h in STACK_CASES:
        rng = np.random.default_rng(12)
        xs = rng.normal(size=(n, T, D))
        ys = rng.integers(0, 2, n).astype(np.float64)
        cfg = LstmConfig(hidden=h, dense=4)
        params = init_lstm_params(D, cfg, rng)
        label = (n, T, D, h)
        _, cache, dz2 = lstm_loss_grad(params, xs, ys, cfg, True, np.random.default_rng(1))
        _, ((hf, _), (hb, _), *_) = per_direction_forward(params, xs, cfg, False, None)
        steps = cache[0]
        final = steps[-1][-2] * steps[-1][-1]  # o * tanh(c) at the last step
        assert_same_bytes(final[0], hf, label)
        assert_same_bytes(final[1], hb, label)
        grads = lstm_backward(params, cache, dz2, cfg)
        _, cache_old = per_direction_forward(params, xs, cfg, True, np.random.default_rng(1))
        assert_same_bytes(cache[-1], cache_old[-1], label)
        want = per_direction_backward(params, cache_old, dz2, cfg)
        assert grads.keys() == want.keys()
        for name in want:
            assert_same_bytes(grads[name], want[name], label + (name,))
    for n, T, D, base, epochs, batch in ((50, 40, 1, LstmConfig(), 3, 32),
                                         (20, 9, 3, LstmConfig(hidden=3, dense=4), 4, 8)):
        rng = np.random.default_rng(13)
        xs, ys = rng.normal(size=(n, T, D)), np.arange(n) % 2
        cfg = dataclasses.replace(base, epochs=epochs, batch=batch)
        got = train_lstm(xs, ys, seed=5, config=cfg)
        want = train_per_direction(xs, ys, seed=5, config=cfg)
        for name in want.params:
            assert_same_bytes(got.params[name], want.params[name], (n, T, D, name))


class TestStackedMatchesPerDirection:
    """Both directions as one [2, n, .] recurrence against one direction at
    a time (tests/oracles.py)."""

    def test_bytes_equal(self):
        check_every_stacked_case()

    @pytest.mark.parametrize("extra_env", [ONE_BLAS_THREAD, REDUCED_DISPATCH],
                             ids=["one_blas_thread", "reduced_dispatch"])
    def test_bytes_equal_in_subprocess(self, extra_env):
        run_check("import test_lstm; test_lstm.check_every_stacked_case()", extra_env)
