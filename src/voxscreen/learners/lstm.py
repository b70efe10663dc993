"""Bidirectional LSTM classifier with hand-rolled backprop through time.

The two directions read the sequence forwards and backwards; their final
hidden states are summed (a symmetric merge: swapping the direction
weight blocks while reversing the input leaves the output unchanged),
then dropout, a ReLU dense layer and a sigmoid unit produce the score.
The training loss is the mean absolute error of that score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EmptySequenceError
from .adam import train_minibatches
from .layers import (
    dense_backward,
    dense_forward,
    dropout_backward,
    dropout_forward,
    glorot_uniform,
    mae_loss,
    relu,
    relu_grad,
    sigmoid,
    training_labels,
)

@dataclass(frozen=True)
class LstmConfig:
    hidden: int = 64
    dense: int = 32
    dropout: float = 0.3
    lr: float = 1e-3
    epochs: int = 100
    batch: int = 32


def as_sequences(x) -> np.ndarray:
    """x as float64 [n, T, D] sequences; [n, T] rows are scalar sequences."""
    xs = np.asarray(x, dtype=np.float64)
    return xs[:, :, None] if xs.ndim == 2 else xs


@dataclass
class LstmModel:
    params: dict[str, np.ndarray]
    config: LstmConfig

    def scores(self, sequences: np.ndarray) -> np.ndarray:
        p, _ = lstm_forward(self.params, as_sequences(sequences),
                            self.config, training=False, rng=None)
        return p


def init_lstm_params(input_dim: int, cfg: LstmConfig, rng) -> dict[str, np.ndarray]:
    """Glorot for every weight block; forget-gate bias starts at 1. The recurrent
    wx, wh and b are stacked [2, ...]: index 0 reads forwards, 1 backwards."""
    h = cfg.hidden
    params = {"wx": np.empty((2, input_dim, 4 * h)), "wh": np.empty((2, h, 4 * h)),
              "b": np.zeros((2, 4 * h))}
    for d in range(2):  # drawn per direction: wx then wh
        params["wx"][d] = glorot_uniform(rng, (input_dim, 4 * h), input_dim, 4 * h)
        params["wh"][d] = glorot_uniform(rng, (h, 4 * h), h, 4 * h)
    params["b"][:, h: 2 * h] = 1.0
    params["w1"] = glorot_uniform(rng, (h, cfg.dense), h, cfg.dense)
    params["b1"] = np.zeros(cfg.dense)
    params["w2"] = glorot_uniform(rng, (cfg.dense, 1), cfg.dense, 1)
    params["b2"] = np.zeros(1)
    return params


def lstm_forward(params, xs, cfg: LstmConfig, training: bool, rng):
    """Scores in (0, 1) for xs [n, T, D], plus the backward cache. Its per-step
    entries are kept only when training: scoring holds one step at a time.

    Both directions run as one recurrence over [2, n, .] blocks: index 0
    reads xs forwards, index 1 backwards. A stacked matmul makes the same
    2-D product per direction as two separate calls would, so every step
    matches the per-direction form bit for bit.
    """
    h = cfg.hidden
    wx, wh, b = params["wx"], params["wh"], params["b"][:, None, :]
    seqs = np.stack([xs, xs[:, ::-1, :]])
    state = np.zeros((2, len(xs), h))
    c = np.zeros_like(state)
    steps = []
    for t in range(xs.shape[1]):
        x_t = seqs[:, :, t, :]
        z = x_t @ wx + state @ wh
        z += b
        i_f = sigmoid(z[..., :2 * h])  # gates i and f; then g, then o
        g = np.tanh(z[..., 2 * h:3 * h])
        o = sigmoid(z[..., 3 * h:])
        c_new = i_f[..., h:] * c + i_f[..., :h] * g
        tc = np.tanh(c_new)
        if training:
            steps.append((x_t, state, c, i_f, g, o, tc))
        state, c = o * tc, c_new
    merged = state[0] + state[1]
    dropped, mask = dropout_forward(merged, cfg.dropout, rng, training)
    a1 = dense_forward(dropped, params["w1"], params["b1"])
    r1 = relu(a1)
    z2 = dense_forward(r1, params["w2"], params["b2"])
    return sigmoid(z2[:, 0]), (steps, mask, dropped, a1, r1, z2)


def lstm_backward(params, cache, dz2, cfg: LstmConfig):
    steps, mask, dropped, a1, r1, z2 = cache
    grads = {}
    dr1, grads["w2"], grads["b2"] = dense_backward(r1, params["w2"], dz2)
    da1 = dr1 * relu_grad(a1)
    ddropped, grads["w1"], grads["b1"] = dense_backward(dropped, params["w1"], da1)
    h = cfg.hidden
    dh = dropout_backward(mask, ddropped)  # both directions' final h feed the sum
    dc = np.zeros((2, len(dz2), h))
    dz = np.empty((2, len(dz2), 4 * h))
    gw_x = grads["wx"] = np.zeros_like(params["wx"])
    gw_h = grads["wh"] = np.zeros_like(params["wh"])
    gb = grads["b"] = np.zeros((2, 4 * h))
    for t in reversed(range(len(steps))):
        x_t, h_prev, c_prev, i_f, g, o, tc = steps[t]
        dc = dc + dh * o * (1.0 - tc * tc)
        # keep each product's left-to-right order: regrouping moves last bits
        dz[..., :h] = dc * g
        dz[..., h:2 * h] = dc * c_prev
        dz[..., :2 * h] *= i_f
        dz[..., :2 * h] *= 1.0 - i_f
        dz[..., 2 * h:3 * h] = dc * i_f[..., :h] * (1.0 - g * g)
        dz[..., 3 * h:] = dh * tc * o * (1.0 - o)
        dc = dc * i_f[..., h:]
        gw_x += x_t.transpose(0, 2, 1) @ dz
        gw_h += h_prev.transpose(0, 2, 1) @ dz
        gb += dz.sum(axis=1)
        if t:  # the gradient at the initial (zero) state is never read
            dh = dz @ params["wh"].transpose(0, 2, 1)
    return grads


def lstm_loss_grad(params, xs, labels, cfg: LstmConfig, training, rng):
    """MAE loss and dL/dz2 for one batch (z2 = pre-sigmoid unit)."""
    p, cache = lstm_forward(params, xs, cfg, training, rng)
    loss, dp = mae_loss(p, labels)
    return loss, cache, (dp * p * (1.0 - p))[:, None]


def train_lstm(sequences, labels, seed: int, config: LstmConfig) -> LstmModel:
    """Fit on sequences [n, T, D] or [n, T] with {0,1} labels; deterministic per seed."""
    xs = as_sequences(sequences)
    if xs.shape[1] == 0:
        raise EmptySequenceError("sequences have zero timesteps")
    labels = training_labels(labels, len(xs)).astype(np.float64)

    rng = np.random.default_rng(seed)
    params = init_lstm_params(xs.shape[2], config, rng)

    def batch_loss(params, take):
        loss, cache, dz2 = lstm_loss_grad(params, xs[take], labels[take],
                                          config, training=True, rng=rng)
        return loss, lambda: lstm_backward(params, cache, dz2, config)

    params = train_minibatches(params, len(xs), config, rng, batch_loss)
    return LstmModel(params=params, config=config)
