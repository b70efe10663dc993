"""Bias-corrected Adam over a dict of named parameter arrays, and the
minibatch loop both networks train with."""

from __future__ import annotations

import numpy as np

from ..errors import NonFiniteGradientError, NonFiniteLossError, ShapeMismatchError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """theta <- theta - lr * m_hat / (sqrt(v_hat) + EPS), the usual recipe."""

    def __init__(self, lr: float = 1e-3):
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """One update; returns new parameters, accumulators advance in place."""
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        out = {}
        for name, theta in params.items():
            g = grads[name]
            if g.shape != theta.shape:
                raise ShapeMismatchError(
                    f"{name}: gradient {g.shape} vs parameter {theta.shape}")
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradientError(f"non-finite gradient in {name}")
            m = self.m.get(name)
            if m is None:
                m = np.zeros_like(theta)
                self.v[name] = np.zeros_like(theta)
            v = self.v[name]
            m = BETA1 * m + (1.0 - BETA1) * g
            v = BETA2 * v + (1.0 - BETA2) * g * g
            self.m[name], self.v[name] = m, v
            out[name] = theta - self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
        return out


def train_minibatches(params: dict[str, np.ndarray], n: int, config, rng,
                      batch_loss) -> dict[str, np.ndarray]:
    """Adam at config.lr for config.epochs passes over n examples, each pass
    in a fresh rng permutation cut into batches of config.batch.

    batch_loss(params, take) returns (loss, grads_thunk) for the examples in
    take. The loss is checked before grads_thunk() runs the backward pass,
    and a non-finite one stops training with NonFiniteLossError.
    """
    opt = Adam(lr=config.lr)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch):
            loss, grads = batch_loss(params, order[start:start + config.batch])
            if not np.isfinite(loss):
                raise NonFiniteLossError(f"loss diverged at step {opt.t}: {loss!r}")
            params = opt.step(params, grads())
    return params
