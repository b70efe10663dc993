"""Small image classifier: two conv/pool/dropout stages, softmax head.

Trained in float32 with Adam on categorical cross-entropy over two softmax
units, mini-batches of 32, a fixed epoch budget and no early stopping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FeatureKindMismatchError
from .adam import train_minibatches
from .layers import (
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
    dropout_backward,
    dropout_forward,
    glorot_uniform,
    maxpool2_backward,
    maxpool2_forward,
    softmax,
    softmax_cross_entropy,
    training_labels,
)

SCORE_CHUNK = 4  # images per conv pass in CnnModel.scores


@dataclass(frozen=True)
class CnnConfig:
    """Architecture and training knobs; defaults sized for desk-scale runs."""

    filters1: int = 16
    filters2: int = 32
    kernel: int = 3
    dropout: float = 0.25
    lr: float = 1e-3
    epochs: int = 100
    batch: int = 32


@dataclass
class CnnModel:
    params: dict[str, np.ndarray]
    config: CnnConfig

    def scores(self, images: np.ndarray) -> np.ndarray:
        """Softmax probability of class 1, dropout off. The conv stages see
        SCORE_CHUNK images at a time, so memory does not grow with the fold.
        The dense layer sees the whole fold: its matmul's sums would change
        with the row count."""
        flat = np.concatenate([_stages(self.params, images[s:s + SCORE_CHUNK], self.config)
                               for s in range(0, len(images), SCORE_CHUNK)])
        logits = dense_forward(flat, self.params["wd"], self.params["bd"])
        return softmax(logits)[:, 1]


def init_cnn_params(input_shape, cfg: CnnConfig, rng) -> dict[str, np.ndarray]:
    h, w, c = input_shape
    k = cfg.kernel
    p = {
        "w1": glorot_uniform(rng, (k, k, c, cfg.filters1),
                             k * k * c, k * k * cfg.filters1),
        "b1": np.zeros(cfg.filters1),
        "w2": glorot_uniform(rng, (k, k, cfg.filters1, cfg.filters2),
                             k * k * cfg.filters1, k * k * cfg.filters2),
        "b2": np.zeros(cfg.filters2),
    }
    h1, w1 = (h - k + 1) // 2, (w - k + 1) // 2
    h2, w2 = (h1 - k + 1) // 2, (w1 - k + 1) // 2
    flat = h2 * w2 * cfg.filters2
    p["wd"] = glorot_uniform(rng, (flat, 2), flat, 2)
    p["bd"] = np.zeros(2)
    return p


def _stages(params, x, cfg: CnnConfig, training=False, rng=None, cache=None):
    """Both conv/pool/dropout stages; returns the flat features. Each stage's
    im2col matrix, pool cache, dropout mask and output go to cache if given,
    and are otherwise freed before the next stage builds its own."""
    h = x
    for i in "12":
        h, cols = conv2d_forward(h, params["w" + i], params["b" + i])
        h, pc = maxpool2_forward(h)
        h, m = dropout_forward(h, cfg.dropout, rng, training)
        if cache is not None:
            cache += (cols, pc, m, h)
        del cols, pc, m
    return h.reshape(h.shape[0], -1)


def cnn_forward(params, x, cfg: CnnConfig, training: bool, rng):
    """Returns (logits, cache), cache = (x, each stage's four, flat)."""
    cache = [x]
    flat = _stages(params, x, cfg, training, rng, cache)
    return dense_forward(flat, params["wd"], params["bd"]), (*cache, flat)


def cnn_backward(params, cache, grad_logits):
    """cache: x; each stage's im2col matrix, pool cache, dropout mask, output; flat."""
    grads = {}
    g, grads["wd"], grads["bd"] = dense_backward(cache[9], params["wd"], grad_logits)
    g = g.reshape(cache[8].shape)
    for i, (inp, cols, pc, m) in (("2", cache[4:8]), ("1", cache[0:4])):
        g = maxpool2_backward(pc, dropout_backward(m, g))
        g, grads["w" + i], grads["b" + i] = conv2d_backward(
            inp.shape, params["w" + i], cols, g, need_grad_x=i == "2")
    return grads


def train_cnn(images, labels, seed: int, config: CnnConfig) -> CnnModel:
    """Fit on [n, h, w, c] images with {0,1} labels, in float32.

    Deterministic for fixed (data, seed): shuffling and dropout draw from
    one seeded generator.
    """
    images = np.asarray(images, dtype=np.float32)
    if images.ndim != 4:
        raise FeatureKindMismatchError(f"expected [n, h, w, c] images, got {images.shape}")
    labels = training_labels(labels, len(images))

    rng = np.random.default_rng(seed)
    params = init_cnn_params(images.shape[1:], config, rng)
    params = {k: v.astype(np.float32) for k, v in params.items()}
    onehot_all = np.eye(2, dtype=np.float32)[labels]

    def batch_loss(params, take):
        logits, cache = cnn_forward(params, images[take], config, training=True, rng=rng)
        loss, grad_logits = softmax_cross_entropy(logits, onehot_all[take])
        return loss, lambda: cnn_backward(params, cache, grad_logits)

    params = train_minibatches(params, len(images), config, rng, batch_loss)
    return CnnModel(params={k: v.astype(np.float64) for k, v in params.items()},
                    config=config)
