"""Differentiable building blocks, each a forward/backward pair.

Shapes follow channels-last convention: images are [n, h, w, c],
dense inputs [n, d]. Backward functions take the upstream gradient and
return gradients for inputs and parameters in declaration order.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, LengthMismatchError, SingleClassDataError

GELU_C = np.sqrt(2.0 / np.pi)


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))  # at most 1, so nothing overflows
    out = np.maximum(e, x >= 0)  # 1 where x >= 0, else e; nan stays nan
    out /= 1.0 + e
    return out


def relu(x):
    return np.maximum(x, 0.0)


def relu_grad(x):
    return (x > 0.0).astype(np.float64)


def gelu(x):
    """Tanh-form GELU: 0.5 x (1 + tanh(c (x + 0.044715 x^3))).

    The cube is built from products and every later step runs in place on
    one new array: numpy sends `x ** 3` to a vector pow that is about 30
    times slower than two multiplies. x * x * x may differ from pow in the
    last bit.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.multiply(x, x, out=np.empty_like(x))
    out *= x
    out *= 0.044715
    out += x
    out *= GELU_C
    np.tanh(out, out=out)
    out += 1.0
    out *= x
    out *= 0.5
    return out


def softmax(x):
    """Softmax over the last axis."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def glorot_uniform(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def binary_labels(labels):
    """labels as int64; ConfigError naming the first that is neither 0 nor 1."""
    labels = np.asarray(labels)
    if len(other := labels[(labels != 0) & (labels != 1)]):
        raise ConfigError(f"label {other[0]}: labels must be 0 or 1")
    return labels.astype(np.int64)


def training_labels(labels, n: int):
    """binary_labels, exactly n of them, with both classes present."""
    labels = binary_labels(labels)
    if len(labels) != n:
        raise LengthMismatchError(f"{len(labels)} labels for {n} rows")
    if labels.all() or not labels.any():
        raise SingleClassDataError("labels must hold both classes, 0 and 1")
    return labels


# --- dense ---

def dense_forward(x, w, b):
    return x @ w + b


def dense_backward(x, w, grad_out):
    grad_x = grad_out @ w.T
    grad_w = x.T @ grad_out
    grad_b = grad_out.sum(axis=0)
    return grad_x, grad_w, grad_b


# --- 2-D convolution, stride 1, valid padding ---

def conv2d_forward(x, w, b):
    """x: [n, h, w, c_in]; w: [kh, kw, c_in, c_out]. Returns (out, cols).

    cols keep the window's native (c_in, kh, kw) layout so the big
    gather stays a plain C-order copy; only the small weight tensor is
    transposed to match.
    """
    kh, kw, c_in, c_out = w.shape
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    cols = windows.reshape(*windows.shape[:3], c_in * kh * kw)
    wmat = w.transpose(2, 0, 1, 3).reshape(c_in * kh * kw, c_out)
    out = cols @ wmat
    out += b  # in place: no second output-sized array at the peak
    return out, cols


def conv2d_backward(x_shape, w, cols, grad_out, need_grad_x=True):
    kh, kw, c_in, c_out = w.shape
    n, h_out, w_out, _ = grad_out.shape
    flat_cols = cols.reshape(-1, c_in * kh * kw)
    flat_grad = grad_out.reshape(-1, c_out)
    grad_w = (flat_cols.T @ flat_grad).reshape(c_in, kh, kw, c_out).transpose(1, 2, 0, 3)
    grad_b = flat_grad.sum(axis=0)
    if not need_grad_x:
        return None, grad_w, grad_b
    # columns in (kh, kw, c_in) order, so each tap's slice holds contiguous channels
    grad_cols = (flat_grad @ w.reshape(-1, c_out).T).reshape(n, h_out, w_out, kh, kw, c_in)
    grad_x = np.zeros(x_shape, dtype=grad_out.dtype)
    for i in range(kh):
        for j in range(kw):
            grad_x[:, i:i + h_out, j:j + w_out, :] += grad_cols[:, :, :, i, j]
    return grad_x, grad_w, grad_b


# --- 2x2 max pooling, stride 2 ---

def _quadrants(x):
    """Strided views of every 2x2 block's cells in row-major order; odd last row/col cropped."""
    h, w = x.shape[1] // 2 * 2, x.shape[2] // 2 * 2
    return tuple(x[:, i:h:2, j:w:2] for i in (0, 1) for j in (0, 1))


def maxpool2_forward(x):
    """Crops odd trailing rows/cols, pools 2x2 blocks. Returns (out, cache).

    The cache holds the winning quadrant (int8, 0..3, first max wins ties)
    per output cell: the number of leading quadrants that lost. np.maximum
    may keep either sign on a +0/-0 tie, so zeros are re-read through it.
    """
    a, b, c, d = _quadrants(x)
    out = np.maximum(a, b)
    np.maximum(out, c, out=out)
    np.maximum(out, d, out=out)
    lost = a != out
    idx = lost.astype(np.int8)
    for q in (b, c):
        lost &= q != out
        idx += lost.view(np.int8)
    zero = out == 0
    if zero.any():
        out[zero] = np.choose(idx[zero], [q[zero] for q in (a, b, c, d)])
    return out, (x.shape, idx)


def maxpool2_backward(cache, grad_out):
    """Routes each gradient to its block's winning cell; every other cell
    is +0: adding 0.0 turns -0 into +0. Needs finite gradients, since
    inf * False is NaN."""
    shape, idx = cache
    grad_x = np.zeros(shape, dtype=grad_out.dtype)
    for q, view in enumerate(_quadrants(grad_x)):
        np.add(grad_out * (idx == q), 0.0, out=view)
    return grad_x


# --- inverted dropout ---

def dropout_forward(x, rate, rng, training):
    """Identity at inference; at training, zero with prob rate and scale
    survivors by 1/(1-rate) so the expectation matches the input."""
    if not training or rate == 0.0:
        return x, None
    draws = rng.random(x.shape, dtype=np.float32)
    mask = ((draws >= rate) / np.asarray(1.0 - rate, dtype=x.dtype)).astype(x.dtype)
    return x * mask, mask


def dropout_backward(mask, grad_out):
    return grad_out if mask is None else grad_out * mask


# --- losses (each returns loss value and gradient wrt its first arg) ---

def softmax_cross_entropy(logits, onehot):
    """Mean categorical cross-entropy straight from logits."""
    p = softmax(logits)
    n = logits.shape[0]
    loss = -np.sum(onehot * np.log(np.maximum(p, 1e-300))) / n
    return loss, (p - onehot) / n


def mae_loss(pred, target):
    """Mean absolute error; subgradient sign(pred - target)."""
    diff = pred - target
    return np.mean(np.abs(diff)), np.sign(diff) / diff.size
