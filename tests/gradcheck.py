"""Central finite-difference gradient verification harness, and the
analytic activation derivatives it checks: nothing in voxscreen trains
through GELU or takes sigmoid's derivative from its output."""

from __future__ import annotations

import numpy as np

from voxscreen.learners.layers import GELU_C


def sigmoid_grad(y):
    """Derivative expressed through the forward output y."""
    return y * (1.0 - y)


def gelu_grad(x):
    x = np.asarray(x, dtype=np.float64)
    inner = GELU_C * (x + 0.044715 * x ** 3)
    t = np.tanh(inner)
    d_inner = GELU_C * (1.0 + 3.0 * 0.044715 * x ** 2)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * d_inner


def numeric_grad(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central differences of scalar f at x, one coordinate at a time."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(x)
        flat[i] = orig - step
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray,
                       floor: float = 1e-6) -> float:
    """max_i |a_i - n_i| / max(|a_i|, |n_i|, floor)."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom))

