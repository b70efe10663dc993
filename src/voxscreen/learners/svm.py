"""RBF-kernel support vector machine trained by sequential minimal
optimization with second-order working-set selection (Fan, Chen & Lin,
2005, as in LIBSVM): each step pairs the maximal violator with the
partner of largest second-order gain, ties broken by lowest index.
`converged` means the violation gap m(alpha) - M(alpha) fell below tol
within a budget of max_passes * n steps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatchError, SingleClassDataError
from .layers import sigmoid

SVM_C = 1.0
SVM_GAMMA = 0.001
SVM_TOL = 1e-3
SVM_MAX_PASSES = 200

_TAU = 1e-12  # curvature taken along a flat direction, and the snap width as a share of C


def rbf_gram(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """Kernel matrix K[i, j] = exp(-gamma ||a_i - b_j||^2).

    The squared distances are summed feature by feature from exact
    differences, with no BLAS product: rbf_gram(x, x) is exactly symmetric
    with a unit diagonal, and its bytes do not depend on the thread count.
    """
    sq = np.zeros((len(a), len(b)))
    for k in range(a.shape[1]):
        sq += (a[:, k, None] - b[None, :, k]) ** 2
    return np.exp(-gamma * sq)


@dataclass
class SvmModel:
    support_vectors: np.ndarray  # [n_sv, d]
    dual_coefs: np.ndarray       # alpha_i * y_i per support vector
    bias: float
    gamma: float
    converged: bool  # the gap m - M fell below tol within max_passes * n steps

    def decision_values(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        if rows.shape[1] != self.support_vectors.shape[1]:
            raise DimensionMismatchError(
                f"rows have {rows.shape[1]} features, "
                f"model expects {self.support_vectors.shape[1]}")
        return rbf_gram(rows, self.support_vectors, self.gamma) @ self.dual_coefs + self.bias

    def scores(self, rows: np.ndarray) -> np.ndarray:
        """Decision values squashed into [0, 1] by the sigmoid; 0.5 on the boundary."""
        return sigmoid(self.decision_values(rows))


def smo_solve(rows: np.ndarray, y_pm: np.ndarray, C: float, gamma: float,
              tol: float, max_passes: int) -> tuple[np.ndarray, float, bool]:
    """Minimize the dual 0.5 a'Qa - sum(a), Q = yy'K, over 0 <= a <= C, y'a = 0.

    Keeps the gradient G = Qa - 1. With s = -y G, i is the maximal s in
    I_up (rows whose y_i a_i may grow) and M the minimal s in I_low (rows
    whose y_i a_i may shrink). Returns (alphas, bias, converged):
    converged means the gap m - M fell below tol, so every KKT condition
    holds at tol, within a budget of max_passes * n steps.
    """
    kernel = rbf_gram(rows, rows, gamma)
    y = np.asarray(y_pm, dtype=np.float64)
    alphas = np.zeros(len(y))
    grad = -np.ones(len(y))
    for step in range(max_passes * len(y) + 1):
        score = -y * grad
        up = np.where(y > 0, alphas < C, alphas > 0.0)
        low = np.where(y > 0, alphas > 0.0, alphas < C)
        i = int(np.argmax(np.where(up, score, -np.inf)))
        m, big_m = score[i], np.min(score, where=low, initial=np.inf)
        if m - big_m < tol or step == max_passes * len(y):
            break
        # partner j: the largest decrease of the dual along the pair
        # (i, j) under the unclipped Newton step; K has a unit diagonal
        gap = m - score
        curve = 2.0 - 2.0 * kernel[i]
        curve[curve <= 0.0] = _TAU
        j = int(np.argmin(np.where(low & (gap > 0.0), -gap * gap / curve, np.inf)))
        # y_i a_i grows and y_j a_j shrinks by t, clipped to the box
        t = min(gap[j] / curve[j],
                C - alphas[i] if y[i] > 0 else alphas[i],
                alphas[j] if y[j] > 0 else C - alphas[j])
        new = np.array([alphas[i] + y[i] * t, alphas[j] - y[j] * t])
        # snap to the bounds, or a step of 1e-16 towards C repeats forever
        new[new <= _TAU * C] = 0.0
        new[new >= C - _TAU * C] = C
        delta = (new - alphas[[i, j]]) * y[[i, j]]
        alphas[i], alphas[j] = new
        grad += y * (delta[0] * kernel[i] + delta[1] * kernel[j])
    free = (alphas > 0.0) & (alphas < C)
    bias = float(np.mean(score[free])) if free.any() else float(m + big_m) / 2
    return alphas, bias, bool(m - big_m < tol)


def train_svm_smo(rows, labels, C: float = SVM_C, gamma: float = SVM_GAMMA,
                  tol: float = SVM_TOL, max_passes: int = SVM_MAX_PASSES) -> SvmModel:
    """Fit the RBF SVM on {0,1}-labelled rows."""
    rows = np.asarray(rows, dtype=np.float64)
    labels = np.asarray(labels)
    if len(set(labels.tolist())) < 2:
        raise SingleClassDataError("training labels are all identical")
    y = np.where(labels == 1, 1.0, -1.0)
    alphas, b, converged = smo_solve(rows, y, C, gamma, tol, max_passes)
    sv = alphas > 0.0
    return SvmModel(
        support_vectors=rows[sv].copy(),
        dual_coefs=(alphas * y)[sv],
        bias=b,
        gamma=gamma,
        converged=converged,
    )


def kkt_violations(rows, y_pm, alphas: np.ndarray, b: float,
                   C: float = SVM_C, gamma: float = SVM_GAMMA,
                   tol: float = SVM_TOL) -> list[int]:
    """Indices of training rows whose KKT condition fails beyond tol.

    alpha = 0       requires y f(x) >= 1 - tol
    0 < alpha < C   requires |y f(x) - 1| <= tol
    alpha = C       requires y f(x) <= 1 + tol
    """
    rows = np.asarray(rows, dtype=np.float64)
    y = np.asarray(y_pm, dtype=np.float64)
    margins = y * (rbf_gram(rows, rows, gamma) @ (alphas * y) + b)
    bad = []
    for j in range(len(rows)):
        a = alphas[j]
        if a <= 0.0 and margins[j] < 1.0 - tol:
            bad.append(j)
        elif 0.0 < a < C and abs(margins[j] - 1.0) > tol:
            bad.append(j)
        elif a >= C and margins[j] > 1.0 + tol:
            bad.append(j)
    return bad
