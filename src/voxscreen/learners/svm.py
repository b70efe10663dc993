"""RBF-kernel support vector machine trained by sequential minimal
optimization (pairwise dual updates with the |E1 - E2| second-choice
heuristic, deterministic tie-breaking by lowest index)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatchError, SingleClassDataError

SVM_C = 1.0
SVM_GAMMA = 0.001
SVM_TOL = 1e-3
SVM_MAX_PASSES = 200

_STEP_EPS = 1e-12


def rbf_gram(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """Kernel matrix K[i, j] = exp(-gamma ||a_i - b_j||^2)."""
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * a @ b.T
    return np.exp(-gamma * np.maximum(sq, 0.0))


@dataclass
class SvmModel:
    support_vectors: np.ndarray  # [n_sv, d]
    dual_coefs: np.ndarray       # alpha_i * y_i per support vector
    bias: float
    gamma: float
    converged: bool = True

    def decision_values(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        if rows.shape[1] != self.support_vectors.shape[1]:
            raise DimensionMismatchError(
                f"rows have {rows.shape[1]} features, "
                f"model expects {self.support_vectors.shape[1]}")
        return rbf_gram(rows, self.support_vectors, self.gamma) @ self.dual_coefs + self.bias


class _SmoState:
    """Working state of the solver: alphas, bias and the error cache
    E_i = f(x_i) - y_i kept exact under every pairwise update."""

    def __init__(self, kernel: np.ndarray, y: np.ndarray, C: float, tol: float):
        self.K = kernel
        self.y = y
        self.C = C
        self.tol = tol
        n = len(y)
        self.alphas = np.zeros(n)
        self.b = 0.0
        self.errors = -y.astype(np.float64)  # f = 0 initially

    def objective(self, alphas: np.ndarray) -> float:
        ay = alphas * self.y
        return alphas.sum() - 0.5 * ay @ self.K @ ay

    def take_step(self, i1: int, i2: int) -> bool:
        if i1 == i2:
            return False
        a1_old, a2_old = self.alphas[i1], self.alphas[i2]
        y1, y2 = self.y[i1], self.y[i2]
        e1, e2 = self.errors[i1], self.errors[i2]
        s = y1 * y2
        if s > 0:
            lo = max(0.0, a1_old + a2_old - self.C)
            hi = min(self.C, a1_old + a2_old)
        else:
            lo = max(0.0, a2_old - a1_old)
            hi = min(self.C, self.C + a2_old - a1_old)
        if lo >= hi:
            return False

        k11, k22, k12 = self.K[i1, i1], self.K[i2, i2], self.K[i1, i2]
        eta = k11 + k22 - 2.0 * k12
        if eta > _STEP_EPS:
            a2 = a2_old + y2 * (e1 - e2) / eta
            a2 = min(max(a2, lo), hi)
        else:
            # degenerate direction (duplicate points): compare the dual
            # objective at both clip ends and move only on a strict win
            trial = self.alphas.copy()
            trial[i2] = lo
            trial[i1] = a1_old + s * (a2_old - lo)
            obj_lo = self.objective(trial)
            trial[i2] = hi
            trial[i1] = a1_old + s * (a2_old - hi)
            obj_hi = self.objective(trial)
            if obj_lo > obj_hi + _STEP_EPS:
                a2 = lo
            elif obj_hi > obj_lo + _STEP_EPS:
                a2 = hi
            else:
                return False
        if abs(a2 - a2_old) < _STEP_EPS * (a2 + a2_old + _STEP_EPS):
            return False
        a1 = a1_old + s * (a2_old - a2)

        d1, d2 = y1 * (a1 - a1_old), y2 * (a2 - a2_old)
        b1 = self.b - e1 - d1 * k11 - d2 * k12
        b2 = self.b - e2 - d1 * k12 - d2 * k22
        if 0.0 < a1 < self.C:
            b_new = b1
        elif 0.0 < a2 < self.C:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)

        self.errors += d1 * self.K[i1] + d2 * self.K[i2] + (b_new - self.b)
        self.alphas[i1], self.alphas[i2] = a1, a2
        self.b = b_new
        return True

    def examine(self, i2: int) -> bool:
        y2, a2, e2 = self.y[i2], self.alphas[i2], self.errors[i2]
        r2 = e2 * y2
        if not ((r2 < -self.tol and a2 < self.C) or (r2 > self.tol and a2 > 0.0)):
            return False
        non_bound = np.flatnonzero((self.alphas > 0.0) & (self.alphas < self.C))
        if len(non_bound):
            # second-choice heuristic: maximize |E1 - E2|, first index wins ties
            i1 = int(non_bound[np.argmax(np.abs(self.errors[non_bound] - e2))])
            if self.take_step(i1, i2):
                return True
            for i1 in non_bound:
                if self.take_step(int(i1), i2):
                    return True
        for i1 in range(len(self.y)):
            if self.take_step(i1, i2):
                return True
        return False


def smo_solve(rows: np.ndarray, y_pm: np.ndarray, C: float, gamma: float,
              tol: float, max_passes: int) -> tuple[np.ndarray, float, bool]:
    """Run SMO to KKT-satisfaction within tol.

    Returns (alphas, bias, converged); converged is False only when the
    full-sweep budget ran out with violations still present.
    """
    state = _SmoState(rbf_gram(rows, rows, gamma), y_pm, C, tol)
    examine_all = True
    full_sweeps = 0
    changed = 1
    while changed > 0 or examine_all:
        changed = 0
        if examine_all:
            full_sweeps += 1
            if full_sweeps > max_passes:
                return state.alphas, state.b, False
            for i in range(len(y_pm)):
                changed += state.examine(i)
        else:
            for i in np.flatnonzero((state.alphas > 0.0) & (state.alphas < C)):
                changed += state.examine(int(i))
        if examine_all:
            examine_all = False
        elif changed == 0:
            examine_all = True
    return state.alphas, state.b, True


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
