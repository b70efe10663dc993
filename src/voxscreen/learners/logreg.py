"""Logistic regression trained by full-batch gradient descent."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatchError
from .layers import sigmoid, training_labels

LOGREG_LR = 0.1
LOGREG_EPOCHS = 500


@dataclass
class LogRegModel:
    weights: np.ndarray
    bias: float

    def scores(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        if rows.shape[1] != len(self.weights):
            raise DimensionMismatchError(
                f"rows have {rows.shape[1]} features, model expects {len(self.weights)}")
        return sigmoid(rows @ self.weights + self.bias)


def train_logreg(rows, labels, epochs: int = LOGREG_EPOCHS,
                 lr: float = LOGREG_LR) -> LogRegModel:
    """Minimize mean binary cross-entropy from a zero start.

    Full batch, fixed step; deterministic for fixed inputs. Inputs are
    assumed standardized (the pipeline fits a Standardizer upstream).
    """
    rows = np.asarray(rows, dtype=np.float64)
    labels = training_labels(labels, len(rows)).astype(np.float64)
    w = np.zeros(rows.shape[1])
    b = 0.0
    for _ in range(epochs):  # descend the mean BCE's gradient; the loss is never read
        dz = (sigmoid(rows @ w + b) - labels) / len(labels)
        w = w - lr * (rows.T @ dz)
        b = b - lr * float(dz.sum())
    return LogRegModel(weights=w, bias=b)
