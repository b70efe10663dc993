"""The model table, and the uniform trained-model surface built on it:
the fitted-model wrapper and its scoring."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import FeatureKindMismatchError
from ..render import Standardizer
from .cnn import CnnConfig, train_cnn
from .logreg import train_logreg
from .lstm import LstmConfig, train_lstm
from .svm import train_svm_smo


@dataclass(frozen=True)
class ModelSpec:
    """Everything that differs between model kinds.

    fit(x, labels, seed, hyper) calls its trainer by module-global name, so
    rebinding a train_* name in this module reaches every fold. Every fitted
    model scores model_input's array with .scores(x), in [0, 1]. Only the
    network kinds pool their folds: a logreg or SVM fold trains in well
    under a second, and pooling made those folds slower.
    """

    features: tuple[str, ...]   # the feature kinds it runs on without force
    images: bool                # reads [n, h, w] gray planes, else standardized [n, d] rows
    pooled: bool                # cross_validate trains its folds in a pool of forked workers
    hyper: dict[str, Callable]  # recipe hyper keys it reads -> cast that range-checks
    fit: Callable               # (x, labels, seed, hyper) -> fitted model


def _ranged(cast, ok, rule: str) -> Callable:
    """A hyper cast that raises ValueError(rule) when ok(value) fails."""
    def check(value):
        if not ok(value := cast(value)):
            raise ValueError(rule)
        return value
    return check


COUNT = _ranged(int, lambda v: v >= 1, "must be at least 1")
POSITIVE = _ranged(float, lambda v: 0 < v < np.inf, "must be finite and greater than 0")
FRACTION = _ranged(float, lambda v: 0 <= v < 1, "must be in [0, 1)")


MODELS = {
    "logreg": ModelSpec(
        features=("mfcc_vector", "encoder"), images=False, pooled=False,
        hyper={"epochs": COUNT, "lr": POSITIVE},
        fit=lambda x, y, seed, h: train_logreg(x, y, **h)),
    "svm": ModelSpec(
        features=("mfcc_vector",), images=False, pooled=False,
        hyper={"C": POSITIVE, "gamma": POSITIVE, "tol": POSITIVE, "max_passes": COUNT},
        fit=lambda x, y, seed, h: train_svm_smo(x, y, **h)),
    "cnn": ModelSpec(
        features=("mfcc_image", "melspec_image"), images=True, pooled=True,
        hyper={"filters1": COUNT, "filters2": COUNT, "dropout": FRACTION, "lr": POSITIVE,
               "epochs": COUNT, "batch": COUNT},
        fit=lambda x, y, seed, h: train_cnn(x, y, seed, CnnConfig(**h))),
    "lstm": ModelSpec(
        features=("mfcc_vector",), images=False, pooled=True,
        hyper={"hidden": COUNT, "dense": COUNT, "dropout": FRACTION, "lr": POSITIVE,
               "loss": _ranged(str, lambda v: v in ("mae", "bce"), "must be mae or bce"),
               "epochs": COUNT, "batch": COUNT},
        fit=lambda x, y, seed, h: train_lstm(x, y, seed, LstmConfig(**h))),
}


def model_input(features, images: bool) -> np.ndarray:
    """The feature array as float64, checked to be what the model reads: [n, d]
    rows for a vector model. An image model takes [n, h, w] gray planes and reads
    them as [n, h, w, 3]: a read-only view, so the three identical channels cost
    no memory until train_cnn casts them."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != (3 if images else 2):
        raise FeatureKindMismatchError(
            f"{'image' if images else 'vector'} model cannot read a {x.ndim}-D feature array")
    return np.broadcast_to(x[..., None], (*x.shape, 3)) if images else x


@dataclass
class TrainedModel:
    """A fitted classifier plus the standardizer its input rows go through."""

    kind: str  # a key of MODELS
    model: object
    standardizer: Standardizer | None

    def score_batch(self, features) -> np.ndarray:
        """Scores in [0, 1] for a stacked feature array."""
        x = model_input(features, MODELS[self.kind].images)
        if self.standardizer is not None:
            x = self.standardizer.apply(x)
        return self.model.scores(x)

