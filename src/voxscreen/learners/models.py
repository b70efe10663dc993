"""The model table, and the uniform trained-model surface built on it:
the fitted-model wrapper and its scoring."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from ..errors import FeatureKindMismatchError
from ..render import Standardizer
from .cnn import CnnConfig, train_cnn
from .layers import sigmoid
from .logreg import train_logreg
from .lstm import LstmConfig, train_lstm
from .svm import train_svm_smo


@dataclass(frozen=True)
class ModelSpec:
    """Everything that differs between model kinds.

    fit(x, labels, seed, hyper) calls its trainer by module-global name, so
    rebinding a train_* name in this module reaches every fold.
    """

    images: bool                # reads [n, h, w] gray planes, else standardized [n, d] rows
    hyper: dict[str, Callable]  # recipe hyper keys it reads -> cast that range-checks
    fit: Callable               # (x, labels, seed, hyper) -> fitted model
    score: Callable             # (fitted, x) -> scores in [0, 1]


def _ranged(cast, ok, rule: str) -> Callable:
    """A hyper cast that raises ValueError(rule) when ok(value) fails."""
    def check(value):
        if not ok(value := cast(value)):
            raise ValueError(rule)
        return value
    return check


COUNT = _ranged(int, lambda v: v >= 1, "must be at least 1")
POSITIVE = _ranged(float, lambda v: v > 0, "must be greater than 0")
FRACTION = _ranged(float, lambda v: 0 <= v < 1, "must be in [0, 1)")


def _with_config(config_cls, hyper: dict) -> dict:
    """Trainer keyword arguments: config=config_cls(...) plus the rest of hyper."""
    names = {f.name for f in fields(config_cls)}
    return {"config": config_cls(**{k: v for k, v in hyper.items() if k in names}),
            **{k: v for k, v in hyper.items() if k not in names}}


def _channels(planes: np.ndarray) -> np.ndarray:
    """[n, h, w] gray planes as the CNN's [n, h, w, 3] input: a read-only view,
    so the three identical channels cost no memory until train_cnn casts them."""
    return np.broadcast_to(planes[..., None], (*planes.shape, 3))


MODELS = {
    "logreg": ModelSpec(
        images=False, hyper={"epochs": COUNT, "lr": POSITIVE},
        fit=lambda x, y, seed, h: train_logreg(x, y, **h),
        score=lambda m, x: m.scores(x)),
    "svm": ModelSpec(
        images=False,
        hyper={"C": POSITIVE, "gamma": POSITIVE, "tol": POSITIVE, "max_passes": COUNT},
        fit=lambda x, y, seed, h: train_svm_smo(x, y, **h),
        score=lambda m, x: sigmoid(m.decision_values(x))),
    "cnn": ModelSpec(
        images=True,
        hyper={"filters1": COUNT, "filters2": COUNT, "dropout": FRACTION, "lr": POSITIVE,
               "epochs": COUNT, "batch": COUNT},
        fit=lambda x, y, seed, h: train_cnn(_channels(x), y, seed=seed,
                                            **_with_config(CnnConfig, h)),
        score=lambda m, x: m.scores(_channels(x))),
    "lstm": ModelSpec(
        images=False,
        hyper={"hidden": COUNT, "dense": COUNT, "dropout": FRACTION, "lr": POSITIVE,
               "loss": _ranged(str, lambda v: v in ("mae", "bce"), "must be mae or bce"),
               "epochs": COUNT, "batch": COUNT},
        fit=lambda x, y, seed, h: train_lstm(x[:, :, None], y, seed=seed,
                                             **_with_config(LstmConfig, h)),
        score=lambda m, x: m.scores(x[:, :, None])),
}
MODEL_KINDS = tuple(MODELS)


def model_input(features, images: bool) -> np.ndarray:
    """The feature array as float64, checked to be what the model reads:
    [n, h, w] gray planes for an image model, [n, d] rows otherwise."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != (3 if images else 2):
        raise FeatureKindMismatchError(
            f"{'image' if images else 'vector'} model cannot read a {x.ndim}-D feature array")
    return x


@dataclass
class TrainedModel:
    """A fitted classifier plus the standardizer its input rows go through."""

    kind: str  # a key of MODELS
    model: object
    standardizer: Standardizer | None = None

    def score_batch(self, features) -> np.ndarray:
        """Scores in [0, 1] for a stacked feature array."""
        spec = MODELS[self.kind]
        x = model_input(features, spec.images)
        if self.standardizer is not None:
            x = self.standardizer.apply(x)
        return spec.score(self.model, x)

