"""The model table, and the uniform trained-model surface built on it:
tagged wrapper, scoring, VXM1 files."""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from ..errors import CorruptFileError, FeatureKindMismatchError
from ..render import Standardizer
from .cnn import CnnConfig, CnnModel, train_cnn
from .layers import sigmoid
from .logreg import LogRegModel, train_logreg
from .lstm import LstmConfig, LstmModel, train_lstm
from .svm import SvmModel, train_svm_smo


@dataclass(frozen=True)
class ModelSpec:
    """Everything that differs between model kinds.

    fit(x, labels, seed, hyper) calls its trainer by module-global name, so
    rebinding a train_* name in this module reaches every fold.
    """

    tag: int                    # VXM1 kind byte
    images: bool                # reads [n, h, w] gray planes, else standardized [n, d] rows
    hyper: dict[str, Callable]  # recipe hyper keys it reads -> cast that range-checks
    fit: Callable               # (x, labels, seed, hyper) -> fitted model
    score: Callable             # (fitted, x) -> scores in [0, 1]
    dump: Callable              # fitted -> (VXM1 hyper block, named tensors)
    load: Callable              # (hyper block, tensors) -> fitted


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


def _load_config(config_cls, hyper: dict):
    return config_cls(**{f.name: hyper[f.name] for f in fields(config_cls)})


def _channels(planes: np.ndarray) -> np.ndarray:
    """[n, h, w] gray planes as the CNN's [n, h, w, 3] input: a read-only view,
    so the three identical channels cost no memory until train_cnn casts them."""
    return np.broadcast_to(planes[..., None], (*planes.shape, 3))


MODELS = {
    "logreg": ModelSpec(
        tag=0, images=False, hyper={"epochs": COUNT, "lr": POSITIVE},
        fit=lambda x, y, seed, h: train_logreg(x, y, **h),
        score=lambda m, x: m.scores(x),
        dump=lambda m: ({}, {"weights": m.weights, "bias": np.array([m.bias])}),
        load=lambda h, t: LogRegModel(weights=t["weights"], bias=float(t["bias"][0]))),
    "svm": ModelSpec(
        tag=1, images=False,
        hyper={"C": POSITIVE, "gamma": POSITIVE, "tol": POSITIVE, "max_passes": COUNT},
        fit=lambda x, y, seed, h: train_svm_smo(x, y, **h),
        score=lambda m, x: sigmoid(m.decision_values(x)),
        dump=lambda m: ({"gamma": m.gamma, "C": m.C, "converged": m.converged},
                        {"support_vectors": m.support_vectors,
                         "dual_coefs": m.dual_coefs, "bias": np.array([m.bias])}),
        load=lambda h, t: SvmModel(
            support_vectors=t["support_vectors"], dual_coefs=t["dual_coefs"],
            bias=float(t["bias"][0]), gamma=h["gamma"], C=h["C"],
            converged=h["converged"])),
    "cnn": ModelSpec(
        tag=2, images=True,
        hyper={"filters1": COUNT, "filters2": COUNT, "dropout": FRACTION, "lr": POSITIVE,
               "epochs": COUNT, "batch": COUNT},
        fit=lambda x, y, seed, h: train_cnn(_channels(x), y, seed=seed,
                                            **_with_config(CnnConfig, h)),
        score=lambda m, x: m.scores(_channels(x)),
        dump=lambda m: ({**asdict(m.config), "input_shape": list(m.input_shape)},
                        dict(m.params)),
        load=lambda h, t: CnnModel(params=t, config=_load_config(CnnConfig, h),
                                   input_shape=tuple(h["input_shape"]))),
    "lstm": ModelSpec(
        tag=3, images=False,
        hyper={"hidden": COUNT, "dense": COUNT, "dropout": FRACTION, "lr": POSITIVE,
               "loss": _ranged(str, lambda v: v in ("mae", "bce"), "must be mae or bce"),
               "epochs": COUNT, "batch": COUNT},
        fit=lambda x, y, seed, h: train_lstm(x[:, :, None], y, seed=seed,
                                             **_with_config(LstmConfig, h)),
        score=lambda m, x: m.scores(x[:, :, None]),
        dump=lambda m: ({**asdict(m.config), "input_dim": m.input_dim}, dict(m.params)),
        load=lambda h, t: LstmModel(params=t, config=_load_config(LstmConfig, h),
                                    input_dim=h["input_dim"])),
}
MODEL_KINDS = tuple(MODELS)
_TAG_KINDS = {spec.tag: kind for kind, spec in MODELS.items()}


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
    """A fitted classifier plus the preprocessing recipe it expects."""

    kind: str  # a key of MODELS
    model: object
    feature_kind: str
    standardizer: Standardizer | None = None

    @property
    def spec(self) -> ModelSpec:
        if self.kind not in MODELS:
            raise FeatureKindMismatchError(f"unknown model kind {self.kind!r}")
        return MODELS[self.kind]

    def inputs(self, features) -> np.ndarray:
        """The (standardized) array the fitted model reads."""
        x = model_input(features, self.spec.images)
        return x if self.standardizer is None else self.standardizer.apply(x)

    def score_batch(self, features) -> np.ndarray:
        """Scores in [0, 1] for a stacked feature array."""
        return self.spec.score(self.model, self.inputs(features))


def predict_score(model: TrainedModel, feature) -> float:
    """Score one example; sigmoid/softmax output in [0, 1]."""
    return float(model.score_batch(np.asarray(feature)[None])[0])


def svm_raw_score(model: TrainedModel, feature) -> float:
    """Unsquashed SVM decision value (sign = predicted side)."""
    if model.kind != "svm":
        raise FeatureKindMismatchError("raw decision values exist only for svm")
    return float(model.model.decision_values(model.inputs(np.asarray(feature)[None]))[0])


# --- VXM1 container ---

MODEL_MAGIC = b"VXM1"


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _pack_tensor(name: str, arr: np.ndarray) -> bytes:
    arr = np.asarray(arr, dtype=np.float64)
    head = _pack_str(name) + struct.pack("<B", arr.ndim)
    head += struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b""
    return head + arr.astype("<f4").tobytes()


class _Reader:
    """Sequential decoder; struct.error or ValueError on a short read."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, fmt: str):
        vals = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += struct.calcsize(fmt)
        return vals

    def take_str(self) -> str:
        (n,) = self.take("<I")
        if self.pos + n > len(self.data):
            raise ValueError("string runs past the end of the file")
        s = self.data[self.pos:self.pos + n].decode("utf-8")
        self.pos += n
        return s

    def take_tensor(self) -> tuple[str, np.ndarray]:
        name = self.take_str()
        (ndim,) = self.take("<B")
        shape = self.take(f"<{ndim}I") if ndim else ()
        count = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(self.data, dtype="<f4", count=count,
                            offset=self.pos).astype(np.float64)
        self.pos += 4 * count
        return name, arr.reshape(shape)


def _model_payload(m: TrainedModel) -> tuple[dict, dict[str, np.ndarray]]:
    """Hyperparameter block and named tensors, scaler included."""
    hyper, tensors = m.spec.dump(m.model)
    if m.standardizer is not None:
        tensors["scaler_mean"] = m.standardizer.mean
        tensors["scaler_std"] = m.standardizer.std
        hyper["standardized"] = True
    return hyper, tensors


def save_model(m: TrainedModel, path: str) -> None:
    hyper, tensors = _model_payload(m)
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<B", m.spec.tag))
        fh.write(_pack_str(m.feature_kind))
        fh.write(_pack_str(json.dumps(hyper, sort_keys=True)))
        fh.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            fh.write(_pack_tensor(name, tensors[name]))


def load_model(path: str) -> TrainedModel:
    data = open(path, "rb").read()
    if data[:4] != MODEL_MAGIC:
        raise CorruptFileError(f"{path}: not a VXM1 model file")
    if len(data) < 5 or data[4] not in _TAG_KINDS:
        raise CorruptFileError(f"{path}: missing or unknown VXM1 model tag")
    kind = _TAG_KINDS[data[4]]
    r = _Reader(data)
    r.pos = 5
    try:
        feature_kind = r.take_str()
        hyper = json.loads(r.take_str())
        (n_tensors,) = r.take("<I")
        tensors = dict(r.take_tensor() for _ in range(n_tensors))
        if r.pos != len(data):
            raise ValueError(f"{len(data) - r.pos} bytes after the last tensor")
        scaler = None
        if hyper.pop("standardized", False):
            scaler = Standardizer(mean=tensors.pop("scaler_mean"),
                                  std=tensors.pop("scaler_std"))
        model = MODELS[kind].load(hyper, tensors)
    except (struct.error, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CorruptFileError(f"{path}: garbled {kind} VXM1 payload ({exc!r})") from exc
    return TrainedModel(kind=kind, model=model, feature_kind=feature_kind,
                        standardizer=scaler)
