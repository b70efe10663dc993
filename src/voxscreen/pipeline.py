"""Recipe plumbing: clip loading, feature extraction per kind, and the
recipe resolution behind cross_validate and the CLI.

Supported (model, feature) pairings mirror the screening experiments:
LR / SVM / LSTM read mean-MFCC vectors, the CNN reads MFCC or
Mel-spectrogram images, and a logistic head reads mean-pooled encoder
features. Anything else needs force=True in the recipe, and even then the
model must read the feature's shape: images for the CNN, vectors otherwise.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .audio_io import AudioClip, CANONICAL_RATE, load_wav, peak_normalize, resample_linear
from .dsp import FrameParams, MelParams, mel_spectrogram, mfcc, mfcc_mean_vector
from .encoder import EncoderConfig, encoder_apply
from .errors import ConfigError, FeatureKindMismatchError
from .features_io import FEATURE_KINDS, IMAGE_KINDS
from .learners.models import MODEL_KINDS, MODELS, TrainedModel, model_input
from .render import FeatureImage, fit_standardizer, render_image

ALLOWED_PAIRS = {
    ("logreg", "mfcc_vector"),
    ("svm", "mfcc_vector"),
    ("lstm", "mfcc_vector"),
    ("cnn", "mfcc_image"),
    ("cnn", "melspec_image"),
    ("logreg", "encoder"),
}


def load_clip(path, peak: bool = True) -> AudioClip:
    """Read a WAV from disk, resample to 16 kHz, peak-normalize."""
    clip = load_wav(Path(path).read_bytes(), source_id=str(path))
    clip = resample_linear(clip, CANONICAL_RATE)
    return peak_normalize(clip) if peak else clip


def extract_matrix(clip: AudioClip, feature_kind: str,
                   frame: FrameParams = FrameParams(),
                   mel: MelParams = MelParams(),
                   encoder_cfg: EncoderConfig = EncoderConfig()) -> np.ndarray:
    """The storable 2-D form of each feature kind: a [1, n_mfcc] mean vector,
    a [150, 150] gray plane or an [n_frames, channels] encoder sequence."""
    if feature_kind == "mfcc_vector":
        return mfcc_mean_vector(mfcc(clip, frame, mel))[None, :]
    if feature_kind == "mfcc_image":
        return render_image(mfcc(clip, frame, mel))
    if feature_kind == "melspec_image":
        return render_image(mel_spectrogram(clip, frame, mel))
    if feature_kind == "encoder":
        return encoder_apply(clip, encoder_cfg)
    raise ConfigError(f"unknown feature kind {feature_kind!r}")


def feature_from_matrix(matrix: np.ndarray, feature_kind: str):
    """In-memory feature object the learners consume."""
    if feature_kind == "mfcc_vector":
        return matrix.ravel()
    if feature_kind in IMAGE_KINDS:
        # a read-only view of the plane in all three channels; model_input copies it
        return FeatureImage(np.broadcast_to(matrix[:, :, None], (*matrix.shape, 3)))
    if feature_kind == "encoder":
        return matrix.mean(axis=0)  # mean-pool the frame sequence
    raise ConfigError(f"unknown feature kind {feature_kind!r}")


def extract_feature(clip: AudioClip, feature_kind: str, **kwargs):
    return feature_from_matrix(extract_matrix(clip, feature_kind, **kwargs), feature_kind)


def validate_recipe(recipe: dict) -> dict:
    model = recipe.get("model")
    feature = recipe.get("feature")
    if model not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {model!r}")
    if feature not in FEATURE_KINDS:
        raise ConfigError(f"unknown feature kind {feature!r}")
    if (model, feature) not in ALLOWED_PAIRS and not recipe.get("force", False):
        raise ConfigError(
            f"({model}, {feature}) is not one of the supported pairings; "
            "pass force=true to run it anyway")
    images = MODELS[model].images
    if (feature in IMAGE_KINDS) != images:  # force cannot bridge this
        raise FeatureKindMismatchError(
            f"{'image' if images else 'vector'} model cannot use {feature!r} features")
    accepted = MODELS[model].hyper
    for key in recipe.get("hyper", {}):
        if key not in accepted:
            raise ConfigError(
                f"{model} does not read hyperparameter {key!r}; "
                f"it accepts {', '.join(sorted(accepted))}")
    return recipe


def resolve_recipe(recipe: dict):
    """Build fit_fn(features, labels, seed) -> TrainedModel for a recipe.

    Vector recipes fit a per-fold Standardizer on the train rows only.
    """
    validate_recipe(recipe)
    kind, feature = recipe["model"], recipe["feature"]
    spec = MODELS[kind]
    hyper = {k: spec.hyper[k](v) for k, v in recipe.get("hyper", {}).items()}

    def fit(features, labels, seed):
        x = model_input(features, feature, spec.images)
        scaler = None if spec.images else fit_standardizer(x)
        inner = spec.fit(x if scaler is None else scaler.apply(x), labels, seed, hyper)
        return TrainedModel(kind, inner, feature, scaler)
    return fit
