"""Recipe plumbing: feature kinds, pairings, the encoder path, report bytes."""

import dataclasses
import hashlib
import sys
from collections import Counter

import numpy as np
import pytest

import oracles

from voxscreen.audio_io import synth_clip
from voxscreen.encoder import EncoderConfig
from voxscreen.errors import ConfigError, FeatureKindMismatchError
from voxscreen.evaluation import cross_validate
from voxscreen.learners import CnnConfig, LstmConfig, layers
from voxscreen.learners.models import MODELS
from voxscreen.pipeline import (
    ALLOWED_PAIRS,
    extract_feature,
    extract_matrix,
    feature_from_matrix,
    resolve_recipe,
    validate_recipe,
)


class TestExtractFeature:
    def test_mfcc_vector_is_40_dim(self):
        vec = extract_feature(synth_clip(0, 1, 1.0), "mfcc_vector")
        assert vec.shape == (40,)

    def test_image_kinds_render_150(self):
        clip = synth_clip(1, 2, 1.0)
        for kind in ("mfcc_image", "melspec_image"):
            assert extract_feature(clip, kind).shape == (150, 150)

    def test_encoder_mean_pooled(self):
        clip = synth_clip(0, 3, 0.5)
        vec = extract_feature(clip, "encoder",
                              encoder_cfg=EncoderConfig(channels=8))
        assert vec.shape == (8,)

    def test_matrix_and_memory_forms_agree(self):
        clip = synth_clip(0, 4, 1.0)
        matrix = extract_matrix(clip, "melspec_image")
        assert matrix.shape == (150, 150)
        image = feature_from_matrix(matrix, "melspec_image")
        direct = extract_feature(clip, "melspec_image")
        assert np.max(np.abs(image - direct)) < 1e-12

    def test_channels_identical(self, monkeypatch):
        """The stored plane is the in-memory feature; the cnn entry hands
        train_cnn each plane in all three channels as a read-only view."""
        from voxscreen.learners import models
        planes = np.random.default_rng(1).uniform(0, 1, (4, 150, 150))
        plane = planes[0]
        assert feature_from_matrix(plane, "mfcc_image") is plane
        seen = []
        monkeypatch.setattr(models, "train_cnn", lambda images, *a, **kw: seen.append(images))
        resolve_recipe({"model": "cnn", "feature": "mfcc_image"})(planes, np.array([0, 1] * 2), 0)
        [images] = seen
        assert images.shape == (4, 150, 150, 3)
        for channel in range(3):
            assert np.array_equal(images[..., channel], planes)
        assert not images.flags.writeable  # a view of the planes, not a copy

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            extract_feature(synth_clip(0, 1, 1.0), "chromagram")

    def test_load_clip_resamples_to_16k(self):
        from voxscreen.audio_io import AudioClip, save_wav
        from voxscreen.pipeline import load_clip
        t = np.arange(8000) / 8000.0
        clip8k = AudioClip(0.5 * np.sin(2 * np.pi * 220 * t), 8000)
        loaded = load_clip(save_wav(clip8k))
        assert loaded.sample_rate == 16000
        assert len(loaded.samples) == 16000
        assert np.max(np.abs(loaded.samples)) == 1.0  # peak-normalized


class TestRecipeValidation:
    @pytest.mark.parametrize("model,feature", sorted(ALLOWED_PAIRS))
    def test_supported_pairs_pass(self, model, feature):
        validate_recipe({"model": model, "feature": feature})

    def test_unsupported_pair_needs_force(self):
        with pytest.raises(ConfigError):
            validate_recipe({"model": "svm", "feature": "melspec_image"})
        validate_recipe({"model": "svm", "feature": "encoder", "force": True})

    @pytest.mark.parametrize("model,feature", [("svm", "melspec_image"),
                                               ("cnn", "mfcc_vector")])
    def test_force_cannot_bridge_image_and_vector(self, model, feature):
        with pytest.raises(FeatureKindMismatchError, match=f"cannot use '{feature}'"):
            validate_recipe({"model": model, "feature": feature, "force": True})

    @pytest.mark.parametrize("model,key,value", [
        ("cnn", "batch", 0), ("cnn", "filters1", -3), ("lstm", "epochs", 0),
        ("logreg", "lr", -1.0), ("svm", "C", 0.0), ("svm", "gamma", -1.0),
        ("svm", "tol", 0.0), ("svm", "max_passes", 0), ("cnn", "dropout", 1.5),
        ("lstm", "dropout", 1.0), ("lstm", "dropout", -0.1), ("svm", "gamma", float("nan")),
        ("logreg", "epochs", "many"), ("lstm", "loss", "huber"),
    ])
    def test_hyper_values_out_of_range(self, model, key, value):
        feature = "melspec_image" if model == "cnn" else "mfcc_vector"
        with pytest.raises(ConfigError, match=f"{model} hyperparameter {key}={value!r}"):
            validate_recipe({"model": model, "feature": feature, "hyper": {key: value}})

    def test_hyper_range_edges_pass(self):
        validate_recipe({"model": "lstm", "feature": "mfcc_vector",
                         "hyper": {"epochs": 1, "batch": 1, "dropout": 0.0, "lr": 1e-9}})

    def test_hyper_keys_the_model_does_not_read(self):
        validate_recipe({"model": "svm", "feature": "mfcc_vector",
                         "hyper": {"C": 7.0, "tol": 3.0}})
        with pytest.raises(ConfigError, match="'tol'.*accepts epochs, lr"):
            validate_recipe({"model": "logreg", "feature": "mfcc_vector",
                             "hyper": {"tol": 3.0}})
        with pytest.raises(ConfigError, match="'kernel'"):
            validate_recipe({"model": "cnn", "feature": "melspec_image",
                             "hyper": {"kernel": 5}})

    def test_unknown_names(self):
        with pytest.raises(ConfigError):
            validate_recipe({"model": "forest", "feature": "mfcc_vector"})
        with pytest.raises(ConfigError):
            validate_recipe({"model": "svm", "feature": "spectrogram"})


class TestEncoderHeadPath:
    def test_logreg_on_encoder_features(self):
        """The encoder-head recipe: mean-pooled features, linear head."""
        cfg = EncoderConfig(channels=8)
        clips = [synth_clip(lab, 100 + i, 0.6) for i, lab in
                 enumerate([0] * 6 + [1] * 6)]
        feats = np.stack([extract_feature(c, "encoder", encoder_cfg=cfg) for c in clips])
        labels = np.array([0] * 6 + [1] * 6)
        report = cross_validate(feats, labels,
                                {"model": "logreg", "feature": "encoder"},
                                k=2, seed=0)
        assert 0.0 <= report.pooled_roc.auc <= 1.0
        assert len(report.fold_metrics) == 2


class TestResolvedFitFunctions:
    def test_each_recipe_trains_and_scores(self):
        rng = np.random.default_rng(0)
        rows = np.vstack([rng.normal(-1, 0.5, (8, 40)),
                          rng.normal(1, 0.5, (8, 40))])
        labels = np.array([0] * 8 + [1] * 8)
        for model in ("logreg", "svm"):
            fit = resolve_recipe({"model": model, "feature": "mfcc_vector"})
            trained = fit(rows, labels, seed=0)
            scores = trained.score_batch(rows)
            assert scores.shape == (16,)
            assert np.all((scores >= 0) & (scores <= 1))

    def test_lstm_recipe_short_epochs(self):
        rng = np.random.default_rng(1)
        rows = np.vstack([rng.normal(-1, 0.5, (6, 10)),
                          rng.normal(1, 0.5, (6, 10))])
        labels = np.array([0] * 6 + [1] * 6)
        fit = resolve_recipe({"model": "lstm", "feature": "mfcc_vector",
                              "hyper": {"epochs": 2, "hidden": 4, "dense": 3}})
        trained = fit(rows, labels, seed=0)
        assert trained.score_batch(rows).shape == (12,)

    def test_cnn_recipe_short_epochs(self):
        rng = np.random.default_rng(2)
        images = rng.uniform(0, 1, (8, 12, 12))
        labels = np.array([0, 1] * 4)
        fit = resolve_recipe({"model": "cnn", "feature": "melspec_image",
                              "hyper": {"epochs": 1, "filters1": 3,
                                        "filters2": 4}})
        trained = fit(images, labels, seed=0)
        assert trained.score_batch(images).shape == (8,)


@pytest.mark.parametrize("kind,config_cls", [("cnn", CnnConfig), ("lstm", LstmConfig)])
def test_network_hyper_keys_are_config_fields(kind, config_cls):
    """The network trainers read every hyperparameter from their config."""
    assert set(MODELS[kind].hyper) <= {f.name for f in dataclasses.fields(config_cls)}


TRAINERS = {"logreg": "train_logreg", "svm": "train_svm_smo",
            "cnn": "train_cnn", "lstm": "train_lstm"}
TINY_HYPER = {"cnn": {"epochs": 1, "filters1": 2, "filters2": 2},
              "lstm": {"epochs": 1, "hidden": 2, "dense": 2}}


def test_rebound_trainers_run_once_per_fold(monkeypatch):
    """An outside profiler swaps each train_* name, in every voxscreen
    module that binds it, for a wrapper; cross_validate must call it."""
    from voxscreen import learners
    calls = Counter()
    modules = [m for name, m in list(sys.modules.items())
               if name.startswith("voxscreen") and m is not None]
    for name in TRAINERS.values():
        original = getattr(learners, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)

    rng = np.random.default_rng(5)
    labels = np.array([0, 1] * 4)
    for model, feature in sorted(ALLOWED_PAIRS):
        if model == "cnn":
            feats = rng.uniform(0, 1, (len(labels), 10, 10))
        else:
            feats = rng.normal(size=(len(labels), 5)) + labels[:, None]
        calls.clear()
        cross_validate(feats, labels, {"model": model, "feature": feature,
                                       "hyper": TINY_HYPER.get(model, {})},
                       k=2, seed=0)
        assert calls == {TRAINERS[model]: 2}, (model, feature)


# sha256 of report.json and report_roc.csv per supported pairing, recorded
# before features became one array (numpy 2.4, OpenBLAS, x86-64, under
# numpy's X86_V4 / AVX-512 CPU dispatch; with those features disabled the
# float kernels round differently and most pairings' bytes move); the
# AUC floors elsewhere cannot see a score that drifts in its last bits.
# The (logreg, encoder) ROC digest is the one recorded after gelu built
# x^3 from products: that moved the threshold column by at most 4e-16
# relative. The pow-form digest is still asserted with the oracle gelu.
GOLDEN_REPORTS = {
    ("cnn", "melspec_image"): (
        "02418d59254be041f1344a9ceacf97308ba278cdfe27c09c281d5bd8520e1d78",
        "2ff4e73c1fa651a47568de8ccefdf73a2d7d7cf177b81f079f6e199cb880f734"),
    ("cnn", "mfcc_image"): (
        "bc10a11e301b3e59348aab1fb8dd283950233955f26c4000b767de85683ee87a",
        "c728e00628a1128b812cf86409b0d75c22a4f3f6cbb914760601cc25b00d0d39"),
    ("logreg", "encoder"): (
        "d48fd6023f3c2947830feee7c8da30834ed2e793002292519788fc4faeb9e55f",
        "60b62031d5f26c6ff2251b94d05746aa2962068d33c01b34e2bf160483805b01"),
    ("logreg", "mfcc_vector"): (
        "f063097e2ac1034605e9539450d722c98a0e4eaece183f7d5b5b1a23d8d4548a",
        "12589387d51bdbfbe50b78423ea0bbfe5380a9fe6bdeb5c63a523aad7882dc8c"),
    ("lstm", "mfcc_vector"): (
        "b83780323f478deebd693de8dae08c36b5773d6cd90781c723847a53b85fe335",
        "05025d5789e6bee977b2e9ed5bd691e993a6ec7f153a9303212ff7e7d2d04b0c"),
    ("svm", "mfcc_vector"): (
        "06493b8040a1b79db457377f73bc4cfeef943e0272f1995363f10e88fd09aaed",
        "182d50c7c7567fc879924391071c6bba4314851fa480ff1474346f6012703dd2"),
}
GOLDEN_HYPER = {"cnn": {"epochs": 1, "batch": 4, "filters1": 2, "filters2": 3},
                "lstm": {"epochs": 2, "hidden": 4, "dense": 3}}


@pytest.fixture(scope="module")
def golden_clips():
    labels = np.array([0, 1] * 6)
    return [synth_clip(int(label), 300 + i, 0.5) for i, label in enumerate(labels)], labels


def _golden_report(golden_clips, model, feature):
    clips, labels = golden_clips
    feats = np.stack([extract_feature(c, feature, encoder_cfg=EncoderConfig(channels=8))
                      for c in clips])
    return cross_validate(feats, labels, {"model": model, "feature": feature,
                                          "hyper": GOLDEN_HYPER.get(model, {})},
                          k=3, seed=4)


def _digests(report):
    return tuple(hashlib.sha256(text.encode()).hexdigest()
                 for text in (report.to_json(), report.roc_csv()))


def _dispatch_note() -> str:
    """Which numpy CPU dispatch this run uses, against the one the report
    goldens were recorded under: their float sums follow the dispatched
    kernels, so another machine class can move them without a regression."""
    from numpy._core._multiarray_umath import __cpu_features__
    enabled = [name for name, on in __cpu_features__.items() if on]
    return ("report goldens were recorded under X86_V4 (AVX-512) dispatch; "
            f"X86_V4 is {'on' if 'X86_V4' in enabled else 'OFF'} in this run, "
            f"which enables {' '.join(enabled) or 'no listed features'}")


@pytest.mark.parametrize("model,feature", sorted(ALLOWED_PAIRS))
def test_report_bytes_match_golden(golden_clips, model, feature):
    assert _digests(_golden_report(golden_clips, model, feature)) \
        == GOLDEN_REPORTS[model, feature], _dispatch_note()


def test_pow_form_gelu_reproduces_old_encoder_golden(golden_clips, monkeypatch):
    """With the pow-form gelu swapped back in, the (logreg, encoder) report
    keeps its pre-change bytes; against the product form, report.json is
    identical and only the ROC thresholds move, in their last bits."""
    fast = _golden_report(golden_clips, "logreg", "encoder")
    monkeypatch.setattr(layers, "gelu", oracles.gelu)
    slow = _golden_report(golden_clips, "logreg", "encoder")
    assert _digests(slow) == (
        "d48fd6023f3c2947830feee7c8da30834ed2e793002292519788fc4faeb9e55f",
        "384706e13212476acb5d45dab55897b8e2733718df9d178ae958892256c5351a")
    assert fast.to_json() == slow.to_json()
    assert np.array_equal(fast.pooled_roc.points, slow.pooled_roc.points)
    np.testing.assert_allclose(fast.pooled_roc.thresholds, slow.pooled_roc.thresholds,
                               rtol=1e-12, atol=0)
