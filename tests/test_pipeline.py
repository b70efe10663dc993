"""Recipe plumbing: feature kinds, pairings, the encoder path."""

import sys
from collections import Counter

import numpy as np
import pytest

from voxscreen.audio_io import synth_clip
from voxscreen.errors import ConfigError, FeatureKindMismatchError
from voxscreen.evaluation import cross_validate
from voxscreen.pipeline import (
    ALLOWED_PAIRS,
    extract_feature,
    extract_matrix,
    feature_from_matrix,
    resolve_recipe,
    validate_recipe,
)
from voxscreen.render import FeatureImage


class TestExtractFeature:
    def test_mfcc_vector_is_40_dim(self):
        vec = extract_feature(synth_clip(0, 1, 1.0), "mfcc_vector")
        assert vec.shape == (40,)

    def test_image_kinds_render_150(self):
        clip = synth_clip(1, 2, 1.0)
        for kind in ("mfcc_image", "melspec_image"):
            image = extract_feature(clip, kind)
            assert isinstance(image, FeatureImage)
            assert image.pixels.shape == (150, 150, 3)

    def test_encoder_mean_pooled(self):
        from voxscreen.encoder import EncoderConfig
        clip = synth_clip(0, 3, 0.5)
        vec = extract_feature(clip, "encoder",
                              encoder_cfg=EncoderConfig(channels=8))
        assert vec.shape == (8,)

    def test_matrix_and_memory_forms_agree(self):
        clip = synth_clip(0, 4, 1.0)
        matrix, tag = extract_matrix(clip, "melspec_image")
        assert tag == "melspec"
        image = feature_from_matrix(matrix, "melspec_image")
        direct = extract_feature(clip, "melspec_image")
        assert np.max(np.abs(image.pixels - direct.pixels)) < 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            extract_feature(synth_clip(0, 1, 1.0), "chromagram")

    def test_load_clip_resamples_to_16k(self, tmp_path):
        from voxscreen.audio_io import AudioClip, save_wav
        from voxscreen.pipeline import load_clip
        t = np.arange(8000) / 8000.0
        clip8k = AudioClip(0.5 * np.sin(2 * np.pi * 220 * t), 8000)
        path = tmp_path / "a8k.wav"
        path.write_bytes(save_wav(clip8k))
        loaded = load_clip(path)
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
        from voxscreen.encoder import EncoderConfig
        cfg = EncoderConfig(channels=8, weight_source="seeded:2")
        clips = [synth_clip(lab, 100 + i, 0.6) for i, lab in
                 enumerate([0] * 6 + [1] * 6)]
        feats = [extract_feature(c, "encoder", encoder_cfg=cfg) for c in clips]
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
            trained = fit(list(rows), labels, seed=0)
            scores = trained.score_batch(list(rows))
            assert scores.shape == (16,)
            assert np.all((scores >= 0) & (scores <= 1))

    def test_lstm_recipe_short_epochs(self):
        rng = np.random.default_rng(1)
        rows = np.vstack([rng.normal(-1, 0.5, (6, 10)),
                          rng.normal(1, 0.5, (6, 10))])
        labels = np.array([0] * 6 + [1] * 6)
        fit = resolve_recipe({"model": "lstm", "feature": "mfcc_vector",
                              "hyper": {"epochs": 2, "hidden": 4, "dense": 3}})
        trained = fit(list(rows), labels, seed=0)
        assert trained.score_batch(list(rows)).shape == (12,)

    def test_cnn_recipe_short_epochs(self):
        rng = np.random.default_rng(2)
        images = [FeatureImage(rng.uniform(0, 1, (12, 12, 3)), "melspec")
                  for _ in range(8)]
        labels = np.array([0, 1] * 4)
        fit = resolve_recipe({"model": "cnn", "feature": "melspec_image",
                              "hyper": {"epochs": 1, "filters1": 3,
                                        "filters2": 4}})
        trained = fit(images, labels, seed=0)
        assert trained.score_batch(images).shape == (8,)


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
            feats = [FeatureImage(rng.uniform(0, 1, (10, 10, 3)), "melspec")
                     for _ in labels]
        else:
            feats = list(rng.normal(size=(len(labels), 5)) + labels[:, None])
        calls.clear()
        cross_validate(feats, labels, {"model": model, "feature": feature,
                                       "hyper": TINY_HYPER.get(model, {})},
                       k=2, seed=0)
        assert calls == {TRAINERS[model]: 2}, (model, feature)
