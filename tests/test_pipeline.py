"""Recipe plumbing: feature kinds, pairings, the encoder path, report bytes."""

import dataclasses
import hashlib
import json
import os
import sys
from collections import Counter

import numpy as np
import pytest

import oracles
from test_layers import ONE_BLAS_THREAD, REDUCED_DISPATCH, run_check, usable_cpus

from voxscreen.audio_io import synth_clip
from voxscreen.encoder import EncoderConfig
from voxscreen.errors import ConfigError, FeatureKindMismatchError
from voxscreen.evaluation import cross_validate, stratified_folds
from voxscreen.features_io import FEATURE_KINDS
from voxscreen.learners import CnnConfig, LstmConfig, layers
from voxscreen.learners.models import MODELS
from voxscreen.pipeline import extract_matrix, feature_from_matrix, resolve_recipe, validate_recipe

# every (model, feature) pairing that runs without force
PAIRS = sorted((model, feature) for model, spec in MODELS.items() for feature in spec.features)


def extract_feature(clip, kind, **kwargs):
    """One example's in-memory feature, built as the CLI builds it."""
    return feature_from_matrix(extract_matrix(clip, kind, **kwargs), kind)


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


def pool_cases():
    """(kind, matrix): float32 values in float64, as read_feature returns them,
    with +0.0 and -0.0 entries. mfcc_vector rows are [1, d]; encoder frames are
    [n, c], with no column of all -0.0 frames (the one case the forms differ)."""
    rng = np.random.default_rng(21)
    for _ in range(40):
        for kind, n, d in (("mfcc_vector", 1, 40), ("encoder", 1, 8), ("encoder", 2, 8),
                           ("encoder", 7, 33), ("encoder", 49, 512)):
            m = rng.normal(size=(n, d)).astype(np.float32).astype(np.float64)
            m *= rng.choice([1.0, 1.0, 0.0, -0.0], size=(n, d))
            if kind == "encoder":
                m[0, np.all(np.signbit(m) & (m == 0), axis=0)] = 0.0
            yield kind, m


def check_every_pool_case():
    """feature_from_matrix's one vector branch equals ravel on an mfcc_vector
    row and mean(axis=0) on encoder frames (tests/oracles.py), byte for byte."""
    for kind, m in pool_cases():
        got, want = feature_from_matrix(m, kind), oracles.pool_vector(m, kind)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (kind, m.shape)


class TestVectorPooling:
    def test_bytes_equal(self):
        check_every_pool_case()

    def test_bytes_equal_under_reduced_dispatch(self):
        run_check("import test_pipeline; test_pipeline.check_every_pool_case()",
                  REDUCED_DISPATCH)

    def test_all_negative_zero_encoder_column_keeps_its_sign(self):
        frames = np.array([[-0.0, 1.0], [-0.0, -0.0]])
        assert np.signbit(feature_from_matrix(frames, "encoder")).tolist() == [True, False]
        assert not np.signbit(oracles.pool_vector(frames, "encoder")).any()  # mean drops it


def extract_digests():
    """sha256 of extract_matrix's bytes for every feature kind, on a 2 s clip
    and on a 30 s one, where OpenBLAS threads a product as large as the
    mel sums or the DCT (K = 64) would be."""
    return {(kind, duration): hashlib.sha256(
                extract_matrix(synth_clip(1, 9, duration), kind).tobytes()).hexdigest()
            for duration in (2.0, 30.0) for kind in FEATURE_KINDS}


def check_extract_digests(expected):
    got = extract_digests()
    assert got == expected, [key for key in expected if got[key] != expected[key]]


def test_feature_bytes_ignore_the_blas_thread_count():
    """The clip pool's one-thread workers extract the bytes this process does."""
    run_check(f"import test_pipeline; test_pipeline.check_extract_digests({extract_digests()!r})",
              ONE_BLAS_THREAD, timeout=300)


class TestRecipeValidation:
    @pytest.mark.parametrize("model,feature", PAIRS)
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
        ("logreg", "epochs", "many"), ("logreg", "lr", float("inf")),
        ("svm", "C", float("inf")), ("svm", "gamma", float("inf")), ("svm", "tol", float("inf")),
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
        with pytest.raises(ConfigError, match="'loss'"):
            validate_recipe({"model": "lstm", "feature": "mfcc_vector",
                             "hyper": {"loss": "mae"}})

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
        assert len(report.document["folds"]) == 2


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


def _rebind_trainers(monkeypatch, make):
    """Swap each train_* name, in every voxscreen module that binds it, for
    make(name, original), as an outside profiler does."""
    from voxscreen import learners
    modules = [m for name, m in list(sys.modules.items())
               if name.startswith("voxscreen") and m is not None]
    for name in TRAINERS.values():
        original = getattr(learners, name)
        replacement = make(name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


def _tiny_features(model, labels, rng):
    if model == "cnn":
        return rng.uniform(0, 1, (len(labels), 10, 10))
    return rng.normal(size=(len(labels), 5)) + labels[:, None]


def test_rebound_trainers_run_once_per_fold(monkeypatch):
    """An outside profiler swaps each train_* name, in every voxscreen
    module that binds it, for a wrapper; cross_validate must call it. The
    count is kept in this process, so the folds train here: on one CPU."""
    usable_cpus(monkeypatch, 1)
    calls = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper
    _rebind_trainers(monkeypatch, counting)

    rng = np.random.default_rng(5)
    labels = np.array([0, 1] * 4)
    for model, feature in PAIRS:
        feats = _tiny_features(model, labels, rng)
        calls.clear()
        cross_validate(feats, labels, {"model": model, "feature": feature,
                                       "hyper": TINY_HYPER.get(model, {})},
                       k=2, seed=0)
        assert calls == {TRAINERS[model]: 2}, (model, feature)


POOLED_PAIRS = [("cnn", "melspec_image"), ("cnn", "mfcc_image"), ("lstm", "mfcc_vector")]


class _FoldMark:
    """A fitted model that scores every row with one value."""

    def __init__(self, value):
        self.value = value

    def scores(self, x):
        return np.full(len(x), self.value)


def test_rebound_trainers_reach_pooled_folds(monkeypatch):
    """The pooled kinds' folds train in forked workers, which inherit the
    rebound names: each fold's scores carry its seed, and are marked -1 had
    the fold trained in this process."""
    usable_cpus(monkeypatch, 2)
    parent = os.getpid()

    def marking(name, original):
        return lambda x, labels, seed, config: _FoldMark(
            (seed + 1) / 10 if os.getpid() != parent else -1.0)
    _rebind_trainers(monkeypatch, marking)

    rng = np.random.default_rng(5)
    labels = np.array([0, 1] * 6)
    for model, feature in POOLED_PAIRS:
        report = cross_validate(_tiny_features(model, labels, rng), labels,
                                {"model": model, "feature": feature}, k=3, seed=7)
        folds = stratified_folds(labels, k=3, seed=7)
        for fold in range(3):
            assert np.all(report.pooled_scores[folds == fold]
                          == (7 + fold + 1) / 10), (model, feature, fold)


# sha256 of report.json and report_roc.csv per supported pairing, one set per
# numpy CPU dispatch (numpy 2.4, OpenBLAS, x86-64): the exp, log and tanh kernels
# of X86_V4 (AVX-512) and of X86_V3 (AVX2, recorded under REDUCED_DISPATCH)
# round some last bits differently, and the AUC floors elsewhere cannot see a
# score that drifts in its last bits. Each set holds on any CPU or BLAS thread
# count. The (logreg, encoder) ROC digests are the ones recorded after gelu
# built x^3 from products: that moved the threshold column by at most 4e-16
# relative. The pow-form digests are still asserted with the oracle gelu. The
# (svm, mfcc_vector) ROC digests are the ones recorded after the second-order
# working-set solver replaced Platt's SMO: its pooled scores moved by at most
# 0.018, and report.json kept its bytes.
GOLDEN_REPORTS = {
    "X86_V4": {
        ("cnn", "melspec_image"): (
            "02418d59254be041f1344a9ceacf97308ba278cdfe27c09c281d5bd8520e1d78",
            "7dfa988bb454f6447ffbcdd70c87a73c70e9ada17437fd2f6011ee72b1200a3a"),
        ("cnn", "mfcc_image"): (
            "bc10a11e301b3e59348aab1fb8dd283950233955f26c4000b767de85683ee87a",
            "e51c5e342d2638902d1b0bc379632dd368458e0a289e0ef0983ad8edaace1862"),
        ("logreg", "encoder"): (
            "d48fd6023f3c2947830feee7c8da30834ed2e793002292519788fc4faeb9e55f",
            "60b62031d5f26c6ff2251b94d05746aa2962068d33c01b34e2bf160483805b01"),
        ("logreg", "mfcc_vector"): (
            "f063097e2ac1034605e9539450d722c98a0e4eaece183f7d5b5b1a23d8d4548a",
            "bb84ee29314ce46899b9dbf855c527b7ef597d86f1aa828b3dc981f835220576"),
        ("lstm", "mfcc_vector"): (
            "b83780323f478deebd693de8dae08c36b5773d6cd90781c723847a53b85fe335",
            "c05c31feff6541340ae3a62218ba471da0a2e48521c8b2ff1e2adac0361c56f1"),
        ("svm", "mfcc_vector"): (
            "06493b8040a1b79db457377f73bc4cfeef943e0272f1995363f10e88fd09aaed",
            "ab199304def522b08191357476ebe3428a935c7ccce4fa6c81af4fa0a16e4374"),
        "pow-form gelu": (
            "d48fd6023f3c2947830feee7c8da30834ed2e793002292519788fc4faeb9e55f",
            "384706e13212476acb5d45dab55897b8e2733718df9d178ae958892256c5351a"),
    },
    "X86_V3": {
        ("cnn", "melspec_image"): (
            "02418d59254be041f1344a9ceacf97308ba278cdfe27c09c281d5bd8520e1d78",
            "acab83fbcada732bb67cd0842be0e4ddba10cf7410d9392b1a1cfc28bfffefd2"),
        ("cnn", "mfcc_image"): (
            "bc10a11e301b3e59348aab1fb8dd283950233955f26c4000b767de85683ee87a",
            "4e685a5572eda6cf9a149d875de1efae44b58bde9743dfc3a08c9da13d8a9ce8"),
        ("logreg", "encoder"): (
            "d48fd6023f3c2947830feee7c8da30834ed2e793002292519788fc4faeb9e55f",
            "60b62031d5f26c6ff2251b94d05746aa2962068d33c01b34e2bf160483805b01"),
        ("logreg", "mfcc_vector"): (
            "f063097e2ac1034605e9539450d722c98a0e4eaece183f7d5b5b1a23d8d4548a",
            "8668b760a45c4ea1c9b31d946a15db121cee0330b4fd4d136709f78405da9465"),
        ("lstm", "mfcc_vector"): (
            "b83780323f478deebd693de8dae08c36b5773d6cd90781c723847a53b85fe335",
            "92789377efc8a82b9ed73d645cd4db05e2466b9995ae9881fb5157134d55cf79"),
        ("svm", "mfcc_vector"): (
            "06493b8040a1b79db457377f73bc4cfeef943e0272f1995363f10e88fd09aaed",
            "17cf89b31ba5ce30631b9c1197df8d3e5849b7ed304711ff657db1b605194102"),
        "pow-form gelu": (
            "d48fd6023f3c2947830feee7c8da30834ed2e793002292519788fc4faeb9e55f",
            "76903d9c57b76d3abde16c8bf0e69d879f0439d0528ab1a05f023a37dd091d75"),
    },
}
GOLDEN_HYPER = {"cnn": {"epochs": 1, "batch": 4, "filters1": 2, "filters2": 3},
                "lstm": {"epochs": 2, "hidden": 4, "dense": 3}}


def _golden_clip_set():
    labels = np.array([0, 1] * 6)
    return [synth_clip(int(label), 300 + i, 0.5) for i, label in enumerate(labels)], labels


@pytest.fixture(scope="module")
def golden_clips():
    return _golden_clip_set()


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


def _dispatch() -> str:
    """The highest numpy dispatch target this run enables, of those the
    report goldens were recorded under."""
    from numpy._core._multiarray_umath import __cpu_features__
    return next((name for name in ("X86_V4", "X86_V3") if __cpu_features__.get(name)),
                "neither X86_V4 nor X86_V3")


def _goldens(key):
    dispatch = _dispatch()
    assert dispatch in GOLDEN_REPORTS, (
        f"report goldens were recorded under {' and '.join(GOLDEN_REPORTS)} dispatch; "
        f"this run has {dispatch}, whose float kernels may round differently")
    return GOLDEN_REPORTS[dispatch][key]


@pytest.mark.parametrize("model,feature", PAIRS)
def test_report_bytes_match_golden(golden_clips, model, feature):
    assert _digests(_golden_report(golden_clips, model, feature)) \
        == _goldens((model, feature)), _dispatch()


def _json_types(value):
    """value with each container and leaf replaced by its exact type name, so a
    tuple or a numpy scalar reads differently from the list or float json gives."""
    if type(value) is dict:
        return {key: _json_types(item) for key, item in value.items()}
    if type(value) is list:
        return [_json_types(item) for item in value]
    return type(value).__name__


@pytest.mark.parametrize("model,feature", [("logreg", "mfcc_vector"), ("cnn", "mfcc_image")],
                         ids=["serial", "pooled"])
def test_document_is_what_report_json_holds(golden_clips, model, feature):
    report = _golden_report(golden_clips, model, feature)
    read_back = json.loads(report.to_json())
    assert read_back == report.document
    assert _json_types(read_back) == _json_types(report.document)


def check_pow_form_gelu_golden(golden_clips=None):
    """With the pow-form gelu swapped back in, the (logreg, encoder) report
    keeps its pre-change bytes; against the product form, report.json is
    identical and only the ROC thresholds move, in their last bits."""
    golden_clips = golden_clips or _golden_clip_set()
    fast = _golden_report(golden_clips, "logreg", "encoder")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(layers, "gelu", oracles.gelu)
        slow = _golden_report(golden_clips, "logreg", "encoder")
    assert _digests(slow) == _goldens("pow-form gelu"), _dispatch()
    assert fast.to_json() == slow.to_json()
    assert np.array_equal(fast.pooled_roc.points, slow.pooled_roc.points)
    np.testing.assert_allclose(fast.pooled_roc.thresholds, slow.pooled_roc.thresholds,
                               rtol=1e-12, atol=0)


def test_pow_form_gelu_reproduces_old_encoder_golden(golden_clips):
    check_pow_form_gelu_golden(golden_clips)


def check_every_golden():
    """Every report golden of the dispatch this process runs under."""
    golden_clips = _golden_clip_set()
    for model, feature in PAIRS:
        assert _digests(_golden_report(golden_clips, model, feature)) \
            == _goldens((model, feature)), (model, feature, _dispatch())
    check_pow_form_gelu_golden(golden_clips)


def test_goldens_of_reduced_dispatch_in_subprocess():
    """The X86_V3 set is checked on an AVX-512 machine too, under REDUCED_DISPATCH."""
    run_check("import test_pipeline; test_pipeline.check_every_golden()", REDUCED_DISPATCH,
              timeout=300)


def check_pool_matches_serial(pairs=POOLED_PAIRS, golden_clips=None):
    """The report of each pairing from the fold pool (two CPUs) and from the
    serial loop (one CPU), byte for byte."""
    golden_clips = golden_clips or _golden_clip_set()
    for model, feature in pairs:
        texts = []
        for cpus in (2, 1):
            with pytest.MonkeyPatch.context() as mp:
                usable_cpus(mp, cpus)
                report = _golden_report(golden_clips, model, feature)
            texts.append((report.to_json(), report.roc_csv()))
        assert texts[0] == texts[1], (model, feature)


@pytest.mark.parametrize("model,feature", POOLED_PAIRS)
def test_pool_matches_serial_loop(golden_clips, model, feature):
    check_pool_matches_serial([(model, feature)], golden_clips)


@pytest.mark.parametrize("extra_env", [ONE_BLAS_THREAD, REDUCED_DISPATCH],
                         ids=["one_blas_thread", "reduced_dispatch"])
def test_pool_matches_serial_loop_in_subprocess(extra_env):
    run_check("import test_pipeline; test_pipeline.check_pool_matches_serial()", extra_env,
              timeout=300)
