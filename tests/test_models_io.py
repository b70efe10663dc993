"""TrainedModel scoring surface and VXM1 serialization."""

import numpy as np
import pytest

from voxscreen.errors import FeatureKindMismatchError
from voxscreen.features_io import read_feature, write_feature
from voxscreen.learners import (
    TrainedModel,
    load_model,
    predict_score,
    save_model,
    svm_raw_score,
    train_cnn,
    train_logreg,
    train_lstm,
    train_svm_smo,
)
from voxscreen.learners.cnn import CnnConfig
from voxscreen.learners.lstm import LstmConfig
from voxscreen.render import FeatureImage, fit_standardizer


@pytest.fixture(scope="module")
def vector_data():
    rng = np.random.default_rng(0)
    rows = np.vstack([rng.normal(-1, 1, size=(15, 6)),
                      rng.normal(1, 1, size=(15, 6))])
    labels = np.array([0] * 15 + [1] * 15)
    return rows, labels


def make_logreg(rows, labels):
    scaler = fit_standardizer(rows)
    inner = train_logreg(scaler.apply(rows), labels, epochs=50)
    return TrainedModel("logreg", inner, "mfcc_vector", scaler)


class TestPredictScore:
    def test_scores_in_unit_interval(self, vector_data):
        rows, labels = vector_data
        model = make_logreg(rows, labels)
        for row in rows[:5]:
            s = predict_score(model, row)
            assert 0.0 <= s <= 1.0

    def test_svm_raw_zero_maps_to_half(self, vector_data):
        rows, labels = vector_data
        scaler = fit_standardizer(rows)
        inner = train_svm_smo(scaler.apply(rows), labels, gamma=0.05)
        model = TrainedModel("svm", inner, "mfcc_vector", scaler)
        # build a probe whose decision value is ~0 by bisection
        lo, hi = rows[0], rows[-1]
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if svm_raw_score(model, mid) > 0:
                hi = mid
            else:
                lo = mid
        raw = svm_raw_score(model, (lo + hi) / 2.0)
        assert abs(raw) < 1e-6
        assert abs(predict_score(model, (lo + hi) / 2.0) - 0.5) < 1e-6

    def test_cnn_complementary_scores(self):
        rng = np.random.default_rng(1)
        images = rng.uniform(0, 1, size=(10, 12, 12, 3))
        labels = np.array([0, 1] * 5)
        inner = train_cnn(images, labels, epochs=2, seed=0,
                          config=CnnConfig(filters1=3, filters2=4))
        model = TrainedModel("cnn", inner, "melspec_image", None)
        feats = [FeatureImage(im) for im in images]
        p1 = model.score_batch(feats)
        p0 = 1.0 - inner.scores(images)
        assert np.allclose(p1, 1.0 - p0, atol=1e-9)

    def test_kind_mismatch_image_to_vector_model(self, vector_data):
        rows, labels = vector_data
        model = make_logreg(rows, labels)
        with pytest.raises(FeatureKindMismatchError):
            predict_score(model, FeatureImage(np.zeros((150, 150, 3))))

    def test_kind_mismatch_vector_to_image_model(self):
        rng = np.random.default_rng(2)
        images = rng.uniform(0, 1, size=(6, 12, 12, 3))
        inner = train_cnn(images, np.array([0, 1] * 3), epochs=1, seed=0,
                          config=CnnConfig(filters1=3, filters2=4))
        model = TrainedModel("cnn", inner, "melspec_image", None)
        with pytest.raises(FeatureKindMismatchError):
            predict_score(model, np.zeros(40))

    def test_raw_score_only_for_svm(self, vector_data):
        rows, labels = vector_data
        with pytest.raises(FeatureKindMismatchError):
            svm_raw_score(make_logreg(rows, labels), rows[0])


class TestModelSerialization:
    def assert_roundtrip(self, model, feats, tmp_path):
        path = tmp_path / "model.vxm"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.kind == model.kind
        assert loaded.feature_kind == model.feature_kind
        before = model.score_batch(feats)
        after = loaded.score_batch(feats)
        assert np.max(np.abs(before - after)) <= 1e-6

    def test_logreg(self, vector_data, tmp_path):
        rows, labels = vector_data
        self.assert_roundtrip(make_logreg(rows, labels), list(rows), tmp_path)

    def test_svm(self, vector_data, tmp_path):
        rows, labels = vector_data
        scaler = fit_standardizer(rows)
        inner = train_svm_smo(scaler.apply(rows), labels, gamma=0.05)
        model = TrainedModel("svm", inner, "mfcc_vector", scaler)
        self.assert_roundtrip(model, list(rows), tmp_path)

    def test_cnn(self, tmp_path):
        rng = np.random.default_rng(3)
        images = rng.uniform(0, 1, size=(8, 12, 12, 3))
        labels = np.array([0, 1] * 4)
        inner = train_cnn(images, labels, epochs=2, seed=1,
                          config=CnnConfig(filters1=3, filters2=4))
        model = TrainedModel("cnn", inner, "mfcc_image", None)
        feats = [FeatureImage(im) for im in images]
        self.assert_roundtrip(model, feats, tmp_path)

    def test_lstm(self, vector_data, tmp_path):
        rows, labels = vector_data
        scaler = fit_standardizer(rows)
        inner = train_lstm(scaler.apply(rows)[:, :, None], labels, epochs=3,
                           seed=2, config=LstmConfig(hidden=4, dense=3))
        model = TrainedModel("lstm", inner, "mfcc_vector", scaler)
        self.assert_roundtrip(model, list(rows), tmp_path)


class TestFeatureFiles:
    def test_vxf1_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        matrix = rng.normal(size=(32, 40)).astype(np.float32).astype(np.float64)
        path = tmp_path / "feat.vxf"
        write_feature(str(path), matrix, "mfcc_image")
        back, kind = read_feature(str(path))
        assert kind == "mfcc_image"
        assert np.array_equal(back, matrix)
        assert path.read_bytes()[:4] == b"VXF1"

    def test_vector_stored_as_single_row(self, tmp_path):
        path = tmp_path / "vec.vxf"
        write_feature(str(path), np.arange(40, dtype=np.float64), "mfcc_vector")
        back, kind = read_feature(str(path))
        assert kind == "mfcc_vector"
        assert back.shape == (1, 40)
