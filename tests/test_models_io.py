"""TrainedModel scoring surface and VXF1 feature files."""

import numpy as np
import pytest

from voxscreen.errors import FeatureKindMismatchError
from voxscreen.features_io import read_feature, write_feature
from voxscreen.learners import TrainedModel, train_cnn, train_logreg, train_svm_smo
from voxscreen.learners.cnn import CnnConfig
from voxscreen.learners.layers import sigmoid
from voxscreen.render import fit_standardizer


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
    return TrainedModel("logreg", inner, scaler)


class TestPredictScore:
    def test_scores_in_unit_interval(self, vector_data):
        rows, labels = vector_data
        scores = make_logreg(rows, labels).score_batch(rows)
        assert scores.shape == (len(rows),)
        assert np.all((scores >= 0.0) & (scores <= 1.0))

    def test_svm_raw_zero_maps_to_half(self, vector_data):
        rows, labels = vector_data
        scaler = fit_standardizer(rows)
        inner = train_svm_smo(scaler.apply(rows), labels, gamma=0.05)
        model = TrainedModel("svm", inner, scaler)

        def raw(row):
            return inner.decision_values(scaler.apply(row[None]))[0]

        # build a probe whose decision value is ~0 by bisection
        lo, hi = rows[0], rows[-1]
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if raw(mid) > 0:
                hi = mid
            else:
                lo = mid
        probe = (lo + hi) / 2.0
        assert abs(raw(probe)) < 1e-6
        assert abs(model.score_batch(probe[None])[0] - 0.5) < 1e-6
        assert np.array_equal(model.score_batch(rows),
                              sigmoid(inner.decision_values(scaler.apply(rows))))

    def test_cnn_complementary_scores(self):
        rng = np.random.default_rng(1)
        planes = rng.uniform(0, 1, size=(10, 12, 12))
        rgb = np.repeat(planes[..., None], 3, axis=3)
        labels = np.array([0, 1] * 5)
        inner = train_cnn(rgb, labels, epochs=2, seed=0,
                          config=CnnConfig(filters1=3, filters2=4))
        model = TrainedModel("cnn", inner, None)
        p1 = model.score_batch(planes)
        p0 = 1.0 - inner.scores(rgb)
        assert np.allclose(p1, 1.0 - p0, atol=1e-9)

    def test_kind_mismatch_image_to_vector_model(self, vector_data):
        rows, labels = vector_data
        model = make_logreg(rows, labels)
        with pytest.raises(FeatureKindMismatchError):
            model.score_batch(np.zeros((1, 150, 150)))

    def test_kind_mismatch_vector_to_image_model(self):
        rng = np.random.default_rng(2)
        images = rng.uniform(0, 1, size=(6, 12, 12, 3))
        inner = train_cnn(images, np.array([0, 1] * 3), epochs=1, seed=0,
                          config=CnnConfig(filters1=3, filters2=4))
        model = TrainedModel("cnn", inner, None)
        with pytest.raises(FeatureKindMismatchError):
            model.score_batch(np.zeros((1, 40)))


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
