"""VXM1 bytes pinned per model kind; VXF1/VXM1 decoders under damage."""

import hashlib

import numpy as np
import pytest

from voxscreen.errors import CorruptFileError
from voxscreen.features_io import FEATURE_TAGS, read_feature, write_feature
from voxscreen.learners import TrainedModel, load_model, save_model
from voxscreen.learners.cnn import CnnConfig, CnnModel, init_cnn_params
from voxscreen.learners.logreg import LogRegModel
from voxscreen.learners.lstm import LstmConfig, LstmModel, init_lstm_params
from voxscreen.learners.svm import SvmModel
from voxscreen.render import Standardizer


def _scaler(dim):
    return Standardizer(mean=np.linspace(-1.0, 1.0, dim),
                        std=np.linspace(0.5, 2.0, dim))


def hand_built_models():
    """One model per kind from fixed arrays and seeded initialisers; no
    training, so the bytes do not depend on the BLAS build."""
    cnn_cfg = CnnConfig(filters1=3, filters2=4)
    lstm_cfg = LstmConfig(hidden=4, dense=3)
    return {
        "logreg": TrainedModel(
            "logreg", LogRegModel(weights=np.array([0.5, -1.25, 2.0]), bias=0.125),
            "mfcc_vector", _scaler(3)),
        "svm": TrainedModel(
            "svm", SvmModel(support_vectors=np.arange(6.0).reshape(2, 3) / 4.0,
                            dual_coefs=np.array([0.75, -0.75]), bias=-0.5,
                            gamma=0.05, C=2.0, converged=False),
            "encoder", _scaler(3)),
        "cnn": TrainedModel(
            "cnn", CnnModel(params=init_cnn_params((12, 12, 3), cnn_cfg,
                                                   np.random.default_rng(11)),
                            config=cnn_cfg, input_shape=(12, 12, 3)),
            "melspec_image", None),
        "lstm": TrainedModel(
            "lstm", LstmModel(params=init_lstm_params(1, lstm_cfg,
                                                      np.random.default_rng(12)),
                              config=lstm_cfg, input_dim=1),
            "mfcc_vector", _scaler(5)),
    }


GOLDEN_VXM1_SHA256 = {
    "logreg": "8bd01a3407c91dfc42361ee98c4af5a675391872743e353267f2bede04287f5e",
    "svm": "9c777090c2a5f9378c59c5eba416b8d92d367f505eb3ae39a2b397218f9673a0",
    "cnn": "c7ef46c6ea95610f64785a3a41d510a5c300bbee03792946ff71469d30b67aea",
    "lstm": "0380da03de560f2257777f092b11e1c1bd854dc3d3feb3fa5b2ccaaafc1b0bc0",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_VXM1_SHA256))
def test_vxm1_bytes_match_golden(kind, tmp_path):
    path = tmp_path / f"{kind}.vxm"
    save_model(hand_built_models()[kind], str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_VXM1_SHA256[kind]


def damaged_copies(data: bytes, tag_offset: int):
    """Every truncation of data, then data with its tag byte set to each value."""
    for cut in range(len(data)):
        yield data[:cut]
    for value in range(256):
        yield data[:tag_offset] + bytes([value]) + data[tag_offset + 1:]


def test_vxf1_damage_decodes_or_raises_corrupt_file(tmp_path):
    good = tmp_path / "good.vxf"
    write_feature(str(good), np.arange(6.0).reshape(2, 3), "melspec")
    bad = tmp_path / "bad.vxf"
    decoded = set()
    for data in damaged_copies(good.read_bytes(), tag_offset=12):
        bad.write_bytes(data)
        try:
            matrix, tag = read_feature(str(bad))
        except CorruptFileError:
            continue
        assert np.array_equal(matrix, np.arange(6.0).reshape(2, 3))
        decoded.add(tag)
    assert decoded == set(FEATURE_TAGS)  # only the valid tag values decode


@pytest.mark.parametrize("kind", sorted(GOLDEN_VXM1_SHA256))
def test_vxm1_damage_decodes_or_raises_corrupt_file(kind, tmp_path):
    good = tmp_path / "good.vxm"
    save_model(hand_built_models()[kind], str(good))
    bad = tmp_path / "bad.vxm"
    decoded = []
    for data in damaged_copies(good.read_bytes(), tag_offset=4):
        bad.write_bytes(data)
        try:
            decoded.append(load_model(str(bad)).kind)
        except CorruptFileError:
            continue
    assert decoded == [kind]  # each kind's payload fits only its own tag
