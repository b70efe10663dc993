"""VXF1 bytes pinned per kind; VXF1 and WAV decoders under damage."""

import hashlib
import struct

import numpy as np
import pytest

from voxscreen.audio_io import AudioClip, load_wav, save_wav
from voxscreen.errors import CorruptFileError, EmptyDataError, VoxscreenError
from voxscreen.features_io import FEATURE_TAGS, read_feature, write_feature


def hand_built_features():
    """One small matrix per feature kind, exact in float32."""
    return {
        "mfcc_vector": np.linspace(-2.0, 2.0, 8)[None, :],
        "mfcc_image": np.arange(12.0).reshape(4, 3) / 16.0,
        "melspec_image": np.arange(12.0).reshape(3, 4) / 8.0,
        "encoder": np.arange(-6.0, 6.0).reshape(2, 6) * 0.25,
    }


# recorded from write_feature before feature kinds named their own VXF1 tags
GOLDEN_VXF1_SHA256 = {
    "mfcc_vector": "85dd2d8b23bb8fc2acc7e875e55353be79d0de247e14b70a8e7f40926f41f062",
    "mfcc_image": "ca2793a2db62a8638190ec549ce8b3fa1f39f212bb1b9417b1add0cbaa8083ef",
    "melspec_image": "5e4c4ad2c4122d2dde30808f8a7716f800c3516b85a15394ba1ebaad04762f7c",
    "encoder": "6bcda6cd654ddade740947b9ba9f91692bd4c2eb68168105ce2397dae6433724",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_VXF1_SHA256))
def test_vxf1_bytes_match_golden(kind, tmp_path):
    path = tmp_path / f"{kind}.vxf"
    write_feature(str(path), hand_built_features()[kind], kind)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_VXF1_SHA256[kind]
    assert read_feature(str(path))[1] == kind


def damaged_copies(data: bytes, tag_offset: int):
    """Every truncation of data, then data with its tag byte set to each value."""
    for cut in range(len(data)):
        yield data[:cut]
    for value in range(256):
        yield data[:tag_offset] + bytes([value]) + data[tag_offset + 1:]


def test_vxf1_damage_decodes_or_raises_corrupt_file(tmp_path):
    good = tmp_path / "good.vxf"
    write_feature(str(good), np.arange(6.0).reshape(2, 3), "melspec_image")
    bad = tmp_path / "bad.vxf"
    decoded = set()
    for data in damaged_copies(good.read_bytes(), tag_offset=12):
        bad.write_bytes(data)
        try:
            matrix, kind = read_feature(str(bad))
        except CorruptFileError:
            continue
        assert np.array_equal(matrix, np.arange(6.0).reshape(2, 3))
        decoded.add(kind)
    assert decoded == set(FEATURE_TAGS)  # only the valid tag values decode


@pytest.mark.parametrize("rows,cols", [(0, 40), (1, 0), (0, 0)])
def test_vxf1_empty_matrix_raises_corrupt_file(rows, cols, tmp_path):
    """A header declaring no rows or no columns is damage even when the
    payload length agrees: write_feature never writes one."""
    path = tmp_path / "empty.vxf"
    path.write_bytes(struct.pack("<4sIIB", b"VXF1", rows, cols, FEATURE_TAGS["encoder"]))
    with pytest.raises(CorruptFileError, match="empty"):
        read_feature(str(path))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_vxf1_non_finite_payload_raises_corrupt_file(value, tmp_path):
    """No valid clip yields a non-finite feature, and one would poison every
    score a model gives."""
    path = tmp_path / "bad.vxf"
    write_feature(str(path), np.array([[0.5, value, 1.0]]), "mfcc_vector")
    with pytest.raises(CorruptFileError, match="non-finite"):
        read_feature(str(path))


@pytest.mark.parametrize("matrix", [np.array([]), np.zeros((0, 40)), np.zeros((3, 0))],
                         ids=["1x0", "0x40", "3x0"])
def test_vxf1_write_of_empty_matrix_raises_and_leaves_no_file(matrix, tmp_path):
    """write_feature refuses what read_feature would, before opening the
    path: no new file, and an existing one keeps its bytes."""
    fresh, kept = tmp_path / "fresh.vxf", tmp_path / "kept.vxf"
    write_feature(str(kept), np.ones((2, 3)), "encoder")
    before = kept.read_bytes()
    for path in (fresh, kept):
        with pytest.raises(EmptyDataError, match="empty"):
            write_feature(str(path), matrix, "mfcc_vector")
    assert not fresh.exists() and kept.read_bytes() == before


def test_wav_damage_decodes_or_raises_typed_error():
    data = save_wav(AudioClip(np.linspace(-0.5, 0.5, 12), 16000))
    damaged = [data[:cut] for cut in range(len(data))]
    damaged += [data[:offset] + bytes([value]) + data[offset + 1:]
                for offset in range(44) for value in range(256)]
    decoded = 0
    for wav in damaged:
        try:
            clip = load_wav(wav)
        except VoxscreenError:
            continue
        assert clip.sample_rate > 0 and np.all(np.abs(clip.samples) <= 1.0)
        decoded += 1
    assert decoded > 0
