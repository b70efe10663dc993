"""Feature kinds and the VXF1 on-disk container: one small binary file per clip."""

from __future__ import annotations

import struct

import numpy as np

from .errors import CorruptFileError, EmptyDataError

# feature kind -> the VXF1 tag byte its stored matrix carries
FEATURE_TAGS = {"mfcc_vector": 2, "mfcc_image": 0, "melspec_image": 1, "encoder": 3}
FEATURE_KINDS = tuple(FEATURE_TAGS)
IMAGE_KINDS = ("mfcc_image", "melspec_image")  # CNN input; the other kinds are vectors

FEATURE_MAGIC = b"VXF1"
_HEADER = struct.Struct("<4sIIB")


def stored_form(matrix: np.ndarray) -> np.ndarray:
    """A feature matrix as a VXF1 file holds it: 2-D little-endian float32."""
    return np.atleast_2d(np.asarray(matrix, dtype=np.float64)).astype("<f4")


def write_feature(path: str, matrix: np.ndarray, feature_kind: str) -> None:
    """Dump a 2-D float matrix in its stored form with its feature kind's tag byte."""
    matrix = stored_form(matrix)
    rows, cols = matrix.shape
    if matrix.size == 0:  # read_feature refuses it; leave no file behind
        raise EmptyDataError(f"{path}: cannot store an empty {rows}x{cols} VXF1 matrix")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(FEATURE_MAGIC, rows, cols, FEATURE_TAGS[feature_kind]))
        fh.write(matrix.tobytes())


def read_feature(path: str) -> tuple[np.ndarray, str]:
    """The stored matrix and its feature kind."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != FEATURE_MAGIC:
        raise CorruptFileError(f"{path}: not a VXF1 feature file")
    if len(data) < _HEADER.size:
        raise CorruptFileError(f"{path}: VXF1 header cut short")
    _, rows, cols, tag = _HEADER.unpack_from(data)
    kind = next((k for k, value in FEATURE_TAGS.items() if value == tag), None)
    if kind is None:
        raise CorruptFileError(f"{path}: unknown VXF1 feature tag {tag}")
    if rows == 0 or cols == 0:
        raise CorruptFileError(f"{path}: empty {rows}x{cols} VXF1 matrix")
    if len(data) != _HEADER.size + 4 * rows * cols:
        raise CorruptFileError(
            f"{path}: {len(data)} bytes, but a {rows}x{cols} VXF1 matrix needs "
            f"{_HEADER.size + 4 * rows * cols}")
    matrix = np.frombuffer(data, dtype="<f4", offset=_HEADER.size)
    if not np.isfinite(matrix).all():  # no valid clip yields one; it would poison every score
        raise CorruptFileError(f"{path}: VXF1 matrix holds non-finite values")
    return matrix.astype(np.float64).reshape(rows, cols), kind
