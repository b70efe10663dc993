"""Feature-to-input conversion: fixed-size gray planes and the
train-fold-only standardizer for vector features."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionMismatchError

IMAGE_SIZE = 150


def _resize_bilinear(grid: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Corner-aligned bilinear resampling of a 2-D grid."""
    in_h, in_w = grid.shape

    def coords(n_out, n_in):
        if n_in == 1 or n_out == 1:
            return np.zeros(n_out)
        return np.arange(n_out) * ((n_in - 1) / (n_out - 1))

    ys, xs = coords(out_h, in_h), coords(out_w, in_w)
    y0 = np.minimum(ys.astype(int), in_h - 1)
    x0 = np.minimum(xs.astype(int), in_w - 1)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    top = grid[np.ix_(y0, x0)] * (1 - wx) + grid[np.ix_(y0, x1)] * wx
    bottom = grid[np.ix_(y1, x0)] * (1 - wx) + grid[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bottom * wy


def render_image(m) -> np.ndarray:
    """Min-max scale a [n_frames, n_bands] matrix into a [150, 150] gray plane
    in [0, 1]: coefficient/band index ascends upward, frames run left to right.

    A constant matrix maps to all 0.5. Any affine rescaling a*M + b (a > 0)
    of the input renders to the same pixels.
    """
    values = np.asarray(m, dtype=np.float64)
    if values.size == 0:
        raise DegenerateInputError("cannot render an empty matrix")

    lo, hi = values.min(), values.max()
    scaled = np.full_like(values, 0.5) if hi == lo else (values - lo) / (hi - lo)
    # grid rows = band index ascending downward; flip so bands ascend upward
    grid = scaled.T
    resized = _resize_bilinear(grid, IMAGE_SIZE, IMAGE_SIZE)[::-1, :]
    return np.clip(resized, 0.0, 1.0)


@dataclass(frozen=True)
class Standardizer:
    """Per-dimension affine map fitted on training rows only."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape[-1] != len(self.mean):
            raise DimensionMismatchError(
                f"rows have {rows.shape[-1]} dims, standardizer has {len(self.mean)}")
        return (rows - self.mean) / self.std


def fit_standardizer(rows) -> Standardizer:
    """Population mean/std per dimension; zero-variance dims get std 1."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise ValueError("need at least 2 rows to fit a standardizer")
    mean = rows.mean(axis=0)
    std = rows.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return Standardizer(mean=mean, std=std)
