"""Feature images and the train-only standardizer."""

import zlib

import numpy as np
import pytest

from voxscreen.audio_io import synth_clip
from voxscreen.dsp import mel_spectrogram
from voxscreen.errors import DegenerateInputError, DimensionMismatchError
from voxscreen.render import (
    IMAGE_SIZE,
    fit_standardizer,
    image_to_png,
    render_image,
)


class TestRenderImage:
    def test_constant_matrix_maps_to_half(self):
        img = render_image(np.full((7, 5), 3.3))
        assert img.shape == (150, 150)
        assert np.allclose(img, 0.5)

    def test_resize_identity_on_150x150(self):
        """Full-size input passes through modulo the fixed orientation:
        pixel[149 - band, frame] = matrix[frame, band]."""
        rng = np.random.default_rng(2)
        m = rng.uniform(0, 1, (150, 150))
        m[0, 0], m[1, 1] = 0.0, 1.0  # span the full range
        img = render_image(m)
        for frame, band in [(0, 0), (10, 140), (77, 3), (149, 149)]:
            assert abs(img[149 - band, frame] - m[frame, band]) < 1e-6

    def test_affine_input_invariance(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(30, 64))
        a = render_image(m)
        b = render_image(4.2 * m + 11.0)
        assert np.max(np.abs(a - b)) < 1e-9

    def test_values_in_unit_interval(self):
        img = render_image(mel_spectrogram(synth_clip(0, 5, 1.0)))
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(DegenerateInputError):
            render_image(np.zeros((0, 4)))

    def test_single_cell_matrix(self):
        img = render_image(np.array([[2.0]]))
        assert np.allclose(img, 0.5)


class TestPngExport:
    def test_header_and_dimensions(self):
        img = render_image(np.random.default_rng(4).uniform(0, 1, (20, 30)))
        png = image_to_png(img)
        assert png[:8] == b"\x89PNG\r\n\x1a\n"
        assert png[12:16] == b"IHDR"
        width = int.from_bytes(png[16:20], "big")
        height = int.from_bytes(png[20:24], "big")
        assert (width, height) == (IMAGE_SIZE, IMAGE_SIZE)

    def test_pixel_quantization(self):
        img = render_image(np.array([[0.0, 1.0]]))
        png = image_to_png(img)
        idat_start = png.index(b"IDAT") + 4
        length = int.from_bytes(png[idat_start - 8: idat_start - 4], "big")
        raw = zlib.decompress(png[idat_start: idat_start + length])
        values = np.frombuffer(raw, np.uint8).reshape(150, 451)[:, 1:]
        expected = np.repeat(np.round(img * 255).astype(np.uint8), 3, axis=1)
        assert np.array_equal(values, expected)


class TestStandardizer:
    def test_hand_example(self):
        s = fit_standardizer(np.array([[1.0], [3.0]]))
        assert s.mean.tolist() == [2.0]
        assert s.std.tolist() == [1.0]
        assert s.apply(np.array([[3.0]])).tolist() == [[1.0]]

    def test_zero_variance_guard(self):
        rows = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        s = fit_standardizer(rows)
        assert s.std[1] == 1.0
        out = s.apply(rows)
        assert np.allclose(out[:, 1], 0.0)

    def test_train_rows_become_zero_mean_unit_std(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(3.0, 2.5, size=(40, 7))
        out = fit_standardizer(rows).apply(rows)
        assert np.max(np.abs(out.mean(axis=0))) <= 1e-9
        assert np.max(np.abs(out.std(axis=0) - 1.0)) <= 1e-6

    def test_apply_is_affine(self):
        """apply(x) - apply(0) is linear in x."""
        rng = np.random.default_rng(6)
        s = fit_standardizer(rng.normal(size=(10, 3)))
        zero = s.apply(np.zeros((1, 3)))
        linear = lambda x: s.apply(x[None, :]) - zero
        u, v = rng.normal(size=(2, 3))
        assert np.allclose(linear(u + v), linear(u) + linear(v), atol=1e-12)
        assert np.allclose(linear(2.5 * u), 2.5 * linear(u), atol=1e-12)

    def test_dimension_mismatch(self):
        s = fit_standardizer(np.zeros((3, 4)) + np.arange(4))
        with pytest.raises(DimensionMismatchError):
            s.apply(np.zeros((2, 5)))

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            fit_standardizer(np.zeros((1, 4)))
