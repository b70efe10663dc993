"""Convolutional encoder geometry, determinism, GELU equivalence."""

import math

import numpy as np
import pytest

import oracles

from voxscreen.audio_io import AudioClip, synth_clip
from voxscreen.encoder import (
    BLOCK_FRAMES,
    ENCODER_KERNELS,
    ENCODER_STRIDES,
    EncoderConfig,
    encoder_apply,
    encoder_output_length,
    seeded_weights,
)
from voxscreen.errors import DegenerateInputError
from voxscreen.learners import layers
from voxscreen.learners.layers import gelu
from test_layers import ONE_BLAS_THREAD, REDUCED_DISPATCH, run_check

SMALL = EncoderConfig(channels=8)


class TestOutputLength:
    def test_one_second_gives_49_frames(self):
        assert encoder_output_length(16000) == 49

    def test_receptive_field_gives_one_frame(self):
        cfg = EncoderConfig()
        assert cfg.receptive_field == 400
        assert encoder_output_length(400) == 1

    def test_one_stride_product_step_adds_one_frame(self):
        cfg = EncoderConfig()
        assert math.prod(cfg.strides) == 320
        assert encoder_output_length(16320) - encoder_output_length(16000) == 1

    def test_twenty_ms_framerate_at_16k(self):
        # one output frame per 320 samples = 20 ms at 16 kHz
        assert 320 / 16000 == 0.02

    def test_matches_recursion_oracle(self):
        rng = np.random.default_rng(3)
        for n in rng.integers(400, 40000, size=25):
            assert encoder_output_length(int(n)) == \
                oracles.conv_stack_length(int(n), ENCODER_KERNELS, ENCODER_STRIDES)

    def test_below_receptive_field_raises(self):
        with pytest.raises(DegenerateInputError):
            encoder_output_length(399)


class TestEncoderApply:
    def test_zero_clip_zero_features(self):
        clip = AudioClip(np.zeros(800), 16000)
        feats = encoder_apply(clip, SMALL)
        assert np.all(feats == 0.0)

    def test_shape_matches_length_oracle(self):
        rng = np.random.default_rng(4)
        for n in rng.integers(400, 6000, size=20):
            clip = AudioClip(rng.uniform(-1, 1, int(n)), 16000)
            feats = encoder_apply(clip, SMALL)
            assert feats.shape == (encoder_output_length(int(n), SMALL),
                                   SMALL.channels)

    def test_deterministic_per_seed(self):
        clip = synth_clip(0, 2, 0.5)
        a = encoder_apply(clip, SMALL)
        b = encoder_apply(clip, SMALL)
        assert np.array_equal(a, b)

    def test_full_width_one_second(self):
        feats = encoder_apply(synth_clip(0, 1, 1.0), EncoderConfig())
        assert feats.shape == (49, 512)

    def test_wrong_rate_rejected(self):
        with pytest.raises(ValueError):
            encoder_apply(AudioClip(np.zeros(800), 8000), SMALL)


class TestGeluMatchesPowForm:
    """gelu builds x^3 from products; the oracle keeps the original pow.
    The two may differ in the last float64 bit of the cube."""

    def test_elementwise_within_two_eps_of_x(self):
        # relative to |x|, not in ulp of the result: for negative x,
        # 1 + tanh cancels and a one-bit move in tanh is many ulp of gelu
        rng = np.random.default_rng(11)
        eps = np.finfo(np.float64).eps
        for scale in (0.1, 1.0, 10.0, 100.0):
            x = rng.normal(0.0, scale, 100_000)
            err = np.abs(gelu(x) - oracles.gelu(x))
            assert np.all(err <= 2.0 * eps * np.abs(x)), scale

    def test_input_unchanged(self):
        x = np.random.default_rng(12).normal(0.0, 3.0, (64, 33))
        before = x.copy()
        gelu(x)
        assert np.array_equal(x, before)

    def test_encoder_float32_bytes_match_pow_form(self, monkeypatch):
        cfg = EncoderConfig()
        clips = [synth_clip(i % 2, 40 + i, 2.0) for i in range(10)]
        fast = [encoder_apply(c, cfg).astype("<f4").tobytes() for c in clips]
        monkeypatch.setattr(layers, "gelu", oracles.gelu)
        slow = [encoder_apply(c, cfg).astype("<f4").tobytes() for c in clips]
        assert fast == slow


def samples_for_frames(layer: int, frames: int) -> int:
    """The shortest clip whose layer-th convolution outputs `frames` frames."""
    n = frames
    for k, s in zip(reversed(ENCODER_KERNELS[:layer + 1]), reversed(ENCODER_STRIDES[:layer + 1])):
        n = (n - 1) * s + k
    return n


# first three layers: one full block, one block plus 1 row, and a last
# block of 1 row after two full ones; a 2 s clip runs 13 blocks in layer 1
ENCODER_CASE_LENGTHS = sorted({
    samples_for_frames(layer, frames) for layer in range(3)
    for frames in (BLOCK_FRAMES, BLOCK_FRAMES + 1, 2 * BLOCK_FRAMES + 1)} | {32000})


def check_every_encoder_case():
    """encoder_apply, blocked and time-major, equals the whole-layer form
    (tests/oracles.py) byte for byte."""
    rng = np.random.default_rng(24)
    for channels in (8, 512):
        cfg = EncoderConfig(channels=channels)
        for n in ENCODER_CASE_LENGTHS:
            samples = rng.uniform(-1.0, 1.0, n)
            got = encoder_apply(AudioClip(samples, 16000), cfg)
            want = oracles.encoder_whole_layer(samples, seeded_weights(cfg), cfg.strides,
                                               layers.gelu)
            assert got.tobytes() == want.tobytes(), (channels, n)


class TestBlockedMatchesWholeLayer:
    def test_case_lengths_hit_block_edges(self):
        for layer in range(3):
            for frames in (BLOCK_FRAMES, BLOCK_FRAMES + 1, 2 * BLOCK_FRAMES + 1):
                n = samples_for_frames(layer, frames)
                assert oracles.conv_stack_length(n, ENCODER_KERNELS[:layer + 1],
                                                 ENCODER_STRIDES[:layer + 1]) == frames
                assert oracles.conv_stack_length(n - 1, ENCODER_KERNELS[:layer + 1],
                                                 ENCODER_STRIDES[:layer + 1]) == frames - 1

    def test_bytes_equal(self):
        check_every_encoder_case()

    @pytest.mark.parametrize("extra_env", [ONE_BLAS_THREAD, REDUCED_DISPATCH],
                             ids=["one_blas_thread", "reduced_dispatch"])
    def test_bytes_equal_in_subprocess(self, extra_env):
        run_check("import test_encoder; test_encoder.check_every_encoder_case()", extra_env)
