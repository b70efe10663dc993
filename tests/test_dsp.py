"""Spectral feature pipeline against straight-line oracles."""

import json
import pathlib

import numpy as np
import pytest

import oracles
from test_layers import ONE_BLAS_THREAD, REDUCED_DISPATCH, run_check

from voxscreen import dsp
from voxscreen.audio_io import AudioClip, synth_clip
from voxscreen.dsp import (
    FrameParams,
    MelParams,
    _dct2_ortho,
    filter_bounds,
    frame_count,
    hann_window,
    hz_to_mel,
    mel_filterbank,
    mel_spectrogram,
    mel_to_hz,
    mfcc,
    mfcc_mean_vector,
    stft_power,
)
from voxscreen.errors import DegenerateInputError, DomainError, InfeasibleBankError

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_mfcc_seed7.json"


class TestFrameCount:
    def test_one_second_default(self):
        assert frame_count(16000, FrameParams()) == 32

    def test_exact_fit_uncentered(self):
        p = FrameParams(centered=False)
        assert frame_count(2048, p) == 1

    def test_too_short_uncentered(self):
        p = FrameParams(centered=False)
        assert frame_count(2047, p) == 0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            FrameParams(frame_length=1000)  # not a power of two
        with pytest.raises(ValueError):
            FrameParams(hop_length=4096)


class TestHannWindow:
    def test_n4(self):
        assert np.allclose(hann_window(4), [0.0, 0.5, 1.0, 0.5])

    def test_n2(self):
        assert np.allclose(hann_window(2), [0.0, 1.0])

    def test_periodic_sum_is_half_n(self):
        assert abs(hann_window(2048).sum() - 1024.0) < 1e-9

    def test_degenerate(self):
        with pytest.raises(DegenerateInputError):
            hann_window(1)


def rand_clip(rng, n, rate=16000):
    return AudioClip(rng.uniform(-1, 1, n), rate)


class TestStftPower:
    def test_zero_clip_gives_zero_rows(self):
        p = FrameParams(frame_length=64, hop_length=64, centered=False)
        power = stft_power(AudioClip(np.zeros(64), 16000), p)
        assert power.shape == (1, 33)
        assert np.all(power == 0.0)

    def test_impulse_flat_spectrum_rect_window(self):
        """An impulse where the periodic Hann is exactly 1 keeps a flat
        spectrum, as it would under a rectangular window."""
        p = FrameParams(frame_length=64, hop_length=64, centered=False)
        x = np.zeros(64)
        x[32] = 1.0
        power = stft_power(AudioClip(x, 16000), p)
        assert np.allclose(power, 1.0)

    def test_bin_centered_cosine_peaks_at_bin(self):
        n = 2048
        x = np.cos(2 * np.pi * 512 * np.arange(n) / n)
        p = FrameParams(frame_length=n, hop_length=n, centered=False)
        power = stft_power(AudioClip(x, 16000), p)
        assert power.shape == (1, 1025)
        assert int(np.argmax(power[0])) == 512
        naive = oracles.naive_dft_power(x * oracles.hann_periodic(n))
        assert np.max(np.abs(power[0] - naive)) <= 1e-6 * naive.max()

    def test_empty_clip_raises(self):
        with pytest.raises(DegenerateInputError):
            stft_power(AudioClip(np.zeros(0), 16000))

    def test_matches_naive_dft(self):
        """Fast path equals the O(n^2) oracle on random frames."""
        rng = np.random.default_rng(5)
        for n in (64, 256, 1024):
            p = FrameParams(frame_length=n, hop_length=n, centered=False)
            x = rng.uniform(-1, 1, n)
            fast = stft_power(AudioClip(x, 16000), p)[0]
            naive = oracles.naive_dft_power(x * oracles.hann_periodic(n))
            assert np.max(np.abs(fast - naive)) <= 1e-6 * naive.max()

    def test_amplitude_scaling_is_quadratic(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-0.5, 0.5, 2048)
        p = FrameParams(centered=False, frame_length=2048, hop_length=2048)
        base = stft_power(AudioClip(x, 16000), p)
        scaled = stft_power(AudioClip(2.0 * x, 16000), p)
        assert np.allclose(scaled, 4.0 * base, rtol=1e-12, atol=1e-12)

    def test_parseval(self):
        """Windowed frame energy equals (1/N) total spectral power."""
        rng = np.random.default_rng(7)
        n = 1024
        x = rng.uniform(-1, 1, n)
        wx = x * oracles.hann_periodic(n)
        spec = np.fft.fft(wx)
        lhs = np.sum(wx ** 2)
        rhs = np.sum(np.abs(spec) ** 2) / n
        assert abs(lhs - rhs) <= 1e-6 * lhs

    def test_centered_framing_matches_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, 300)
        p = FrameParams(frame_length=128, hop_length=32)
        fast = stft_power(AudioClip(x, 16000), p)
        frames = oracles.frame_signal(x, 128, 32, centered=True)
        assert fast.shape[0] == frames.shape[0] == frame_count(300, p)
        w = oracles.hann_periodic(128)
        for i in range(frames.shape[0]):
            naive = oracles.naive_dft_power(frames[i] * w)
            assert np.max(np.abs(fast[i] - naive)) <= 1e-6 * max(naive.max(), 1e-12)


class TestMelScale:
    def test_zero_fixed_point(self):
        assert hz_to_mel(0.0) == 0.0

    def test_700hz(self):
        assert abs(hz_to_mel(700.0) - 2595.0 * np.log10(2.0)) < 1e-9

    def test_inverse_composition(self):
        assert abs(mel_to_hz(hz_to_mel(4000.0)) - 4000.0) <= 1e-9

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            hz_to_mel(-1.0)


class TestMelFilterbank:
    def test_every_filter_peaks_at_one(self):
        bank = mel_filterbank(16000)
        assert np.allclose(bank.max(axis=1), 1.0, atol=1e-12)

    def test_non_neighbours_are_orthogonal(self):
        bank = mel_filterbank(16000)
        n = bank.shape[0]
        for i in range(n):
            for j in range(i + 2, min(i + 5, n)):
                assert bank[i] @ bank[j] == 0.0

    def test_centers_strictly_increasing_inside_range(self):
        bank = mel_filterbank(16000)
        centers = np.argmax(bank, axis=1) * 16000 / 2048
        assert np.all(np.diff(centers) > 0)
        assert centers[0] > 0.0 and centers[-1] < 8000.0

    def test_matches_oracle_bank(self):
        bank = mel_filterbank(16000)
        ref = oracles.mel_triangle_bank(16000, 2048, 64, 0.0, 8000.0)
        assert np.max(np.abs(bank - ref)) < 1e-9

    def test_no_gaps_between_outer_centers(self):
        bank = mel_filterbank(16000)
        centers = np.argmax(bank, axis=1)
        covered = bank.sum(axis=0) > 0
        assert np.all(covered[centers[0]: centers[-1] + 1])

    def test_infeasible_bank_raises(self):
        with pytest.raises(InfeasibleBankError):
            mel_filterbank(16000, FrameParams(frame_length=256, hop_length=64),
                           MelParams(n_mels=128, n_mfcc=40))


class TestCachedMatrices:
    def test_cached_matrices_are_read_only(self):
        for matrix in (mel_filterbank(16000), _dct2_ortho(64)):
            assert not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 0] = 2.0

    def test_same_arguments_share_one_array(self):
        assert mel_filterbank(16000) is mel_filterbank(16000)
        assert mel_filterbank(16000) is not mel_filterbank(22050)

    def test_features_match_an_uncached_build(self, monkeypatch):
        clips = [synth_clip(0, 3, 1.0), synth_clip(1, 4, 0.7)]
        cached = [(mel_spectrogram(c).tobytes(), mfcc(c).tobytes()) for c in clips]
        monkeypatch.setattr(dsp, "mel_filterbank", dsp.mel_filterbank.__wrapped__)
        monkeypatch.setattr(dsp, "_dct2_ortho", dsp._dct2_ortho.__wrapped__)
        assert dsp.mel_filterbank(16000) is not dsp.mel_filterbank(16000)
        fresh = [(mel_spectrogram(c).tobytes(), mfcc(c).tobytes()) for c in clips]
        assert cached == fresh


class TestMelSpectrogram:
    def test_silence_hits_log_floor(self):
        spec = mel_spectrogram(AudioClip(np.zeros(4096), 16000))
        assert np.allclose(spec, np.log(1e-10))

    def test_doubling_amplitude_adds_ln4(self):
        clip = synth_clip(0, 2, 1.0)
        half = AudioClip(clip.samples * 0.5, 16000)
        a = mel_spectrogram(half)
        b = mel_spectrogram(AudioClip(clip.samples, 16000))
        unfloored = a > np.log(1e-10)
        diff = b[unfloored] - a[unfloored]
        assert np.allclose(diff, np.log(4.0), atol=1e-9)

    def test_shape_one_second(self):
        spec = mel_spectrogram(synth_clip(0, 1, 1.0))
        assert spec.shape == (32, 64)


def check_banded_sums_match_dense():
    """mel_spectrogram, which sums each filter over its own bins, against the
    one dense product it replaced (tests/oracles.py), on the report-golden
    clips and a 30 s clip: within 1e-14 relative. On these clips the largest
    gap is 3.4e-16 relative on log mel power, 8.4e-16 on mel power."""
    clips = [synth_clip(i % 2, 300 + i, 0.5) for i in range(12)] + [synth_clip(1, 9, 30.0)]
    for clip in clips:
        want = oracles.dense_log_mel(stft_power(clip), mel_filterbank(clip.sample_rate))
        np.testing.assert_allclose(mel_spectrogram(clip), want, rtol=1e-14, atol=0)


class TestBandedMelSums:
    def test_bounds_hold_every_nonzero_bin(self):
        bank = mel_filterbank(16000)
        bounds = filter_bounds(16000, FrameParams(), MelParams())
        assert len(bounds) == 64
        for row, (lo, hi) in zip(bank, bounds):
            assert row[lo] > 0 and row[hi - 1] > 0
            assert not row[:lo].any() and not row[hi:].any()
        widths = [hi - lo for lo, hi in bounds]
        assert (min(widths), max(widths)) == (7, 84)

    def test_match_dense_product(self):
        check_banded_sums_match_dense()

    @pytest.mark.parametrize("extra_env", [ONE_BLAS_THREAD, REDUCED_DISPATCH],
                             ids=["one_blas_thread", "reduced_dispatch"])
    def test_match_dense_product_in_subprocess(self, extra_env):
        run_check("import test_dsp; test_dsp.check_banded_sums_match_dense()", extra_env)


class TestMfcc:
    def test_silence_concentrates_in_c0(self):
        m = mfcc(AudioClip(np.zeros(4096), 16000))
        c0 = np.log(1e-10) * np.sqrt(64)
        assert np.allclose(m[:, 0], c0, atol=1e-9)
        assert np.max(np.abs(m[:, 1:])) <= 1e-9

    def test_orthonormal_inverse(self):
        """Untruncated DCT then its transpose restores the log-mel row."""
        rng = np.random.default_rng(9)
        row = rng.normal(size=64)
        basis = _dct2_ortho(64)
        assert np.max(np.abs(basis.T @ (basis @ row) - row)) < 1e-9

    def test_shape_one_second(self):
        m = mfcc(synth_clip(0, 1, 1.0))
        assert m.shape == (32, 40)

    def test_against_golden_oracle_vector(self):
        """Checked-in golden vector from the independent straight-line
        oracle; agreement within 1e-5 per element."""
        golden = np.array(json.loads(GOLDEN.read_text())["mean_mfcc"])
        clip = synth_clip(0, 7, 1.0)
        vec = mfcc_mean_vector(mfcc(clip))
        assert vec.shape == (40,)
        assert np.max(np.abs(vec - golden)) <= 1e-5


class TestMeanVector:
    def test_single_frame_verbatim(self):
        m = mfcc(synth_clip(0, 4, 1.0))
        assert np.array_equal(mfcc_mean_vector(m[:1]), m[0])

    def test_symmetric_frames_cancel(self):
        m = mfcc(synth_clip(0, 4, 1.0))
        assert np.allclose(mfcc_mean_vector(np.vstack([m[0], -m[0]])), 0.0)

    def test_constant_columns_pass_through(self):
        m = mfcc(synth_clip(0, 4, 1.0))
        row = m[0]
        assert np.allclose(mfcc_mean_vector(np.tile(row, (5, 1))), row)

    def test_frame_permutation_invariant(self):
        m = mfcc(synth_clip(1, 4, 1.0))
        rng = np.random.default_rng(12)
        shuffled = m[rng.permutation(len(m))]
        assert np.allclose(mfcc_mean_vector(shuffled), mfcc_mean_vector(m))

    def test_zero_frames_raise(self):
        m = mfcc(synth_clip(0, 4, 1.0))
        with pytest.raises(DegenerateInputError):
            mfcc_mean_vector(m[:0])
