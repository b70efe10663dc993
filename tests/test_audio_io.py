"""WAV decode/encode, resampling, normalization, synthetic clips."""

import struct

import numpy as np
import pytest

import oracles

from voxscreen.audio_io import (
    AudioClip,
    load_wav,
    peak_normalize,
    resample_linear,
    save_wav,
    synth_clip,
    synth_parts,
)
from voxscreen.errors import (
    DegenerateInputError,
    EmptyDataError,
    MalformedHeaderError,
    UnsupportedEncodingError,
    VoxscreenError,
)


def wav_bytes(samples_i16, rate=8000, channels=1):
    """Canonical 44-byte-header PCM-16 file around raw int16 samples."""
    body = struct.pack(f"<{len(samples_i16)}h", *samples_i16)
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(body), b"WAVE",
        b"fmt ", 16, 1, channels, rate,
        rate * 2 * channels, 2 * channels, 16,
        b"data", len(body),
    ) + body


def float_wav_bytes(samples, rate=16000):
    """Canonical 44-byte-header IEEE float-32 mono file around the samples."""
    body = np.asarray(samples, dtype="<f4").tobytes()
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(body), b"WAVE",
        b"fmt ", 16, 3, 1, rate, rate * 4, 4, 32,
        b"data", len(body)) + body


class TestLoadWav:
    def test_integer_minimum_maps_to_minus_one(self):
        clip = load_wav(wav_bytes([-0x8000]))
        assert clip.samples.tolist() == [-1.0]

    def test_integer_maximum(self):
        clip = load_wav(wav_bytes([0x7FFF]))
        assert clip.samples.tolist() == [32767 / 32768]

    def test_stereo_mixdown_is_channel_average(self):
        # L=0x4000 (0.5), R=0x0000 -> 0.25
        clip = load_wav(wav_bytes([0x4000, 0x0000], channels=2))
        assert clip.samples.tolist() == [0.25]

    def test_sample_rate_copied_from_fmt(self):
        assert load_wav(wav_bytes([0], rate=44100)).sample_rate == 44100

    def test_float32_payload(self):
        assert load_wav(float_wav_bytes([0.5, -0.25])).samples.tolist() == [0.5, -0.25]

    def test_float32_nan_sample_refused(self):
        """np.clip keeps NaN; one NaN sample would reach every feature."""
        with pytest.raises(UnsupportedEncodingError, match="NaN"):
            load_wav(float_wav_bytes([0.5, np.nan, -0.25]))

    def test_unknown_chunks_are_skipped(self):
        base = wav_bytes([100, -100])
        # splice a LIST chunk between fmt and data
        head, fmt, rest = base[:12], base[12:36], base[36:]
        junk = b"LIST" + struct.pack("<I", 4) + b"INFO"
        data = head + fmt + junk + rest
        assert load_wav(data).samples.tolist() == [100 / 32768, -100 / 32768]

    def test_missing_riff(self):
        with pytest.raises(MalformedHeaderError):
            load_wav(b"JUNK" + wav_bytes([0])[4:])

    def test_data_before_fmt_rejected(self):
        base = wav_bytes([0])
        swapped = base[:12] + base[36:] + base[12:36]
        with pytest.raises(MalformedHeaderError):
            load_wav(swapped)

    def test_unsupported_codec(self):
        bad = bytearray(wav_bytes([0]))
        bad[20:22] = struct.pack("<H", 2)  # ADPCM
        with pytest.raises(UnsupportedEncodingError):
            load_wav(bytes(bad))

    def test_empty_data_chunk(self):
        data = wav_bytes([])
        with pytest.raises(EmptyDataError):
            load_wav(data)

    def test_byte_permutations_never_abort(self):
        """Deterministic fuzz: shuffled valid files fail typed or load."""
        base = bytearray(wav_bytes(list(range(-8, 8)), rate=16000))
        rng = np.random.default_rng(99)
        for _ in range(200):
            perm = bytes(rng.permutation(np.frombuffer(bytes(base), np.uint8)))
            try:
                clip = load_wav(perm)
                assert np.all(np.abs(clip.samples) <= 1.0)
            except VoxscreenError:
                pass

    def test_roundtrip_within_one_lsb(self):
        clip = synth_clip(0, 11, 0.5)
        back = load_wav(save_wav(clip))
        assert back.sample_rate == clip.sample_rate
        assert np.max(np.abs(back.samples - clip.samples)) <= 1 / 32768


class TestPcm16MatchesOldChain:
    """The integer PCM-16 decode against the divide / mean / clip chain it
    replaced (tests/oracles.py), byte for byte."""

    def test_every_mono_value(self):
        values = np.arange(-32768, 32768)
        got = load_wav(wav_bytes(values, rate=16000)).samples
        want = oracles.decode_pcm16(values.astype("<i2").tobytes(), 1)
        assert got.tobytes() == want.tobytes()

    def test_random_stereo_pairs_with_extremes(self):
        edges = np.array([-32768, -32767, -1, 0, 1, 32766, 32767])
        pairs = np.concatenate([
            np.stack(np.meshgrid(edges, edges), axis=-1).reshape(-1, 2),
            np.random.default_rng(21).integers(-32768, 32768, size=(50_000, 2))])
        got = load_wav(wav_bytes(pairs.ravel(), rate=48000, channels=2)).samples
        want = oracles.decode_pcm16(pairs.astype("<i2").tobytes(), 2)
        assert got.tobytes() == want.tobytes()
        assert got.min() == -1.0 and got.max() == 32767 / 32768


class TestResample:
    def test_whole_ratio_bytes_match_interp(self):
        """Taking every ratio-th sample equals np.interp at those positions,
        signed zeros included."""
        rng = np.random.default_rng(22)
        signal = rng.normal(size=5000) * rng.choice([0.0, -0.0, 1.0], size=5000)
        assert np.signbit(signal[signal == 0]).any() and not np.signbit(signal[signal == 0]).all()
        for ratio in range(2, 7):
            for n in range(2, 5001):
                got = resample_linear(AudioClip(signal[:n], 16000 * ratio), 16000).samples
                want = oracles.resample_interp(signal[:n], 16000 * ratio, 16000)
                assert got.tobytes() == want.tobytes(), (ratio, n)

    def test_other_ratios_interpolate(self):
        signal = np.random.default_rng(23).normal(size=4410)
        got = resample_linear(AudioClip(signal, 44100), 16000).samples
        assert got.tobytes() == oracles.resample_interp(signal, 44100, 16000).tobytes()

    def test_identity_when_rates_equal(self):
        clip = AudioClip(np.array([0.1, -0.2, 0.3]), 8000)
        out = resample_linear(clip, 8000)
        assert out.samples.tolist() == clip.samples.tolist()

    def test_doubling_interpolates_with_end_hold(self):
        clip = AudioClip(np.array([0.0, 1.0]), 2)
        out = resample_linear(clip, 4)
        assert out.samples.tolist() == [0.0, 0.5, 1.0, 1.0]

    def test_constant_stays_constant(self):
        clip = AudioClip(np.full(50, 0.7), 16000)
        for rate in (8000, 22050, 44100):
            assert np.allclose(resample_linear(clip, rate).samples, 0.7)

    def test_duration_within_one_period(self):
        clip = AudioClip(np.zeros(1234), 44100)
        out = resample_linear(clip, 16000)
        assert abs(len(out.samples) / 16000 - 1234 / 44100) <= 1 / 16000

    def test_down_up_preserves_bandlimited(self):
        """Up to 2r and back hits the original grid exactly."""
        rate = 8000
        t = np.arange(400) / rate
        clip = AudioClip(0.8 * np.sin(2 * np.pi * (rate / 8) * t), rate)
        back = resample_linear(resample_linear(clip, 2 * rate), rate)
        assert np.max(np.abs(back.samples[:400] - clip.samples)) < 1e-6

    def test_too_short_raises(self):
        with pytest.raises(DegenerateInputError):
            resample_linear(AudioClip(np.array([0.5]), 8000), 16000)


class TestPeakNormalize:
    def test_scales_to_unit_peak(self):
        out = peak_normalize(AudioClip(np.array([0.5, -0.25]), 8000))
        assert out.samples.tolist() == [1.0, -0.5]

    def test_zero_signal_unchanged(self):
        out = peak_normalize(AudioClip(np.zeros(3), 8000))
        assert out.samples.tolist() == [0.0, 0.0, 0.0]

    def test_already_normalized_fixed_point(self):
        out = peak_normalize(AudioClip(np.array([1.0, -1.0]), 8000))
        assert out.samples.tolist() == [1.0, -1.0]


class TestSynthClip:
    def test_deterministic(self):
        a = synth_clip(0, 7, 1.0)
        b = synth_clip(0, 7, 1.0)
        assert np.array_equal(a.samples, b.samples)

    def test_length_is_duration_times_rate(self):
        assert len(synth_clip(0, 3, 1.0).samples) == 16000
        assert synth_clip(0, 3, 1.0).sample_rate == 16000

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_class1_snr_is_5db(self, seed):
        clean, noise = synth_parts(1, seed, 1.0)
        snr = 10 * np.log10(np.mean(clean ** 2) / np.mean(noise ** 2))
        assert abs(snr - 5.0) <= 0.5

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_class0_snr_is_20db(self, seed):
        clean, noise = synth_parts(0, seed, 1.0)
        snr = 10 * np.log10(np.mean(clean ** 2) / np.mean(noise ** 2))
        assert abs(snr - 20.0) <= 0.5

    def test_classes_differ(self):
        a = synth_clip(0, 5, 1.0)
        b = synth_clip(1, 5, 1.0)
        assert not np.array_equal(a.samples, b.samples)

    def test_short_duration_rejected(self):
        with pytest.raises(DegenerateInputError):
            synth_clip(0, 1, 0.4)

    def test_samples_stay_in_range(self):
        for label in (0, 1):
            clip = synth_clip(label, 17, 0.6)
            assert np.max(np.abs(clip.samples)) <= 1.0
