"""WAV decoding, resampling, peak normalization and synthetic clips.

All clips are mono float arrays in [-1, 1]. The toolkit's canonical rate
is 16 kHz: the encoder frontend's 20 ms framerate arithmetic (stride
product 320) assumes it, so everything is resampled on ingest.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    EmptyDataError,
    MalformedHeaderError,
    UnsupportedEncodingError,
)

CANONICAL_RATE = 16000

# synth_clip constants: class 0 = clean-ish low tone, class 1 = noisy high
# tone with tremolo. Ranges are disjoint so the classes are separable by
# construction.
SYNTH_F0_RANGE = {0: (110.0, 140.0), 1: (160.0, 190.0)}
SYNTH_SNR_DB = {0: 20.0, 1: 5.0}
SYNTH_N_HARMONICS = 5
SYNTH_MIN_DURATION_S = 0.5
SYNTH_MAX_DURATION_S = 600.0  # crowd-sourced clips last seconds; this bounds the arrays


@dataclass(frozen=True)
class AudioClip:
    """Mono waveform in [-1, 1] plus its sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")


def _require(cond: bool, exc: type[Exception], msg: str) -> None:
    if not cond:
        raise exc(msg)


def load_wav(data: bytes) -> AudioClip:
    """Decode a RIFF/WAVE byte string into a normalized mono clip.

    Accepts PCM 16-bit (format 1) and IEEE float 32-bit (format 3), 1 or
    2 channels. Stereo is mixed down by channel average; 16-bit sample v
    maps to v/32768 so the integer minimum lands exactly on -1. Float samples
    are clamped to [-1, 1], and a NaN sample is refused. Unknown chunks
    (LIST, INFO, ...) are skipped; fmt must precede data.
    """
    _require(len(data) >= 12, MalformedHeaderError, "file shorter than RIFF header")
    _require(data[0:4] == b"RIFF", MalformedHeaderError, "missing RIFF magic")
    _require(data[8:12] == b"WAVE", MalformedHeaderError, "missing WAVE form type")

    fmt = None  # (format_code, channels, sample_rate, bits_per_sample)
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body_start = pos + 8
        body_end = body_start + chunk_size
        if chunk_id == b"fmt ":
            _require(chunk_size >= 16 and body_end <= len(data),
                     MalformedHeaderError, "truncated fmt chunk")
            code, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", data, body_start)
            fmt = (code, channels, rate, bits)
        elif chunk_id == b"data":
            _require(fmt is not None, MalformedHeaderError, "data chunk before fmt chunk")
            body_end = min(body_end, len(data))
            return _decode_data(data[body_start:body_end], fmt)
        # skip unknown chunk; RIFF pads odd sizes to even
        pos = body_end + (chunk_size & 1)
    if fmt is None:
        raise MalformedHeaderError("no fmt chunk found")
    raise MalformedHeaderError("no data chunk found")


def _decode_data(raw: bytes, fmt: tuple[int, int, int, int]) -> AudioClip:
    code, channels, rate, bits = fmt
    _require(code in (1, 3), UnsupportedEncodingError, f"unsupported format code {code}")
    _require(channels in (1, 2), UnsupportedEncodingError, f"unsupported channel count {channels}")
    _require(rate > 0, MalformedHeaderError, "non-positive sample rate")
    if code == 1:
        _require(bits == 16, UnsupportedEncodingError, f"PCM bit depth {bits} not supported")
        width = 2
    else:
        _require(bits == 32, UnsupportedEncodingError, f"float bit depth {bits} not supported")
        width = 4

    frame_bytes = width * channels
    n_frames = len(raw) // frame_bytes
    _require(n_frames > 0, EmptyDataError, "data chunk holds zero samples")
    raw = raw[: n_frames * frame_bytes]

    if code == 1:
        # exact: a sum of two int16 values fits in 17 bits and the scale is a
        # power of two, so this equals v/32768 averaged over channels, with no
        # clamp needed
        pcm = np.frombuffer(raw, dtype="<i2").reshape(-1, channels)
        x = pcm[:, 0].astype(np.float64)
        if channels == 2:
            x += pcm[:, 1]
        x *= 2.0 ** -15 / channels
        return AudioClip(samples=x, sample_rate=int(rate))
    x = np.frombuffer(raw, dtype="<f4").astype(np.float64)
    # np.clip below keeps NaN, which would reach every feature and score
    _require(not np.isnan(x).any(), UnsupportedEncodingError, "float data holds NaN samples")
    if channels == 2:
        x = x.reshape(-1, 2).mean(axis=1)
    # float WAVs may legally exceed full scale; clamp to the clip invariant
    x = np.clip(x, -1.0, 1.0)
    return AudioClip(samples=x, sample_rate=int(rate))


def save_wav(clip: AudioClip) -> bytes:
    """Encode to a canonical 44-byte-header PCM-16 mono WAV byte string."""
    x = np.clip(np.round(clip.samples * 32768.0), -32768, 32767).astype("<i2")
    body = x.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(body), b"WAVE",
        b"fmt ", 16, 1, 1, clip.sample_rate,
        clip.sample_rate * 2, 2, 16,
        b"data", len(body),
    )
    return header + body


def resample_linear(clip: AudioClip, target_rate: int) -> AudioClip:
    """Resample by linear interpolation with end-hold extrapolation.

    Identity (bit-identical samples) when target_rate equals the source
    rate; when the source rate is a whole multiple of it, every ratio-th
    sample, the same bytes interpolation gives. Output length is
    round(n * target/source) so duration stays within one sample period of
    the input.
    """
    if target_rate <= 0:
        raise ValueError(f"target_rate must be positive, got {target_rate}")
    if target_rate == clip.sample_rate:
        return AudioClip(clip.samples.copy(), clip.sample_rate)
    n_in = len(clip.samples)
    if n_in < 2:
        raise DegenerateInputError("need at least 2 samples to resample")
    n_out = int(round(n_in * target_rate / clip.sample_rate))
    if clip.sample_rate % target_rate == 0:
        # every position is a whole sample index, where np.interp returns
        # that sample itself, -0.0 included
        return AudioClip(clip.samples[:: clip.sample_rate // target_rate][:n_out].copy(),
                         target_rate)
    positions = np.arange(n_out) * (clip.sample_rate / target_rate)
    # np.interp holds the edge values for positions beyond the last sample
    out = np.interp(positions, np.arange(n_in), clip.samples)
    return AudioClip(out, target_rate)


def peak_normalize(clip: AudioClip) -> AudioClip:
    """Scale so max |sample| = 1; all-zero input is returned unchanged."""
    peak = np.max(np.abs(clip.samples)) if len(clip.samples) else 0.0
    if peak == 0.0:
        return AudioClip(clip.samples.copy(), clip.sample_rate)
    return AudioClip(clip.samples / peak, clip.sample_rate)


def synth_parts(class_label: int, seed: int,
                duration_s: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """The (clean, noise) components of a synthetic screening clip at
    CANONICAL_RATE; the clip is their sum.

    class 0: harmonic tone, f0 in [110, 140] Hz, 20 dB SNR.
    class 1: harmonic tone, f0 in [160, 190] Hz, 5 dB SNR, amplitude
    tremolo. Deterministic for a fixed (class_label, seed).
    """
    if class_label not in (0, 1):
        raise ValueError(f"class_label must be 0 or 1, got {class_label}")
    if not np.isfinite(duration_s):
        raise DegenerateInputError(f"duration is not a finite number of seconds: {duration_s}")
    if not SYNTH_MIN_DURATION_S <= duration_s <= SYNTH_MAX_DURATION_S:
        raise DegenerateInputError(f"duration {duration_s}s outside "
                                   f"[{SYNTH_MIN_DURATION_S}, {SYNTH_MAX_DURATION_S}] s")

    rng = np.random.default_rng([class_label, seed & 0xFFFFFFFF])
    n = int(round(duration_s * CANONICAL_RATE))
    t = np.arange(n) / CANONICAL_RATE

    lo, hi = SYNTH_F0_RANGE[class_label]
    f0 = rng.uniform(lo, hi)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=SYNTH_N_HARMONICS)
    clean = np.zeros(n)
    for k in range(1, SYNTH_N_HARMONICS + 1):
        clean += (1.0 / k) * np.sin(2.0 * np.pi * k * f0 * t + phases[k - 1])
    if class_label == 1:
        trem_rate = rng.uniform(4.0, 8.0)
        trem_phase = rng.uniform(0.0, 2.0 * np.pi)
        clean *= 1.0 + 0.5 * np.sin(2.0 * np.pi * trem_rate * t + trem_phase)

    noise = rng.standard_normal(n)
    snr_db = SYNTH_SNR_DB[class_label]
    p_clean = np.mean(clean ** 2)
    p_noise = np.mean(noise ** 2)
    noise *= np.sqrt(p_clean / (p_noise * 10.0 ** (snr_db / 10.0)))

    # shared headroom scale keeps the SNR intact and the mix within [-1, 1]
    scale = 0.95 / np.max(np.abs(clean + noise))
    return clean * scale, noise * scale


def synth_clip(class_label: int, seed: int, duration_s: float = 1.0) -> AudioClip:
    """Deterministic synthetic clip; see synth_parts for the recipe."""
    clean, noise = synth_parts(class_label, seed, duration_s)
    return AudioClip(clean + noise, CANONICAL_RATE)
