"""Framed spectral features: STFT power, Mel-spectrograms, MFCCs.

Defaults follow the screening pipeline: 2048-sample frames, 512-sample
hop, periodic Hann window, 64 HTK-mel bands, first 40 orthonormal
DCT-II coefficients, per-coefficient mean pooling.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioClip
from .errors import DegenerateInputError, DomainError, InfeasibleBankError

LOG_FLOOR = 1e-10


@dataclass(frozen=True)
class FrameParams:
    """Framing geometry for the short-time transforms; every frame is
    weighted by the periodic Hann window."""

    frame_length: int = 2048
    hop_length: int = 512
    centered: bool = True

    def __post_init__(self):
        if not (0 < self.hop_length <= self.frame_length):
            raise ValueError("need 0 < hop_length <= frame_length")
        if self.frame_length & (self.frame_length - 1):
            raise ValueError("frame_length must be a power of two")

    @property
    def n_bins(self) -> int:
        return self.frame_length // 2 + 1


@dataclass(frozen=True)
class MelParams:
    """Mel filterbank and cepstrum sizing; the filterbank spans 0 Hz to Nyquist."""

    n_mels: int = 64
    n_mfcc: int = 40

    def __post_init__(self):
        if not 0 < self.n_mfcc <= self.n_mels:
            raise ValueError("need 0 < n_mfcc <= n_mels")


def frame_count(n_samples: int, p: FrameParams) -> int:
    """Number of analysis frames for a signal of n_samples."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if p.centered:
        return n_samples // p.hop_length + 1
    return max(0, (n_samples - p.frame_length) // p.hop_length + 1)


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann: w[k] = 0.5 (1 - cos(2 pi k / n))."""
    if n < 2:
        raise DegenerateInputError("window length must be >= 2")
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))


def _frame_matrix(x: np.ndarray, p: FrameParams) -> np.ndarray:
    if p.centered:
        pad = p.frame_length // 2
        mode = "reflect" if len(x) > 1 else "edge"
        x = np.pad(x, pad, mode=mode)
    windows = np.lib.stride_tricks.sliding_window_view(x, p.frame_length)
    return windows[:: p.hop_length]


def stft_power(clip: AudioClip, p: FrameParams = FrameParams()) -> np.ndarray:
    """Power spectrum per frame, shape [n_frames, frame_length/2 + 1]."""
    if len(clip.samples) == 0:
        raise DegenerateInputError("empty clip")
    expected = frame_count(len(clip.samples), p)
    if expected == 0:
        return np.zeros((0, p.n_bins))
    frames = _frame_matrix(clip.samples, p)[:expected] * hann_window(p.frame_length)
    spec = np.fft.rfft(frames, axis=1)
    return (spec * spec.conj()).real


def hz_to_mel(f):
    """HTK mel scale: 2595 log10(1 + f/700)."""
    f = np.asarray(f, dtype=np.float64)
    if np.any(f < 0):
        raise DomainError("frequency must be non-negative")
    return 2595.0 * np.log10(1.0 + f / 700.0)


def mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    if np.any(m < 0):
        raise DomainError("mel value must be non-negative")
    return 700.0 * (10.0 ** (m / 2595.0) - 1.0)


@functools.lru_cache(maxsize=8)
def mel_filterbank(sample_rate: int, p: FrameParams = FrameParams(),
                   m: MelParams = MelParams()) -> np.ndarray:
    """Triangular height-1 filters, shape [n_mels, frame_length/2 + 1].

    Centers are equally spaced on the mel axis; filter i is zero outside
    (center[i-1], center[i+1]), so only neighbouring filters overlap.
    Each row is rescaled so its sampled maximum is exactly 1.

    Cached per arguments, so every clip of a run shares one read-only bank.
    """
    bin_hz = np.arange(p.n_bins) * sample_rate / p.frame_length
    grid = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), m.n_mels + 2))
    left, center, right = grid[:-2, None], grid[1:-1, None], grid[2:, None]
    rising = (bin_hz - left) / (center - left)
    falling = (right - bin_hz) / (right - center)
    bank = np.maximum(0.0, np.minimum(rising, falling))
    peaks = bank.max(axis=1)
    if np.any(peaks == 0.0):
        raise InfeasibleBankError(
            f"{m.n_mels} filters over {p.n_bins} bins leaves empty filters; "
            "reduce n_mels or enlarge frame_length")
    bank = bank / peaks[:, None]
    bank.flags.writeable = False
    return bank


def mel_spectrogram(clip: AudioClip, p: FrameParams = FrameParams(),
                    m: MelParams = MelParams()) -> np.ndarray:
    """Natural-log mel power per frame, [n_frames, n_mels], floored at LOG_FLOOR."""
    power = stft_power(clip, p)
    bank = mel_filterbank(clip.sample_rate, p, m)
    return np.log(np.maximum(power @ bank.T, LOG_FLOOR))


@functools.lru_cache(maxsize=8)
def _dct2_ortho(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix [n, n]; cached and read-only, like the bank."""
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    mat = np.sqrt(2.0 / n) * np.cos(np.pi * k * (j + 0.5) / n)
    mat[0] = np.sqrt(1.0 / n)
    mat.flags.writeable = False
    return mat


def mfcc(clip: AudioClip, p: FrameParams = FrameParams(),
         m: MelParams = MelParams()) -> np.ndarray:
    """First n_mfcc orthonormal DCT-II coefficients per log-mel row: [n_frames, n_mfcc]."""
    basis = _dct2_ortho(m.n_mels)[: m.n_mfcc]
    return mel_spectrogram(clip, p, m) @ basis.T


def mfcc_mean_vector(coefficients: np.ndarray) -> np.ndarray:
    """Per-coefficient mean over the frames of mfcc(); the classic 40-dim clip vector."""
    if coefficients.shape[0] == 0:
        raise DegenerateInputError("cannot average zero frames")
    return coefficients.mean(axis=0)
