"""Raw-waveform convolutional encoder frontend.

Seven strided 1-D convolutions (512 channels, strides [5,2,2,2,2,2,2],
kernels [10,3,3,3,3,2,2]) with GELU between layers. The stride product
is 320, so at 16 kHz one output frame covers 20 ms. Weights are seeded
at random; nothing here is trained.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioClip, CANONICAL_RATE
from .errors import DegenerateInputError

ENCODER_STRIDES = (5, 2, 2, 2, 2, 2, 2)
ENCODER_KERNELS = (10, 3, 3, 3, 3, 2, 2)
ENCODER_CHANNELS = 512


@dataclass(frozen=True)
class EncoderConfig:
    """Layer geometry: strides, kernel widths and channel count."""

    strides: tuple[int, ...] = ENCODER_STRIDES
    kernels: tuple[int, ...] = ENCODER_KERNELS
    channels: int = ENCODER_CHANNELS

    def __post_init__(self):
        if len(self.strides) != len(self.kernels):
            raise ValueError("strides and kernels must pair up")

    @property
    def stride_product(self) -> int:
        return int(np.prod(self.strides))

    @property
    def receptive_field(self) -> int:
        n = 1
        for k, s in zip(reversed(self.kernels), reversed(self.strides)):
            n = (n - 1) * s + k
        return n


def encoder_output_length(n_samples: int, cfg: EncoderConfig = EncoderConfig()) -> int:
    """Output frame count: L <- floor((L - kernel)/stride) + 1, 7 times."""
    if n_samples < cfg.receptive_field:
        raise DegenerateInputError(
            f"clip of {n_samples} samples is shorter than the "
            f"{cfg.receptive_field}-sample receptive field")
    n = n_samples
    for k, s in zip(cfg.kernels, cfg.strides):
        n = (n - k) // s + 1
    return n


@functools.lru_cache(maxsize=4)
def seeded_weights(cfg: EncoderConfig) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per-layer (weight [out_ch, in_ch, kernel], bias [out_ch]) pairs: He-scaled
    draws from default_rng(0), zero bias. Cached: batch extraction reuses one set."""
    rng = np.random.default_rng(0)
    layers = []
    in_ch = 1
    for k in cfg.kernels:
        std = np.sqrt(2.0 / (in_ch * k))
        w = rng.normal(0.0, std, size=(cfg.channels, in_ch, k))
        layers.append((w, np.zeros(cfg.channels)))
        in_ch = cfg.channels
    return tuple(layers)


def _conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int) -> np.ndarray:
    """Valid 1-D convolution. x: [in_ch, L]; w: [out_ch, in_ch, k]."""
    out_ch, in_ch, k = w.shape
    windows = np.lib.stride_tricks.sliding_window_view(x, k, axis=1)[:, ::stride]
    # windows: [in_ch, n_out, k] -> [n_out, in_ch * k]
    cols = windows.transpose(1, 0, 2).reshape(windows.shape[1], in_ch * k)
    return cols @ w.reshape(out_ch, in_ch * k).T + b


def encoder_apply(clip: AudioClip, cfg: EncoderConfig = EncoderConfig()) -> np.ndarray:
    """Feature sequence [encoder_output_length, channels] for a 16 kHz clip."""
    from .learners.layers import gelu

    if clip.sample_rate != CANONICAL_RATE:
        raise ValueError(f"encoder expects {CANONICAL_RATE} Hz input")
    n_out = encoder_output_length(len(clip.samples), cfg)
    weights = seeded_weights(cfg)
    x = clip.samples[None, :]
    last = len(weights) - 1
    for i, ((w, b), s) in enumerate(zip(weights, cfg.strides)):
        out = _conv1d(x, w, b, s)  # [n_frames, out_ch]
        x = out.T
        if i != last:
            x = gelu(x)
    features = x.T
    assert features.shape[0] == n_out
    return features
