"""Raw-waveform convolutional encoder frontend.

Seven strided 1-D convolutions (512 channels, strides [5,2,2,2,2,2,2],
kernels [10,3,3,3,3,2,2]) with GELU between layers. The stride product
is 320, so at 16 kHz one output frame covers 20 ms. Weights are seeded
at random; nothing here is trained.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .audio_io import AudioClip, CANONICAL_RATE
from .errors import DegenerateInputError

ENCODER_STRIDES = (5, 2, 2, 2, 2, 2, 2)
ENCODER_KERNELS = (10, 3, 3, 3, 3, 2, 2)
ENCODER_CHANNELS = 512
# output frames per matmul in encoder_apply; bounds its temporaries per layer
BLOCK_FRAMES = 512


@dataclass(frozen=True)
class EncoderConfig:
    """Layer geometry: the channel count is the one setting; every config
    shares the fixed strides and kernel widths."""

    strides: ClassVar[tuple[int, ...]] = ENCODER_STRIDES
    kernels: ClassVar[tuple[int, ...]] = ENCODER_KERNELS
    channels: int = ENCODER_CHANNELS

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


def encoder_apply(clip: AudioClip, cfg: EncoderConfig = EncoderConfig()) -> np.ndarray:
    """Feature sequence [encoder_output_length, channels] for a 16 kHz clip.

    Activations stay time-major, [frames, channels]. Each layer runs over
    blocks of BLOCK_FRAMES output frames: gather the block's windows in
    (in_ch, kernel) column order, one matmul, add the bias, then GELU. So
    each layer's output is its only whole-layer array."""
    from .learners.layers import gelu

    if clip.sample_rate != CANONICAL_RATE:
        raise ValueError(f"encoder expects {CANONICAL_RATE} Hz input")
    n_out = encoder_output_length(len(clip.samples), cfg)
    weights = seeded_weights(cfg)
    x = clip.samples[:, None]
    last = len(weights) - 1
    for i, ((w, b), s) in enumerate(zip(weights, cfg.strides)):
        out_ch, in_ch, k = w.shape
        wmat = w.reshape(out_ch, in_ch * k).T
        # [n_frames, in_ch, k]: the window of output frame t starts at input row t * s
        windows = np.lib.stride_tricks.sliding_window_view(x, k, axis=0)[::s]
        x = np.empty((len(windows), out_ch))
        for r in range(0, len(windows), BLOCK_FRAMES):
            block = windows[r:r + BLOCK_FRAMES]
            y = block.reshape(len(block), in_ch * k) @ wmat
            y += b
            x[r:r + BLOCK_FRAMES] = y if i == last else gelu(y)
    assert x.shape[0] == n_out
    return x
