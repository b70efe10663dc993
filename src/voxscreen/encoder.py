"""Raw-waveform convolutional encoder frontend.

Seven strided 1-D convolutions (512 channels, strides [5,2,2,2,2,2,2],
kernels [10,3,3,3,3,2,2]) with GELU between layers. The stride product
is 320, so at 16 kHz one output frame covers 20 ms. Weights are either
seeded at random or loaded from a VXW1 file; nothing here is trained.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioClip, CANONICAL_RATE
from .errors import CorruptFileError, DegenerateInputError, WeightShapeMismatchError

ENCODER_STRIDES = (5, 2, 2, 2, 2, 2, 2)
ENCODER_KERNELS = (10, 3, 3, 3, 3, 2, 2)
ENCODER_CHANNELS = 512

WEIGHT_MAGIC = b"VXW1"


@dataclass(frozen=True)
class EncoderConfig:
    """Geometry plus weight source ("seeded:<n>" or "file:<path>")."""

    strides: tuple[int, ...] = ENCODER_STRIDES
    kernels: tuple[int, ...] = ENCODER_KERNELS
    channels: int = ENCODER_CHANNELS
    weight_source: str = "seeded:0"

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


@dataclass(frozen=True)
class EncoderWeights:
    """Per-layer (weight [out_ch, in_ch, kernel], bias [out_ch]) pairs."""

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]

    def validate(self, cfg: EncoderConfig) -> None:
        if len(self.layers) != len(cfg.kernels):
            raise WeightShapeMismatchError(
                f"{len(self.layers)} layers in weights, {len(cfg.kernels)} in config")
        in_ch = 1
        for i, ((w, b), k) in enumerate(zip(self.layers, cfg.kernels)):
            want = (cfg.channels, in_ch, k)
            if w.shape != want or b.shape != (cfg.channels,):
                raise WeightShapeMismatchError(
                    f"layer {i}: weight {w.shape} / bias {b.shape}, expected {want}")
            in_ch = cfg.channels


@functools.lru_cache(maxsize=4)
def seeded_weights(cfg: EncoderConfig, seed: int) -> EncoderWeights:
    """He-scaled random weights, zero bias; deterministic per seed.

    Cached: batch extraction reuses one weight set across clips.
    """
    rng = np.random.default_rng(seed)
    layers = []
    in_ch = 1
    for k in cfg.kernels:
        std = np.sqrt(2.0 / (in_ch * k))
        w = rng.normal(0.0, std, size=(cfg.channels, in_ch, k))
        layers.append((w, np.zeros(cfg.channels)))
        in_ch = cfg.channels
    return EncoderWeights(tuple(layers))


def save_weights(weights: EncoderWeights, path: str) -> None:
    """Write a VXW1 weight file (little-endian, 32-bit floats)."""
    with open(path, "wb") as fh:
        fh.write(WEIGHT_MAGIC)
        fh.write(struct.pack("<I", len(weights.layers)))
        for w, b in weights.layers:
            out_ch, in_ch, kernel = w.shape
            fh.write(struct.pack("<IIII", kernel, 1, in_ch, out_ch))
            fh.write(w.astype("<f4").tobytes())
            fh.write(b.astype("<f4").tobytes())


def load_weights(path: str) -> EncoderWeights:
    data = open(path, "rb").read()
    if data[:4] != WEIGHT_MAGIC:
        raise CorruptFileError(f"{path}: not a VXW1 weight file")
    pos = 4

    def take(n_bytes: int) -> bytes:
        nonlocal pos
        if pos + n_bytes > len(data):
            raise CorruptFileError(f"{path}: VXW1 file cut short at byte {len(data)}")
        pos += n_bytes
        return data[pos - n_bytes:pos]

    (n_layers,) = struct.unpack("<I", take(4))
    layers = []
    for _ in range(n_layers):
        kernel, _stride, in_ch, out_ch = struct.unpack("<IIII", take(16))
        w = np.frombuffer(take(4 * out_ch * in_ch * kernel), dtype="<f4")
        b = np.frombuffer(take(4 * out_ch), dtype="<f4")
        layers.append((w.astype(np.float64).reshape(out_ch, in_ch, kernel),
                       b.astype(np.float64)))
    if pos != len(data):
        raise CorruptFileError(f"{path}: {len(data) - pos} bytes after the last VXW1 layer")
    return EncoderWeights(tuple(layers))


def resolve_weights(cfg: EncoderConfig) -> EncoderWeights:
    kind, _, arg = cfg.weight_source.partition(":")
    if kind == "seeded":
        weights = seeded_weights(cfg, int(arg or 0))
    elif kind == "file":
        weights = load_weights(arg)
    else:
        raise ValueError(f"unknown weight source {cfg.weight_source!r}")
    weights.validate(cfg)
    return weights


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
    weights = resolve_weights(cfg)
    x = clip.samples[None, :]
    last = len(weights.layers) - 1
    for i, ((w, b), s) in enumerate(zip(weights.layers, cfg.strides)):
        out = _conv1d(x, w, b, s)  # [n_frames, out_ch]
        x = out.T
        if i != last:
            x = gelu(x)
    features = x.T
    assert features.shape[0] == n_out
    return features
