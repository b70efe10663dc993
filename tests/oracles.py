"""Straight-line reference implementations used as independent oracles.

Everything here evaluates the defining formulas directly (naive DFT
matrix, explicit triangle filters, explicit cosine-transform matrix,
pairwise AUC counting) and shares no code with the library's fast paths.
Kept deliberately dumb; speed does not matter here.
"""

from __future__ import annotations

import functools

import numpy as np


# --- naive spectral analysis ---

@functools.lru_cache(maxsize=16)
def _dft_matrix(n: int) -> np.ndarray:
    k = np.arange(n // 2 + 1).reshape(-1, 1)
    t = np.arange(n).reshape(1, -1)
    return np.exp(-2j * np.pi * k * t / n)


def naive_dft_power(frame: np.ndarray) -> np.ndarray:
    """|sum_n x[n] e^{-2 pi i k n / N}|^2 for the non-negative bins."""
    frame = np.asarray(frame, dtype=np.float64)
    spec = _dft_matrix(len(frame)) @ frame.astype(np.complex128)
    return (spec * spec.conj()).real


def hann_periodic(n: int) -> np.ndarray:
    k = np.arange(n)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * k / n))


def reflect_index(i: int, n: int) -> int:
    """Mirror index into [0, n) without repeating the edge sample."""
    if n == 1:
        return 0
    period = 2 * (n - 1)
    i = i % period
    return i if i < n else period - i


def frame_signal(x: np.ndarray, frame_length: int, hop: int, centered: bool) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if centered:
        pad = frame_length // 2
        padded = np.array([x[reflect_index(i - pad, n)] for i in range(n + 2 * pad)])
        count = n // hop + 1
    else:
        padded = x
        count = max(0, (n - frame_length) // hop + 1)
    return np.stack([padded[f * hop: f * hop + frame_length] for f in range(count)]) \
        if count else np.zeros((0, frame_length))


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_triangle_bank(sample_rate: int, n_fft: int, n_mels: int,
                      f_min: float, f_max: float) -> np.ndarray:
    """Height-1 triangles sampled at the FFT bin frequencies.

    Centers sit at n_mels equally spaced mel points strictly between
    f_min and f_max (n_mels + 2 point grid, outer two are the feet).
    Each sampled filter is rescaled so its max is exactly 1.
    """
    n_bins = n_fft // 2 + 1
    bin_hz = np.arange(n_bins) * sample_rate / n_fft
    grid = mel_to_hz(np.linspace(hz_to_mel(f_min), hz_to_mel(f_max), n_mels + 2))
    bank = np.zeros((n_mels, n_bins))
    for i in range(n_mels):
        left, center, right = grid[i], grid[i + 1], grid[i + 2]
        for b in range(n_bins):
            f = bin_hz[b]
            if left < f < center:
                bank[i, b] = (f - left) / (center - left)
            elif f == center:
                bank[i, b] = 1.0
            elif center < f < right:
                bank[i, b] = (right - f) / (right - center)
        peak = bank[i].max()
        if peak > 0:
            bank[i] /= peak
    return bank


def dct2_ortho_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis: row k dotted with a length-n signal."""
    mat = np.zeros((n, n))
    for k in range(n):
        scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        for j in range(n):
            mat[k, j] = scale * np.cos(np.pi * k * (j + 0.5) / n)
    return mat


def reference_mean_mfcc(samples: np.ndarray, sample_rate: int,
                        frame_length: int = 2048, hop: int = 512,
                        n_mels: int = 64, n_mfcc: int = 40,
                        log_floor: float = 1e-10) -> np.ndarray:
    """Straight-line mean-MFCC: frame, window, naive DFT power, mel
    triangles, ln with floor, orthonormal DCT-II, truncate, average."""
    frames = frame_signal(samples, frame_length, hop, centered=True)
    window = hann_periodic(frame_length)
    power = np.stack([naive_dft_power(fr * window) for fr in frames])
    bank = mel_triangle_bank(sample_rate, frame_length, n_mels, 0.0, sample_rate / 2.0)
    logmel = np.log(np.maximum(power @ bank.T, log_floor))
    dct = dct2_ortho_matrix(n_mels)
    coeffs = logmel @ dct.T
    return coeffs[:, :n_mfcc].mean(axis=0)


# --- evaluation oracles ---

def pairwise_auc(scores, labels) -> float:
    """Mann-Whitney estimate: P(score+ > score-) + 0.5 P(tie)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def conv_stack_length(n: int, kernels, strides) -> int:
    """Layer-by-layer valid-convolution length recursion."""
    for k, s in zip(kernels, strides):
        if n < k:
            return 0
        n = (n - k) // s + 1
    return n


# --- activations ---

def gelu(x):
    """Tanh-form GELU as first written, with the cube through pow:
    0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))


def sigmoid(x):
    """Logistic function as first written: 1 / (1 + exp(-x)) where x >= 0 and
    exp(x) / (1 + exp(x)) elsewhere, each side on its masked entries only."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# --- 2x2 max pooling ---

def maxpool2_forward(x):
    """Max-pool as first written: stack the four quadrants, argmax (first
    max wins ties), gather. Returns (out, (x.shape, idx))."""
    n, h, w, c = x.shape
    h2, w2 = h // 2, w // 2
    quads = np.stack([x[:, : h2 * 2: 2, : w2 * 2: 2, :],
                      x[:, : h2 * 2: 2, 1: w2 * 2: 2, :],
                      x[:, 1: h2 * 2: 2, : w2 * 2: 2, :],
                      x[:, 1: h2 * 2: 2, 1: w2 * 2: 2, :]])
    idx = quads.argmax(axis=0)
    out = np.take_along_axis(quads, idx[None], axis=0)[0]
    return out, (x.shape, idx)


def maxpool2_backward(cache, grad_out):
    """Zeros, then each quadrant adds np.where(idx == q, grad_out, 0)."""
    (n, h, w, c), idx = cache
    h2, w2 = h // 2, w // 2
    grad_x = np.zeros((n, h, w, c), dtype=grad_out.dtype)
    views = (grad_x[:, : h2 * 2: 2, : w2 * 2: 2, :],
             grad_x[:, : h2 * 2: 2, 1: w2 * 2: 2, :],
             grad_x[:, 1: h2 * 2: 2, : w2 * 2: 2, :],
             grad_x[:, 1: h2 * 2: 2, 1: w2 * 2: 2, :])
    for q, view in enumerate(views):
        view += np.where(idx == q, grad_out, 0.0)
    return grad_x
