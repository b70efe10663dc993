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


def dense_log_mel(power: np.ndarray, bank: np.ndarray) -> np.ndarray:
    """Log mel power from one product over every bin, floored at 1e-10: the
    form mel_spectrogram used before it summed each filter over its own bins."""
    return np.log(np.maximum(power @ bank.T, 1e-10))


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


def roc_loop(scores, labels):
    """(points, thresholds, auc) of evaluation.roc_auc in the loop form it
    replaced: walk the descending scores, one point per tie group. Never ends
    on a NaN score, which equals nothing, itself included."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = (labels[order] == 1).astype(np.int64)
    points = [(0.0, 0.0)]
    thresholds = [np.inf]
    tp = fp = 0
    i = 0
    while i < len(sorted_scores):
        j = i
        while j < len(sorted_scores) and sorted_scores[j] == sorted_scores[i]:
            j += 1
        tp += int(sorted_pos[i:j].sum())
        fp += (j - i) - int(sorted_pos[i:j].sum())
        points.append((fp / n_neg, tp / n_pos))
        thresholds.append(sorted_scores[i])
        i = j
    pts = np.asarray(points)
    return pts, np.asarray(thresholds), float(np.trapezoid(pts[:, 1], pts[:, 0]))


def conv_stack_length(n: int, kernels, strides) -> int:
    """Layer-by-layer valid-convolution length recursion."""
    for k, s in zip(kernels, strides):
        if n < k:
            return 0
        n = (n - k) // s + 1
    return n


def encoder_whole_layer(samples, weights, strides, gelu):
    """encoder_apply as first written: channel-major activations, each layer
    one whole-layer valid convolution (im2col in (in_ch, k) column order, one
    matmul, + b), transposed back, then gelu on all but the last layer."""
    x = np.asarray(samples, dtype=np.float64)[None, :]
    for i, ((w, b), s) in enumerate(zip(weights, strides)):
        out_ch, in_ch, k = w.shape
        windows = np.lib.stride_tricks.sliding_window_view(x, k, axis=1)[:, ::s]
        cols = windows.transpose(1, 0, 2).reshape(windows.shape[1], in_ch * k)
        x = (cols @ w.reshape(out_ch, in_ch * k).T + b).T
        if i != len(weights) - 1:
            x = gelu(x)
    return x.T


# --- WAV decoding and resampling ---

def decode_pcm16(raw: bytes, channels: int) -> np.ndarray:
    """PCM-16 samples as first decoded: v / 32768, channel mean, clamp."""
    x = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if channels == 2:
        x = x.reshape(-1, 2).mean(axis=1)
    return np.clip(x, -1.0, 1.0)


def resample_interp(samples, source_rate: int, target_rate: int) -> np.ndarray:
    """Linear interpolation at every position i * source/target, as
    resample_linear computes it for any ratio."""
    n_in = len(samples)
    n_out = int(round(n_in * target_rate / source_rate))
    return np.interp(np.arange(n_out) * (source_rate / target_rate), np.arange(n_in), samples)


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



def sigmoid_where(x):
    """The branch-free logistic function it replaced: both sides computed
    everywhere, np.where picks one per entry."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# --- logistic regression ---

def logreg_loss_grad(w, b, rows, labels):
    """Mean BCE of sigmoid(rows @ w + b) against labels and its gradient wrt
    (w, b): what train_logreg computed every epoch before it dropped the loss."""
    z = rows @ w + b
    loss = np.mean(np.logaddexp(0.0, z) - labels * z)
    dz = (sigmoid(z) - labels) / z.size
    return loss, rows.T @ dz, float(dz.sum())


# --- LSTM, one direction at a time ---

def lstm_run_direction(xs, wx, wh, b, hidden):
    """One LSTM direction over xs [n, T, D] as first written: np.split for
    the gates, one sigmoid call per gate. Returns final h and step caches."""
    n, T, _ = xs.shape
    h = np.zeros((n, hidden))
    c = np.zeros((n, hidden))
    caches = []
    for t in range(T):
        x_t = xs[:, t, :]
        z = x_t @ wx + h @ wh + b
        zi, zf, zg, zo = np.split(z, 4, axis=1)
        i, f, o = sigmoid_where(zi), sigmoid_where(zf), sigmoid_where(zo)
        g = np.tanh(zg)
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        h_new = o * tc
        caches.append((x_t, h, c, i, f, g, o, tc))
        h, c = h_new, c_new
    return h, caches


def lstm_direction_backward(caches, wx, wh, dh_last, hidden):
    """BPTT for one direction given the gradient at its final h, as first
    written: dz by np.concatenate, dh computed at every step."""
    gw_x = np.zeros_like(wx)
    gw_h = np.zeros_like(wh)
    gb = np.zeros(4 * hidden)
    dh = dh_last
    dc = np.zeros_like(dh_last)
    for x_t, h_prev, c_prev, i, f, g, o, tc in reversed(caches):
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        dc = dc * f
        dz = np.concatenate([
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dg * (1.0 - g * g),
            do * o * (1.0 - o),
        ], axis=1)
        gw_x += x_t.T @ dz
        gw_h += h_prev.T @ dz
        gb += dz.sum(axis=0)
        dh = dz @ wh.T
    return gw_x, gw_h, gb

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


# --- CNN scoring and conv input gradient ---

def cnn_scores(params, images):
    """CnnModel.scores as first written: the whole fold through both
    conv/pool stages and the dense layer as one batch, im2col columns in
    the window's (c_in, kh, kw) order, dropout off."""
    h = images
    for i in "12":
        w = params["w" + i]
        kh, kw, c_in, c_out = w.shape
        windows = np.lib.stride_tricks.sliding_window_view(h, (kh, kw), axis=(1, 2))
        cols = windows.reshape(*windows.shape[:3], c_in * kh * kw)
        h = cols @ w.transpose(2, 0, 1, 3).reshape(c_in * kh * kw, c_out)
        h += params["b" + i]
        h = maxpool2_forward(h)[0]
    logits = h.reshape(h.shape[0], -1) @ params["wd"] + params["bd"]
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    e = np.exp(shifted)
    return (e / e.sum(axis=1, keepdims=True))[:, 1]


def conv2d_grad_x(x_shape, w, grad_out):
    """Conv input gradient as first written: grad_cols in (c_in, kh, kw)
    column order, then the nine strided slices added one tap at a time."""
    kh, kw, c_in, c_out = w.shape
    n, h_out, w_out, _ = grad_out.shape
    wmat = w.transpose(2, 0, 1, 3).reshape(c_in * kh * kw, c_out)
    grad_cols = (grad_out.reshape(-1, c_out) @ wmat.T).reshape(n, h_out, w_out, c_in, kh, kw)
    grad_x = np.zeros(x_shape, dtype=grad_out.dtype)
    for i in range(kh):
        for j in range(kw):
            grad_x[:, i:i + h_out, j:j + w_out, :] += grad_cols[:, :, :, :, i, j]
    return grad_x


# --- vector pooling ---

def pool_vector(matrix, feature_kind):
    """feature_from_matrix's vector kinds as first written: an mfcc_vector's
    [1, d] row by ravel, an encoder's [n, c] frames by mean(axis=0)."""
    return matrix.ravel() if feature_kind == "mfcc_vector" else matrix.mean(axis=0)


# --- Platt's SMO, the SVM solver the second-order working-set loop replaced ---

_STEP_EPS = 1e-12


def rbf_gram_blas(a, b, gamma):
    """RBF kernel from the |a|^2 + |b|^2 - 2 a.b expansion, one BLAS product."""
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * a @ b.T
    return np.exp(-gamma * np.maximum(sq, 0.0))


class _SmoState:
    """Working state of the solver: alphas, bias and the error cache
    E_i = f(x_i) - y_i kept exact under every pairwise update."""

    def __init__(self, kernel: np.ndarray, y: np.ndarray, C: float, tol: float):
        self.K = kernel
        self.y = y
        self.C = C
        self.tol = tol
        n = len(y)
        self.alphas = np.zeros(n)
        self.b = 0.0
        self.errors = -y.astype(np.float64)  # f = 0 initially

    def objective(self, alphas: np.ndarray) -> float:
        ay = alphas * self.y
        return alphas.sum() - 0.5 * ay @ self.K @ ay

    def take_step(self, i1: int, i2: int) -> bool:
        if i1 == i2:
            return False
        a1_old, a2_old = self.alphas[i1], self.alphas[i2]
        y1, y2 = self.y[i1], self.y[i2]
        e1, e2 = self.errors[i1], self.errors[i2]
        s = y1 * y2
        if s > 0:
            lo = max(0.0, a1_old + a2_old - self.C)
            hi = min(self.C, a1_old + a2_old)
        else:
            lo = max(0.0, a2_old - a1_old)
            hi = min(self.C, self.C + a2_old - a1_old)
        if lo >= hi:
            return False

        k11, k22, k12 = self.K[i1, i1], self.K[i2, i2], self.K[i1, i2]
        eta = k11 + k22 - 2.0 * k12
        if eta > _STEP_EPS:
            a2 = a2_old + y2 * (e1 - e2) / eta
            a2 = min(max(a2, lo), hi)
        else:
            # degenerate direction (duplicate points): compare the dual
            # objective at both clip ends and move only on a strict win
            trial = self.alphas.copy()
            trial[i2] = lo
            trial[i1] = a1_old + s * (a2_old - lo)
            obj_lo = self.objective(trial)
            trial[i2] = hi
            trial[i1] = a1_old + s * (a2_old - hi)
            obj_hi = self.objective(trial)
            if obj_lo > obj_hi + _STEP_EPS:
                a2 = lo
            elif obj_hi > obj_lo + _STEP_EPS:
                a2 = hi
            else:
                return False
        if abs(a2 - a2_old) < _STEP_EPS * (a2 + a2_old + _STEP_EPS):
            return False
        a1 = a1_old + s * (a2_old - a2)

        d1, d2 = y1 * (a1 - a1_old), y2 * (a2 - a2_old)
        b1 = self.b - e1 - d1 * k11 - d2 * k12
        b2 = self.b - e2 - d1 * k12 - d2 * k22
        if 0.0 < a1 < self.C:
            b_new = b1
        elif 0.0 < a2 < self.C:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)

        self.errors += d1 * self.K[i1] + d2 * self.K[i2] + (b_new - self.b)
        self.alphas[i1], self.alphas[i2] = a1, a2
        self.b = b_new
        return True

    def examine(self, i2: int) -> bool:
        y2, a2, e2 = self.y[i2], self.alphas[i2], self.errors[i2]
        r2 = e2 * y2
        if not ((r2 < -self.tol and a2 < self.C) or (r2 > self.tol and a2 > 0.0)):
            return False
        non_bound = np.flatnonzero((self.alphas > 0.0) & (self.alphas < self.C))
        if len(non_bound):
            # second-choice heuristic: maximize |E1 - E2|, first index wins ties
            i1 = int(non_bound[np.argmax(np.abs(self.errors[non_bound] - e2))])
            if self.take_step(i1, i2):
                return True
            for i1 in non_bound:
                if self.take_step(int(i1), i2):
                    return True
        for i1 in range(len(self.y)):
            if self.take_step(i1, i2):
                return True
        return False



def platt_smo_solve(rows: np.ndarray, y_pm: np.ndarray, C: float, gamma: float,
              tol: float, max_passes: int) -> tuple[np.ndarray, float, bool]:
    """Run SMO to KKT-satisfaction within tol.

    Returns (alphas, bias, converged); converged is False only when the
    full-sweep budget ran out with violations still present.
    """
    state = _SmoState(rbf_gram_blas(rows, rows, gamma), y_pm, C, tol)
    examine_all = True
    full_sweeps = 0
    changed = 1
    while changed > 0 or examine_all:
        changed = 0
        if examine_all:
            full_sweeps += 1
            if full_sweeps > max_passes:
                return state.alphas, state.b, False
            for i in range(len(y_pm)):
                changed += state.examine(i)
        else:
            for i in np.flatnonzero((state.alphas > 0.0) & (state.alphas < C)):
                changed += state.examine(int(i))
        if examine_all:
            examine_all = False
        elif changed == 0:
            examine_all = True
    return state.alphas, state.b, True


def svm_dual_objective(kernel, y, alphas):
    """sum(a) - 0.5 (a y)' K (a y): the dual both solvers maximize."""
    ay = alphas * y
    return float(alphas.sum() - 0.5 * ay @ kernel @ ay)
