"""Seeded input corpora for the benchmark workloads.

The program under test sees only the WAV files and the manifest written
here. Clip audio comes from voxscreen's `synth_clip` (16 kHz mono); the
WAV encoding is the benchmark's own, so a change to the program's writer
cannot change the benchmark's inputs.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

MANIFEST_HEADER = "path,label,symptoms,test_delay_days,hospitalized\n"


def pcm16_wav(channels: np.ndarray, sample_rate: int) -> bytes:
    """RIFF/WAVE PCM-16 bytes for float samples in [-1, 1], shape [n, ch]."""
    n, n_ch = channels.shape
    body = np.clip(np.round(channels * 32767.0), -32768, 32767).astype("<i2").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(body), b"WAVE",
        b"fmt ", 16, 1, n_ch, sample_rate, sample_rate * 2 * n_ch, 2 * n_ch, 16,
        b"data", len(body))
    return header + body


def to_48k_stereo(samples: np.ndarray, rate: int) -> np.ndarray:
    """Upsample to 48 kHz and split into two unequal channels.

    The channels differ (the right one is attenuated and delayed by one
    sample) so the program's downmix averages two distinct signals.
    """
    n_out = len(samples) * 48000 // rate
    up = np.interp(np.arange(n_out) * (rate / 48000), np.arange(len(samples)), samples)
    right = 0.8 * np.concatenate([up[:1], up[:-1]])
    return np.stack([up, right], axis=1)


def write_corpus(out_dir: Path, seed: int, n_pos: int, n_neg: int,
                 duration_s: float, stereo_48k: bool) -> dict[str, str]:
    """Write n_pos + n_neg clips and manifest.csv; return name -> sha256."""
    from voxscreen.audio_io import synth_clip

    out_dir.mkdir(parents=True, exist_ok=True)
    digests = {}
    rows = []
    for idx in range(n_pos + n_neg):
        label = 1 if idx < n_pos else 0
        clip = synth_clip(label, seed * 100_003 + idx, duration_s)
        if stereo_48k:
            data = pcm16_wav(to_48k_stereo(clip.samples, clip.sample_rate), 48000)
        else:
            data = pcm16_wav(clip.samples[:, None], clip.sample_rate)
        name = f"clip_{idx:04d}.wav"
        (out_dir / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
        rows.append(f"{name},{label},,,\n")
    manifest = MANIFEST_HEADER + "".join(rows)
    (out_dir / "manifest.csv").write_text(manifest)
    digests["manifest.csv"] = hashlib.sha256(manifest.encode()).hexdigest()
    return digests
