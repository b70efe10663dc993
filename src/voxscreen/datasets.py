"""Manifest ingestion, cohort filters and the synthetic corpus generator.

The manifest is a small CSV (path,label,symptoms,test_delay_days,
hospitalized) chosen so external metadata, Coswara's included, can be
hand-converted; the toolkit itself is dataset-agnostic.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import save_wav, synth_clip
from .errors import (
    BadDelayError,
    BadLabelError,
    ConfigError,
    HeaderMismatchError,
    ManifestError,
    MissingDelayMetadataWarning,
    UnknownSymptomTagError,
)

MANIFEST_HEADER = ["path", "label", "symptoms", "test_delay_days", "hospitalized"]

SYMPTOM_VOCABULARY = frozenset({
    "dry_cough", "wet_cough", "fever", "sore_throat", "smell_taste_loss",
    "short_breath", "muscle_ache", "headache", "none",
})

# the four tags that define the cold-symptomatic negative cohort
COLD_SYMPTOMS = frozenset({"dry_cough", "wet_cough", "fever", "sore_throat"})

DELAY_CUTOFF_DAYS = 14


@dataclass(frozen=True)
class LabeledExample:
    clip_path: str
    label: int  # 0 negative, 1 positive
    symptoms: frozenset[str] = frozenset()
    test_delay_days: int | None = None
    hospitalized: bool | None = None


def parse_manifest(text: str) -> list[LabeledExample]:
    """Parse manifest CSV; errors carry the offending line and column."""
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows or rows[0] != MANIFEST_HEADER:
        raise HeaderMismatchError(
            f"expected header {','.join(MANIFEST_HEADER)}", line=1)
    examples = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or row == [""]:
            continue
        if len(row) != len(MANIFEST_HEADER):
            raise HeaderMismatchError(
                f"expected {len(MANIFEST_HEADER)} cells, got {len(row)}", line=lineno)
        path, label_s, symptoms_s, delay_s, hosp_s = (c.strip() for c in row)
        if label_s not in ("0", "1"):
            raise BadLabelError(f"label must be 0 or 1, got {label_s!r}",
                                line=lineno, column="label")
        symptoms = set()
        if symptoms_s:
            for tag in symptoms_s.split(";"):
                tag = tag.strip()
                if tag not in SYMPTOM_VOCABULARY:
                    raise UnknownSymptomTagError(f"unknown symptom tag {tag!r}",
                                                 line=lineno, column="symptoms")
                symptoms.add(tag)
        delay = None
        if delay_s:
            try:
                delay = int(delay_s)
            except ValueError:
                raise BadDelayError(f"delay must be an integer, got {delay_s!r}",
                                    line=lineno, column="test_delay_days") from None
            if delay < 0:
                raise BadDelayError(f"delay must be non-negative, got {delay}",
                                    line=lineno, column="test_delay_days")
        hospitalized = None
        if hosp_s:
            low = hosp_s.lower()
            if low in ("true", "1", "yes"):
                hospitalized = True
            elif low in ("false", "0", "no"):
                hospitalized = False
            else:
                raise ManifestError(f"hospitalized must be boolean, got {hosp_s!r}",
                                    line=lineno, column="hospitalized")
        examples.append(LabeledExample(
            clip_path=path, label=int(label_s), symptoms=frozenset(symptoms),
            test_delay_days=delay, hospitalized=hospitalized))
    return examples


def serialize_manifest(examples: list[LabeledExample]) -> str:
    """Inverse of parse_manifest on valid example lists."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(MANIFEST_HEADER)
    for ex in examples:
        writer.writerow([
            ex.clip_path,
            ex.label,
            ";".join(sorted(ex.symptoms)),
            "" if ex.test_delay_days is None else ex.test_delay_days,
            "" if ex.hospitalized is None else str(ex.hospitalized).lower(),
        ])
    return out.getvalue()


def apply_cohort(examples: list[LabeledExample], cohort: str) -> list[LabeledExample]:
    """The rows in cohort all | positives_within_days[:N] (N defaults to
    DELAY_CUTOFF_DAYS) | covid_vs_cold_symptomatic, unmodified, in order."""
    if cohort == "all":
        return list(examples)
    if cohort == "covid_vs_cold_symptomatic":
        return [ex for ex in examples
                if ex.label == 1 or (ex.symptoms & COLD_SYMPTOMS)]
    kind, _, arg = cohort.partition(":")
    if kind != "positives_within_days":
        raise ConfigError(f"unknown cohort {cohort!r}")
    try:
        days = int(arg or DELAY_CUTOFF_DAYS)
    except ValueError:
        days = 0
    if days <= 0:
        raise ConfigError(f"cohort {cohort!r} needs a whole number of days > 0")
    kept = [ex for ex in examples if ex.label == 0
            or (ex.test_delay_days is not None and ex.test_delay_days <= days)]
    dropped = sum(ex.label != 0 and ex.test_delay_days is None for ex in examples)
    if dropped:
        warnings.warn(
            f"{dropped} positive rows lack delay metadata and were excluded",
            MissingDelayMetadataWarning)
    return kept


def generate_synthetic_corpus(n_pos: int, n_neg: int, seed: int, out_dir,
                              duration_s: float = 2.0) -> str:
    """Write n_pos + n_neg synthetic WAVs plus their manifest.

    Deterministic per seed, including the metadata draws: negatives get
    random symptom tags (so the cold-symptom cohort is exercisable) and
    positives random delays (so the delay cohort is exercisable).
    Returns the manifest text, which is also written to manifest.csv.
    """
    if n_pos < 1 or n_neg < 1:
        raise ValueError("need at least one example per class")
    out_dir = Path(out_dir)
    meta_rng = np.random.default_rng([seed & 0xFFFFFFFF, 0xC0])
    examples = []
    pool = sorted(SYMPTOM_VOCABULARY - {"none"})
    for idx in range(n_pos + n_neg):
        label = 1 if idx < n_pos else 0
        clip = synth_clip(label, seed * 1_000_003 + idx, duration_s)
        out_dir.mkdir(parents=True, exist_ok=True)  # after a clip: a refused run leaves none
        name = f"clip_{idx:04d}_{'pos' if label else 'neg'}.wav"
        (out_dir / name).write_bytes(save_wav(clip))
        if label == 1:
            delay = int(meta_rng.integers(0, 29))
            symptoms = frozenset(meta_rng.choice(pool, size=2, replace=False))
            examples.append(LabeledExample(name, 1, symptoms, delay, None))
        else:
            # roughly a third of negatives report cold-like symptoms
            if meta_rng.random() < 0.35:
                symptoms = frozenset({str(meta_rng.choice(sorted(COLD_SYMPTOMS)))})
            else:
                symptoms = frozenset({"none"}) if meta_rng.random() < 0.5 else frozenset()
            examples.append(LabeledExample(name, 0, symptoms, None, None))
    text = serialize_manifest(examples)
    (out_dir / "manifest.csv").write_text(text)
    return text
