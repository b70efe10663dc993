"""Manifest parsing, cohort arithmetic, synthetic corpus generation."""

import numpy as np
import pytest

from voxscreen.audio_io import load_wav
from voxscreen.datasets import (
    LabeledExample,
    apply_cohort,
    generate_synthetic_corpus,
    parse_manifest,
    serialize_manifest,
)
from voxscreen.errors import (
    BadDelayError,
    BadLabelError,
    ConfigError,
    HeaderMismatchError,
    MissingDelayMetadataWarning,
    UnknownSymptomTagError,
)

HEADER = "path,label,symptoms,test_delay_days,hospitalized\n"


class TestParseManifest:
    def test_full_row(self):
        rows = parse_manifest(HEADER + "a.wav,1,dry_cough;fever,10,false\n")
        ex = rows[0]
        assert ex.clip_path == "a.wav"
        assert ex.label == 1
        assert ex.symptoms == {"dry_cough", "fever"}
        assert ex.test_delay_days == 10
        assert ex.hospitalized is False

    def test_empty_cells_mean_absent(self):
        ex = parse_manifest(HEADER + "b.wav,0,,,\n")[0]
        assert ex.label == 0
        assert ex.symptoms == frozenset()
        assert ex.test_delay_days is None
        assert ex.hospitalized is None

    def test_bad_label_carries_line_number(self):
        text = HEADER + "a.wav,0,,,\nb.wav,1,,,\nc.wav,2,,,\n"
        with pytest.raises(BadLabelError) as err:
            parse_manifest(text)
        assert err.value.line == 4

    def test_unknown_symptom(self):
        with pytest.raises(UnknownSymptomTagError):
            parse_manifest(HEADER + "a.wav,0,sneezing,,\n")

    def test_bad_delay(self):
        with pytest.raises(BadDelayError):
            parse_manifest(HEADER + "a.wav,1,,-3,\n")
        with pytest.raises(BadDelayError):
            parse_manifest(HEADER + "a.wav,1,,soon,\n")

    def test_header_mismatch(self):
        with pytest.raises(HeaderMismatchError):
            parse_manifest("file,y\na.wav,1\n")

    def test_roundtrip(self):
        examples = [
            LabeledExample("x.wav", 1, frozenset({"fever", "headache"}), 4, True),
            LabeledExample("y.wav", 0, frozenset({"none"}), None, None),
            LabeledExample("z.wav", 0, frozenset(), None, False),
        ]
        assert parse_manifest(serialize_manifest(examples)) == examples


def paper_shaped_examples():
    """308 positives (141 within 14 days) and 585 negatives (216 with
    at least one cold symptom): the cohort arithmetic of the write-up."""
    examples = []
    for i in range(308):
        delay = 7 if i < 141 else 20
        examples.append(LabeledExample(f"p{i}.wav", 1, frozenset({"fever"}), delay))
    for i in range(585):
        tags = frozenset({"dry_cough"}) if i < 216 else frozenset({"headache"})
        examples.append(LabeledExample(f"n{i}.wav", 0, tags, None))
    return examples


class TestApplyCohort:
    def test_all_is_identity(self):
        examples = paper_shaped_examples()
        assert apply_cohort(examples, "all") == examples

    def test_delay_filter_keeps_141_positives(self):
        kept = apply_cohort(paper_shaped_examples(), "positives_within_days:14")
        assert sum(e.label for e in kept) == 141
        assert sum(1 - e.label for e in kept) == 585

    def test_cold_symptom_cohort_is_524(self):
        kept = apply_cohort(paper_shaped_examples(), "covid_vs_cold_symptomatic")
        assert len(kept) == 308 + 216
        assert sum(e.label for e in kept) == 308

    def test_missing_delay_warns_and_drops(self):
        examples = [LabeledExample("a.wav", 1, frozenset(), None),
                    LabeledExample("b.wav", 0, frozenset(), None)]
        with pytest.warns(MissingDelayMetadataWarning):
            kept = apply_cohort(examples, "positives_within_days:14")
        assert [e.clip_path for e in kept] == ["b.wav"]

    def test_fields_unchanged_and_order_preserved(self):
        examples = paper_shaped_examples()
        kept = apply_cohort(examples, "covid_vs_cold_symptomatic")
        positions = {id(e): i for i, e in enumerate(examples)}
        assert all(e in examples for e in kept)
        kept_pos = [positions[id(e)] for e in kept]
        assert kept_pos == sorted(kept_pos)

    def test_filter_validation(self):
        for cohort in ("positives_within_days:0", "positives_within_days:x", "bogus"):
            with pytest.raises(ConfigError):
                apply_cohort(paper_shaped_examples(), cohort)


@pytest.mark.parametrize("cohort,want", [
    ("all", None),  # a new list equal to its input
    ("positives_within_days", "positives_within_days:14"),  # DELAY_CUTOFF_DAYS
    ("positives_within_days:0", ConfigError),
    ("positives_within_days:-1", ConfigError),
    ("positives_within_days:x", ConfigError),
    ("everyone", ConfigError),
])
def test_cohort_grammar(cohort, want):
    """apply_cohort reads every cohort flag: want is the flag that keeps the
    same rows, or ConfigError, whose message names the flag."""
    examples = paper_shaped_examples() + [  # at the 14-day cutoff and one day past it
        LabeledExample("d14.wav", 1, frozenset(), 14),
        LabeledExample("d15.wav", 1, frozenset(), 15)]
    if want is ConfigError:
        with pytest.raises(ConfigError, match=cohort):
            apply_cohort(examples, cohort)
        return
    kept = apply_cohort(examples, cohort)
    if want is None:
        assert kept == examples and kept is not examples
    else:
        assert kept == apply_cohort(examples, want)


class TestSyntheticCorpus:
    def test_counts_and_labels(self, tmp_path):
        text = generate_synthetic_corpus(10, 10, seed=1, out_dir=tmp_path,
                                         duration_s=0.5)
        examples = parse_manifest(text)
        assert len(examples) == 20
        assert sum(e.label for e in examples) == 10
        wavs = sorted(tmp_path.glob("*.wav"))
        assert len(wavs) == 20
        clip = load_wav(wavs[0].read_bytes())
        assert clip.sample_rate == 16000

    def test_deterministic_bytes(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        text_a = generate_synthetic_corpus(4, 4, seed=9, out_dir=a_dir,
                                           duration_s=0.5)
        text_b = generate_synthetic_corpus(4, 4, seed=9, out_dir=b_dir,
                                           duration_s=0.5)
        assert text_a == text_b
        for wav_a in sorted(a_dir.glob("*.wav")):
            wav_b = b_dir / wav_a.name
            assert wav_a.read_bytes() == wav_b.read_bytes()

    def test_cold_filter_exercisable(self, tmp_path):
        text = generate_synthetic_corpus(30, 30, seed=3, out_dir=tmp_path,
                                         duration_s=0.5)
        examples = parse_manifest(text)
        kept = apply_cohort(examples, "covid_vs_cold_symptomatic")
        assert sum(e.label for e in kept) == 30  # all positives survive
        symptomatic_neg = len(kept) - 30
        assert 0 < symptomatic_neg < 30

    def test_rejects_empty_class(self, tmp_path):
        with pytest.raises(ValueError):
            generate_synthetic_corpus(0, 5, seed=1, out_dir=tmp_path)
