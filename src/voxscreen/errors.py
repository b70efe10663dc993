"""Typed error hierarchy shared by all voxscreen modules.

Every recoverable failure raises a subclass of VoxscreenError so callers
(and the CLI) can distinguish toolkit failures from programming bugs.
"""

from __future__ import annotations


class VoxscreenError(Exception):
    """Base class for all toolkit errors."""


# --- audio decoding / generation ---

class MalformedHeaderError(VoxscreenError):
    """WAV container is structurally broken (missing RIFF/WAVE/fmt/data)."""


class UnsupportedEncodingError(VoxscreenError):
    """WAV uses a codec, bit depth or channel layout we do not decode."""


class EmptyDataError(VoxscreenError):
    """WAV data chunk, or a feature matrix to store, holds zero samples."""


class DegenerateInputError(VoxscreenError):
    """Input too short, too long or otherwise outside the operation's range."""


# --- DSP ---

class DomainError(VoxscreenError):
    """Argument outside the mathematical domain (e.g. negative frequency)."""


class InfeasibleBankError(VoxscreenError):
    """Mel filterbank cannot be built at the requested FFT resolution."""


# --- learners ---

class DimensionMismatchError(VoxscreenError):
    """Vector dimensions disagree."""


class ShapeMismatchError(VoxscreenError):
    """Parameter / gradient tensor shapes disagree."""


class SingleClassDataError(VoxscreenError):
    """Training data contains only one class."""


class NonFiniteGradientError(VoxscreenError):
    """A gradient contained NaN or infinity."""


class NonFiniteLossError(VoxscreenError):
    """Training loss diverged to NaN or infinity."""


class FeatureKindMismatchError(VoxscreenError):
    """Features handed to a model do not match its preprocessing recipe."""


class EmptySequenceError(VoxscreenError):
    """A sequence model received a zero-length input."""


# --- evaluation ---

class InsufficientClassCountError(VoxscreenError):
    """A class has fewer examples than the number of folds."""


class LengthMismatchError(VoxscreenError):
    """Score and label sequences differ in length."""


class EmptyEvaluationError(VoxscreenError):
    """Confusion counts sum to zero."""


class WorkerDiedError(VoxscreenError):
    """A forked worker process, training cross-validation folds or extracting
    clips, died before it returned a result (killed by a signal, or out of
    memory)."""


class ConfigError(VoxscreenError):
    """Run configuration is inconsistent or names an unknown recipe."""


# --- stored files ---

class CorruptFileError(VoxscreenError):
    """A stored file (VXF1, an extract's index.csv) has a bad magic, an
    unknown tag or a short, empty or garbled payload."""


# --- manifests ---

class ManifestError(VoxscreenError):
    """Base class for manifest parsing failures; carries file position."""

    def __init__(self, message: str, line: int | None = None, column: str | None = None):
        pos = ""
        if line is not None:
            pos = f" (line {line}" + (f", column {column!r})" if column else ")")
        super().__init__(message + pos)
        self.line = line
        self.column = column


class HeaderMismatchError(ManifestError):
    """Manifest header row does not match the required schema."""


class BadLabelError(ManifestError):
    """Label cell is not 0 or 1."""


class UnknownSymptomTagError(ManifestError):
    """Symptom cell contains a tag outside the closed vocabulary."""


class BadDelayError(ManifestError):
    """test_delay_days cell is negative or not an integer."""


class MissingDelayMetadataWarning(UserWarning):
    """Positives lacking delay metadata were dropped by a delay filter."""
