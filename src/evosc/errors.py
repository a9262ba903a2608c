"""Exception types shared across the toolkit."""


class EvoscError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(EvoscError):
    """Invalid configuration value (non-positive dimension, bad range, ...)."""


class FormatError(EvoscError):
    """Malformed serialized event data.

    ``offset`` is the byte offset of the first bad byte when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class OrderingError(EvoscError):
    """Event timestamps decreased where a non-decreasing stream is required."""


class BoundsError(EvoscError):
    """Event coordinates fall outside the declared sensor geometry."""


class InsufficientDataError(EvoscError):
    """Too few samples (or zero time span) for the requested operation."""


class NoPeakError(EvoscError):
    """Spectrum has no local maximum above the noise floor."""


class DegenerateFitError(EvoscError):
    """Least-squares design matrix is rank deficient."""


class InconsistentMotionError(EvoscError):
    """The two image axes report incompatible dominant frequencies."""


class NumericalDegeneracyError(EvoscError):
    """A filter update produced a non-positive innovation variance."""


class ResonanceError(EvoscError):
    """Undamped oscillator driven exactly at resonance has no finite response."""


class UnreliableEstimateError(EvoscError):
    """Estimator failed its convergence gate; the result would be meaningless."""


class StageError(EvoscError):
    """Pipeline stage failure, tagged with the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
