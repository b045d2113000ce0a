"""Exception hierarchy. Configuration mistakes and numeric degeneracies are
kept apart so the command line can map them to distinct exit codes."""


class QBranchError(Exception):
    """Base class for all library errors."""


class ConfigError(QBranchError):
    """Invalid user-supplied configuration (bad ranges, unknown keys)."""


class SpecError(ConfigError):
    """Invalid curve specification (Q < 2, p <= Q, h(0) != 0, ...)."""


class DimensionError(QBranchError):
    """Operands with mismatched multiplicity or ambient dimension."""


class NumericError(QBranchError):
    """Base class for degeneracies detected during computation."""


class RangeError(NumericError):
    """Requested radius or point falls outside the sampled grid."""


class TrackingError(NumericError):
    """Sheet matching along a path is ambiguous at some sample."""

    def __init__(self, message, sample_index=None):
        super().__init__(message)
        self.sample_index = sample_index


class RefinementError(NumericError):
    """Grid too coarse to track sheets between angular samples."""


class DegenerateBlowupError(NumericError):
    """Blow-up normalizer vanished, the rescaled limit would be trivial."""


class TiltError(NumericError):
    """Plane tilt too large for a graphical reparametrization."""


class DataError(NumericError):
    """Not enough valid data to carry out the requested estimate."""
