"""Exception types raised across the library."""


class RblsError(Exception):
    """Base class for all library errors."""


class InvalidInputError(RblsError, ValueError):
    """Input array contains NaN/Inf or has inconsistent shape."""


class RankDeficientError(RblsError):
    """Design matrix (or a subsample of it) is numerically rank deficient."""


class NotPowerOfTwoError(RblsError, ValueError):
    """Vector length is not a power of two."""


class InvalidCountsError(RblsError, ValueError):
    """Sketch dimensions are out of range."""


class ShapeMismatchError(RblsError, ValueError):
    """Operator and operand shapes do not agree."""


class LeverageOneError(RblsError):
    """Leave-one-out is undefined for a row with leverage ~ 1."""


class DegenerateRangeError(RblsError, ValueError):
    """Pooled histogram range collapses to a single point."""


class InvalidParamsError(RblsError, ValueError):
    """Parameters of a generator, an estimator or its config are out of range."""


class MissingTruthError(RblsError):
    """Operation requires a simulated problem with stored ground truth."""


class MissingCorruptedError(RblsError):
    """Operation requires at least one corrupted row."""


class ParseError(RblsError, ValueError):
    """CSV row failed to parse; carries the offending line number."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


class SchemaError(RblsError, ValueError):
    """CSV header is missing required columns."""

    def __init__(self, message, missing_columns=()):
        super().__init__(message)
        self.missing_columns = list(missing_columns)


class ConfigError(RblsError, ValueError):
    """Experiment configuration is invalid."""
