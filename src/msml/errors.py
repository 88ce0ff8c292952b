"""Exception types shared across the package."""


class MsmlError(Exception):
    """Base class for all package errors."""


class DimensionError(MsmlError, ValueError):
    """Shapes of two arrays are incompatible for the requested operation."""

    @classmethod
    def mismatch(cls, what, got, expected):
        return cls(f"{what}: got shape {tuple(got)}, expected {tuple(expected)}")


class ConfigError(MsmlError, ValueError):
    """A configuration (backbone, generator spec, experiment) is inconsistent."""


class DataError(MsmlError, ValueError):
    """A dataset or split cannot be used as requested."""


class FormatError(MsmlError, ValueError):
    """An on-disk artifact is corrupt. Carries the byte offset where parsing failed."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class UndefinedMetricError(MsmlError, ValueError):
    """A metric is undefined for the given data (a single-class column, a non-finite score)."""


class NumericalError(MsmlError, ArithmeticError):
    """Training produced a non-finite loss or parameter. Carries epoch and step indices."""

    def __init__(self, message, epoch=None, step=None):
        super().__init__(message)
        self.epoch = epoch
        self.step = step
