"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: check failures (and
non-finite values) exit 1, configuration problems exit 2, data/I-O
problems exit 3.
"""

import contextlib


class QuadEnhanceError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(QuadEnhanceError, ValueError):
    """Tensor shapes (or dtypes) are incompatible with an operation."""


class UsageError(QuadEnhanceError, RuntimeError):
    """An API was driven incorrectly, e.g. mixing variables across tapes."""


class NumericError(QuadEnhanceError, ArithmeticError):
    """A non-finite value appeared where the contract requires finite ones."""


class ConfigError(QuadEnhanceError, ValueError):
    """A run configuration is invalid (unknown keys, bad values)."""


class DataError(QuadEnhanceError, ValueError):
    """A data file is malformed, truncated, or internally inconsistent."""


class CheckpointError(DataError):
    """A checkpoint failed validation on load, or cannot be written as QEN1."""


class ChecksumError(CheckpointError):
    """Stored checksum does not match the file contents."""


@contextlib.contextmanager
def prefixed(where: str, kind: type[QuadEnhanceError]):
    """A ``kind`` error raised inside comes out as the same type, its message
    prefixed with ``where: `` (a config section, or a place in a run)."""
    try:
        yield
    except kind as exc:
        raise type(exc)(f"{where}: {exc}") from None
