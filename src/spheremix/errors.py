"""Exception types shared across the toolkit.

Data problems raise subclasses of SphereMixError; the CLI maps these to
exit code 1 (usage mistakes are left to argparse, exit code 2).
"""


class SphereMixError(Exception):
    """Base class for all toolkit errors."""


class ZeroVectorError(SphereMixError):
    """A vector with (near-)zero norm where a direction is required."""


class DimensionMismatchError(SphereMixError):
    """Operands disagree on dimensionality or shape."""


class SizeMismatchError(SphereMixError):
    """Parallel collections disagree on length."""


class TooFewPointsError(SphereMixError):
    """Fewer data points than clusters requested."""


class SingleClassError(SphereMixError):
    """A labelling with fewer than two distinct classes where more are needed."""


class EmptySetError(SphereMixError):
    """An empty collection where at least one element is required."""


class DivergedError(SphereMixError):
    """Training produced a non-finite loss, weight or bias."""


class MissingDocumentError(SphereMixError):
    """A selected index has no corresponding document text."""


class BadMagicError(SphereMixError):
    """A binary file does not start with the expected magic string."""


class TruncatedPayloadError(SphereMixError):
    """A binary file ends before its header-declared payload does."""


class NormFlagViolationError(SphereMixError):
    """An embedding file claims unit rows but contains non-unit rows."""


class MalformedFileError(SphereMixError):
    """A file holds what its format forbids: unparsable text, missing or
    wrongly typed fields, or non-finite values."""
