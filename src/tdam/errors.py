"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: data-shaped problems exit 3,
solver failures exit 4, usage problems exit 2 (argparse handles those).
"""


class TdamError(Exception):
    """Base class for all package-specific errors."""


class DataError(TdamError):
    """Input violates a documented invariant (NaNs, mismatched rows, duplicates)."""


class FormatError(DataError):
    """A binary file does not start with the expected magic/header."""


class TruncatedError(DataError):
    """A binary payload is shorter or longer than its header declares."""


class ParseError(DataError):
    """A text field cannot be parsed into its declared domain."""


class DegenerateError(DataError):
    """The request is well-formed but the data admits no meaningful answer."""


class InsufficientEventsError(DataError):
    """Too few uncensored events for the requested estimator."""


class ShapeError(DataError):
    """Tensor shapes are inconsistent with the model configuration."""


class NonFiniteError(DataError):
    """A computation on finite inputs produced NaN or infinity."""


class UndefinedError(TdamError):
    """The statistic is undefined on this input (e.g. no comparable pairs)."""


class GradError(TdamError):
    """A gradient came back non-finite or failed verification."""


class ConvergenceError(TdamError):
    """An iterative solver failed to converge within its budget."""


class RangeError(TdamError):
    """A covariate lies outside the range a model was built for."""


class EmptyNetworkError(TdamError):
    """Screening produced no edges, so no network can be built."""
