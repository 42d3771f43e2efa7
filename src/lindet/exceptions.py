"""Exception types shared across the package."""


class LindetError(Exception):
    """Base class for all library-specific errors."""


class DimensionError(LindetError, ValueError):
    """Input has the wrong shape, length, or parity."""


class DegenerateInputError(LindetError, ValueError):
    """Input is degenerate for the requested operation (e.g. all-zero matrix)."""


class SingularMatrixError(LindetError, ValueError):
    """Matrix is numerically singular relative to the working precision.

    Carries the offending extreme singular values so callers can report
    how close to singular the input actually was.
    """

    def __init__(self, message, sigma_min=None, sigma_max=None):
        super().__init__(message)
        self.sigma_min = sigma_min
        self.sigma_max = sigma_max


class SamplingExhaustedError(LindetError, RuntimeError):
    """Rejection sampling hit its attempt budget before accepting a draw."""

    def __init__(self, message, attempts=None):
        super().__init__(message)
        self.attempts = attempts
