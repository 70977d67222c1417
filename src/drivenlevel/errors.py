"""Shared exception types.

Numerical failures are kept distinct from configuration problems so callers
(and the CLI exit-code mapping) can tell them apart.
"""


class DrivenLevelError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(DrivenLevelError):
    """Invalid or inconsistent run configuration."""


class QuadratureFailure(DrivenLevelError):
    """A quadrature did not converge, or its result broke an invariant."""


class StepTooLarge(DrivenLevelError):
    """Time step violates a solver precondition or failed step-halving check."""


class WindowOutOfRange(DrivenLevelError):
    """Analysis window does not fit inside the trace."""


class GridMismatch(DrivenLevelError):
    """Two traces were expected on the same time grid but differ."""
