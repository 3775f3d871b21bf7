"""Error hierarchy; exit codes for the command line live on the classes."""
from __future__ import annotations


class EquimorseError(Exception):
    """Base class; exit_code drives the CLI's process exit status."""

    exit_code = 1


class ValidationError(EquimorseError):
    """Input violates a documented precondition or invariant."""

    exit_code = 2


class ShapeError(ValidationError):
    """Matrix or complex shapes are inconsistent."""


class ConfigurationError(ValidationError):
    """A required field (for example an action) is missing."""


class DomainError(ValidationError):
    """Evaluation left the trust region or domain of definition."""


class IsolationError(ValidationError):
    """The critical point is not isolated in the working ball."""


class ParameterError(ValidationError):
    """Pair or perturbation parameters out of their admissible range."""


class DegeneracyError(ValidationError):
    """A quadratic form that must be nondegenerate is not."""


class MorseSmaleError(ValidationError):
    """A saddle-to-saddle connection was detected; the flow is not Morse-Smale."""


class AmbiguityError(ValidationError):
    """An eigenvalue sits too close to a decision boundary to classify."""


class ResolutionError(EquimorseError):
    """Sampling or refinement too coarse for a reliable answer."""

    exit_code = 3


class StiffnessError(ResolutionError):
    """ODE step-size underflow."""


class BoundaryError(ResolutionError):
    """A trajectory ran out of budget without converging or exiting cleanly."""


class TrustRegionError(ResolutionError):
    """Newton or quadrature failed to converge inside the trust region."""


class UsageError(EquimorseError):
    """Malformed command-line invocation."""

    exit_code = 64
