"""Exception hierarchy for the bubblescreen package.

Config/usage problems exit the CLI with code 2, numerical/solver
failures with code 3.
"""


class BubblescreenError(Exception):
    """Base class for all package errors."""


class ConfigError(BubblescreenError):
    """Invalid configuration, parameters, or usage."""


class ParameterError(ConfigError):
    """Nonpositive or otherwise inadmissible physical parameter."""


class UsageError(ConfigError):
    """Operation called with inconsistent arguments."""


class GeometryError(BubblescreenError):
    """Invalid cluster geometry (coincident centers, centers off the surface)."""


class ResolutionError(ConfigError):
    """Patch spacing too coarse for the requested surface or bubble count."""


class SolverError(BubblescreenError):
    """Numerical failure inside a solver."""


class AccuracyError(SolverError):
    """Quadrature or extraction failed to converge to the requested tolerance."""


class DivergenceError(SolverError):
    """Time stepping produced non-finite values."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"time stepping diverged at step {step}")


class SolvabilityError(SolverError):
    """A solvability condition of the model is violated."""


class EvaluationPointError(UsageError):
    """Field evaluation requested too close to a scatterer or to the surface."""
