"""Exception hierarchy shared by every module.

All toolkit errors derive from :class:`ToolkitError` so callers (and the CLI
exit-code mapping) can distinguish our failures from genuine bugs.
"""
from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all toolkit failures."""


class SolverDiverged(ToolkitError):
    """A CG solve ran out of iterations or lost definiteness, or an
    implicit operator is not positive definite."""

    def __init__(self, message: str, iterations: int | None = None,
                 residual: float | None = None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class StepRejected(ToolkitError):
    """The stability guard refused a time step."""

    def __init__(self, message: str, guard_value: float | None = None,
                 step: int | None = None):
        super().__init__(message)
        self.guard_value = guard_value
        self.step = step


class NonFinite(ToolkitError):
    """A state field picked up a NaN or Inf entry."""

    def __init__(self, message: str, step: int | None = None,
                 time: float | None = None, member: int | None = None):
        super().__init__(message)
        self.step = step
        self.time = time
        self.member = member


class NotDivergenceFree(ToolkitError):
    """A velocity field handed to the advection operator was not solenoidal."""

    def __init__(self, message: str, divergence_norm: float | None = None):
        super().__init__(message)
        self.divergence_norm = divergence_norm


class CountMismatch(ToolkitError):
    """Two sample vectors that must have equal length did not."""


class ConfigError(ToolkitError):
    """A run configuration failed to parse."""

    def __init__(self, message: str, line: int | None = None,
                 field: str | None = None):
        super().__init__(message)
        self.line = line
        self.field = field


class ValidationError(ConfigError, ValueError):
    """A value broke a rule of the constructor that owns it; ``field`` names
    the parameter, or the dotted config key once the parser located it."""


class InternalError(ToolkitError):
    """A failure no other toolkit class describes: a bug in the toolkit.

    The CLI reports a bare ``ValueError`` that escapes a run as this class,
    with exit code 5, instead of passing it off as a solver failure.
    """


class IntegrityError(ToolkitError):
    """A run archive is missing files or has digest mismatches."""

    def __init__(self, message: str, digest: str | None = None,
                 path: str | None = None):
        super().__init__(message)
        self.digest = digest
        self.path = path
