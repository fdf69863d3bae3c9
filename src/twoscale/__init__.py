"""twoscale: numerics for stochastic parabolic models with oscillating coefficients.

The toolkit simulates distribution-dependent stochastic parabolic equations
whose diffusion coefficient oscillates on a fast scale a(x/eps, t/eps),
solves the associated periodic cell problems to build the effective
constant-coefficient operator, and measures how fast the oscillating
solutions approach the effective one (solution error, corrector-corrected
gradients, two-scale pairings, energy budgets, path increments).
"""
from __future__ import annotations

__version__ = "0.1.0"

from . import (
    cell,
    coefficients,
    config,
    diagnostics,
    ensemble,
    grid,
    integrator,
    manifest,
    models,
    noise,
)
from .errors import (
    ConfigError,
    CountMismatch,
    IntegrityError,
    InternalError,
    NonFinite,
    NotDivergenceFree,
    SolverDiverged,
    StepRejected,
    ToolkitError,
    ValidationError,
)

__all__ = [
    "__version__",
    "grid",
    "coefficients",
    "cell",
    "noise",
    "models",
    "ensemble",
    "integrator",
    "diagnostics",
    "config",
    "manifest",
    "ToolkitError",
    "SolverDiverged",
    "StepRejected",
    "NonFinite",
    "NotDivergenceFree",
    "CountMismatch",
    "ConfigError",
    "ValidationError",
    "IntegrityError",
    "InternalError",
]
