"""twoscale: numerics for stochastic parabolic models with oscillating coefficients.

The toolkit simulates distribution-dependent stochastic parabolic equations
whose diffusion coefficient oscillates on a fast scale a(x/eps, t/eps),
solves the associated periodic cell problems to build the effective
constant-coefficient operator, and measures how fast the oscillating
solutions approach the effective one (solution error, corrector-corrected
gradients, two-scale pairings, energy budgets, path increments).

Importing the package loads none of its modules; import each one by name
(``twoscale.cli``, ``twoscale.errors``, ...).
"""
from __future__ import annotations

__version__ = "0.1.0"
