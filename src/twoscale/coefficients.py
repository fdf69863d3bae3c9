"""Periodic oscillating diffusion coefficients a(y, tau) and their scaling.

Every family in v1 is diagonal-scalar, a(y, tau) = s(y, tau) * I, with s
1-periodic in each fast variable. The fast arguments are always reduced to
the unit torus before evaluation, so callers may pass x/eps and t/eps
directly. A field checks its own parameters when it is built and derives
its ellipticity constant ``kappa``, the sharp lower bound of s (for the
checkerboard, the bound over every width); a field whose bound is not
positive is rejected, so every field that exists is uniformly elliptic.

Families:
    constant        s = c
    layered         s = alpha + beta * sin(2 pi y_1)
    separable_trig  s = (alpha + beta * sin(2 pi y_1)) * (gamma + delta * cos(2 pi tau))
    checkerboard    two-valued on half-period blocks, mollified over width w
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ValidationError

__all__ = [
    "CoefficientField",
    "make_coefficient",
    "FAMILIES",
]

# family -> its parameters, with the defaults make_coefficient fills in
FAMILIES = {
    "constant": {"value": 1.0},
    "layered": {"alpha": 2.0, "beta": 1.0},
    "separable_trig": {"alpha": 2.0, "beta": 1.0, "gamma": 2.0, "delta": 1.0},
    "checkerboard": {"low": 1.0, "high": 3.0, "width": 0.05},
}


def _frac(z):
    """Reduce to the unit torus [0,1)."""
    return np.asarray(z, dtype=float) % 1.0


def _mollified_square(y: np.ndarray, width: float) -> np.ndarray:
    """Smooth periodic switch: ~1 on (0, 1/2), ~0 on (1/2, 1).

    tanh(sin(2 pi y)/(pi w)) transitions over an O(w) neighbourhood of the
    jump locations y = 0 and y = 1/2 and is C^inf, which keeps the
    finite-difference consistency order of downstream operators.
    """
    return 0.5 * (1.0 + np.tanh(np.sin(2.0 * np.pi * y) / (np.pi * width)))


@dataclass(frozen=True)
class CoefficientField:
    """A uniformly elliptic diagonal-scalar coefficient a = s(y, tau) * I.

    Attributes:
        family: one of :data:`FAMILIES`.
        dimension: spatial dimension of y (1 or 2).
        params: exactly the family's parameters (see module docstring).
        kappa: derived sharp lower bound of s, always positive.
    """

    family: str
    dimension: int
    params: Mapping[str, float] = field(default_factory=dict)
    kappa: float = field(init=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}",
                                  field="family")
        if self.dimension not in (1, 2):
            raise ValidationError("dimension must be 1 or 2",
                                  field="dimension")
        params = {k: float(v) for k, v in self.params.items()}
        if set(params) != set(FAMILIES[self.family]):
            raise ValidationError(
                f"{self.family} takes the parameters "
                f"{sorted(FAMILIES[self.family])}, got {sorted(params)}")
        if self.family == "checkerboard" and not params["width"] > 0:
            raise ValidationError("checkerboard width must be positive",
                                  field="width")
        kappa = _sharp_bound(self.family, params)
        # the rule spans several parameters, so the error names none
        if not kappa > 0:
            raise ValidationError(
                f"{self.family} with these parameters is not uniformly "
                f"elliptic (sharp bound {kappa})")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "kappa", kappa)

    @property
    def time_dependent(self) -> bool:
        return self.family == "separable_trig"

    def scalar(self, y, tau=0.0) -> np.ndarray:
        """Evaluate s at torus-reduced fast variables.

        ``y`` holds N broadcastable coordinate arrays, one per axis, as
        :func:`fast_axes` reads them. Returns an array shaped by
        broadcasting.
        """
        y = fast_axes(y, self.dimension)
        tau = _frac(tau)
        p = self.params
        if self.family == "constant":
            shape = np.broadcast_shapes(*(np.shape(c) for c in y))
            base = np.broadcast_to(p["value"], shape).astype(float)
            return base if base.shape else float(p["value"])
        y1 = _frac(y[0])
        if self.family == "layered":
            return p["alpha"] + p["beta"] * np.sin(2.0 * np.pi * y1)
        if self.family == "separable_trig":
            space = p["alpha"] + p["beta"] * np.sin(2.0 * np.pi * y1)
            time = p["gamma"] + p["delta"] * np.cos(2.0 * np.pi * tau)
            return space * time
        # checkerboard: high where the blocks of all axes agree in parity
        lo, hi, w = p["low"], p["high"], p["width"]
        same = _mollified_square(y1, w)
        for c in y[1:]:
            b = _mollified_square(_frac(c), w)
            same = same * b + (1.0 - same) * (1.0 - b)
        return lo + (hi - lo) * same

    def scalar_scaled(self, x, t: float, eps: float) -> np.ndarray:
        """Scalar factor s(x/eps, t/eps), fast arguments on the torus;
        ``x`` is laid out as :meth:`scalar` takes ``y``."""
        if not eps > 0:
            raise ValueError(f"eps must be positive, got {eps}")
        y = tuple(np.asarray(c, dtype=float) / eps
                  for c in fast_axes(x, self.dimension))
        return np.asarray(self.scalar(y, float(t) / eps), dtype=float)


def fast_axes(y, dimension: int) -> tuple:
    """Coordinates as a tuple of one array per axis. A tuple or a list (as
    ``np.meshgrid`` returns) holds one already, and in 1D a bare array is
    the only axis; in 2D an array is split along its leading axis."""
    axes = tuple(y) if isinstance(y, (tuple, list)) or dimension > 1 else (y,)
    if len(axes) != dimension:
        raise ValueError(f"{len(axes)} coordinate arrays for {dimension}D")
    return axes


def _sharp_bound(family: str, p: Mapping[str, float]) -> float:
    """Minimum of s over the torus; for the checkerboard, its infimum over
    the mollification width, min(low, high)."""
    if family == "constant":
        return p["value"]
    if family == "checkerboard":
        return min(p["low"], p["high"])
    space = (p["alpha"] - abs(p["beta"]), p["alpha"] + abs(p["beta"]))
    if family == "layered":
        return space[0]
    # y and tau vary independently, so the product of the two factors
    # ranges over the products of their ranges' ends
    time = (p["gamma"] - abs(p["delta"]), p["gamma"] + abs(p["delta"]))
    return min(a * b for a in space for b in time)


def make_coefficient(family: str, dimension: int,
                     **params: float) -> CoefficientField:
    """Build a coefficient field, the family's defaults filling in the
    parameters not given; the field checks the result."""
    return CoefficientField(family=family, dimension=dimension,
                            params={**FAMILIES.get(family, {}), **params})
