"""Periodic oscillating diffusion coefficients a(y, tau) and their scaling.

Every family in v1 is diagonal-scalar, a(y, tau) = s(y, tau) * I, with s
1-periodic in each fast variable. The fast arguments are always reduced to
the unit torus before evaluation, so callers may pass x/eps and t/eps
directly. Ellipticity is declared per instance and can be audited against
dense sampling with :func:`verify_ellipticity`.

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

from .errors import EllipticityViolation, ValidationError

__all__ = [
    "CoefficientField",
    "make_coefficient",
    "verify_ellipticity",
    "FAMILIES",
]

# family -> its parameters, with the defaults make_coefficient fills in
FAMILIES = {
    "constant": {"value": 1.0},
    "layered": {"alpha": 2.0, "beta": 1.0},
    "separable_trig": {"alpha": 2.0, "beta": 1.0, "gamma": 2.0, "delta": 1.0},
    "checkerboard": {"low": 1.0, "high": 4.0, "width": 1.0 / 16.0},
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
    """A diagonal-scalar coefficient a = s(y, tau) * I with declared ellipticity.

    Attributes:
        family: one of :data:`FAMILIES`.
        dimension: spatial dimension of y (1 or 2).
        kappa: declared ellipticity constant, must be positive.
        params: family parameters (see module docstring).
    """

    family: str
    dimension: int
    kappa: float
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}",
                                  field="family")
        if self.dimension not in (1, 2):
            raise ValidationError("dimension must be 1 or 2",
                                  field="dimension")
        if not (self.kappa > 0):
            raise ValidationError("declared ellipticity must be positive",
                                  field="kappa")
        object.__setattr__(self, "params", dict(self.params))

    @property
    def time_dependent(self) -> bool:
        return self.family == "separable_trig"

    # -- scalar factor ------------------------------------------------------

    def scalar(self, y, tau=0.0) -> np.ndarray:
        """Evaluate s at torus-reduced fast variables.

        ``y`` is a single coordinate array in 1D or a length-N sequence of
        broadcastable coordinate arrays in 2D. Returns an array shaped by
        broadcasting.
        """
        if self.dimension == 1:
            y1 = _frac(y)
            y2 = None
        else:
            y1 = _frac(y[0])
            y2 = _frac(y[1])
        tau = _frac(tau)
        p = self.params
        if self.family == "constant":
            base = np.broadcast_to(p["value"], np.shape(y1)).astype(float)
            return base.copy() if base.shape else float(p["value"])
        if self.family == "layered":
            return p["alpha"] + p["beta"] * np.sin(2.0 * np.pi * y1)
        if self.family == "separable_trig":
            space = p["alpha"] + p["beta"] * np.sin(2.0 * np.pi * y1)
            time = p["gamma"] + p["delta"] * np.cos(2.0 * np.pi * tau)
            return space * time
        # checkerboard
        lo, hi, w = p["low"], p["high"], p["width"]
        b1 = _mollified_square(y1, w)
        if y2 is None:
            same = b1
        else:
            b2 = _mollified_square(y2, w)
            same = b1 * b2 + (1.0 - b1) * (1.0 - b2)
        return lo + (hi - lo) * same

    # -- matrix interface ---------------------------------------------------

    def evaluate(self, y, tau=0.0) -> np.ndarray:
        """Coefficient matrix a(y, tau), shape (..., N, N), symmetric."""
        s = np.asarray(self.scalar(y, tau), dtype=float)
        eye = np.eye(self.dimension)
        return s[..., None, None] * eye

    def evaluate_scaled(self, x, t: float, eps: float) -> np.ndarray:
        """a(x/eps, t/eps) with torus reduction of both fast arguments."""
        if not eps > 0:
            raise ValueError(f"eps must be positive, got {eps}")
        if self.dimension == 1:
            y = np.asarray(x, dtype=float) / eps
        else:
            y = tuple(np.asarray(c, dtype=float) / eps for c in x)
        return self.evaluate(y, float(t) / eps)

    def scalar_scaled(self, x, t: float, eps: float) -> np.ndarray:
        """Scalar factor s(x/eps, t/eps); the fast path for grid assembly."""
        if not eps > 0:
            raise ValueError(f"eps must be positive, got {eps}")
        if self.dimension == 1:
            y = np.asarray(x, dtype=float) / eps
        else:
            y = tuple(np.asarray(c, dtype=float) / eps for c in x)
        return np.asarray(self.scalar(y, float(t) / eps), dtype=float)


def _default_kappa(family: str, params: Mapping[str, float]) -> float:
    """Sharp lower bound of s for each family, used as the declared constant."""
    if family == "constant":
        return float(params["value"])
    if family == "layered":
        return float(params["alpha"] - abs(params["beta"]))
    if family == "separable_trig":
        space = params["alpha"] - abs(params["beta"])
        time = params["gamma"] - abs(params["delta"])
        return float(space * time)
    return float(min(params["low"], params["high"]))


def make_coefficient(family: str, dimension: int, kappa: float | None = None,
                     **params: float) -> CoefficientField:
    """Build a coefficient field, deriving the declared ellipticity if omitted.

    Raises :class:`ValidationError` if the family is non-elliptic for these
    parameters and no explicit (to-be-audited) kappa was given; that rule
    spans several parameters, so the error names none.
    """
    if family not in FAMILIES:
        raise ValidationError(f"unknown family {family!r}", field="family")
    full = dict(FAMILIES[family])
    unknown = set(params) - set(full)
    if unknown:
        raise ValidationError(
            f"unknown parameters for {family}: {sorted(unknown)}")
    full.update({k: float(v) for k, v in params.items()})
    if family == "checkerboard" and not full["width"] > 0:
        raise ValidationError("checkerboard width must be positive",
                              field="width")
    if kappa is None:
        kappa = _default_kappa(family, full)
        if not kappa > 0:
            raise ValidationError(
                f"{family} with these parameters is not uniformly elliptic "
                f"(sharp bound {kappa})")
    return CoefficientField(family=family, dimension=dimension,
                            kappa=float(kappa), params=full)


def verify_ellipticity(coeff: CoefficientField, samples: int = 4096,
                       tau_samples: int = 8) -> float:
    """Audit the declared ellipticity against dense torus sampling.

    Samples at least ``samples`` points of the (y, tau) torus, takes the
    minimum eigenvalue of a at each, and returns the sampled constant.
    Raises :class:`EllipticityViolation` carrying a witness point when the
    sampled minimum undercuts the declared constant beyond round-off.
    """
    samples = max(int(samples), 1000)
    if coeff.dimension == 1:
        m = samples
        y_axes = (np.arange(m) / m,)
        mesh = np.meshgrid(*y_axes, np.arange(tau_samples) / tau_samples,
                           indexing="ij")
        ys, taus = mesh[0], mesh[1]
        mats = coeff.evaluate(ys, taus)
    else:
        m = int(np.ceil(np.sqrt(samples)))
        ax = np.arange(m) / m
        ys1, ys2, taus = np.meshgrid(ax, ax, np.arange(tau_samples) / tau_samples,
                                     indexing="ij")
        ys = (ys1, ys2)
        mats = coeff.evaluate(ys, taus)
    eigmin = np.linalg.eigvalsh(mats)[..., 0]
    flat_idx = int(np.argmin(eigmin))
    measured = float(eigmin.reshape(-1)[flat_idx])
    if measured < coeff.kappa - 1e-12:
        idx = np.unravel_index(flat_idx, eigmin.shape)
        if coeff.dimension == 1:
            y_at = float(ys[idx])
        else:
            y_at = (float(ys[0][idx]), float(ys[1][idx]))
        tau_at = float(taus[idx])
        raise EllipticityViolation(
            f"sampled ellipticity {measured:.6g} undercuts declared "
            f"{coeff.kappa:.6g} at y={y_at}, tau={tau_at}",
            y=y_at, tau=tau_at, value=measured)
    return measured
