"""Model operators: oscillating diffusion, advection, mean-field drift, noise law.

The state equation advanced by the integrator is

    du + A_eps(u) dt + B(u, u) dt = F(u, mu) dt + G(u) dW,

where A_eps is the divergence-form operator with coefficient a(x/eps, t/eps)
discretized conservatively (face fluxes with harmonic coefficient averages,
zero Dirichlet ghosts), B is the skew-symmetrized advection term of the 2D
velocity variant (absent for the scalar reaction variant), F is the
distribution-dependent drift and G is a multiplicative noise law on the
spectral modes. F and G are evaluated on whole (paths, dof) stacks by
``integrator.BatchedStepper.explicit_terms``, where mu is the empirical law
of each replica's members; this module holds their constants.

``check_B_local_monotonicity`` fits the constant of the advection
local-monotonicity bound. The other structural assumptions of the analysis
(symmetry and coercivity of A_eps, exact skew-symmetry of B, the drift
growth and monotonicity inequalities, the noise Lipschitz constant) are
checked by the tests against these operators and the batched drift.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dstn
from scipy.linalg.lapack import dpttrf, dpttrs

from .coefficients import CoefficientField
from .errors import (NonFinite, NotDivergenceFree, SolverDiverged,
                     ValidationError)
from .grid import (GridSpec, ScalarField, VectorField, adjacent_pairs,
                   face_differences, inner_H, norm_H, norm_V,
                   preconditioned_cg, sine_coefficients)

__all__ = [
    "ModelSpec",
    "face_coefficients",
    "apply_A_eps",
    "ImplicitFactorization",
    "apply_B",
    "check_B_local_monotonicity",
    "leray_project",
    "spectral_divergence_norm",
]

VARIANTS = ("allen_cahn", "navier_stokes_2d")
MEAN_FIELD_KINDS = ("stokes_drag", "none")
NOISE_LAWS = ("scalar_multiplicative", "mode_modulated")


@dataclass(frozen=True)
class ModelSpec:
    """Which terms are active and with which constants. No drift term has
    an interaction strength, so there are no ``eta`` or ``ell`` fields."""

    variant: str
    coefficient: CoefficientField
    epsilon: float
    mean_field: str = "stokes_drag"
    cubic: bool = True
    noise_law: str = "scalar_multiplicative"
    sigma0: float = 0.1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown variant {self.variant!r}",
                                  field="variant")
        if self.mean_field not in MEAN_FIELD_KINDS:
            raise ValidationError(
                f"unknown mean-field kind {self.mean_field!r}",
                field="mean_field")
        if self.noise_law not in NOISE_LAWS:
            raise ValidationError(f"unknown noise law {self.noise_law!r}",
                                  field="noise_law")
        if not self.epsilon > 0:
            raise ValidationError("epsilon must be positive", field="epsilon")
        if self.variant == "navier_stokes_2d" and self.coefficient.dimension != 2:
            raise ValidationError("velocity variant needs a 2D coefficient",
                                  field="variant")

    def mode_sigmas(self, modes: int) -> np.ndarray:
        """Per-mode noise amplitudes sigma_k = sigma0 / k, k = 1..modes."""
        return self.sigma0 / np.arange(1, modes + 1, dtype=float)


# ---------------------------------------------------------------------------
# diffusion operator


def face_coefficients(coeff: CoefficientField, grid: GridSpec, eps: float,
                      t: float) -> list[np.ndarray]:
    """Per-axis face coefficients of a(x/eps, t/eps) on the Dirichlet grid.

    Faces along axis d sit between consecutive nodes including the two
    boundary nodes, so the face array along d has n entries on an axis with
    n-1 interior nodes. Each face value is the harmonic mean of the scalar
    coefficient at the two adjacent node positions.
    """
    full_ax = grid.h * np.arange(0, grid.cells + 1)  # nodes incl. boundary
    s = coeff.scalar_scaled(
        np.meshgrid(*[full_ax] * grid.dimension, indexing="ij"), t, eps)
    out = []
    for axis in range(grid.dimension):
        # along the axis every node, across it the interior ones
        lo, hi = adjacent_pairs(
            s[tuple(slice(None) if d == axis else slice(1, -1)
                    for d in range(grid.dimension))], axis, grid.dimension)
        out.append(2.0 * lo * hi / (lo + hi))
    return out


def _apply_faces(values: np.ndarray, faces: list, h: float) -> np.ndarray:
    """-div(s grad u) with zero Dirichlet ghosts, conservative stencil.

    ``values`` is a stack (..., *grid.shape); ``faces`` holds one weight
    array (or constant) per grid axis.
    """
    dim = len(faces)
    out = np.zeros_like(values)
    for axis, s_face in enumerate(faces):
        flux = s_face * face_differences(values, axis, dim) / h
        lo, hi = adjacent_pairs(flux, axis, dim)
        out -= (hi - lo) / h
    return out


def _central(values: np.ndarray, axis: int, dim: int, h: float) -> np.ndarray:
    """Zero-ghost central difference: the mean of the two adjacent faces."""
    lo, hi = adjacent_pairs(face_differences(values, axis, dim), axis, dim)
    return (hi + lo) / (2.0 * h)


def apply_A_eps(u: ScalarField, coeff: CoefficientField, eps: float,
                t: float) -> ScalarField:
    """The oscillating divergence-form operator applied to a field."""
    faces = face_coefficients(coeff, u.grid, eps, t)
    return ScalarField(u.grid, _apply_faces(u.values, faces, u.grid.h))


class ImplicitFactorization:
    """Reusable solver for (I + dt * A) v = rhs at a frozen coefficient time.

    A is -div(s grad u) with one face array per axis, laid out as
    :func:`face_coefficients` returns them, on every ladder level; the
    effective level's faces are the constants a~[d, d]. A stack of
    right-hand sides is solved in one call. In 1D the operator is
    tridiagonal and we keep its LDL^T factor from LAPACK ``pttrf``, so each
    solve is one ``pttrs`` call costing O(n) per right-hand side. In 2D the
    whole stack runs matrix-free conjugate gradients together,
    preconditioned by the exact DST-I inverse of I + dt (c_x L_x + c_y L_y)
    (Concus & Golub 1973). c_d is the value of constant axis-d faces, which
    makes the preconditioner exact and CG stop after one iteration, and
    else the mean of the absolute axis-d faces (positive definite for any
    faces). The eigenvalue array is built on the first 2D solve.
    ``iterations`` holds the per-path CG iteration counts of the last 2D
    solve, shape (paths,); in a ladder, whose work is split into shards
    stepped by forked processes, the caller's copy holds the last step's
    solve of the last block it stepped itself, and stays None for a level
    it left to a child.
    """

    def __init__(self, grid: GridSpec, faces: list[np.ndarray], dt: float):
        self.grid = grid
        self.dt = float(dt)
        self.faces = faces
        self.iterations: np.ndarray | None = None
        self._inverse = None
        self._ldl = self._factor_1d() if grid.dimension == 1 else None

    def _factor_1d(self) -> tuple[np.ndarray, np.ndarray]:
        s = self.faces[0]
        h2 = self.grid.h ** 2
        d, e, info = dpttrf(1.0 + self.dt * (s[:-1] + s[1:]) / h2,
                            -self.dt * s[1:-1] / h2)
        if info > 0:
            raise SolverDiverged(
                "implicit operator is not positive definite (LAPACK pttrf: "
                f"leading minor {info})")
        # a NaN passes pttrf's d > 0 test; any non-finite entry of the
        # operator reaches the factor's diagonal
        if not np.all(np.isfinite(d)):
            raise NonFinite("implicit operator has non-finite entries")
        return d, e

    def _apply(self, values: np.ndarray) -> np.ndarray:
        return values + self.dt * _apply_faces(values, self.faces, self.grid.h)

    def _precondition(self, values: np.ndarray) -> np.ndarray:
        """Exact inverse of I + dt (c_x L_x + c_y L_y) by a DST-I pair.

        L_d has the eigenvalues (4/h^2) sin^2(k pi h / 2), k = 1..n-1, and
        (2n)^2 is the scale of the unnormalized DST-I pair; the inverse
        eigenvalue array is built on first use.
        """
        if self._inverse is None:
            g = self.grid
            # the mean of n copies of c can miss c in the last bit
            c = [abs(float(f.flat[0])) if np.ptp(f) == 0.0
                 else float(np.mean(np.abs(f))) for f in self.faces]
            lam = (4.0 / g.h ** 2) * np.sin(
                np.arange(1, g.cells) * np.pi * g.h / 2.0) ** 2
            self._inverse = 1.0 / ((2.0 * g.cells) ** 2 * (
                1.0 + self.dt * (c[0] * lam[:, None] + c[1] * lam[None, :])))
        return dstn(dstn(values, type=1, axes=(-2, -1)) * self._inverse,
                    type=1, axes=(-2, -1))

    def solve_batch(self, rhs: np.ndarray, tol: float = 1e-8) -> np.ndarray:
        """Solve for a stack of right-hand sides, shape (paths, dof...).

        A single right-hand side (dof...) is a stack of one, and a
        non-finite right-hand side raises :class:`NonFinite`. 1D applies
        the cached LDL^T factor to the whole stack in one direct ``pttrs``
        call and ignores ``tol``. 2D runs DST-preconditioned CG on the
        whole stack with per-path step scalars for at most 20 n^2
        iterations; each path stops once its residual is within ``tol`` of
        its right-hand side, and ``iterations`` records how many steps
        each path took.
        """
        if self.grid.dimension == 2:
            out, _, self.iterations = preconditioned_cg(
                self._apply, self._precondition,
                rhs.reshape((-1,) + self.grid.shape), tol,
                20 * self.grid.cells ** 2, "implicit CG")
            return out.reshape(rhs.shape)
        flat = rhs.reshape(-1, self.grid.dof)
        if not np.all(np.isfinite(flat)):
            raise NonFinite("implicit solve got a non-finite right-hand side")
        return dpttrs(*self._ldl, flat.T)[0].T.reshape(rhs.shape)


# ---------------------------------------------------------------------------
# advection term (2D velocity variant)


def _wavenumbers(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    k = np.pi * np.arange(1, grid.cells)
    return k[:, None], k[None, :]


def leray_project(v: VectorField) -> VectorField:
    """Orthogonal projection onto spectrally divergence-free fields.

    Components are expanded in the sine basis and, mode by mode, the
    coefficient pair is projected orthogonally to the wave vector; the
    1/|k|^2 weight is the spectral inverse of the pressure Poisson solve.
    The projector is exactly idempotent and H-orthogonal, which is what the
    energy identities downstream rely on.
    """
    if v.grid.dimension != 2 or len(v) != 2:
        raise ValueError("Leray projection is defined for 2D velocity fields")
    g = v.grid
    k = _wavenumbers(g)
    c = [dstn(v[m].values, type=1) for m in range(2)]
    dot = (k[0] * c[0] + k[1] * c[1]) / (k[0] ** 2 + k[1] ** 2)
    # the unnormalized DST-I is its own inverse up to (2n)^2
    return VectorField(ScalarField(g, dstn(c[m] - dot * k[m], type=1)
                                   / (2.0 * g.cells) ** 2) for m in range(2))


def spectral_divergence_norm(v: VectorField) -> float:
    """H norm of the spectral divergence k . v_hat paired with the sine basis."""
    g = v.grid
    k = _wavenumbers(g)
    c = [sine_coefficients(v[m].values, g) for m in range(2)]
    d = k[0] * c[0] + k[1] * c[1]
    return float(np.sqrt(np.sum(d ** 2)))


def apply_B(u: VectorField, v: VectorField,
            divergence_tol: float = 1e-8) -> VectorField:
    """Skew-symmetrized advection of v by u, Leray-projected.

    Uses the split form (u . grad v + div(u v)) / 2 with centered
    differences, which pairs to exactly zero against v in the H inner
    product; the output is then projected onto the divergence-free
    subspace. Raises :class:`NotDivergenceFree` when the advecting field u
    itself carries spectral divergence above ``divergence_tol`` relative to
    its size.
    """
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")
    g = u.grid
    if g.dimension != 2:
        raise ValueError("advection term is defined for the 2D variant")
    scale = max(norm_H(u[0]), norm_H(u[1]), 1e-300)
    div = spectral_divergence_norm(u)
    if div > divergence_tol * max(1.0, scale):
        raise NotDivergenceFree(
            f"advecting field has divergence {div:.3e} above tolerance",
            divergence_norm=div)
    h = g.h
    comps = []
    for m in range(2):
        adv = np.zeros(g.shape)
        for i in range(2):
            adv += u[i].values * _central(v[m].values, i, 2, h)
            adv += _central(u[i].values * v[m].values, i, 2, h)
        comps.append(ScalarField(g, 0.5 * adv))
    return leray_project(VectorField(comps))


def check_B_local_monotonicity(grid: GridSpec, samples: int = 50,
                               seed: int = 7) -> float:
    """Fit the constant in the advection local-monotonicity bound.

    Over random projected pairs, returns the largest observed ratio

        (B(u,u) - B(v,v), u - v)_H / (||u-v||_H ||v||_V ||u-v||_V),

    which the analysis requires to be bounded; stability of the fit across
    grids is asserted in the tests.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        u = leray_project(VectorField(
            ScalarField(grid, rng.standard_normal(grid.shape))
            for _ in range(2)))
        v = leray_project(VectorField(
            ScalarField(grid, rng.standard_normal(grid.shape))
            for _ in range(2)))
        bu = apply_B(u, u)
        bv = apply_B(v, v)
        num = sum(inner_H(bu[m] - bv[m], u[m] - v[m]) for m in range(2))
        dh = np.sqrt(sum(norm_H(u[m] - v[m]) ** 2 for m in range(2)))
        dv = np.sqrt(sum(norm_V(u[m] - v[m]) ** 2 for m in range(2)))
        vv = np.sqrt(sum(norm_V(v[m]) ** 2 for m in range(2)))
        denom = dh * vv * dv
        if denom > 1e-12:
            worst = max(worst, num / denom)
    return worst
