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

``ImplicitFactorization`` solves (I + dt A_eps) directly in 1D and 2D:
LAPACK ``pttrf``/``pttrs`` for the tridiagonal 1D operator, a DST-I pair
for constant 2D faces and a SuperLU factor of the 5-point 2D matrix
otherwise, each refusing an operator that is not positive definite.

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
                   sine_coefficients)

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
    """Reusable direct solver for (I + dt * A) v = rhs at a frozen time.

    A is -div(s grad u) with one face array per axis, laid out as
    :func:`face_coefficients` returns them, on every ladder level; the
    effective level's faces are the constants a~[d, d]. The operator is
    factored once, when this object is built, and a stack of right-hand
    sides is solved in one call:

    - 1D: the tridiagonal operator's LDL^T factor from LAPACK ``pttrf``;
      each solve is one ``pttrs`` call on the whole stack, O(n) per path.
    - 2D, constant faces c_d: the exact inverse of I + dt (c_x L_x + c_y
      L_y) by a DST-I pair, whose eigenvalues 1 + dt (c_x lam + c_y mu)
      must all be positive.
    - 2D, other faces: the 5-point matrix as CSC, factored by SuperLU
      ``splu`` with a symmetric minimum-degree ordering and diagonal
      pivots. Each path is solved on its own, since SuperLU's multi-column
      solve changes bits with the column count.

    A factor that is not positive definite raises :class:`SolverDiverged`,
    and non-finite faces or right-hand sides raise :class:`NonFinite`.
    """

    def __init__(self, grid: GridSpec, faces: list[np.ndarray], dt: float):
        self.grid = grid
        self.dt = float(dt)
        self.faces = faces
        self._ldl = self._inverse = self._lu = None
        if grid.dimension == 1:
            self._ldl = self._factor_1d()
            return
        if not all(np.all(np.isfinite(f)) for f in faces):
            raise NonFinite("implicit operator has non-finite entries")
        if all(np.ptp(f) == 0.0 for f in faces):
            self._inverse = self._factor_constant_2d()
        else:
            self._lu = self._factor_2d()

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

    def _factor_constant_2d(self) -> np.ndarray:
        """Inverse eigenvalues of I + dt (c_x L_x + c_y L_y), scaled for the
        unnormalized DST-I pair.

        L_d has the eigenvalues (4/h^2) sin^2(k pi h / 2), k = 1..n-1, and
        (2n)^2 is the scale of the pair. The faces keep their signs.
        """
        g = self.grid
        c = [float(f.flat[0]) for f in self.faces]
        lam = (4.0 / g.h ** 2) * np.sin(
            np.arange(1, g.cells) * np.pi * g.h / 2.0) ** 2
        eig = 1.0 + self.dt * (c[0] * lam[:, None] + c[1] * lam[None, :])
        if not np.all(eig > 0.0):
            raise SolverDiverged("implicit operator is not positive definite "
                                 f"(eigenvalue {float(np.min(eig)):.3e})")
        return 1.0 / ((2.0 * g.cells) ** 2 * eig)

    def _factor_2d(self):
        """SuperLU factor of the 5-point I + dt A, assembled as CSC.

        Column (i, j) holds its neighbours (i-1, j), (i, j-1), itself,
        (i, j+1) and (i+1, j), in row order, where they are interior.
        """
        # imported here: a module-level import costs every 1D run memory
        from scipy.sparse import csc_matrix
        from scipy.sparse.linalg import splu

        sx, sy = self.faces
        m = self.grid.cells - 1
        k = self.dt / self.grid.h ** 2
        values = np.stack([
            -k * sx[:-1], -k * sy[:, :-1],
            1.0 + k * ((sx[:-1] + sx[1:]) + (sy[:, :-1] + sy[:, 1:])),
            -k * sy[:, 1:], -k * sx[1:]], axis=-1)
        rows = np.arange(m * m).reshape(m, m, 1) + np.array([-m, -1, 0, 1, m])
        present = np.ones(values.shape, dtype=bool)
        present[0, :, 0] = present[:, 0, 1] = False
        present[:, -1, 3] = present[-1, :, 4] = False
        starts = np.concatenate([[0], np.cumsum(present.sum(axis=-1))])
        matrix = csc_matrix((values[present], rows[present], starts),
                            shape=(m * m, m * m))
        try:
            lu = splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                      relax=1, panel_size=1)
        except RuntimeError as exc:  # an exactly singular factor
            raise SolverDiverged(
                f"implicit operator is singular (SuperLU: {exc})") from None
        # With faces >= 0 the operator is I plus a positive semi-definite
        # matrix, so every diagonal pivot is at least 1 and the check of
        # the pivots, which copies U, is left out.
        if min(float(np.min(f)) for f in self.faces) < 0.0 and not (
                np.array_equal(lu.perm_r, lu.perm_c)
                and np.all(lu.U.diagonal() > 0.0)):
            raise SolverDiverged("implicit operator is not positive definite "
                                 "(SuperLU: a non-positive pivot)")
        return lu

    def solve_batch(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for a stack of right-hand sides, shape (paths, dof...).

        A single right-hand side (dof...) is a stack of one, and a
        non-finite right-hand side raises :class:`NonFinite`. A path's
        solution has the same bits alone and inside any stack.
        """
        flat = rhs.reshape(-1, self.grid.dof)
        if not np.all(np.isfinite(flat)):
            raise NonFinite("implicit solve got a non-finite right-hand side")
        if self._ldl is not None:
            return dpttrs(*self._ldl, flat.T)[0].T.reshape(rhs.shape)
        if self._inverse is not None:
            fields = flat.reshape((-1,) + self.grid.shape)
            return dstn(dstn(fields, type=1, axes=(-2, -1)) * self._inverse,
                        type=1, axes=(-2, -1)).reshape(rhs.shape)
        out = np.empty_like(flat)
        for path, row in enumerate(flat):
            out[path] = self._lu.solve(row)
        return out.reshape(rhs.shape)


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
