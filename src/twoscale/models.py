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

Every structural assumption the analysis rests on is available as an
executable check: symmetry and coercivity of A_eps, exact skew-symmetry of
B, the drift growth and monotonicity inequalities (sampled on the batched
drift), and the noise Lipschitz constant.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dstn
from scipy.linalg.lapack import dpttrf, dpttrs

from .coefficients import CoefficientField
from .errors import (ContractViolation, NonFinite, NotDivergenceFree,
                     SolverDiverged, ValidationError)
from .grid import (GridSpec, ScalarField, VectorField, face_differences,
                   inner_H, norm_H, preconditioned_cg)
from .noise import QWienerSpec

__all__ = [
    "ModelSpec",
    "face_coefficients",
    "apply_A_eps",
    "apply_A_tensor",
    "ImplicitFactorization",
    "apply_B",
    "check_B_local_monotonicity",
    "leray_project",
    "spectral_divergence_norm",
    "check_F_contracts",
    "g_lipschitz_constant",
]

VARIANTS = ("allen_cahn", "navier_stokes_2d")
MEAN_FIELD_KINDS = ("stokes_drag", "none")
NOISE_LAWS = ("scalar_multiplicative", "mode_modulated")


@dataclass(frozen=True)
class ModelSpec:
    """Which terms are active and with which constants.

    ``eta`` and ``ell`` name the strengths of the interaction terms that the
    well-posedness budget eta < kappa/2, ell < (kappa - 2 eta)/2 bounds. No
    drift term reads them, so any value other than 0.0 is rejected rather
    than accepted and ignored.
    """

    variant: str
    coefficient: CoefficientField
    epsilon: float
    mean_field: str = "stokes_drag"
    cubic: bool = True
    eta: float = 0.0
    ell: float = 0.0
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
        for name, value in (("eta", self.eta), ("ell", self.ell)):
            if value != 0.0:
                raise ValidationError(
                    f"{name}={value} is not supported: no drift term reads "
                    f"{name}, so only 0.0 is accepted", field=name)

    @property
    def has_advection(self) -> bool:
        return self.variant == "navier_stokes_2d"

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
    n = grid.cells
    full_ax = grid.h * np.arange(0, n + 1)  # nodes incl. boundary
    if grid.dimension == 1:
        s = coeff.scalar_scaled(full_ax, t, eps)
        return [2.0 * s[:-1] * s[1:] / (s[:-1] + s[1:])]
    X, Y = np.meshgrid(full_ax, full_ax, indexing="ij")
    s = coeff.scalar_scaled((X, Y), t, eps)
    fx = 2.0 * s[:-1, 1:-1] * s[1:, 1:-1] / (s[:-1, 1:-1] + s[1:, 1:-1])
    fy = 2.0 * s[1:-1, :-1] * s[1:-1, 1:] / (s[1:-1, :-1] + s[1:-1, 1:])
    return [fx, fy]


def _apply_faces(values: np.ndarray, faces: list, h: float) -> np.ndarray:
    """-div(s grad u) with zero Dirichlet ghosts, conservative stencil.

    ``values`` is a stack (..., *grid.shape); ``faces`` holds one weight
    array (or constant) per grid axis.
    """
    dim = len(faces)
    out = np.zeros_like(values)
    for axis, s_face in enumerate(faces):
        flux = s_face * face_differences(values, axis, dim) / h
        out -= np.diff(flux, axis=axis - dim) / h
    return out


def _central(values: np.ndarray, axis: int, dim: int, h: float) -> np.ndarray:
    """Zero-ghost central difference: the mean of the two adjacent faces."""
    d = np.moveaxis(face_differences(values, axis, dim), axis - dim, -1)
    return np.moveaxis(d[..., 1:] + d[..., :-1], -1, axis - dim) / (2.0 * h)


def _apply_tensor(values: np.ndarray, tensor: np.ndarray,
                  h: float) -> np.ndarray:
    """-sum_jk t_jk d_j d_k u on a stack (..., *grid.shape)."""
    dim = tensor.shape[0]
    out = _apply_faces(values, [tensor[d, d] for d in range(dim)], h)
    if dim == 2 and (tensor[0, 1] != 0.0 or tensor[1, 0] != 0.0):
        cross = _central(_central(values, 1, dim, h), 0, dim, h)
        out -= (tensor[0, 1] + tensor[1, 0]) * cross
    return out


def apply_A_eps(u: ScalarField, coeff: CoefficientField, eps: float,
                t: float) -> ScalarField:
    """The oscillating divergence-form operator applied to a field."""
    faces = face_coefficients(coeff, u.grid, eps, t)
    return ScalarField(u.grid, _apply_faces(u.values, faces, u.grid.h))


def apply_A_tensor(u: ScalarField, tensor: np.ndarray) -> ScalarField:
    """Constant-coefficient operator -sum_jk t_jk d_j d_k u.

    Used for the effective (homogenized) reference dynamics. Diagonal
    entries use the second difference (a difference of face differences);
    the symmetric off-diagonal pair uses a central difference of a central
    difference. Zero Dirichlet ghosts throughout.
    """
    tensor = np.asarray(tensor, dtype=float)
    g = u.grid
    if tensor.shape != (g.dimension, g.dimension):
        raise ValueError("tensor shape does not match grid dimension")
    return ScalarField(g, _apply_tensor(u.values, tensor, g.h))


class ImplicitFactorization:
    """Reusable solver for (I + dt * A) v = rhs at a frozen coefficient time.

    A stack of right-hand sides is solved in one call. In 1D the operator
    is tridiagonal and we keep its LDL^T factor from LAPACK ``pttrf``, so
    each solve is one ``pttrs`` call costing O(n) per right-hand side. In
    2D the whole stack runs matrix-free conjugate gradients together,
    preconditioned by the exact DST-I inverse of the constant-coefficient
    operator I + dt (c_x L_x + c_y L_y) (Concus & Golub 1973). c_d is the
    mean of the absolute axis-d faces on an oscillating level (the plain
    mean for an elliptic field, and positive definite for any faces) and
    ``tensor[d, d]`` on the effective level, where a diagonal tensor makes
    the preconditioner exact and CG stops after one iteration. The
    eigenvalue array is built on the first 2D solve. ``iterations`` holds
    the per-path CG iteration counts of the last 2D solve, shape (paths,);
    in a ladder, whose work is split into shards stepped by forked
    processes, the caller's copy holds the last step's solve of the last
    block it stepped itself, and stays None for a level it left to a child.
    """

    def __init__(self, grid: GridSpec, faces: list[np.ndarray] | None,
                 dt: float, tensor: np.ndarray | None = None):
        self.grid = grid
        self.dt = float(dt)
        self.faces = faces
        self.tensor = None if tensor is None else np.asarray(tensor, float)
        self.iterations: np.ndarray | None = None
        self._ldl = None
        self._inverse = None
        if grid.dimension == 1:
            self._ldl = self._factor_1d()

    def _diag_offdiag_1d(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.grid.cells
        h2 = self.grid.h ** 2
        if self.faces is not None:
            s = self.faces[0]
            diag = 1.0 + self.dt * (s[:-1] + s[1:]) / h2
            off = -self.dt * s[1:-1] / h2
        else:
            t00 = float(self.tensor[0, 0])
            diag = np.full(n - 1, 1.0 + 2.0 * self.dt * t00 / h2)
            off = np.full(n - 2, -self.dt * t00 / h2)
        return diag, off

    def _factor_1d(self) -> tuple[np.ndarray, np.ndarray]:
        d, e, info = dpttrf(*self._diag_offdiag_1d())
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
        if self.faces is not None:
            av = _apply_faces(values, self.faces, self.grid.h)
        else:
            av = _apply_tensor(values, self.tensor, self.grid.h)
        return values + self.dt * av

    def _precondition(self, values: np.ndarray) -> np.ndarray:
        """Exact inverse of I + dt (c_x L_x + c_y L_y) by a DST-I pair.

        L_d has the eigenvalues (4/h^2) sin^2(k pi h / 2), k = 1..n-1, and
        (2n)^2 is the scale of the unnormalized DST-I pair; the inverse
        eigenvalue array is built on first use.
        """
        if self._inverse is None:
            g = self.grid
            if self.faces is not None:
                c = [float(np.mean(np.abs(f))) for f in self.faces]
            else:
                c = [abs(float(self.tensor[d, d])) for d in range(2)]
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


def _sine_transform(values: np.ndarray) -> np.ndarray:
    return dstn(values, type=1)


def _sine_inverse(coeff: np.ndarray, n: int) -> np.ndarray:
    return dstn(coeff, type=1) / (2.0 * n) ** coeff.ndim


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
    k1, k2 = _wavenumbers(g)
    c1 = _sine_transform(v[0].values)
    c2 = _sine_transform(v[1].values)
    ksq = k1 ** 2 + k2 ** 2
    dot = (k1 * c1 + k2 * c2) / ksq
    p1 = _sine_inverse(c1 - dot * k1, g.cells)
    p2 = _sine_inverse(c2 - dot * k2, g.cells)
    return VectorField((ScalarField(g, p1), ScalarField(g, p2)))


def spectral_divergence_norm(v: VectorField) -> float:
    """H norm of the spectral divergence k . v_hat paired with the sine basis."""
    g = v.grid
    k1, k2 = _wavenumbers(g)
    scale = (g.h / np.sqrt(2.0)) ** 2
    c1 = scale * _sine_transform(v[0].values)
    c2 = scale * _sine_transform(v[1].values)
    d = k1 * c1 + k2 * c2
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
    from .grid import norm_V

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


# ---------------------------------------------------------------------------
# mean-field drift


#: Growth constant for the drag + cubic drift, fitted once over random
#: fields and then frozen. Analytically (F(u), u) + ||u||_L4^4
#: <= 2.5 (||u||^2 + mu(||.||^2)) with Young and Jensen, so 2.5 is sharp
#: enough and never violated.
F_GROWTH_CONSTANT = 2.5


def check_F_contracts(model: ModelSpec, grid: GridSpec, samples: int = 100,
                      seed: int = 20260816, tol: float = 1e-10) -> dict:
    """Sample the structural drift inequalities on the batched drift.

    Each sample draws a random stack of three paths and evaluates
    ``BatchedStepper.explicit_terms`` on it as one replica, so mu is the
    empirical law of that stack. Checks, on every path u of the stack,
      growth        (F(u, mu), u) <= C (||u||_H^2 + mu(||.||_H^2)) - ||u||_L4^4
    and, on a random pair u1, u2 with the drag off,
      monotonicity  (F2(u1) - F2(u2), u1 - u2) <= ||u1 - u2||_H^2 for the
                    cubic reaction part.

    Returns a report dict with worst margins; raises
    :class:`ContractViolation` if any margin exceeds ``tol`` times the
    sample scale.
    """
    from .integrator import BatchedStepper

    members = 3
    spec = QWienerSpec(grid=grid, modes=1)
    growth = BatchedStepper(grid, model, spec, members=members, dt=1.0)
    # one member per replica: the drag is exactly zero, the cubic remains
    cubic = BatchedStepper(grid, model, spec, members=1, dt=1.0)
    hN = grid.h ** grid.dimension
    rng = np.random.default_rng(seed)
    worst_growth = -np.inf
    worst_mono = -np.inf
    for _ in range(samples):
        U = rng.standard_normal((members, grid.dof))
        if model.mean_field == "stokes_drag":
            drift, _ = growth.explicit_terms(U, np.zeros((members, 1)))
            rows = growth.energy_rows(U, 0.0)
            second = float(np.mean(rows["H2"]))
            l4 = rows["L4"] if model.cubic else 0.0
            gap = (hN * np.sum(drift * U, axis=-1)
                   - F_GROWTH_CONSTANT * (rows["H2"] + second) + l4)
            scale = np.maximum(1.0, np.maximum(rows["H2"], second))
            worst_growth = max(worst_growth, float(np.max(gap / scale)))
        if model.cubic:
            pair = rng.standard_normal((2, grid.dof))
            drift, _ = cubic.explicit_terms(pair, np.zeros((2, 1)))
            d = pair[0] - pair[1]
            d2 = hN * float(np.sum(d * d))
            gap = hN * float(np.sum((drift[0] - drift[1]) * d)) - d2
            worst_mono = max(worst_mono, gap / max(1.0, d2))
    report = {
        "samples": samples,
        "growth_constant": F_GROWTH_CONSTANT,
        "worst_growth_margin": worst_growth,
        "worst_monotonicity_margin": worst_mono,
    }
    if worst_growth > tol:
        raise ContractViolation(
            f"drift growth bound violated by {worst_growth:.3e}",
            inequality="growth", margin=worst_growth)
    if worst_mono > tol:
        raise ContractViolation(
            f"cubic monotonicity violated by {worst_mono:.3e}",
            inequality="monotonicity", margin=worst_mono)
    return report


# ---------------------------------------------------------------------------
# noise law


def g_lipschitz_constant(model: ModelSpec, spec: QWienerSpec) -> float:
    """Squared-Lipschitz constant of the noise law in the HS proxy norm.

    Exact for the scalar law: sum_k lambda_k sigma_k^2. The modulated law
    picks up the sup of the mode amplitudes, 2^(N/2).
    """
    sig = model.mode_sigmas(spec.modes)
    base = float(np.sum(spec.eigenvalues * sig ** 2))
    if model.noise_law == "scalar_multiplicative":
        return base
    return base * 2.0 ** spec.grid.dimension
