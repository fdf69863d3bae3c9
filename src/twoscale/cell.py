"""Periodic cell problems, effective tensors, and corrector reconstruction.

For each frozen fast time tau and each direction k we solve, on the periodic
unit cell with cells of width 1/m,

    -div_y( a(y, tau) (grad_y eta_k + e_k) ) = 0,    mean(eta_k) = 0,

with a conservative finite-difference operator whose face coefficients are
harmonic averages of the two adjacent cell-center values. The effective
tensor is the flux average

    a_eff[j, k](tau) = (1/m^N) * sum over direction-j faces of
                       s_face * (delta_jk + D_j eta_k),

followed by the periodic trapezoid average over tau slices. In 1D this
collapses to the harmonic mean of a, which is the classical sharp answer,
and the discrete correctors satisfy eta'(y) = a_eff/a(y) - 1 up to solver
tolerance.

The solver is conjugate gradients on the singular but consistent system
(constants span the kernel), preconditioned by the exact FFT inverse of the
constant-coefficient periodic operator whose per-axis coefficient is the
mean of that axis's absolute faces (Moulinec & Suquet 1998). The
directions of one slice are solved as one stack; the constant mode is
projected out of the residual at every iteration and the final corrector
is recentred to zero mean.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import irfftn, rfftn

from .coefficients import CoefficientField
from .errors import ValidationError
from .grid import is_power_of_two, preconditioned_cg

__all__ = [
    "CellGrid",
    "CellSolution",
    "solve_cell_problem",
    "corrector_slopes",
    "corrector_gradient",
]


@dataclass(frozen=True)
class CellGrid:
    """Discretization of the periodic unit cell.

    Attributes:
        dimension: spatial dimension N of the cell, 1 or 2.
        cells: cells per axis m, a power of two >= 16.
        tau_slices: number of frozen fast-time slices S >= 1, placed at
            tau_s = s/S (the periodic trapezoid nodes).
    """

    dimension: int
    cells: int
    tau_slices: int = 1

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValidationError("dimension must be 1 or 2",
                                  field="dimension")
        if self.cells < 16 or not is_power_of_two(self.cells):
            raise ValidationError(
                f"cells must be a power of two >= 16, got {self.cells}",
                field="cells")
        if self.tau_slices < 1:
            raise ValidationError("tau_slices must be >= 1",
                                  field="tau_slices")

    @property
    def h(self) -> float:
        return 1.0 / self.cells

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.cells,) * self.dimension

    def centers(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinates (i + 1/2)/m as broadcastable arrays."""
        ax = (np.arange(self.cells) + 0.5) * self.h
        return np.meshgrid(*([ax] * self.dimension), indexing="ij")

    def tau_values(self) -> np.ndarray:
        return np.arange(self.tau_slices) / self.tau_slices


@dataclass
class CellSolution:
    """Correctors, per-slice tensors, and the tau-averaged effective tensor.

    Attributes:
        grid: the cell grid used.
        correctors: array (S, N, m[, m]) of zero-mean correctors eta_k per slice.
        slice_tensors: array (S, N, N) of per-slice flux averages.
        a_tilde: (N, N) tau-averaged effective tensor.
        residuals: (S, N) final relative CG residuals.
        iterations: (S, N) CG iteration counts.
    """

    grid: CellGrid
    correctors: np.ndarray
    slice_tensors: np.ndarray
    a_tilde: np.ndarray
    residuals: np.ndarray
    iterations: np.ndarray

    def corrector_gradients(self) -> np.ndarray:
        """Central-difference gradients at cell centers, (S, N_i, N_j, m[, m]).

        Entry [s, i, j] holds d(eta_i)/d(y_j) on slice s.
        """
        g = self.grid
        out = np.empty((g.tau_slices, g.dimension, g.dimension) + g.shape)
        for s in range(g.tau_slices):
            for i in range(g.dimension):
                eta = self.correctors[s, i]
                for j in range(g.dimension):
                    out[s, i, j] = (np.roll(eta, -1, axis=j)
                                    - np.roll(eta, 1, axis=j)) / (2.0 * g.h)
        return out


def _face_coefficients(scalar_cells: np.ndarray, axis: int) -> np.ndarray:
    """Harmonic average of the two cell values adjacent to each face.

    Face index i sits between cells i and i+1 (periodic wrap), so the face
    array has the same shape as the cell array.
    """
    left = scalar_cells
    right = np.roll(scalar_cells, -1, axis=axis)
    return 2.0 * left * right / (left + right)


def _apply_periodic_operator(eta: np.ndarray, faces: list[np.ndarray],
                             h: float) -> np.ndarray:
    """-div(s grad eta) with the conservative periodic stencil.

    ``eta`` is a stack (..., *cell shape); the faces broadcast over it.
    """
    dim = len(faces)
    out = np.zeros_like(eta)
    for axis, s_face in enumerate(faces):
        ax = axis - dim
        flux = s_face * (np.roll(eta, -1, axis=ax) - eta) / h
        out -= (flux - np.roll(flux, 1, axis=ax)) / h
    return out


def _periodic_inverse(faces: list[np.ndarray], h: float) -> np.ndarray:
    """Inverse eigenvalues of -sum_d c_d D_d^2 in the ``rfftn`` layout.

    c_d is the mean of the absolute axis-d faces, which is the plain mean
    for an elliptic field and keeps the preconditioner positive definite
    for any faces. The constant mode (eigenvalue 0) maps to 0, which keeps
    the preconditioned residual mean-free.
    """
    dim = len(faces)
    m = faces[0].shape[0]
    lam = np.zeros((1,) * dim)
    for d, s_face in enumerate(faces):
        k = np.arange(m // 2 + 1 if d == dim - 1 else m)
        wave = (4.0 / h ** 2) * np.sin(np.pi * k / m) ** 2
        lam = lam + np.mean(np.abs(s_face)) * wave.reshape(
            [-1 if a == d else 1 for a in range(dim)])
    return np.divide(1.0, lam, out=np.zeros_like(lam), where=lam > 0)


def _slice_tensor(faces: list[np.ndarray], correctors_slice: np.ndarray,
                  h: float) -> np.ndarray:
    """Flux average a_eff[j, k] = mean over j-faces of s*(delta_jk + D_j eta_k)."""
    dim = len(faces)
    out = np.empty((dim, dim))
    for k in range(dim):
        eta = correctors_slice[k]
        for j in range(dim):
            d = (np.roll(eta, -1, axis=j) - eta) / h
            if j == k:
                d = d + 1.0
            out[j, k] = np.mean(faces[j] * d)
    return out


def solve_cell_problem(coeff: CoefficientField, grid: CellGrid,
                       tol: float = 1e-10) -> CellSolution:
    """Solve the periodic cell problems on every tau slice.

    Args:
        coeff: the oscillating coefficient field (diagonal-scalar).
        grid: cell discretization; grid.dimension must match the field.
        tol: relative CG residual target.

    Returns:
        A :class:`CellSolution` with zero-mean correctors, per-slice
        tensors, the tau-averaged effective tensor, and solver telemetry.
    """
    if coeff.dimension != grid.dimension:
        raise ValueError("coefficient and cell grid dimensions differ")
    dim = grid.dimension
    S = grid.tau_slices
    max_iter = 10 * grid.cells ** 2
    centers = grid.centers()

    correctors = np.zeros((S, dim) + grid.shape)
    slice_tensors = np.zeros((S, dim, dim))
    residuals = np.zeros((S, dim))
    iterations = np.zeros((S, dim), dtype=int)

    axes = tuple(range(-dim, 0))

    def mean_free(v: np.ndarray) -> np.ndarray:
        return v - v.mean(axis=axes, keepdims=True)

    for s, tau in enumerate(grid.tau_values()):
        if dim == 1:
            s_cells = np.asarray(coeff.scalar(centers[0], tau), dtype=float)
        else:
            s_cells = np.asarray(coeff.scalar(centers, tau), dtype=float)
        s_cells = np.broadcast_to(s_cells, grid.shape).astype(float)
        faces = [_face_coefficients(s_cells, axis) for axis in range(dim)]
        inverse = _periodic_inverse(faces, grid.h)
        b = np.stack([(faces[k] - np.roll(faces[k], 1, axis=k)) / grid.h
                      for k in range(dim)])
        eta, residuals[s], iterations[s] = preconditioned_cg(
            lambda v: _apply_periodic_operator(v, faces, grid.h),
            lambda v: irfftn(rfftn(v, axes=axes) * inverse, s=grid.shape,
                             axes=axes),
            b, tol, max_iter, "cell CG", project=mean_free)
        correctors[s] = mean_free(eta)
        slice_tensors[s] = _slice_tensor(faces, correctors[s], grid.h)

    a_tilde = slice_tensors.mean(axis=0)
    return CellSolution(grid=grid, correctors=correctors,
                        slice_tensors=slice_tensors, a_tilde=a_tilde,
                        residuals=residuals, iterations=iterations)


def _interp_periodic(values: np.ndarray, coords: tuple[np.ndarray, ...],
                     m: int) -> np.ndarray:
    """Multilinear periodic interpolation from cell centers (i+1/2)/m."""
    idx_lo = []
    weights = []
    for q in coords:
        u = np.asarray(q, dtype=float) % 1.0
        u = u * m - 0.5
        i0 = np.floor(u).astype(int)
        weights.append(u - i0)
        idx_lo.append(i0 % m)
    if len(coords) == 1:
        i0 = idx_lo[0]
        w = weights[0]
        return (1.0 - w) * values[i0] + w * values[(i0 + 1) % m]
    i0, j0 = idx_lo
    wi, wj = weights
    i1 = (i0 + 1) % m
    j1 = (j0 + 1) % m
    return ((1.0 - wi) * (1.0 - wj) * values[i0, j0]
            + wi * (1.0 - wj) * values[i1, j0]
            + (1.0 - wi) * wj * values[i0, j1]
            + wi * wj * values[i1, j1])


def corrector_slopes(solution: CellSolution, y, tau: float = 0.0) -> np.ndarray:
    """Interpolated corrector gradients d(eta_i)/d(y_j) at fast points.

    ``y`` is a coordinate array (1D) or a length-2 sequence of broadcastable
    coordinate arrays (2D); both are reduced to the torus. Returns an array
    with two trailing axes (i, j). Interpolation is multilinear in y and,
    when several tau slices exist, periodic-linear in tau.
    """
    g = solution.grid
    coords = (np.asarray(y, dtype=float),) if g.dimension == 1 \
        else tuple(np.asarray(c, dtype=float) for c in y)
    grads = solution.corrector_gradients()
    S = g.tau_slices

    def at_slice(s: int) -> np.ndarray:
        base = np.broadcast_arrays(*coords)[0]
        out = np.empty(base.shape + (g.dimension, g.dimension))
        for i in range(g.dimension):
            for j in range(g.dimension):
                out[..., i, j] = _interp_periodic(grads[s, i, j], coords,
                                                  g.cells)
        return out

    if S == 1:
        return at_slice(0)
    pos = (float(tau) % 1.0) * S
    s0 = int(np.floor(pos)) % S
    w = pos - np.floor(pos)
    return (1.0 - w) * at_slice(s0) + w * at_slice((s0 + 1) % S)


def corrector_gradient(solution: CellSolution, grad_components, x, t: float,
                       eps: float) -> np.ndarray:
    """Reconstructed oscillatory gradient from a smooth-field gradient.

    Component j of the result is

        grad_j + sum_i grad_i * d(eta_i)/d(y_j)  evaluated at (x/eps, t/eps),

    which tracks the gradient of the oscillating solution rather than the
    smooth one: with this module's corrector normalization (eta_k solves
    the cell problem driven by -div(a e_k), so eta' = a_eff/a - 1 in 1D)
    the reconstruction of a linear profile equals a_eff/a(x/eps), the exact
    oscillatory flux profile. ``grad_components`` is a sequence of N arrays
    of identical shape; ``x`` is a coordinate array (1D) or a length-N
    sequence (2D).

    Returns an array with one trailing axis of length N.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    g = solution.grid
    grads = tuple(np.asarray(c, dtype=float) for c in grad_components)
    if len(grads) != g.dimension:
        raise ValueError("wrong number of gradient components")
    if g.dimension == 1:
        y = np.asarray(x, dtype=float) / eps
    else:
        y = tuple(np.asarray(c, dtype=float) / eps for c in x)
    slopes = corrector_slopes(solution, y, float(t) / eps)
    out = np.empty(np.broadcast_arrays(*grads)[0].shape + (g.dimension,))
    for j in range(g.dimension):
        acc = grads[j].astype(float).copy()
        for i in range(g.dimension):
            acc = acc + grads[i] * slopes[..., i, j]
        out[..., j] = acc
    return out
