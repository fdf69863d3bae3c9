"""Periodic cell problems, effective tensors, and corrector slopes.

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

The solver is this module's conjugate gradients, to a relative residual
of ``CG_TOL``, on the singular but consistent system (constants span the
kernel), preconditioned by the exact FFT inverse of the constant-coefficient
periodic operator whose per-axis coefficient is the mean of that axis's
absolute faces (Moulinec & Suquet 1998). Each (slice, direction) item is
its own solve, and the items are split over forked processes when each
gets at least ``parallel.BLOCK_VALUES`` values (a 256^2 cell's two
directions run in two processes), with results in shared memory, so the
process count changes no bit. The constant mode is projected out of the
residual at every iteration and the final corrector is recentred to zero
mean.

The preconditioner's transforms are ``numpy.fft``'s, which hold the bits
of ``scipy.fft``'s on numpy 2.4 and scipy 1.17 (measured, not promised),
so a cell solve loads neither ``scipy.fft`` nor ``scipy.special``.
``solve_cell_problem`` imports them when it starts, before it forks, so no
child imports them for itself.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import parallel
from .coefficients import CoefficientField, fast_axes
from .errors import NonFinite, SolverDiverged, ValidationError
from .grid import is_power_of_two

__all__ = [
    "CellGrid",
    "CellSolution",
    "solve_cell_problem",
    "corrector_slopes",
]

CG_TOL = 1e-10  # relative residual at which the cell CG stops


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
        return np.meshgrid(*([ax] * self.dimension), indexing="ij",
                           sparse=True)

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
        shards: processes that solved the (slice, direction) items.
    """

    grid: CellGrid
    correctors: np.ndarray
    slice_tensors: np.ndarray
    a_tilde: np.ndarray
    residuals: np.ndarray
    iterations: np.ndarray
    shards: int

    @cached_property
    def corrector_gradients(self) -> np.ndarray:
        """Central-difference gradients at cell centers, (S, N_i, N_j, m[, m]).

        Entry [s, i, j] holds d(eta_i)/d(y_j) on slice s; computed once.
        """
        eta = self.correctors  # cell axis j is array axis 2 + j
        out = np.stack([np.roll(eta, -1, axis=a) - np.roll(eta, 1, axis=a)
                        for a in range(2, 2 + self.grid.dimension)], axis=2)
        out /= 2.0 * self.grid.h
        out.setflags(write=False)
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


def _flux_averages(faces: list[np.ndarray], eta: np.ndarray, k: int,
                   h: float) -> np.ndarray:
    """Column k of the slice tensor, a_eff[j, k] = mean over j-faces of
    s * (delta_jk + D_j eta_k), from the corrector eta_k."""
    out = np.empty(len(faces))
    for j in range(len(faces)):
        d = (np.roll(eta, -1, axis=j) - eta) / h
        if j == k:
            d = d + 1.0
        out[j] = np.mean(faces[j] * d)
    return out


def _preconditioned_cg(apply, precondition, project, b: np.ndarray,
                       limit: int) -> tuple[np.ndarray, float, int]:
    """(x, relative residual, iterations) of the cell CG on b, stopped at
    ||b - A x|| <= ``CG_TOL`` ||b||; a zero b takes no iteration.

    ``project`` is applied to b and to every residual. Raises
    :class:`NonFinite` on a non-finite b and :class:`SolverDiverged` when
    r.z <= 0 or p.Ap <= 0 or when ``limit`` iterations pass.
    """
    def dot(u: np.ndarray, v: np.ndarray) -> float:
        # einsum's row sum: another summation order moves the correctors' bits
        return np.einsum("ij,ij->i", u.reshape(1, -1), v.reshape(1, -1))[0]

    def diverged(why: str) -> SolverDiverged:
        worst = float(np.sqrt(rr) / scale)
        return SolverDiverged(f"cell CG {why} (relative residual "
                              f"{worst:.3e})", iterations=it, residual=worst)

    b = project(b)
    b_norm = np.sqrt(dot(b, b))
    if not np.isfinite(b_norm):
        raise NonFinite("cell CG got a non-finite right-hand side")
    scale = b_norm if b_norm > 0 else 1.0
    x = np.zeros_like(b)
    r = b.copy()
    rr = dot(r, r)
    p = z = precondition(r)
    rz = dot(r, z)
    it = 0
    while np.sqrt(rr) > CG_TOL * b_norm:
        if it >= limit:
            raise diverged(f"exceeded {limit} iterations")
        if not rz > 0:
            raise diverged("has an indefinite preconditioner (r.z <= 0)")
        ap = apply(p)
        pap = dot(p, ap)
        if not pap > 0:
            raise diverged("lost positive definiteness (p.Ap <= 0)")
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        r = project(r)
        rr = dot(r, r)
        z = precondition(r)
        rz_next = dot(r, z)
        p = z + rz_next / rz * p
        rz = rz_next
        it += 1
    return x, float(np.sqrt(rr) / scale), it


def solve_cell_problem(coeff: CoefficientField,
                       grid: CellGrid) -> CellSolution:
    """Solve the periodic cell problems on every tau slice.

    The (tau slice, direction) items are split into contiguous runs, one
    per usable CPU and as many as get at least ``parallel.BLOCK_VALUES``
    values each (so a 1D cell stays in this process); this process solves
    the first run and a forked child each other one.

    Args:
        coeff: the oscillating coefficient field (diagonal-scalar).
        grid: cell discretization; grid.dimension must match the field.

    Returns:
        A :class:`CellSolution` with zero-mean correctors, per-slice
        tensors, the tau-averaged effective tensor, and solver telemetry.
    """
    if coeff.dimension != grid.dimension:
        raise ValueError("coefficient and cell grid dimensions differ")
    from numpy.fft import irfftn, rfftn  # here, so the shards inherit it

    dim = grid.dimension
    S = grid.tau_slices
    max_iter = 10 * grid.cells ** 2
    centers = grid.centers()
    taus = grid.tau_values()
    correctors, slice_tensors, residuals, iterations = parallel.shared_zeros(
        [(S, dim) + grid.shape, (S, dim, dim), (S, dim), (S, dim)])
    axes = tuple(range(-dim, 0))

    def mean_free(v: np.ndarray) -> np.ndarray:
        return v - v.mean(axis=axes, keepdims=True)

    def run_shard(items):
        """Solve direction k of slice s for each item (s, k); yield the
        item's index before it."""
        for s, k in items:
            yield (s * dim + k,)
            s_cells = np.broadcast_to(coeff.scalar(centers, taus[s]),
                                      grid.shape).astype(float)
            faces = [_face_coefficients(s_cells, axis) for axis in range(dim)]
            inverse = _periodic_inverse(faces, grid.h)
            b = (faces[k] - np.roll(faces[k], 1, axis=k)) / grid.h
            eta, residuals[s, k], iterations[s, k] = _preconditioned_cg(
                lambda v: _apply_periodic_operator(v, faces, grid.h),
                lambda v: irfftn(rfftn(v, axes=axes) * inverse, s=grid.shape,
                                 axes=axes),
                mean_free, b, max_iter)
            correctors[s, k] = mean_free(eta)
            slice_tensors[s, :, k] = _flux_averages(faces, correctors[s, k],
                                                    k, grid.h)

    items = [(s, k) for s in range(S) for k in range(dim)]
    shards = parallel.split(
        items, parallel.shard_count(len(items), grid.cells ** dim))
    parallel.run_shards(
        run_shard, shards,
        lambda part: f"cell shard of items {part[0]}..{part[-1]}")
    return CellSolution(grid=grid, correctors=correctors,
                        slice_tensors=slice_tensors,
                        a_tilde=slice_tensors.mean(axis=0),
                        residuals=residuals, iterations=iterations.astype(int),
                        shards=len(shards))


def _interp_periodic(values: np.ndarray, coords: tuple[np.ndarray, ...],
                     m: int) -> np.ndarray:
    """Multilinear periodic interpolation from cell centers (i+1/2)/m.

    ``values`` is shaped (*cell shape, ...): every trailing component is
    interpolated with the one set of corner indices and weights.
    """
    axes = []  # per axis: (index, weight) of the lower and the upper center
    for q in coords:
        u = np.asarray(q, dtype=float) % 1.0 * m - 0.5
        i0 = np.floor(u).astype(int)
        axes.append(((i0 % m, 1.0 - (u - i0)), ((i0 + 1) % m, u - i0)))
    trailing = (Ellipsis,) + (None,) * (values.ndim - len(coords))
    terms = []
    for corner in itertools.product(*axes[::-1]):  # the first axis fastest
        index, weights = zip(*corner[::-1])
        terms.append(math.prod(weights)[trailing] * values[index])
    return sum(terms[1:], terms[0])


def corrector_slopes(solution: CellSolution, y, tau: float = 0.0) -> np.ndarray:
    """Interpolated corrector gradients d(eta_i)/d(y_j) at fast points.

    ``y`` holds one coordinate array per axis, or a bare array in 1D (see
    ``coefficients.fast_axes``), reduced to the torus. Returns an array
    with two trailing axes (i, j). Interpolation is multilinear in y and,
    when several tau slices exist, periodic-linear in tau.
    """
    g = solution.grid
    coords = fast_axes(y, g.dimension)
    # (S, *cell shape, i, j): a slice's components gather at once
    grads = np.moveaxis(solution.corrector_gradients, (1, 2), (-2, -1))
    S = g.tau_slices

    def at_slice(s: int) -> np.ndarray:
        return _interp_periodic(grads[s], coords, g.cells)

    if S == 1:
        return at_slice(0)
    pos = (float(tau) % 1.0) * S
    s0 = int(np.floor(pos)) % S
    w = pos - np.floor(pos)
    return (1.0 - w) * at_slice(s0) + w * at_slice((s0 + 1) % S)
