"""Uniform Dirichlet grids on the unit box and the discrete norms built on them.

The physical domain is (0,1)^N for N in {1, 2}. A grid with n cells per axis
carries unknowns on the (n-1)^N interior nodes x_i = i*h, h = 1/n; the zero
Dirichlet trace is implicit and never stored. All norms use the midpoint
quadrature weight h^N on nodal values, so the discrete sine modes

    e_k(x) = 2^(N/2) * prod_d sin(k_d pi x_d),   k_d = 1..n-1,

are exactly orthonormal in the discrete H inner product. That exactness is
what makes the spectral H^-1 proxy and the noise expansion cheap and stable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
from scipy.fft import dstn

from .errors import CountMismatch, NonFinite, SolverDiverged, ValidationError

__all__ = [
    "is_power_of_two",
    "GridSpec",
    "ScalarField",
    "VectorField",
    "norm_H",
    "norm_V",
    "face_differences",
    "stack_face_differences",
    "gradient_energy",
    "face_energy",
    "norm_L4",
    "norm_Hminus1_proxy",
    "inner_H",
    "sine_coefficients",
    "field_from_sine_coefficients",
    "sine_mode",
    "sine_weights_Hminus1",
    "first_eigenvalue",
    "preconditioned_cg",
    "field_to_csv",
    "field_from_csv",
]


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on the unit box with homogeneous Dirichlet boundary.

    Attributes:
        dimension: spatial dimension N, 1 or 2.
        cells: cells per axis n, a power of two >= 8.
    """

    dimension: int
    cells: int

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValidationError(f"dimension must be 1 or 2, got "
                                  f"{self.dimension}", field="dimension")
        if self.cells < 8 or not is_power_of_two(self.cells):
            raise ValidationError(f"cells must be a power of two >= 8, got "
                                  f"{self.cells}", field="cells")

    @property
    def h(self) -> float:
        return 1.0 / self.cells

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.cells - 1,) * self.dimension

    @property
    def dof(self) -> int:
        return (self.cells - 1) ** self.dimension

    def axis_nodes(self) -> np.ndarray:
        """Interior node coordinates along one axis."""
        return self.h * np.arange(1, self.cells)

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        """Interior node coordinates as broadcastable arrays, ij indexing."""
        ax = self.axis_nodes()
        return np.meshgrid(*([ax] * self.dimension), indexing="ij")


class ScalarField:
    """Nodal values of a scalar function with zero Dirichlet trace.

    Value semantics: the array is frozen at construction and every operation
    returns a fresh field, so instances are safe to share across workers.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: GridSpec, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(
                f"field shape {values.shape} does not match grid {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        values = values.copy()
        values.setflags(write=False)
        self.grid = grid
        self.values = values

    @classmethod
    def zeros(cls, grid: GridSpec) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def from_function(cls, grid: GridSpec,
                      fn: Callable[..., np.ndarray]) -> "ScalarField":
        """Sample ``fn(x)`` or ``fn(x, y)`` at the interior nodes."""
        return cls(grid, fn(*grid.meshgrid()))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values)

    def __add__(self, other: "ScalarField") -> "ScalarField":
        self._check_same_grid(other)
        return ScalarField(self.grid, self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        self._check_same_grid(other)
        return ScalarField(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "ScalarField":
        return ScalarField(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def _check_same_grid(self, other: "ScalarField") -> None:
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")


class VectorField:
    """Tuple of scalar components on a common grid (velocity fields in 2D)."""

    __slots__ = ("grid", "components")

    def __init__(self, components: Iterable[ScalarField]):
        components = tuple(components)
        if not components:
            raise ValueError("vector field needs at least one component")
        grid = components[0].grid
        for c in components[1:]:
            if c.grid != grid:
                raise ValueError("components live on different grids")
        self.grid = grid
        self.components = components

    @classmethod
    def zeros(cls, grid: GridSpec, count: int | None = None) -> "VectorField":
        count = grid.dimension if count is None else count
        return cls(ScalarField.zeros(grid) for _ in range(count))

    def __len__(self) -> int:
        return len(self.components)

    def __getitem__(self, i: int) -> ScalarField:
        return self.components[i]


# ---------------------------------------------------------------------------
# norms


def norm_H(f: ScalarField) -> float:
    """Discrete L2 norm: sqrt(h^N * sum f^2)."""
    g = f.grid
    return float(np.sqrt(g.h ** g.dimension * np.sum(f.values ** 2)))


def inner_H(f: ScalarField, g: ScalarField) -> float:
    """Discrete L2 inner product with the h^N midpoint weight."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    d = f.grid
    return float(d.h ** d.dimension * np.sum(f.values * g.values))


def face_differences(values: np.ndarray, axis: int,
                     dimension: int) -> np.ndarray:
    """Forward differences across all faces along grid ``axis``.

    ``values`` is a stack shaped (..., *grid.shape) whose trailing
    ``dimension`` axes are the grid. The zero trace supplies one ghost node
    on each side, so an axis with n-1 interior nodes has n faces. Slicing
    gives the same bits as np.diff of the zero-padded array, since x - 0
    and 0 - x are exact.
    """
    ax = values.ndim - dimension + axis

    def along(sl: slice) -> tuple:
        return (slice(None),) * ax + (sl,)

    shape = list(values.shape)
    shape[ax] += 1
    out = np.empty(shape, dtype=values.dtype)
    out[along(slice(0, 1))] = values[along(slice(0, 1))]
    out[along(slice(1, -1))] = (values[along(slice(1, None))]
                                - values[along(slice(None, -1))])
    out[along(slice(-1, None))] = 0.0 - values[along(slice(-1, None))]
    return out


def stack_face_differences(U: np.ndarray,
                           grid: GridSpec) -> list[np.ndarray]:
    """Per-axis face differences (not divided by h) of a (paths, dof) stack."""
    fields = U.reshape((-1,) + grid.shape)
    return [face_differences(fields, axis, grid.dimension)
            for axis in range(grid.dimension)]


def gradient_energy(values: np.ndarray, grid: GridSpec,
                    faces: list[np.ndarray] | None = None) -> np.ndarray:
    """Face-weighted gradient energy h^N * sum over faces of s (D/h)^2.

    ``values`` is a stack shaped (..., *grid.shape) and the result has the
    leading shape (...). ``faces`` holds one weight array per axis, laid
    out like the face differences; None means unit weights, which gives
    the squared V norm.
    """
    return face_energy([face_differences(values, axis, grid.dimension)
                        for axis in range(grid.dimension)], grid, faces)


def face_energy(diffs: list[np.ndarray], grid: GridSpec,
                faces: list[np.ndarray] | None = None) -> np.ndarray:
    """``gradient_energy`` from the face differences of each grid axis."""
    grid_axes = tuple(range(-grid.dimension, 0))
    total = 0.0
    for axis, d in enumerate(diffs):
        w = d * d if faces is None else faces[axis] * d * d
        total = total + np.sum(w, axis=grid_axes)
    return total * (grid.h ** grid.dimension / grid.h ** 2)


def norm_V(f: ScalarField) -> float:
    """Discrete H^1_0 seminorm from forward differences on faces.

    Boundary faces use the zero trace; the quadrature weight per face is
    h^N so norm_V(f)^2 = h^N * sum over faces of (difference/h)^2.
    """
    return float(np.sqrt(gradient_energy(f.values, f.grid)))


def norm_L4(f: ScalarField) -> float:
    """Discrete L4 norm: (h^N * sum f^4)^(1/4)."""
    g = f.grid
    v2 = f.values ** 2
    return float((g.h ** g.dimension * np.sum(v2 * v2)) ** 0.25)


def sine_coefficients(f: ScalarField) -> np.ndarray:
    """Coefficients of f in the H-orthonormal Dirichlet sine basis.

    Returns an array indexed by (k_1-1, ..., k_N-1). The map is exactly
    unitary on the grid: sum of squares equals norm_H(f)^2 to round-off.
    """
    g = f.grid
    scale = (g.h / np.sqrt(2.0)) ** g.dimension
    return scale * dstn(f.values, type=1)


def field_from_sine_coefficients(grid: GridSpec, coeff: np.ndarray) -> ScalarField:
    """Inverse of :func:`sine_coefficients`."""
    coeff = np.asarray(coeff, dtype=float)
    if coeff.shape != grid.shape:
        raise ValueError("coefficient array does not match grid shape")
    # dstn type 1 is its own inverse up to the factor (2n)^N.
    scale = (np.sqrt(2.0) / (2.0 * grid.cells * grid.h)) ** grid.dimension
    return ScalarField(grid, scale * dstn(coeff, type=1))


def sine_mode(grid: GridSpec, k: tuple[int, ...] | int) -> ScalarField:
    """The H-orthonormal sine mode e_k, k_d in 1..n-1 per axis."""
    if isinstance(k, int):
        k = (k,)
    if len(k) != grid.dimension:
        raise ValueError("mode index has wrong length")
    ax = grid.axis_nodes()
    vals = np.ones(grid.shape)
    for d, kd in enumerate(k):
        if not 1 <= kd <= grid.cells - 1:
            raise ValueError(f"mode index {kd} outside 1..{grid.cells - 1}")
        line = np.sqrt(2.0) * np.sin(kd * np.pi * ax)
        shape = [1] * grid.dimension
        shape[d] = grid.cells - 1
        vals = vals * line.reshape(shape)
    return ScalarField(grid, vals)


def sine_weights_Hminus1(grid: GridSpec) -> np.ndarray:
    """Per-mode weights 1/(1 + pi^2 |k|^2) on the full sine spectrum."""
    k = np.arange(1, grid.cells)
    if grid.dimension == 1:
        ksq = k.astype(float) ** 2
    else:
        ksq = (k[:, None] ** 2 + k[None, :] ** 2).astype(float)
    return 1.0 / (1.0 + np.pi ** 2 * ksq)


def norm_Hminus1_proxy(f: ScalarField) -> float:
    """Spectral H^-1 proxy: sine coefficients damped by 1/(1 + pi^2 |k|^2).

    Always bounded by norm_H since every weight is < 1.
    """
    c = sine_coefficients(f)
    w = sine_weights_Hminus1(f.grid)
    return float(np.sqrt(np.sum(w * c ** 2)))


def first_eigenvalue(grid: GridSpec) -> float:
    """Smallest eigenvalue of the discrete Dirichlet Laplacian.

    mu_1^h = (4/h^2) sin^2(pi h / 2) per axis, summed over axes.
    """
    h = grid.h
    per_axis = (4.0 / h ** 2) * np.sin(np.pi * h / 2.0) ** 2
    return float(grid.dimension * per_axis)


# ---------------------------------------------------------------------------
# linear solves


StackMap = Callable[[np.ndarray], np.ndarray]


def preconditioned_cg(apply: StackMap, precondition: StackMap,
                      b: np.ndarray, tol: float, limit: int, what: str,
                      project: StackMap | None = None,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Preconditioned conjugate gradients on every row of a stack b.

    ``b`` has shape (rows, ...). ``apply`` is the symmetric operator and
    ``precondition`` a symmetric positive definite approximation of its
    inverse, both acting on whole stacks. ``project``, when given, removes
    the operator's kernel (the constant mode of a periodic problem) from
    the right-hand side and from the residual at every iteration.

    A row stops once its residual r = b - A x meets ||r|| <= tol ||b||
    and is frozen from then on, so its iterate does not depend on the
    other rows. Raises :class:`NonFinite` on a non-finite right-hand side
    and :class:`SolverDiverged`, naming the solve ``what``, when an active
    row has r.z <= 0 or p.Ap <= 0 or when ``limit`` iterations pass.

    Returns (x, relative residual per row, iterations per row).
    """
    def dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", u.reshape(len(u), -1),
                         v.reshape(len(v), -1))

    def diverged(why: str) -> SolverDiverged:
        worst = float(np.max(np.sqrt(rr) / scale))
        return SolverDiverged(f"{what} {why} (relative residual {worst:.3e})",
                              iterations=it, residual=worst)

    if project is not None:
        b = project(b)
    b_norm = np.sqrt(dot(b, b))
    if not np.all(np.isfinite(b_norm)):
        raise NonFinite(f"{what} got a non-finite right-hand side")
    scale = np.where(b_norm > 0, b_norm, 1.0)
    col = (-1,) + (1,) * (b.ndim - 1)
    x = np.zeros_like(b)
    r = b.copy()
    rr = dot(r, r)
    p = z = precondition(r)
    rz = dot(r, z)
    iterations = np.zeros(len(b), dtype=int)
    it = 0
    while np.any(active := np.sqrt(rr) > tol * b_norm):
        if it >= limit:
            raise diverged(f"exceeded {limit} iterations")
        if np.any(active & ~(rz > 0)):
            raise diverged("has an indefinite preconditioner (r.z <= 0)")
        ap = apply(p)
        pap = dot(p, ap)
        if np.any(active & ~(pap > 0)):
            raise diverged("lost positive definiteness (p.Ap <= 0)")
        alpha = np.divide(rz, pap, out=np.zeros_like(rz), where=active)
        x += alpha.reshape(col) * p
        r -= alpha.reshape(col) * ap
        if project is not None:
            r = project(r)
        rr = dot(r, r)
        z = precondition(r)
        rz_next = dot(r, z)
        beta = np.divide(rz_next, rz, out=np.zeros_like(rz), where=active)
        p = z + beta.reshape(col) * p
        rz = rz_next
        iterations += active
        it += 1
    return x, np.sqrt(rr) / scale, iterations


# ---------------------------------------------------------------------------
# serialization


def field_to_csv(f: ScalarField, path) -> None:
    """Write nodal values as one flat row-major column with a header.

    The header records n, N and the ordering so the file round-trips
    without out-of-band information.
    """
    g = f.grid
    flat = f.values.reshape(-1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={g.cells} N={g.dimension} order=row-major\n")
        fh.write("value\n")
        for v in flat:
            fh.write(f"{float(v)!r}\n")


def field_from_csv(path) -> ScalarField:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise CountMismatch(f"{path}: missing grid header")
        meta = dict(tok.split("=") for tok in header[1:].split() if "=" in tok)
        grid = GridSpec(dimension=int(meta["N"]), cells=int(meta["n"]))
        column = fh.readline()
        if column.strip() != "value":
            raise CountMismatch(f"{path}: unexpected column header {column!r}")
        flat = np.array([float(line) for line in fh if line.strip()])
    if flat.size != grid.dof:
        raise CountMismatch(
            f"{path}: expected {grid.dof} values, found {flat.size}")
    return ScalarField(grid, flat.reshape(grid.shape))
