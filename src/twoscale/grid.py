"""Uniform Dirichlet grids on the unit box and the discrete norms built on them.

The physical domain is (0,1)^N for N in {1, 2}. A grid with n cells per axis
carries unknowns on the (n-1)^N interior nodes x_i = i*h, h = 1/n; the zero
Dirichlet trace is implicit and never stored. All norms use the midpoint
quadrature weight h^N on nodal values, so the discrete sine modes

    e_k(x) = 2^(N/2) * prod_d sin(k_d pi x_d),   k_d = 1..n-1,

are exactly orthonormal in the discrete H inner product. That exactness is
what makes the noise expansion and the spectral H^-1 proxy of the increment
fit (``sine_coefficients`` damped by ``sine_weights_Hminus1``) cheap and
stable.

Every zero-ghost face stencil of the toolkit, in 1D and 2D alike, is built
from three maps of (..., *grid.shape) stacks here: ``face_differences`` and
``face_sums`` take nodes to the n faces of an axis with n-1 interior nodes,
and ``adjacent_pairs`` gives the two faces around each node.

``scipy.fft`` is imported inside ``sine_coefficients``, not here: it loads
``scipy.special`` too, about 0.09 s and 5 MiB that a run which never
transforms (``twoscale simulate`` in 1D) would pay at start-up.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ValidationError

__all__ = [
    "is_power_of_two",
    "GridSpec",
    "ScalarField",
    "VectorField",
    "norm_H",
    "norm_V",
    "face_differences",
    "face_sums",
    "adjacent_pairs",
    "stack_face_differences",
    "face_energy",
    "inner_H",
    "sine_coefficients",
    "sine_weights_Hminus1",
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


def _zero_ghost_faces(op, values: np.ndarray, axis: int,
                      dimension: int) -> np.ndarray:
    """``op`` of the two nodes around every face along grid ``axis``.

    ``values`` is a stack shaped (..., *grid.shape) whose trailing
    ``dimension`` axes are the grid. Face i gets op(node i, node i-1), and
    the zero trace gives a ghost node at each end: slicing has the bits of
    ``op`` on the zero-padded array, as x +- 0 and 0 +- x are exact.
    """
    ax = values.ndim - dimension + axis

    def along(sl: slice) -> tuple:
        return (slice(None),) * ax + (sl,)

    shape = list(values.shape)
    shape[ax] += 1
    out = np.empty(shape, dtype=values.dtype)
    op(values[along(slice(0, 1))], 0.0, out=out[along(slice(0, 1))])
    op(values[along(slice(1, None))], values[along(slice(None, -1))],
       out=out[along(slice(1, -1))])
    op(0.0, values[along(slice(-1, None))], out=out[along(slice(-1, None))])
    return out


def face_differences(values: np.ndarray, axis: int,
                     dimension: int) -> np.ndarray:
    """Differences node i - node i-1 across every face along grid ``axis``
    of a (..., *grid.shape) stack, zero ghosts included."""
    return _zero_ghost_faces(np.subtract, values, axis, dimension)


def face_sums(values: np.ndarray, axis: int, dimension: int) -> np.ndarray:
    """Sums of the two nodes around every face along grid ``axis``, zero
    ghosts included; the mirror of :func:`face_differences`."""
    return _zero_ghost_faces(np.add, values, axis, dimension)


def adjacent_pairs(values: np.ndarray, axis: int,
                   dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the (lower, upper) neighbours along grid ``axis``: the two
    faces around each node, or the two nodes (boundary included) around
    each face."""
    lead = (slice(None),) * (values.ndim - dimension + axis)
    return values[lead + (slice(None, -1),)], values[lead + (slice(1, None),)]


def stack_face_differences(U: np.ndarray,
                           grid: GridSpec) -> list[np.ndarray]:
    """Per-axis face differences (not divided by h) of a (paths, dof) stack."""
    fields = U.reshape((-1,) + grid.shape)
    return [face_differences(fields, axis, grid.dimension)
            for axis in range(grid.dimension)]


def face_energy(diffs: list[np.ndarray], grid: GridSpec,
                faces: list[np.ndarray] | None = None) -> np.ndarray:
    """Face-weighted gradient energy h^N * sum over faces of s (D/h)^2.

    ``diffs`` are the face differences of a stack per grid axis and the
    result has the stack's leading shape. ``faces`` holds one weight array
    per axis, laid out like the differences; None means unit weights,
    which gives the squared V norm.
    """
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
    return float(np.sqrt(face_energy(
        stack_face_differences(f.values, f.grid), f.grid)[0]))


def sine_coefficients(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Coefficients in the H-orthonormal Dirichlet sine basis.

    ``values`` is a stack shaped (..., *grid.shape); the trailing grid axes
    of the result are indexed by (k_1-1, ..., k_N-1). The map is exactly
    unitary on the grid: the sum of squares over the grid axes equals the
    squared H norm to round-off.
    """
    from scipy.fft import dstn

    scale = (grid.h / np.sqrt(2.0)) ** grid.dimension
    return scale * dstn(values, type=1,
                        axes=tuple(range(-grid.dimension, 0)))


def sine_weights_Hminus1(grid: GridSpec) -> np.ndarray:
    """Per-mode weights 1/(1 + pi^2 |k|^2) on the full sine spectrum."""
    k2 = np.arange(1, grid.cells) ** 2
    ksq = sum(np.meshgrid(*[k2] * grid.dimension, indexing="ij", sparse=True))
    return 1.0 / (1.0 + np.pi ** 2 * ksq.astype(float))
