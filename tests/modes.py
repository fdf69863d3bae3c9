"""Discrete Dirichlet sine modes and the first eigenvalue, the eigenmode
inputs and decay oracles of the operator, implicit-solve and stepping tests.

The modes are the H-orthonormal basis in which ``grid.sine_coefficients``
expands a field, and e_1 is an exact eigenvector of the unit-coefficient
operator, with eigenvalue ``first_eigenvalue``.
"""
import numpy as np

from twoscale.grid import GridSpec, ScalarField


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


def first_eigenvalue(grid: GridSpec) -> float:
    """Smallest eigenvalue of the discrete Dirichlet Laplacian.

    mu_1^h = (4/h^2) sin^2(pi h / 2) per axis, summed over axes.
    """
    h = grid.h
    per_axis = (4.0 / h ** 2) * np.sin(np.pi * h / 2.0) ** 2
    return float(grid.dimension * per_axis)
