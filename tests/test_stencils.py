"""The zero-ghost face stencils of ``grid`` and the operators built on them.

``grid.face_differences``, ``face_sums`` and ``adjacent_pairs`` are checked
against ``np.pad`` plus ``np.diff`` references. The oracles below are the
earlier per-module stencils: ``np.take``/``np.pad`` face averaging, a
``moveaxis`` central difference, ``np.diff`` fluxes, and per-dimension face
coefficients, corrector slopes, periodic interpolation and gradient
residuals. Each must match its replacement bit for bit on random stacks
with a leading path axis, except the gradient residuals: their fused sums
match the earlier loop (``tests/residuals.py``) to 1e-13 relative.
"""
from __future__ import annotations

import numpy as np
import pytest

from twoscale.cell import (CellGrid, _interp_periodic, corrector_slopes,
                           solve_cell_problem)
from twoscale.coefficients import FAMILIES, make_coefficient
from twoscale.diagnostics import (_face_corrector_slopes, _residual_energies,
                                  _slope_factors, _transverse_averages)
from twoscale.grid import (GridSpec, adjacent_pairs, face_differences,
                           face_sums, sine_weights_Hminus1,
                           stack_face_differences)
from twoscale.models import _apply_faces, _central, face_coefficients

from residuals import gradient_residuals_loop

SHAPES = [(1, 31), (5, 31), (3, 15, 15), (2, 4, 7, 7)]  # (..., *grid)
DIMENSIONS = [1, 1, 2, 2]


def random_stack(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def padded(values, ax):
    pad = [(0, 0)] * values.ndim
    pad[ax] = (1, 1)
    return np.pad(values, pad)


# ---------------------------------------------------------------------------
# the grid primitives against np.pad and np.diff


@pytest.mark.parametrize("shape,dim", zip(SHAPES, DIMENSIONS))
def test_face_differences_and_sums_match_the_zero_padded_array(shape, dim):
    values = random_stack(shape)
    for axis in range(dim):
        ax = values.ndim - dim + axis
        p = padded(values, ax)
        n = p.shape[ax]
        lo = np.take(p, range(0, n - 1), axis=ax)
        hi = np.take(p, range(1, n), axis=ax)
        assert np.array_equal(face_differences(values, axis, dim),
                              np.diff(p, axis=ax))
        assert np.array_equal(face_sums(values, axis, dim), lo + hi)


@pytest.mark.parametrize("shape,dim", zip(SHAPES, DIMENSIONS))
def test_adjacent_pairs_are_the_neighbour_views(shape, dim):
    values = random_stack(shape)
    for axis in range(dim):
        ax = values.ndim - dim + axis
        n = values.shape[ax]
        lo, hi = adjacent_pairs(values, axis, dim)
        assert np.shares_memory(lo, values) and np.shares_memory(hi, values)
        assert np.array_equal(lo, np.take(values, range(0, n - 1), axis=ax))
        assert np.array_equal(hi, np.take(values, range(1, n), axis=ax))
        # the pairs of a face array rebuild its node differences
        faces = face_differences(values, axis, dim)
        lo, hi = adjacent_pairs(faces, axis, dim)
        assert np.array_equal(np.diff(faces, axis=ax), hi - lo)


def test_zero_ghost_faces_keep_signed_zeros_and_specials():
    values = np.array([[-0.0, 1.5, np.inf, -2.0, -0.0]])
    ref = np.diff(padded(values, 1), axis=1)
    out = face_differences(values, 0, 1)
    assert np.array_equal(np.signbit(out), np.signbit(ref))
    assert np.array_equal(out, ref, equal_nan=True)


# ---------------------------------------------------------------------------
# oracles: the stencils as they were written before grid owned them


def to_faces_oracle(diffs, from_axis, to_axis, grid):
    """Re-locate axis-i face differences onto axis-j faces by averaging."""
    a = from_axis + 1
    b = to_axis + 1
    nodes = 0.5 * (np.take(diffs, range(0, diffs.shape[a] - 1), axis=a)
                   + np.take(diffs, range(1, diffs.shape[a]), axis=a))
    pad = [(0, 0)] * diffs.ndim
    pad[b] = (1, 1)
    padded_nodes = np.pad(nodes, pad)
    return 0.5 * (np.take(padded_nodes, range(0, padded_nodes.shape[b] - 1),
                          axis=b)
                  + np.take(padded_nodes, range(1, padded_nodes.shape[b]),
                            axis=b))


def central_oracle(values, axis, dim, h):
    """Zero-ghost central difference: the mean of the two adjacent faces."""
    d = np.moveaxis(face_differences(values, axis, dim), axis - dim, -1)
    return np.moveaxis(d[..., 1:] + d[..., :-1], -1, axis - dim) / (2.0 * h)


def apply_faces_oracle(values, faces, h):
    dim = len(faces)
    out = np.zeros_like(values)
    for axis, s_face in enumerate(faces):
        flux = s_face * face_differences(values, axis, dim) / h
        out -= np.diff(flux, axis=axis - dim) / h
    return out


def face_coefficients_oracle(coeff, grid, eps, t):
    n = grid.cells
    full_ax = grid.h * np.arange(0, n + 1)
    if grid.dimension == 1:
        s = coeff.scalar_scaled(full_ax, t, eps)
        return [2.0 * s[:-1] * s[1:] / (s[:-1] + s[1:])]
    X, Y = np.meshgrid(full_ax, full_ax, indexing="ij")
    s = coeff.scalar_scaled((X, Y), t, eps)
    fx = 2.0 * s[:-1, 1:-1] * s[1:, 1:-1] / (s[:-1, 1:-1] + s[1:, 1:-1])
    fy = 2.0 * s[1:-1, :-1] * s[1:-1, 1:] / (s[1:-1, :-1] + s[1:-1, 1:])
    return [fx, fy]


def interp_periodic_oracle(values, coords, m):
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


def face_corrector_slopes_oracle(sol, grid, eps, tau):
    n = grid.cells
    mids = grid.h * (np.arange(n) + 0.5)
    nodes = grid.axis_nodes()
    out = []
    for axis in range(grid.dimension):
        if grid.dimension == 1:
            coords = mids / eps
        else:
            ax = [None, None]
            ax[axis] = mids
            ax[1 - axis] = nodes
            mesh = np.meshgrid(ax[0], ax[1], indexing="ij")
            coords = tuple(c / eps for c in mesh)
        out.append(corrector_slopes(sol, coords, tau))
    return out


def gradient_residuals_oracle(eps_grad, hom_grad, face_slopes, grid):
    hN = grid.h ** grid.dimension
    P = eps_grad[0].shape[0]
    plain2 = np.zeros(P)
    corr2 = np.zeros(P)
    inv_h2 = 1.0 / grid.h ** 2
    for j in range(grid.dimension):
        de = eps_grad[j]
        dh = hom_grad[j]
        diff = de - dh
        diff *= diff
        plain2 += hN * inv_h2 * np.sum(diff.reshape(P, -1), axis=-1)
        terms = [(hom_grad[i] if i == j
                  else to_faces_oracle(hom_grad[i], i, j, grid))
                 * face_slopes[j][..., i, j][None]
                 for i in range(grid.dimension)]
        rec = terms[0]
        rec += dh
        for term in terms[1:]:
            rec += term
        np.subtract(de, rec, out=rec)
        rec *= rec
        corr2 += hN * inv_h2 * np.sum(rec.reshape(P, -1), axis=-1)
    return plain2, corr2


# ---------------------------------------------------------------------------
# the operators against their oracles, bitwise


@pytest.mark.parametrize("paths", [1, 5])
def test_face_averages_match_the_pad_and_take_oracle(paths):
    grid = GridSpec(2, 32)
    diffs = random_stack((paths,) + grid.shape, seed=paths)
    for i, j in ((0, 1), (1, 0)):
        faces = face_differences(diffs, i, 2)
        lo, hi = adjacent_pairs(faces, i, 2)
        new = 0.5 * face_sums(0.5 * (lo + hi), j, 2)
        assert np.array_equal(new, to_faces_oracle(faces, i, j, grid))


@pytest.mark.parametrize("shape,dim", zip(SHAPES, DIMENSIONS))
def test_central_and_flux_divergence_match_their_oracles(shape, dim):
    values = random_stack(shape, seed=3)
    h = 1.0 / (shape[-1] + 1)
    for axis in range(dim):
        assert np.array_equal(_central(values, axis, dim, h),
                              central_oracle(values, axis, dim, h))
    rng = np.random.default_rng(4)
    faces = [1.0 + rng.random(tuple(n + (d == axis)
                                    for d, n in enumerate(shape[-dim:])))
             for axis in range(dim)]
    assert np.array_equal(_apply_faces(values, faces, h),
                          apply_faces_oracle(values, faces, h))
    scalars = [np.float64(0.75)] * dim  # the effective level's diagonal
    assert np.array_equal(_apply_faces(values, scalars, h),
                          apply_faces_oracle(values, scalars, h))


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_face_coefficients_match_the_per_dimension_oracle(dimension, family):
    grid = GridSpec(dimension, 32)
    coeff = make_coefficient(family, dimension)
    for eps, t in ((0.25, 0.0), (0.125, 0.013), (1.0 / 3.0, 0.5)):
        new = face_coefficients(coeff, grid, eps, t)
        old = face_coefficients_oracle(coeff, grid, eps, t)
        assert len(new) == len(old) == dimension
        for a, b in zip(new, old):
            assert np.array_equal(a, b)


def test_sine_weights_match_the_per_dimension_formula():
    for dimension in (1, 2):
        k = np.arange(1, 32)
        ksq = k.astype(float) ** 2 if dimension == 1 else \
            (k[:, None] ** 2 + k[None, :] ** 2).astype(float)
        assert np.array_equal(sine_weights_Hminus1(GridSpec(dimension, 32)),
                              1.0 / (1.0 + np.pi ** 2 * ksq))


@pytest.mark.parametrize("dimension", [1, 2])
def test_periodic_interpolation_matches_the_per_dimension_oracle(dimension):
    rng = np.random.default_rng(5)
    m = 16
    values = rng.standard_normal((m,) * dimension)
    coords = tuple(4.0 * rng.standard_normal((6, 9))
                   for _ in range(dimension))
    assert np.array_equal(_interp_periodic(values, coords, m),
                          interp_periodic_oracle(values, coords, m))


@pytest.mark.parametrize("dimension", [1, 2])
def test_gradient_residuals_match_the_to_faces_oracle(dimension):
    grid = GridSpec(dimension, 64 if dimension == 1 else 32)
    rng = np.random.default_rng(6)
    eps_grad = stack_face_differences(rng.standard_normal((4, grid.dof)),
                                      grid)
    hom_grad = stack_face_differences(rng.standard_normal((4, grid.dof)),
                                      grid)
    # separable_trig's slopes move with tau; in 2D only the checkerboard's
    # transverse slopes s_ij, i != j, are not zero
    for family in ("separable_trig", "checkerboard"):
        coeff = make_coefficient(family, dimension)
        sol = solve_cell_problem(coeff, CellGrid(dimension, 16, tau_slices=2))
        slopes = _face_corrector_slopes(sol, grid, 0.25, 0.3)
        for a, b in zip(slopes, face_corrector_slopes_oracle(sol, grid, 0.25,
                                                             0.3)):
            assert np.array_equal(a, b)
        # the loop oracle of the earlier residuals keeps the bits of the
        # pad-and-take oracle; the fused residuals reorder its sums
        loop = gradient_residuals_loop(eps_grad, hom_grad, slopes, grid)
        old = gradient_residuals_oracle(eps_grad, hom_grad, slopes, grid)
        assert all(np.array_equal(a, b) for a, b in zip(loop, old))
        fused = _residual_energies(eps_grad, hom_grad,
                                   _transverse_averages(hom_grad, dimension),
                                   _slope_factors(slopes), grid)
        for a, b in zip(fused, loop):
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=0.0)


def test_one_dimensional_coordinates_may_come_bare_or_as_a_tuple():
    coeff = make_coefficient("checkerboard", 1)
    sol = solve_cell_problem(coeff, CellGrid(1, 16))
    y = np.linspace(-1.0, 2.0, 13)
    assert np.array_equal(corrector_slopes(sol, y), corrector_slopes(sol, (y,)))
    assert np.array_equal(coeff.scalar(y, 0.2), coeff.scalar((y,), 0.2))
    assert np.array_equal(coeff.scalar_scaled(y, 0.2, 0.25),
                          coeff.scalar_scaled([y], 0.2, 0.25))
    # a coordinate count that is not the dimension is rejected, not cut
    with pytest.raises(ValueError):
        coeff.scalar((y, y), 0.2)
    with pytest.raises(ValueError):
        make_coefficient("checkerboard", 2).scalar(np.zeros((3, 4)), 0.2)
