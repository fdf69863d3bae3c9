"""Periodic cell solves, correctors, and the effective tensor."""
from __future__ import annotations

import numpy as np
import pytest

from twoscale.cell import (
    CellGrid,
    corrector_gradient,
    corrector_slopes,
    solve_cell_problem,
)
from twoscale.coefficients import make_coefficient
from twoscale.errors import SolverDiverged

SQRT3 = np.sqrt(3.0)


def test_cell_grid_invariants():
    with pytest.raises(ValueError):
        CellGrid(dimension=1, cells=8)  # below minimum
    with pytest.raises(ValueError):
        CellGrid(dimension=1, cells=48)  # not a power of two
    with pytest.raises(ValueError):
        CellGrid(dimension=1, cells=32, tau_slices=0)


def test_constant_coefficient_gives_zero_correctors():
    c = make_coefficient("constant", dimension=2, value=2.5)
    sol = solve_cell_problem(c, CellGrid(dimension=2, cells=16))
    assert np.max(np.abs(sol.correctors)) <= 1e-10
    assert np.max(np.abs(sol.a_tilde - 2.5 * np.eye(2))) <= 1e-10


def test_1d_layered_harmonic_mean():
    # 2 + sin(2 pi y) has harmonic mean sqrt(2^2 - 1) = sqrt(3)
    c = make_coefficient("layered", dimension=1, alpha=2.0, beta=1.0)
    sol = solve_cell_problem(c, CellGrid(dimension=1, cells=256))
    assert abs(sol.a_tilde[0, 0] - SQRT3) / SQRT3 <= 5e-4


def test_1d_corrector_slope_closed_form():
    # flux constancy a (1 + eta') = a_eff forces eta' = a_eff/a - 1
    c = make_coefficient("layered", dimension=1, alpha=2.0, beta=1.0)
    grid = CellGrid(dimension=1, cells=256)
    sol = solve_cell_problem(c, grid)
    y = grid.centers()[0]
    a_vals = 2.0 + np.sin(2.0 * np.pi * y)
    expected = sol.a_tilde[0, 0] / a_vals - 1.0
    slopes = sol.corrector_gradients()[0, 0, 0]
    assert np.max(np.abs(slopes - expected)) <= 1e-3


def test_zero_mean_normalization_per_slice():
    c = make_coefficient("separable_trig", dimension=1, alpha=2.0, beta=1.0,
                         gamma=2.0, delta=1.0)
    sol = solve_cell_problem(c, CellGrid(dimension=1, cells=64, tau_slices=8))
    for s in range(8):
        assert abs(np.mean(sol.correctors[s, 0])) <= 1e-12


def test_residuals_below_tolerance():
    c = make_coefficient("layered", dimension=2, alpha=2.0, beta=1.0)
    sol = solve_cell_problem(c, CellGrid(dimension=2, cells=32), tol=1e-10)
    assert np.all(np.asarray(sol.residuals) <= 1e-10)


def test_checkerboard_cell_iterations_stay_pinned():
    # The FFT preconditioner holds the 256^2 checkerboard at about 20
    # iterations per direction; plain CG took about 618.
    c = make_coefficient("checkerboard", 2, low=1.0, high=3.0, width=0.05)
    sol = solve_cell_problem(c, CellGrid(dimension=2, cells=256))
    assert sol.iterations.shape == (1, 2)
    assert np.all(sol.iterations <= 25)
    assert np.all(sol.residuals <= 1e-10)


@pytest.mark.filterwarnings("error")
def test_cell_cg_stops_at_lost_definiteness():
    # Negative faces make the cell operator negative definite: the first
    # search direction has p.Ap <= 0 and CG must stop at once.
    c = make_coefficient("layered", 2, kappa=1.0, alpha=-2.0, beta=1.0)
    with pytest.raises(SolverDiverged) as err:
        solve_cell_problem(c, CellGrid(dimension=2, cells=16))
    assert err.value.iterations == 0


def test_2d_laminate_tensor():
    # layered in y1 only: harmonic mean across the layers, arithmetic along
    c = make_coefficient("layered", dimension=2, alpha=2.0, beta=1.0)
    sol = solve_cell_problem(c, CellGrid(dimension=2, cells=128))
    assert abs(sol.a_tilde[0, 0] - SQRT3) <= 1e-3
    assert abs(sol.a_tilde[1, 1] - 2.0) <= 1e-3
    assert abs(sol.a_tilde[0, 1]) <= 1e-6
    assert abs(sol.a_tilde[1, 0]) <= 1e-6


def test_separable_time_factor_scales_the_tensor():
    # (2 + sin)(2 + cos) averages to 2 * harmonic mean over tau
    c = make_coefficient("separable_trig", dimension=1, alpha=2.0, beta=1.0,
                         gamma=2.0, delta=1.0)
    sol = solve_cell_problem(c, CellGrid(dimension=1, cells=256,
                                         tau_slices=16))
    target = 2.0 * SQRT3
    assert abs(sol.a_tilde[0, 0] - target) / target <= 1e-3


def test_separable_slices_match_frozen_layered_correctors():
    # the linear problem factors: each tau slice has the layered corrector
    sep = make_coefficient("separable_trig", dimension=1, alpha=2.0, beta=1.0,
                           gamma=2.0, delta=1.0)
    lay = make_coefficient("layered", dimension=1, alpha=2.0, beta=1.0)
    grid = CellGrid(dimension=1, cells=64, tau_slices=4)
    sol_sep = solve_cell_problem(sep, grid)
    sol_lay = solve_cell_problem(lay, CellGrid(dimension=1, cells=64))
    for s in range(4):
        assert np.max(np.abs(sol_sep.correctors[s, 0]
                             - sol_lay.correctors[0, 0])) <= 1e-8


def test_tensor_stable_under_grid_doubling():
    c = make_coefficient("layered", dimension=1, alpha=2.0, beta=1.0)
    coarse = solve_cell_problem(c, CellGrid(dimension=1, cells=128))
    fine = solve_cell_problem(c, CellGrid(dimension=1, cells=256))
    rel = abs(fine.a_tilde[0, 0] - coarse.a_tilde[0, 0]) / fine.a_tilde[0, 0]
    assert rel <= 2e-3


def test_scaling_equivariance():
    base = make_coefficient("layered", dimension=1, alpha=2.0, beta=1.0)
    tripled = make_coefficient("layered", dimension=1, alpha=6.0, beta=3.0)
    grid = CellGrid(dimension=1, cells=64)
    t_base = solve_cell_problem(base, grid).a_tilde
    t_tripled = solve_cell_problem(tripled, grid).a_tilde
    assert np.max(np.abs(t_tripled - 3.0 * t_base)) <= 1e-10 * 3.0


def test_tensor_between_harmonic_and_arithmetic_means():
    c = make_coefficient("layered", dimension=1, alpha=2.0, beta=1.0)
    sol = solve_cell_problem(c, CellGrid(dimension=1, cells=128))
    harmonic, arithmetic = SQRT3, 2.0
    assert harmonic - 1e-6 <= sol.a_tilde[0, 0] <= arithmetic + 1e-6


def test_tensor_symmetric_elliptic():
    c = make_coefficient("checkerboard", dimension=2, low=1.0, high=3.0,
                         width=0.05)
    sol = solve_cell_problem(c, CellGrid(dimension=2, cells=64))
    t = sol.a_tilde
    assert np.max(np.abs(t - t.T)) <= 1e-10
    eigs = np.linalg.eigvalsh(t)
    assert eigs.min() >= c.kappa - 1e-8


def test_reconstruction_constant_coefficient_is_identity():
    c = make_coefficient("constant", dimension=1, value=2.0)
    sol = solve_cell_problem(c, CellGrid(dimension=1, cells=32))
    x = np.linspace(0.1, 0.9, 7)
    grad = np.ones_like(x)
    rec = corrector_gradient(sol, (grad,), x, 0.0, 0.125)
    assert np.max(np.abs(rec[..., 0] - grad)) <= 1e-12


def test_reconstruction_linear_profile_tracks_flux():
    # unit slope on layered medium reconstructs to a_eff / a(x/eps)
    c = make_coefficient("layered", dimension=1, alpha=2.0, beta=1.0)
    sol = solve_cell_problem(c, CellGrid(dimension=1, cells=256))
    eps = 0.125
    x = np.linspace(0.05, 0.95, 401)
    rec = corrector_gradient(sol, (np.ones_like(x),), x, 0.0, eps)
    expected = sol.a_tilde[0, 0] / (2.0 + np.sin(2.0 * np.pi * x / eps))
    assert np.max(np.abs(rec[..., 0] - expected)) <= 1e-2


def test_reconstruction_zero_gradient_is_zero():
    c = make_coefficient("layered", dimension=2, alpha=2.0, beta=1.0)
    sol = solve_cell_problem(c, CellGrid(dimension=2, cells=32))
    xs = (np.array([0.3, 0.5]), np.array([0.2, 0.8]))
    zero = (np.zeros(2), np.zeros(2))
    rec = corrector_gradient(sol, zero, xs, 0.0, 0.25)
    assert np.max(np.abs(rec)) == 0.0


def test_slopes_interpolate_periodically():
    c = make_coefficient("layered", dimension=1, alpha=2.0, beta=1.0)
    sol = solve_cell_problem(c, CellGrid(dimension=1, cells=64))
    y = np.array([0.3, 1.3, -0.7])  # same torus point
    s = corrector_slopes(sol, y)
    assert abs(s[0, 0, 0] - s[1, 0, 0]) <= 1e-12
    assert abs(s[0, 0, 0] - s[2, 0, 0]) <= 1e-12
