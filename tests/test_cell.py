"""Periodic cell solves, correctors, and the effective tensor."""
from __future__ import annotations

import numpy as np
import pytest

from twoscale import parallel
from twoscale.cell import (CG_TOL, CellGrid, _preconditioned_cg,
                           corrector_slopes, solve_cell_problem)
from twoscale.coefficients import FAMILIES, CoefficientField, make_coefficient
from twoscale.errors import SolverDiverged

from forks import assert_no_child_left, deadline

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
    slopes = sol.corrector_gradients[0, 0, 0]
    assert np.max(np.abs(slopes - expected)) <= 1e-3


def corrector_gradients_oracle(sol):
    """Central differences slice by slice and direction by direction."""
    g = sol.grid
    out = np.empty((g.tau_slices, g.dimension, g.dimension) + g.shape)
    for s in range(g.tau_slices):
        for i in range(g.dimension):
            eta = sol.correctors[s, i]
            for j in range(g.dimension):
                out[s, i, j] = (np.roll(eta, -1, axis=j)
                                - np.roll(eta, 1, axis=j)) / (2.0 * g.h)
    return out


@pytest.mark.parametrize("dimension", [1, 2])
def test_corrector_gradients_match_the_loop_oracle_and_are_kept(dimension):
    c = make_coefficient("separable_trig", dimension)
    sol = solve_cell_problem(c, CellGrid(dimension, 16, tau_slices=3))
    grads = sol.corrector_gradients
    assert np.array_equal(grads, corrector_gradients_oracle(sol))
    assert sol.corrector_gradients is grads
    assert not grads.flags.writeable


def test_zero_mean_normalization_per_slice():
    c = make_coefficient("separable_trig", dimension=1, alpha=2.0, beta=1.0,
                         gamma=2.0, delta=1.0)
    sol = solve_cell_problem(c, CellGrid(dimension=1, cells=64, tau_slices=8))
    for s in range(8):
        assert abs(np.mean(sol.correctors[s, 0])) <= 1e-12


def test_residuals_below_tolerance():
    c = make_coefficient("layered", dimension=2, alpha=2.0, beta=1.0)
    sol = solve_cell_problem(c, CellGrid(dimension=2, cells=32))
    assert np.all(np.asarray(sol.residuals) <= 1e-10)


def test_checkerboard_cell_iterations_stay_pinned():
    # The FFT preconditioner holds the 256^2 checkerboard at about 20
    # iterations per direction; plain CG took about 618.
    c = make_coefficient("checkerboard", 2, low=1.0, high=3.0, width=0.05)
    sol = solve_cell_problem(c, CellGrid(dimension=2, cells=256))
    assert sol.iterations.shape == (1, 2)
    assert np.all(sol.iterations <= 25)
    assert np.all(sol.residuals <= 1e-10)


class Negated(CoefficientField):
    """-s: negative everywhere. No parameters build such a field."""

    def scalar(self, y, tau=0.0):
        return -super().scalar(y, tau)


@pytest.mark.filterwarnings("error")
def test_cell_cg_stops_at_lost_definiteness():
    # Negative faces make the cell operator negative definite: the first
    # search direction has p.Ap <= 0 and CG must stop at once.
    c = Negated("layered", 2, FAMILIES["layered"])
    with pytest.raises(SolverDiverged) as err:
        solve_cell_problem(c, CellGrid(dimension=2, cells=16))
    assert err.value.iterations == 0


def solve_counting_shards(monkeypatch, coeff, grid, cpus):
    """The cell solve at ``cpus`` usable CPUs, and its shard count."""
    counts = []
    run_shards = parallel.run_shards

    def counting(run_shard, shards, *args, **kwargs):
        counts.append(len(shards))
        return run_shards(run_shard, shards, *args, **kwargs)

    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(parallel, "run_shards", counting)
    with deadline(120):
        sol = solve_cell_problem(coeff, grid)
    assert_no_child_left()
    monkeypatch.setattr(parallel, "run_shards", run_shards)
    return sol, counts[0]


@pytest.mark.parametrize("dimension, cells, slices, shards", [
    (2, 128, 2, [1, 2, 3]),  # 4 items of 16,384 values
    (1, 256, 3, [1, 1, 1]),  # 3 items of 256 values stay in one process
])
def test_cell_solve_does_not_depend_on_the_cpu_count(monkeypatch, dimension,
                                                      cells, slices, shards):
    coeff = make_coefficient("separable_trig", dimension)
    grid = CellGrid(dimension, cells, tau_slices=slices)
    results = [solve_counting_shards(monkeypatch, coeff, grid, cpus)
               for cpus in (1, 2, 3)]
    assert [count for _, count in results] == shards
    first = results[0][0]
    for sol, _ in results[1:]:
        for name in ("correctors", "slice_tensors", "a_tilde", "residuals",
                     "iterations"):
            assert np.array_equal(getattr(sol, name), getattr(first, name))
    assert first.iterations.dtype.kind == "i"


@pytest.mark.filterwarnings("error")
def test_cell_failure_in_a_child_shard_is_raised(monkeypatch):
    # direction 1 is solved by a forked child on two CPUs; its failure
    # comes back with its telemetry, after direction 0's in the parent
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    c = Negated("layered", 2, FAMILIES["layered"])
    with deadline(60), pytest.raises(SolverDiverged, match="cell CG") as err:
        solve_cell_problem(c, CellGrid(dimension=2, cells=128))
    assert_no_child_left()
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
    # a unit gradient reconstructs to 1 + d(eta)/dy at y = x/eps
    c = make_coefficient("constant", dimension=1, value=2.0)
    sol = solve_cell_problem(c, CellGrid(dimension=1, cells=32))
    x = np.linspace(0.1, 0.9, 7)
    rec = 1.0 + corrector_slopes(sol, x / 0.125)[..., 0, 0]
    assert np.max(np.abs(rec - 1.0)) <= 1e-12


def test_reconstruction_linear_profile_tracks_flux():
    # unit slope on layered medium reconstructs to a_eff / a(x/eps)
    c = make_coefficient("layered", dimension=1, alpha=2.0, beta=1.0)
    sol = solve_cell_problem(c, CellGrid(dimension=1, cells=256))
    eps = 0.125
    x = np.linspace(0.05, 0.95, 401)
    rec = 1.0 + corrector_slopes(sol, x / eps)[..., 0, 0]
    expected = sol.a_tilde[0, 0] / (2.0 + np.sin(2.0 * np.pi * x / eps))
    assert np.max(np.abs(rec - expected)) <= 1e-2


def test_slopes_interpolate_periodically():
    c = make_coefficient("layered", dimension=1, alpha=2.0, beta=1.0)
    sol = solve_cell_problem(c, CellGrid(dimension=1, cells=64))
    y = np.array([0.3, 1.3, -0.7])  # same torus point
    s = corrector_slopes(sol, y)
    assert abs(s[0, 0, 0] - s[1, 0, 0]) <= 1e-12
    assert abs(s[0, 0, 0] - s[2, 0, 0]) <= 1e-12


# ---------------------------------------------------------------------------
# the cell's preconditioned conjugate gradients, on dense systems with no
# kernel to project out


def _spd_matrix(n, rng):
    q = rng.standard_normal((n, n))
    return q @ q.T + n * np.eye(n)


def _identity(v):
    return v


def test_pcg_solves_one_right_hand_side():
    rng = np.random.default_rng(21)
    a = _spd_matrix(12, rng)
    diag = np.diag(a)
    b = rng.standard_normal(12)
    x, res, its = _preconditioned_cg(lambda v: a @ v, lambda v: v / diag,
                                     _identity, b, 100)
    np.testing.assert_allclose(x, np.linalg.solve(a, b), atol=1e-10)
    assert res <= CG_TOL and its > 0


def test_pcg_takes_no_iteration_on_a_zero_right_hand_side():
    a = _spd_matrix(12, np.random.default_rng(21))
    x, res, its = _preconditioned_cg(lambda v: a @ v, _identity, _identity,
                                     np.zeros(12), 100)
    assert its == 0 and res == 0.0 and not np.any(x)


@pytest.mark.filterwarnings("error")
def test_pcg_stops_at_indefinite_preconditioner():
    rng = np.random.default_rng(22)
    a = _spd_matrix(8, rng)
    with pytest.raises(SolverDiverged, match=r"r\.z") as err:
        _preconditioned_cg(lambda v: a @ v, lambda v: -v, _identity,
                           rng.standard_normal(8), 50)
    assert err.value.iterations == 0


def test_pcg_reports_exhausted_iteration_limit():
    rng = np.random.default_rng(23)
    a = _spd_matrix(16, rng)
    with pytest.raises(SolverDiverged, match="exceeded 2 iterations") as err:
        _preconditioned_cg(lambda v: a @ v, _identity, _identity,
                           rng.standard_normal(16), 2)
    assert err.value.iterations == 2 and err.value.residual > CG_TOL
