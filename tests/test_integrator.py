"""Tests for the semi-implicit time stepper and its ledgers."""

import os
import signal

import numpy as np
import pytest

from twoscale import grid as grid_module
from twoscale import parallel
from twoscale.cell import CellGrid, solve_cell_problem
from twoscale.coefficients import make_coefficient
from twoscale.ensemble import Ensemble
from twoscale.errors import (InternalError, NonFinite, StepRejected,
                             ValidationError)
from twoscale.grid import GridSpec, ScalarField, VectorField, inner_H, norm_H
from twoscale.integrator import (LEDGER_COLUMNS, BatchedStepper, EnergyLedger,
                                 IncrementFit, StepperConfig, _max_abs,
                                 check_guard, ensemble_shards,
                                 increment_scaling, run_ensemble)
from twoscale.models import (ImplicitFactorization, ModelSpec, apply_A_eps,
                             apply_B, face_coefficients, leray_project)
from twoscale.noise import NoiseStream, QWienerSpec

from empirical import EmpiricalMeasure, empirical_measure
from forks import assert_no_child_left, deadline
from modes import first_eigenvalue, sine_mode


def layered():
    return make_coefficient("layered", 1, alpha=2.0, beta=1.0)


def constant():
    return make_coefficient("constant", 1, value=1.0)


def free_model(coefficient=None, sigma0=0.0):
    """No drag, no cubic; sigma0 = 0 switches the noise off entirely."""
    return ModelSpec(variant="allen_cahn",
                     coefficient=coefficient or constant(),
                     epsilon=1.0, mean_field="none", cubic=False,
                     sigma0=sigma0)


def noise_spec(grid, modes=8, seed=0):
    return QWienerSpec(grid=grid, modes=modes, gamma=2.0, lambda0=1.0,
                       seed=seed)


def sin_initial(grid, amplitude=0.5):
    return ScalarField(grid, amplitude * np.sin(np.pi * grid.axis_nodes()))


def path_stepper(grid, model, dt):
    """The batched engine on a stack of one path."""
    return BatchedStepper(grid, model, noise_spec(grid), members=1, dt=dt)


def advance_path(stepper, u, n, dt):
    """Step n of one path; free models have sigma0 = 0, so draws are zero."""
    U = u.values.reshape(1, -1)
    xi = np.zeros((1, stepper.spec.modes))
    out = stepper.advance(U, xi, n * dt, n)
    return ScalarField(u.grid, out.reshape(u.grid.shape))


# ---------------------------------------------------------------------------
# single-path reference: the executable definition of one semi-implicit
# step that the batched engine is checked against, and the only stepper of
# the 2D velocity variant


def reference_drift(values, mean, model):
    """F(u, mu): the drag adds u - mean (away from the mean), the cubic
    u - u^3."""
    drift = np.zeros_like(values)
    if model.mean_field == "stokes_drag":
        drift += values - mean
    if model.cubic:
        drift += values - values * values * values
    return drift


def reference_noise(values, xi, dt, model, spec):
    """G(u) dW with per-mode amplitudes sqrt(lambda_k dt) sigma0/k xi_k."""
    sigmas = model.sigma0 / np.arange(1, spec.modes + 1, dtype=float)
    amp = np.sqrt(spec.eigenvalues * dt) * sigmas * xi
    if model.noise_law == "scalar_multiplicative":
        return float(amp.sum()) * values
    return values * (amp @ spec.basis).reshape(values.shape)


def reference_solve(values, grid, model, t, dt):
    """(I + dt A_eps(t))^{-1} values with the coefficient frozen at t."""
    faces = face_coefficients(model.coefficient, grid, model.epsilon, t)
    return ImplicitFactorization(grid, faces, dt).solve_batch(values)


def step(u, model, measure, xi, spec, dt, t):
    """One semi-implicit step of a single scalar path."""
    check_guard(float(np.max(np.abs(u.values))), model, dt, u.grid.h)
    mean = None if measure is None else measure.mean.values
    rhs = (u.values + dt * reference_drift(u.values, mean, model)
           + reference_noise(u.values, xi, dt, model, spec))
    return ScalarField(u.grid, reference_solve(rhs, u.grid, model, t, dt))


def step_velocity(u, model, measures, streams, dt, t):
    """One semi-implicit step of the 2D velocity variant.

    Advection enters explicitly through the skew-symmetrized projected
    form; each component then goes through the scalar implicit solve with
    its own noise draw and its own component measure.
    """
    g = u.grid
    check_guard(max(float(np.max(np.abs(c.values))) for c in u.components),
                model, dt, g.h)
    b = apply_B(u, u)
    comps = []
    for m, comp in enumerate(u.components):
        drift = reference_drift(comp.values, measures[m].mean.values, model)
        noise = reference_noise(comp.values, streams[m].draw(), dt, model,
                                streams[m].spec)
        rhs = comp.values + dt * (drift - b[m].values) + noise
        comps.append(ScalarField(g, reference_solve(rhs, g, model, t, dt)))
    return VectorField(comps)


# ---------------------------------------------------------------------------
# configuration and guard


def test_stepper_config_validation():
    cfg = StepperConfig(dt=0.001, horizon=0.1)
    assert cfg.steps == 100
    with pytest.raises(ValueError):
        StepperConfig(dt=0.0, horizon=0.1)
    with pytest.raises(ValueError):
        StepperConfig(dt=0.001, horizon=0.0)
    with pytest.raises(ValueError):
        StepperConfig(dt=0.003, horizon=0.1)


def test_guard_value_and_rejection():
    model = ModelSpec(variant="allen_cahn", coefficient=layered(),
                      epsilon=0.125, mean_field="stokes_drag", cubic=True)
    dt, h, amp = 0.01, 1.0 / 64, 0.5
    value = check_guard(amp, model, dt, h)
    expected = dt * (amp / h + 3.0 * amp ** 2 + 1.0 + 1.0)
    assert value == pytest.approx(expected, rel=1e-14)
    with pytest.raises(StepRejected) as err:
        check_guard(100.0, model, dt, h)
    assert err.value.guard_value > 0.5


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_guard_rejects_non_finite_state(bad):
    # NaN compares false against the limit; the guard must not let it pass
    model = ModelSpec(variant="allen_cahn", coefficient=layered(),
                      epsilon=0.125, mean_field="stokes_drag", cubic=True)
    with pytest.raises(NonFinite) as err:
        check_guard(bad, model, 1e-4, 1.0 / 1024, step_index=5)
    assert err.value.step == 5
    grid = GridSpec(1, 32)
    stepper = BatchedStepper(grid, model, noise_spec(grid), members=1,
                             dt=1e-4)
    U = np.zeros((2, grid.dof))
    U[1, 3] = bad
    with pytest.raises(NonFinite):
        stepper.advance(U, np.zeros((2, 8)), 0.0, 0)


def test_guard_reads_max_abs_from_the_two_extremes():
    # max(U.max(), -U.min()) is max|U| exactly, and a NaN or an infinity
    # in the stack reaches check_guard as itself
    model = ModelSpec(variant="allen_cahn", coefficient=layered(),
                      epsilon=0.125, mean_field="stokes_drag", cubic=True)
    rng = np.random.default_rng(3)
    stacks = [rng.standard_normal((4, 31)),
              -np.abs(rng.standard_normal((3, 31))),
              np.abs(rng.standard_normal((1, 31))),
              np.zeros((2, 31)), -np.zeros((2, 31)),
              np.array([[0.0, -0.0], [-0.0, 0.0]]), np.array([[-0.0]])]
    for U in stacks:
        assert _max_abs(U) == float(np.max(np.abs(U)))
        assert (check_guard(_max_abs(U), model, 1e-4, 1.0 / 32)
                == check_guard(float(np.max(np.abs(U))), model, 1e-4,
                               1.0 / 32))
    for bad in (float("nan"), float("inf"), -float("inf")):
        U = rng.standard_normal((3, 31))
        U[2, 7] = bad
        assert np.array_equal(_max_abs(U), np.max(np.abs(U)), equal_nan=True)
        with pytest.raises(NonFinite):
            check_guard(_max_abs(U), model, 1e-4, 1.0 / 32)


def test_step_rejects_oversized_state():
    grid = GridSpec(1, 64)
    model = ModelSpec(variant="allen_cahn", coefficient=layered(),
                      epsilon=0.125, mean_field="none", cubic=True)
    u = ScalarField(grid, np.full(grid.shape, 50.0))
    with pytest.raises(StepRejected):
        advance_path(path_stepper(grid, model, 0.01), u, 0, 0.01)


# ---------------------------------------------------------------------------
# exact linear decay and contraction


def test_free_decay_is_geometric():
    # With every forcing off and a unit coefficient the first sine mode
    # satisfies the exact recursion u_next = u / (1 + dt * mu_1).
    grid = GridSpec(1, 128)
    model = free_model()
    dt = 0.001
    steps = 20
    u = sine_mode(grid, (1,))
    stepper = path_stepper(grid, model, dt)
    for n in range(steps):
        u = advance_path(stepper, u, n, dt)
    factor = (1.0 + dt * first_eigenvalue(grid)) ** steps
    expected = sine_mode(grid, (1,)).values / factor
    assert np.max(np.abs(u.values - expected)) < 1e-12


def test_implicit_step_contracts():
    rng = np.random.default_rng(3)
    grid = GridSpec(1, 64)
    model = free_model(coefficient=layered())
    stepper = path_stepper(grid, model, 0.005)
    u = ScalarField(grid, 0.2 * rng.standard_normal(grid.shape))
    prev = norm_H(u)
    for n in range(10):
        u = advance_path(stepper, u, n, 0.005)
        now = norm_H(u)
        assert now <= prev * (1.0 + 1e-12)
        prev = now


def test_energy_identity_exact_form():
    # Pairing u+ - u = -dt A u+ against u+ + u gives the exact discrete
    # balance ||u+||^2 - ||u||^2 = -2 dt (A u+, u+) - dt^2 ||A u+||^2,
    # which must hold to solver tolerance every step.
    grid = GridSpec(1, 128)
    model = free_model()
    dt = 0.001
    u = sin_initial(grid, amplitude=1.0)
    stepper = path_stepper(grid, model, dt)
    scale = norm_H(u) ** 2
    for n in range(15):
        u_next = advance_path(stepper, u, n, dt)
        au = apply_A_eps(u_next, model.coefficient, model.epsilon, n * dt)
        balance = (norm_H(u_next) ** 2 - norm_H(u) ** 2
                   + 2.0 * dt * inner_H(au, u_next)
                   + dt ** 2 * norm_H(au) ** 2)
        assert abs(balance) < 1e-10 * scale
        u = u_next


def test_ledger_energy_identity_time_dependent_coefficient():
    # The ledger's dissipation must pair u^{n+1} with the faces of the
    # implicit solve, frozen at t_n; on a coefficient that moves with the
    # fast time any other faces break the exact balance of step 2.
    grid = GridSpec(1, 128)
    model = free_model(coefficient=make_coefficient("separable_trig", 1))
    dt = 1e-3
    ens = Ensemble(members=[sin_initial(grid)], noise=noise_spec(grid))
    final, ledger = run_ensemble(ens, model,
                                 StepperConfig(dt=dt, horizon=2 * dt))
    u2 = final.members[0]
    au = apply_A_eps(u2, model.coefficient, model.epsilon, dt)
    h2, diss = ledger.H2[:, 0], ledger.cumulative_dissipation[:, 0]
    balance = (h2[2] - h2[1] + (diss[2] - diss[1])
               + dt ** 2 * norm_H(au) ** 2)
    assert abs(balance) < 1e-10 * h2[1]


# ---------------------------------------------------------------------------
# determinism and coupling symmetries


def run_once(mean_field, common_noise=False, members=2, seed=0, sigma0=0.3):
    grid = GridSpec(1, 64)
    model = ModelSpec(variant="allen_cahn", coefficient=layered(),
                      epsilon=0.125, mean_field=mean_field, cubic=True,
                      sigma0=sigma0)
    spec = noise_spec(grid, seed=seed)
    u0 = sin_initial(grid)
    # common noise: every member draws from the one key (0, 0)
    streams = [NoiseStream.derive(spec, 0 if common_noise else i, 0)
               for i in range(members)]
    ens = Ensemble(members=[u0] * members, noise=spec, streams=streams)
    cfg = StepperConfig(dt=0.001, horizon=0.02)
    return run_ensemble(ens, model, cfg)


def test_bitwise_reproducibility():
    final_a, ledger_a = run_once("stokes_drag")
    final_b, ledger_b = run_once("stokes_drag")
    for ma, mb in zip(final_a.members, final_b.members):
        assert np.array_equal(ma.values, mb.values)
    assert np.array_equal(ledger_a.table, ledger_b.table)


def test_single_member_drag_is_inert():
    final_on, _ = run_once("stokes_drag", members=1)
    final_off, _ = run_once("none", members=1)
    assert np.array_equal(final_on.members[0].values,
                          final_off.members[0].values)


def test_common_noise_keeps_equal_members_equal():
    final, _ = run_once("stokes_drag", common_noise=True, members=3)
    base = final.members[0].values
    for m in final.members[1:]:
        assert np.array_equal(m.values, base)


def test_independent_noise_separates_members():
    final, _ = run_once("stokes_drag", common_noise=False, members=3)
    assert not np.array_equal(final.members[0].values,
                              final.members[1].values)


def test_drag_preserves_ensemble_mean_dynamics():
    # With G = 0 and the cubic off the drag averages to zero across the
    # ensemble, so the mean field follows the drag-free linear dynamics.
    grid = GridSpec(1, 64)
    spec = noise_spec(grid)
    rng = np.random.default_rng(5)
    members = [ScalarField(grid, 0.3 * rng.standard_normal(grid.shape))
               for _ in range(4)]
    cfg = StepperConfig(dt=0.001, horizon=0.02)

    drag = ModelSpec(variant="allen_cahn", coefficient=layered(),
                     epsilon=0.125, mean_field="stokes_drag", cubic=False,
                     sigma0=0.0)
    plain = ModelSpec(variant="allen_cahn", coefficient=layered(),
                      epsilon=0.125, mean_field="none", cubic=False,
                      sigma0=0.0)
    final_drag, _ = run_ensemble(
        Ensemble(members=members, noise=spec), drag, cfg)
    final_plain, _ = run_ensemble(
        Ensemble(members=members, noise=spec), plain, cfg)
    mean_drag = empirical_measure(final_drag.members).mean
    mean_plain = empirical_measure(final_plain.members).mean
    scale = max(1.0, float(np.max(np.abs(mean_plain.values))))
    assert np.max(np.abs(mean_drag.values - mean_plain.values)) < 1e-11 * scale


def test_batched_stepper_matches_reference_step():
    # The batched engine must reproduce the single-path reference step
    # bit-for-bit given the same draws and the same frozen measure.
    grid = GridSpec(1, 64)
    model = ModelSpec(variant="allen_cahn", coefficient=layered(),
                      epsilon=0.125, mean_field="stokes_drag", cubic=True,
                      sigma0=0.2)
    spec = noise_spec(grid)
    rng = np.random.default_rng(7)
    members = [ScalarField(grid, 0.3 * rng.standard_normal(grid.shape))
               for _ in range(2)]
    dt = 0.001
    streams = [NoiseStream.derive(spec, i, 0) for i in range(2)]
    xi = np.stack([s.draw() for s in streams])

    stepper = BatchedStepper(grid, model, spec, members=2, dt=dt)
    U = np.stack([m.values.reshape(-1) for m in members])
    batched = stepper.advance(U, xi, 0.0, 0)

    measure = empirical_measure(members)
    for i, m in enumerate(members):
        reference = step(m, model, measure, xi[i], spec, dt=dt, t=0.0)
        assert np.allclose(batched[i], reference.values.reshape(-1),
                           rtol=0.0, atol=1e-14)


def test_run_ensemble_evaluates_explicit_terms_once_per_step(monkeypatch):
    # the ledger reads no explicit term, so advance makes the only pass
    calls = []
    original = BatchedStepper.explicit_terms

    def counting(self, U, xi, *args):
        calls.append(1)
        return original(self, U, xi, *args)

    monkeypatch.setattr(BatchedStepper, "explicit_terms", counting)
    grid = GridSpec(1, 32)
    model = ModelSpec(variant="allen_cahn", coefficient=layered(),
                      epsilon=0.125, mean_field="stokes_drag", cubic=True,
                      sigma0=0.2)
    ens = Ensemble(members=[sin_initial(grid)] * 3, noise=noise_spec(grid))
    cfg = StepperConfig(dt=1e-3, horizon=7e-3)
    run_ensemble(ens, model, cfg)
    assert len(calls) == cfg.steps == 7


@pytest.mark.parametrize("dimension", [1, 2])
def test_run_ensemble_takes_face_differences_once_per_step(monkeypatch,
                                                          dimension):
    # the dissipation and the V2 energy of a step share one set of face
    # differences of the new state; the initial ledger row takes one more
    calls = []
    original = grid_module.face_differences

    def counting(values, axis, dim):
        calls.append(axis)
        return original(values, axis, dim)

    monkeypatch.setattr(grid_module, "face_differences", counting)
    grid = GridSpec(dimension, 16)
    model = ModelSpec(variant="allen_cahn",
                      coefficient=make_coefficient("constant", dimension),
                      epsilon=1.0, mean_field="stokes_drag", cubic=True,
                      sigma0=0.2)
    u0 = ScalarField(grid, 0.5 * sine_mode(grid, (1,) * dimension).values)
    ens = Ensemble(members=[u0] * 2, noise=noise_spec(grid))
    cfg = StepperConfig(dt=1e-3, horizon=4e-3)
    run_ensemble(ens, model, cfg)
    assert calls == list(range(dimension)) * (cfg.steps + 1)


# ---------------------------------------------------------------------------
# failure modes


def test_non_finite_state_aborts():
    # The batched engine works on raw arrays, so a catastrophic draw must
    # surface as NonFinite with step diagnostics instead of a silent clamp.
    grid = GridSpec(1, 32)
    model = ModelSpec(variant="allen_cahn", coefficient=constant(),
                      epsilon=1.0, mean_field="none", cubic=False,
                      sigma0=0.3)
    spec = noise_spec(grid)
    stepper = BatchedStepper(grid, model, spec, members=1, dt=0.001)
    U = sin_initial(grid, amplitude=0.1).values.reshape(1, -1)
    xi = np.full((1, spec.modes), np.inf)
    with pytest.raises(NonFinite) as err:
        with np.errstate(invalid="ignore"):
            stepper.advance(U, xi, 0.0, 3)
    assert err.value.step == 3
    # the error names the step, the time and the first bad path
    U3 = np.tile(U, (3, 1))
    xi3 = np.zeros((3, spec.modes))
    xi3[2] = np.inf
    with pytest.raises(NonFinite) as err:
        with np.errstate(invalid="ignore"):
            stepper.advance(U3, xi3, 0.25, 7)
    assert (err.value.step, err.value.time, err.value.member) == (7, 0.25, 2)
    assert "path(s) [2]" in str(err.value)


def test_ledger_validation():
    # columns: step, t, H2, V2, L4, cumulative_dissipation
    led = EnergyLedger(np.array([[0.0, 0.0, 1.0, 2.0, 0.5, 0.0],
                                 [1.0, 0.1, 0.9, 1.9, 0.4, 0.1]]))
    led.validate()
    led.H2[1] = float("inf")
    assert led.table[1, 2] == float("inf")  # column access is a view
    with pytest.raises(NonFinite):
        led.validate()
    led.H2[1] = 0.9
    led.cumulative_dissipation[1] = -0.5
    with pytest.raises(ValueError):
        led.validate()
    with pytest.raises(AttributeError):
        getattr(led, "Hp")  # H2 by definition: the column was dropped


def test_ledger_validation_of_a_whole_table():
    # (steps+1, members, columns): one pass checks every member's ledger
    table = np.zeros((3, 2, len(LEDGER_COLUMNS)))
    table[:, :, -1] = [[0.0, 0.0], [0.1, 0.2], [0.2, 0.3]]
    EnergyLedger(table).validate()
    table[2, 1, -1] = 0.1  # member 1 loses dissipation in its last step
    with pytest.raises(ValueError):
        EnergyLedger(table).validate()
    EnergyLedger(table[:, 0]).validate()
    table[2, 1, -1] = 0.3
    table[1, 1, LEDGER_COLUMNS.index("V2")] = np.nan
    with pytest.raises(NonFinite):
        EnergyLedger(table).validate()


def test_run_ensemble_validates_once_and_csv_only_writes(monkeypatch,
                                                         tmp_path):
    calls = []
    original = EnergyLedger.validate

    def counting(self):
        calls.append(self.table.shape)
        return original(self)

    monkeypatch.setattr(EnergyLedger, "validate", counting)
    _, ledger = run_once("stokes_drag", members=3)
    assert calls == [(21, 3, len(LEDGER_COLUMNS))]
    for i in range(3):
        EnergyLedger(ledger.table[:, i]).to_csv(tmp_path / f"ledger{i}.csv")
    assert len(calls) == 1


def test_run_ensemble_returns_one_ledger_table():
    final, ledger = run_once("stokes_drag", members=3)
    assert LEDGER_COLUMNS == ("step", "t", "H2", "V2", "L4",
                              "cumulative_dissipation")
    assert ledger.table.shape == (21, 3, len(LEDGER_COLUMNS))
    # a column read by name is a (steps+1, members) view of the table
    assert ledger.H2.shape == (21, 3)
    assert np.shares_memory(ledger.H2, ledger.table)
    assert np.array_equal(ledger.step, np.tile(np.arange(21.0)[:, None],
                                               (1, 3)))
    # the last H2 row holds the squared H norms of the final states,
    # summed in einsum's order rather than np.sum's
    states = np.stack([m.values for m in final.members])
    np.testing.assert_allclose(ledger.H2[-1],
                               np.sum(states ** 2, axis=-1) / 64,
                               rtol=1e-13, atol=0.0)


def test_ledger_csv_schema(tmp_path):
    _, ledger = run_once("stokes_drag", members=1)
    member = EnergyLedger(ledger.table[:, 0])
    path = tmp_path / "ledger.csv"
    member.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(LEDGER_COLUMNS)
    assert len(lines) == 1 + 21  # initial row plus one per step
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == len(LEDGER_COLUMNS)
        floats = [float(p) for p in parts]
        assert all(np.isfinite(floats))
    diss = [float(line.split(",")[-1]) for line in lines[1:]]
    assert all(b >= a for a, b in zip(diss, diss[1:]))
    times = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.allclose(np.diff(times), 0.001, rtol=0.0, atol=1e-12)
    # every field reads back bitwise, and the step column is an integer
    for n, line in enumerate(lines[1:]):
        parts = line.split(",")
        assert parts[0] == str(n)
        parsed = np.array([float(p) for p in parts])
        assert np.array_equal(parsed, member.table[n])


# ---------------------------------------------------------------------------
# increment scaling


def test_increment_slope_smooth_decay():
    # A noise-free path is differentiable in time, so the mean-square
    # increment scales like the lag squared and the fit reports ~2.
    grid = GridSpec(1, 64)
    model = free_model()
    dt = 1e-4
    steps = 200
    u = sine_mode(grid, (1,))
    stepper = path_stepper(grid, model, dt)
    states = [u.values]
    for n in range(steps):
        u = advance_path(stepper, u, n, dt)
        states.append(u.values)
    traj = np.asarray(states)[None]
    fit = increment_scaling(traj, grid, lags=(1, 2, 4, 8, 16), dt=dt)
    assert not fit.degenerate
    assert fit.slope == pytest.approx(2.0, abs=0.05)


def test_increment_slope_brownian_walk():
    # Independent oracle for the fitter: a discrete random walk has
    # mean-square increments exactly linear in the lag.
    grid = GridSpec(1, 32)
    rng = np.random.default_rng(11)
    paths, steps = 64, 256
    e1 = sine_mode(grid, (1,)).values
    dW = np.sqrt(1e-4) * rng.standard_normal((paths, steps))
    walk = np.cumsum(dW, axis=1)
    walk = np.concatenate([np.zeros((paths, 1)), walk], axis=1)
    traj = walk[:, :, None] * e1[None, None, :]
    fit = increment_scaling(traj, grid, lags=(1, 2, 4, 8, 16, 32), dt=1e-4)
    assert not fit.degenerate
    assert 0.9 < fit.slope < 1.1


def test_increment_degenerate_zero_path():
    grid = GridSpec(1, 32)
    traj = np.zeros((2, 64, grid.dof))
    fit = increment_scaling(traj, grid, lags=(1, 2, 5, 10), dt=0.01)
    assert fit.degenerate
    assert np.isnan(fit.slope)
    assert isinstance(fit, IncrementFit)


def test_increment_lag_validation():
    grid = GridSpec(1, 32)
    traj = np.zeros((1, 40, grid.dof))
    with pytest.raises(ValueError):
        increment_scaling(traj, grid, lags=(1, 2, 10), dt=0.01)
    with pytest.raises(ValueError):
        increment_scaling(traj, grid, lags=(1, 2, 4, 8), dt=0.01)
    with pytest.raises(ValueError):
        increment_scaling(traj, grid, lags=(0, 2, 5, 10), dt=0.01)
    with pytest.raises(ValueError):
        increment_scaling(traj, grid, lags=(1, 3, 10, 64), dt=0.01)


# ---------------------------------------------------------------------------
# velocity variant smoke-level contract


def test_velocity_step_runs_and_stays_finite():
    grid = GridSpec(2, 32)
    coeff = make_coefficient("checkerboard", 2, low=1.0, high=3.0, width=0.05)
    model = ModelSpec(variant="navier_stokes_2d", coefficient=coeff,
                      epsilon=0.25, mean_field="stokes_drag", cubic=False,
                      sigma0=0.1)
    rng = np.random.default_rng(2)
    u = leray_project(VectorField(
        ScalarField(grid, 0.1 * rng.standard_normal(grid.shape))
        for _ in range(2)))
    spec = noise_spec(grid)
    streams = [NoiseStream.derive(spec, m) for m in range(2)]
    measures = [EmpiricalMeasure(mean=u[m], second_moment=norm_H(u[m]) ** 2,
                                 count=1) for m in range(2)]
    out = step_velocity(u, model, measures, streams, dt=0.001, t=0.0)
    for m in range(2):
        assert out[m].values.shape == grid.shape
        assert np.all(np.isfinite(out[m].values))
    assert not np.array_equal(out[0].values, u[0].values)


def test_engine_rejects_an_off_diagonal_homogenized_tensor():
    # the effective level steps the diagonal a~[d, d] as constant faces, so
    # an off-diagonal entry it would ignore is refused
    grid = GridSpec(2, 16)
    model = free_model(make_coefficient("checkerboard", 2))
    tensor = np.array([[2.0, 1e-3], [1e-3, 2.0]])
    with pytest.raises(ValidationError) as err:
        BatchedStepper(grid, model, noise_spec(grid), members=1, dt=1e-3,
                       homogenized_tensor=tensor)
    assert err.value.field == "homogenized_tensor"


def test_engine_accepts_a_cell_solved_tensor():
    # a checkerboard cell solve leaves round-off off the diagonal; the
    # effective level steps the diagonal's constant faces, and a sine mode
    # is an eigenvector of that operator, so one noise-free step scales it
    # by 1 / (1 + dt (a_00 lam_1 + a_11 lam_1))
    grid = GridSpec(2, 16)
    coeff = make_coefficient("checkerboard", 2)
    a_tilde = solve_cell_problem(coeff, CellGrid(2, 64)).a_tilde
    assert a_tilde[0, 1] != 0.0
    stepper = BatchedStepper(grid, free_model(coeff), noise_spec(grid),
                             members=1, dt=1e-3, homogenized_tensor=a_tilde)
    mode = sine_mode(grid, (1, 1)).values.reshape(-1)
    out = stepper.advance(np.tile(mode, (2, 1)), np.zeros((2, 8)), 0.0, 0)
    lam = (4.0 / grid.h ** 2) * np.sin(np.pi * grid.h / 2.0) ** 2
    factor = 1.0 / (1.0 + 1e-3 * lam * (a_tilde[0, 0] + a_tilde[1, 1]))
    np.testing.assert_allclose(out, factor * np.tile(mode, (2, 1)),
                               rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("kind", ["1d", "2d_lu", "2d_dst"])
def test_advance_into_out_keeps_the_bits(kind):
    # the right-hand side is formed in out and solved there: a new array,
    # U itself and a run of rows written into the next state buffer (as
    # run_ensemble steps its shard's members) all hold the bits of a call
    # without out
    dimension = 1 if kind == "1d" else 2
    grid = GridSpec(dimension, 64 if dimension == 1 else 16)
    coeff = layered() if dimension == 1 else make_coefficient(
        "checkerboard", 2)
    model = ModelSpec(variant="allen_cahn", coefficient=coeff, epsilon=0.25,
                      noise_law="mode_modulated", sigma0=0.5)
    spec = noise_spec(grid)
    tensor = np.diag([1.75, 2.5]) if kind == "2d_dst" else None
    stepper = BatchedStepper(grid, model, spec, members=2, dt=1e-3,
                             homogenized_tensor=tensor)
    rng = np.random.default_rng(17)
    U = 0.3 * rng.standard_normal((4, grid.dof))
    xi = rng.standard_normal((4, spec.modes))
    expected = stepper.advance(U, xi, 0.0, 0)
    out = np.full_like(U, np.nan)
    assert stepper.advance(U, xi, 0.0, 0, out=out) is out
    assert np.array_equal(out, expected)
    V = U.copy()
    stepper.advance(V, xi, 0.0, 0, out=V)
    assert np.array_equal(V, expected)
    states = np.zeros((2, 4, grid.dof))
    states[0] = U
    stepper.advance(states[0], xi, 0.0, 0, rows=slice(2, 4),
                    out=states[1, 2:4])
    assert np.array_equal(states[1, 2:4], expected[2:4])
    assert np.array_equal(states[0], U) and not states[1, :2].any()


def test_2d_mode_modulated_stepper_holds_no_basis():
    # the noise is synthesized from per-axis sine tables, so no stepper
    # holds the (modes, dof) basis
    grid = GridSpec(2, 32)
    spec = noise_spec(grid)
    model = ModelSpec(variant="allen_cahn",
                      coefficient=make_coefficient("checkerboard", 2),
                      epsilon=0.25, noise_law="mode_modulated", sigma0=0.5)
    stepper = BatchedStepper(grid, model, spec, members=2, dt=1e-3)
    U = np.tile(0.1 * sine_mode(grid, (1, 1)).values.reshape(-1), (2, 1))
    xi = np.random.default_rng(3).standard_normal((2, spec.modes))
    _, noise = stepper.explicit_terms(U, xi)
    weights = np.sqrt(spec.eigenvalues * 1e-3) * model.mode_sigmas(spec.modes)
    assert "basis" not in vars(spec)
    expected = U * ((xi * weights) @ spec.basis)
    assert np.max(np.abs(noise - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_engine_rejects_the_velocity_variant():
    # only the tests step the velocity variant, through step_velocity
    grid = GridSpec(2, 16)
    coeff = make_coefficient("checkerboard", 2)
    model = ModelSpec(variant="navier_stokes_2d", coefficient=coeff,
                      epsilon=0.25, cubic=False)
    with pytest.raises(ValidationError) as err:
        BatchedStepper(grid, model, noise_spec(grid), members=1, dt=1e-3)
    assert err.value.field == "variant"
    u0 = ScalarField(grid, 0.1 * sine_mode(grid, (1, 1)).values)
    ens = Ensemble(members=[u0] * 2, noise=noise_spec(grid))
    with pytest.raises(ValidationError) as err:
        run_ensemble(ens, model, StepperConfig(dt=1e-3, horizon=2e-3))
    assert err.value.field == "variant"


# ---------------------------------------------------------------------------
# member shards: forked processes stepping in lockstep


def sharded_run(monkeypatch, shards, dimension=1,
                noise_law="mode_modulated", members=8, steps=6, draw=None):
    """``run_ensemble`` of a drag-coupled ensemble by ``shards`` processes.

    With one value per shard enough to split, ``shards`` usable CPUs give
    ``shards`` runs of members; ``draw`` replaces ``NoiseStream.draw``.
    """
    monkeypatch.setattr(parallel, "BLOCK_VALUES", 1)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: shards)
    if draw is not None:
        monkeypatch.setattr(NoiseStream, "draw", draw)
    grid = GridSpec(dimension, 32 if dimension == 1 else 16)
    assert len(ensemble_shards(members, grid.dof)) == shards
    model = ModelSpec(variant="allen_cahn",
                      coefficient=make_coefficient("separable_trig",
                                                   dimension),
                      epsilon=0.25, mean_field="stokes_drag", cubic=True,
                      noise_law=noise_law, sigma0=0.3)
    values = 0.5 * np.prod([np.sin(np.pi * c) for c in grid.meshgrid()],
                           axis=0)
    ens = Ensemble(members=[ScalarField(grid, values)] * members,
                   noise=noise_spec(grid))
    return run_ensemble(ens, model, StepperConfig(dt=1e-3,
                                                  horizon=steps * 1e-3))


@pytest.mark.parametrize("dimension, noise_law", [
    (1, "mode_modulated"), (1, "scalar_multiplicative"),
    (2, "mode_modulated"),
])
def test_member_shards_keep_every_bit(monkeypatch, dimension, noise_law):
    # Each shard reads the whole stack for the drag mean, the guard and the
    # noise factor, so every state, ledger row and stream counter is that
    # of the one-process run, whichever shard stepped the member.
    # five shards outnumber the CPUs of a small machine, which runs them
    # unpinned
    runs = {}
    for shards in (1, 2, 3, 5):
        with deadline(60):
            runs[shards] = sharded_run(monkeypatch, shards, dimension,
                                       noise_law)
        assert_no_child_left()
    final, ledger = runs[1]
    for shards in (2, 3, 5):
        other, other_ledger = runs[shards]
        assert other.time == final.time
        for a, b in zip(final.members, other.members):
            assert np.array_equal(a.values, b.values), shards
        assert np.array_equal(ledger.table, other_ledger.table), shards
        assert [s.counter for s in other.streams] == \
            [s.counter for s in final.streams]


def test_streams_continue_after_a_sharded_run(monkeypatch):
    # Members 4..7 are drawn for in the child; the parent's copies of their
    # streams must still continue where the child left them.
    one, _ = sharded_run(monkeypatch, 1)
    two, _ = sharded_run(monkeypatch, 2)
    assert all(s.counter == 6 * s.spec.modes for s in two.streams)
    for a, b in zip(one.streams, two.streams):
        assert a.counter == b.counter
        assert np.array_equal(a.draw(), b.draw())


UNPATCHED_DRAW = NoiseStream.draw


def poisoned_draw(member, step, factor):
    """``NoiseStream.draw`` scaled by ``factor`` for ``member``'s stream
    from its draw for ``step`` on."""
    spec = noise_spec(GridSpec(1, 32))
    target = NoiseStream.derive(spec, member, 0).stream_id

    def scaled(self, count=None):
        xi = UNPATCHED_DRAW(self, count)
        late = self.counter > step * self.spec.modes
        return xi * factor if self.stream_id == target and late else xi

    return scaled


def sharded_failure(monkeypatch, shards, kind, member, step):
    factor = np.nan if kind is NonFinite else 1e6
    with deadline(60), pytest.raises(kind) as info:
        sharded_run(monkeypatch, shards, noise_law="scalar_multiplicative",
                    draw=poisoned_draw(member, step, factor))
    assert_no_child_left()
    exc = info.value
    return type(exc), str(exc), exc.step


@pytest.mark.parametrize("kind, member", [
    (NonFinite, 6), (NonFinite, 1), (StepRejected, 6)])
def test_member_shard_failure_raises_as_one_process(monkeypatch, kind,
                                                    member):
    # member 6 is a child's (members 4..7 with two shards); a NaN draw
    # fails that shard's solve alone, an outsized one makes every shard's
    # guard reject the next step
    one = sharded_failure(monkeypatch, 1, kind, member, 2)
    assert one[2] == (2 if kind is NonFinite else 3)
    if kind is NonFinite:
        assert f"path(s) [{member}]" in one[1]
    for shards in (2, 3):
        assert sharded_failure(monkeypatch, shards, kind, member, 2) == one


def test_killed_member_shard_raises_internal_error(monkeypatch):
    parent = os.getpid()

    def dying_draw(self, count=None):
        if os.getpid() != parent and self.counter >= 3 * self.spec.modes:
            os.kill(os.getpid(), signal.SIGKILL)
        return UNPATCHED_DRAW(self, count)

    with deadline(60), pytest.raises(InternalError) as info:
        sharded_run(monkeypatch, 2, draw=dying_draw)
    assert str(info.value) == ("simulate shard of members 4..7 ended with "
                               f"signal {int(signal.SIGKILL)} and no report")
    assert_no_child_left()


def test_sharded_ensemble_leaves_no_child(monkeypatch):
    # two shards may be pinned to a CPU each; this process gets its CPU
    # set back
    affinity = os.sched_getaffinity(0)
    with deadline(60):
        sharded_run(monkeypatch, 2)
    assert_no_child_left()
    assert os.sched_getaffinity(0) == affinity


def test_parent_failure_releases_waiting_children(monkeypatch):
    # the parent fails at step 2 while the children wait at its barrier
    parent = os.getpid()
    advance = BatchedStepper.advance

    def failing(self, U, xi, t, step_index, *args, **kwargs):
        if os.getpid() == parent and step_index == 2:
            raise StepRejected("parent fails", step=2)
        return advance(self, U, xi, t, step_index, *args, **kwargs)

    monkeypatch.setattr(BatchedStepper, "advance", failing)
    with deadline(60), pytest.raises(StepRejected, match="parent fails"):
        sharded_run(monkeypatch, 3)
    assert_no_child_left()
