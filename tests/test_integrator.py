"""Tests for the semi-implicit time stepper and its ledgers."""

import numpy as np
import pytest

from twoscale import grid as grid_module
from twoscale.coefficients import make_coefficient
from twoscale.ensemble import Ensemble
from twoscale.errors import NonFinite, StepRejected
from twoscale.grid import (GridSpec, ScalarField, VectorField,
                           first_eigenvalue, inner_H, norm_H, sine_mode)
from twoscale.integrator import (LEDGER_COLUMNS, BatchedStepper, EnergyLedger,
                                 IncrementFit, StepperConfig, check_guard,
                                 increment_scaling, run_ensemble)
from twoscale.models import (ImplicitFactorization, ModelSpec, apply_A_eps,
                             apply_B, face_coefficients, leray_project)
from twoscale.noise import NoiseStream, QWienerSpec

from empirical import EmpiricalMeasure, empirical_measure


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


def reference_solve(values, grid, model, t, dt, tol):
    """(I + dt A_eps(t))^{-1} values with the coefficient frozen at t."""
    faces = face_coefficients(model.coefficient, grid, model.epsilon, t)
    return ImplicitFactorization(grid, faces, dt).solve_batch(values, tol=tol)


def step(u, model, measure, xi, spec, dt, t, tol=1e-8):
    """One semi-implicit step of a single scalar path."""
    check_guard(float(np.max(np.abs(u.values))), model, dt, u.grid.h)
    mean = None if measure is None else measure.mean.values
    rhs = (u.values + dt * reference_drift(u.values, mean, model)
           + reference_noise(u.values, xi, dt, model, spec))
    return ScalarField(u.grid, reference_solve(rhs, u.grid, model, t, dt, tol))


def step_velocity(u, model, measures, streams, dt, t, tol=1e-8):
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
        comps.append(ScalarField(g, reference_solve(rhs, g, model, t, dt,
                                                    tol)))
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


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
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
    final, (ledger,) = run_ensemble(ens, model,
                                    StepperConfig(dt=dt, horizon=2 * dt))
    u2 = final.members[0]
    au = apply_A_eps(u2, model.coefficient, model.epsilon, dt)
    diss = ledger.cumulative_dissipation
    balance = (ledger.H2[2] - ledger.H2[1] + (diss[2] - diss[1])
               + dt ** 2 * norm_H(au) ** 2)
    assert abs(balance) < 1e-10 * ledger.H2[1]


# ---------------------------------------------------------------------------
# determinism and coupling symmetries


def run_once(mean_field, common_noise=False, members=2, seed=0, sigma0=0.3):
    grid = GridSpec(1, 64)
    model = ModelSpec(variant="allen_cahn", coefficient=layered(),
                      epsilon=0.125, mean_field=mean_field, cubic=True,
                      sigma0=sigma0)
    spec = noise_spec(grid, seed=seed)
    u0 = sin_initial(grid)
    ens = Ensemble(members=[u0] * members, noise=spec,
                   common_noise=common_noise)
    cfg = StepperConfig(dt=0.001, horizon=0.02)
    return run_ensemble(ens, model, cfg)


def test_bitwise_reproducibility():
    final_a, ledgers_a = run_once("stokes_drag")
    final_b, ledgers_b = run_once("stokes_drag")
    for ma, mb in zip(final_a.members, final_b.members):
        assert np.array_equal(ma.values, mb.values)
    for la, lb in zip(ledgers_a, ledgers_b):
        for name in LEDGER_COLUMNS:
            assert np.array_equal(getattr(la, name), getattr(lb, name))
        assert la.drift_work == lb.drift_work
        assert la.noise_work == lb.noise_work


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
    # advance and the ledger work pairings share one explicit-term pass.
    calls = []
    original = BatchedStepper.explicit_terms

    def counting(self, U, xi):
        calls.append(1)
        return original(self, U, xi)

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
    # columns: step, t, H2, Hp, V2, L4, cumulative_dissipation
    led = EnergyLedger(np.array([[0.0, 0.0, 1.0, 1.0, 2.0, 0.5, 0.0],
                                 [1.0, 0.1, 0.9, 0.9, 1.9, 0.4, 0.1]]))
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
        getattr(led, "moment_p")


def test_ledger_csv_schema(tmp_path):
    _, ledgers = run_once("stokes_drag", members=1)
    path = tmp_path / "ledger.csv"
    ledgers[0].to_csv(path)
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
    table = ledgers[0].table
    for n, line in enumerate(lines[1:]):
        parts = line.split(",")
        assert parts[0] == str(n)
        parsed = np.array([float(p) for p in parts])
        assert np.array_equal(parsed, table[n])
    assert np.array_equal(ledgers[0].Hp, ledgers[0].H2)


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
