"""Tests for two-scale pairings, corrector residuals, and the ladder study."""

import io
import json
import os
import signal
import tracemalloc

import numpy as np
import pytest

from twoscale import diagnostics, parallel
from twoscale.cell import CellGrid, CellSolution, solve_cell_problem
from twoscale.coefficients import make_coefficient
from twoscale.ensemble import wasserstein2_1d
from twoscale.diagnostics import (ConvergenceReport, StudyConfig,
                                  _face_corrector_slopes, _gradient_residuals,
                                  reduce_raw, run_ladder)
from twoscale.errors import InternalError, NonFinite, ValidationError
from twoscale.grid import GridSpec, ScalarField, stack_face_differences
from twoscale.integrator import BatchedStepper, StepperConfig
from twoscale.models import ImplicitFactorization, face_coefficients
from twoscale.noise import NoiseStream

from forks import assert_no_child_left, deadline


@pytest.fixture(autouse=True)
def no_hang():
    """Most ladders here fork shards, and this process waits for each; a
    shard that never ends fails its test instead of hanging the suite."""
    with deadline(60):
        yield


def small_study(coefficient=None, replicas=3, members=2, seed=0):
    return StudyConfig(
        coefficient=coefficient or make_coefficient("layered", 1, alpha=2.0,
                                                    beta=1.0),
        grid=GridSpec(1, 64),
        epsilons=(0.5, 0.25),
        stepper=StepperConfig(dt=0.01, horizon=0.05),
        members=members, replicas=replicas, sigma0=0.2, cell_cells=32,
        initial_amplitude=0.5, seed=seed)


# ---------------------------------------------------------------------------
# pointwise diagnostics on stored trajectories: the reference that the
# ladder's streaming accumulators are checked against


def two_scale_pairing(trajectory, grid: GridSpec, dt: float, eps: float,
                      weight=None, oscillation=None) -> float:
    """Quadrature of the pairing  integral u(x,t) w(x,t) phi(x/eps, t/eps).

    Space uses the midpoint rule on the interior nodes (weight h^N), time
    the left-point rule over the steps (weight dt), so a trajectory with
    T+1 stored states contributes its first T states.

    Args:
        trajectory: array (steps+1, dof...) or list of fields.
        weight: callable w(*x, t) -> array; defaults to 1.
        oscillation: callable phi(*y, tau) -> array of the fast variables;
            defaults to sin(2 pi y_1).
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    states = _as_state_array(trajectory, grid)
    mesh = grid.meshgrid()
    if oscillation is None:
        oscillation = lambda *args: np.sin(2.0 * np.pi * args[0])  # noqa: E731
    hN = grid.h ** grid.dimension
    total = 0.0
    steps = states.shape[0] - 1
    for n in range(steps):
        t = n * dt
        w = 1.0 if weight is None else weight(*mesh, t)
        fast = oscillation(*[c / eps for c in mesh], t / eps)
        total += dt * hN * float(np.sum(states[n] * w * fast))
    return total


def _as_state_array(trajectory, grid: GridSpec) -> np.ndarray:
    if isinstance(trajectory, np.ndarray):
        return trajectory.reshape(trajectory.shape[0], *grid.shape)
    return np.stack([s.values if isinstance(s, ScalarField) else np.asarray(s)
                     for s in trajectory])


def corrector_residual(trajectory_eps, trajectory_hom, solution: CellSolution,
                       grid: GridSpec, dt: float, eps: float,
                       ) -> tuple[float, float]:
    """Space-time L2 gradient residuals of an oscillating path.

    plain     = || grad u_eps - grad u_hom ||_{L2(0,T;H)}
    corrected = || grad u_eps - R(grad u_hom) ||_{L2(0,T;H)}

    where R adds the corrector slope contribution evaluated at the fast
    variables. Gradients are zero-ghost face differences and the corrector
    slopes sit at the face midpoints, exactly as in the ladder's streaming
    accumulators; the time rule is right-point over the steps (states
    n = 1..T, slopes at t_n/eps). For averaging over a Monte Carlo batch,
    call once per path and average the squared residuals outside.
    """
    ue = _as_state_array(trajectory_eps, grid)
    uh = _as_state_array(trajectory_hom, grid)
    if ue.shape != uh.shape:
        raise ValueError("trajectories have different shapes")
    plain2 = 0.0
    corr2 = 0.0
    for n in range(1, ue.shape[0]):
        slopes = _face_corrector_slopes(solution, grid, eps, n * dt / eps)
        p2, c2 = _gradient_residuals(
            stack_face_differences(ue[n:n + 1], grid),
            stack_face_differences(uh[n:n + 1], grid), slopes, grid)
        plain2 += dt * float(p2[0])
        corr2 += dt * float(c2[0])
    return float(np.sqrt(plain2)), float(np.sqrt(corr2))


# ---------------------------------------------------------------------------
# two-scale pairing


def test_pairing_constant_oscillator_is_plain_integral():
    rng = np.random.default_rng(0)
    grid = GridSpec(1, 32)
    states = rng.standard_normal((4,) + grid.shape)
    dt = 0.05
    value = two_scale_pairing(states, grid, dt, eps=0.25,
                              oscillation=lambda *a: 1.0)
    # left-point rule in time: the last stored state does not contribute
    expected = dt * grid.h * states[:-1].sum()
    assert value == pytest.approx(expected, rel=1e-13)


def test_pairing_tiny_case_oracle():
    # fully explicit reimplementation on a tiny case
    grid = GridSpec(1, 8)
    rng = np.random.default_rng(1)
    states = rng.standard_normal((3,) + grid.shape)
    dt, eps = 0.1, 0.25
    weight = lambda x, t: x * (1.0 + t)  # noqa: E731
    osc = lambda y, tau: np.cos(2.0 * np.pi * y) + tau  # noqa: E731
    value = two_scale_pairing(states, grid, dt, eps, weight=weight,
                              oscillation=osc)
    expected = 0.0
    x = grid.axis_nodes()
    for n in range(2):
        t = n * dt
        for i in range(7):
            expected += dt * grid.h * states[n, i] * x[i] * (1.0 + t) \
                * (np.cos(2.0 * np.pi * x[i] / eps) + t / eps)
    assert value == pytest.approx(expected, rel=1e-12)


def test_pairing_constant_field_oscillation_scale():
    # Whole oscillation periods cancel exactly on a commensurate grid; on
    # incommensurate scales the boundary remainder is of order eps.
    grid = GridSpec(1, 256)
    ones = np.ones((2,) + grid.shape)
    dt = 0.1
    for eps in (0.125, 0.0625):
        assert abs(two_scale_pairing(ones, grid, dt, eps)) < 1e-15
    values = [abs(two_scale_pairing(ones, grid, dt, eps))
              for eps in (0.3, 0.15, 0.075)]
    for eps, v in zip((0.3, 0.15, 0.075), values):
        assert v <= 0.5 * dt * eps
    assert values[2] < values[1] < values[0]


def test_pairing_is_linear():
    rng = np.random.default_rng(3)
    grid = GridSpec(1, 32)
    a = rng.standard_normal((3,) + grid.shape)
    b = rng.standard_normal((3,) + grid.shape)
    dt, eps = 0.02, 0.25
    pa = two_scale_pairing(a, grid, dt, eps)
    pb = two_scale_pairing(b, grid, dt, eps)
    combo = two_scale_pairing(2.0 * a - 3.0 * b, grid, dt, eps)
    assert combo == pytest.approx(2.0 * pa - 3.0 * pb, rel=1e-12)
    # linearity in the deterministic weight as well
    w = lambda x, t: np.sin(np.pi * x) + t  # noqa: E731
    pw = two_scale_pairing(a, grid, dt, eps, weight=w)
    doubled = two_scale_pairing(
        a, grid, dt, eps, weight=lambda x, t: 2.0 * (np.sin(np.pi * x) + t))
    assert doubled == pytest.approx(2.0 * pw, rel=1e-12)


def test_pairing_rejects_nonpositive_eps():
    grid = GridSpec(1, 32)
    states = np.zeros((2,) + grid.shape)
    with pytest.raises(ValueError):
        two_scale_pairing(states, grid, 0.01, eps=0.0)


# ---------------------------------------------------------------------------
# corrector residual


def test_corrector_residual_constant_coefficient_collapses():
    # constant coefficients have zero correctors, so the reconstruction
    # changes nothing and both residuals coincide
    coeff = make_coefficient("constant", 1, value=2.0)
    sol = solve_cell_problem(coeff, CellGrid(dimension=1, cells=32))
    grid = GridSpec(1, 64)
    rng = np.random.default_rng(4)
    ue = rng.standard_normal((4,) + grid.shape)
    uh = rng.standard_normal((4,) + grid.shape)
    plain, corrected = corrector_residual(ue, uh, sol, grid, dt=0.01,
                                          eps=0.25)
    assert plain > 0.0
    assert corrected == pytest.approx(plain, rel=1e-10)


def test_corrector_residual_zero_paths():
    coeff = make_coefficient("layered", 1, alpha=2.0, beta=1.0)
    sol = solve_cell_problem(coeff, CellGrid(dimension=1, cells=32))
    grid = GridSpec(1, 64)
    zero = np.zeros((3,) + grid.shape)
    plain, corrected = corrector_residual(zero, zero, sol, grid, dt=0.01,
                                          eps=0.25)
    assert plain == 0.0
    assert corrected == 0.0


def test_corrector_residual_shape_guard():
    coeff = make_coefficient("layered", 1, alpha=2.0, beta=1.0)
    sol = solve_cell_problem(coeff, CellGrid(dimension=1, cells=32))
    grid = GridSpec(1, 64)
    with pytest.raises(ValueError):
        corrector_residual(np.zeros((3,) + grid.shape),
                           np.zeros((4,) + grid.shape), sol, grid,
                           dt=0.01, eps=0.25)


# ---------------------------------------------------------------------------
# study configuration


def test_study_config_validation():
    coeff = make_coefficient("layered", 1, alpha=2.0, beta=1.0)
    stepper = StepperConfig(dt=0.01, horizon=0.05)
    with pytest.raises(ValidationError) as err:
        StudyConfig(coefficient=coeff, grid=GridSpec(1, 64),
                    epsilons=(0.25, 0.5), stepper=stepper)
    assert err.value.field == "epsilon"
    with pytest.raises(ValidationError) as err:
        StudyConfig(coefficient=coeff, grid=GridSpec(1, 64),
                    epsilons=(0.125,), stepper=stepper)
    assert err.value.field == "epsilon"  # needs n >= 16/eps = 128
    with pytest.raises(ValidationError) as err:
        StudyConfig(coefficient=coeff, grid=GridSpec(1, 256),
                    epsilons=(0.125,),
                    stepper=StepperConfig(dt=0.02, horizon=0.1))
    assert err.value.field == "dt"  # dt must stay below eps/8
    with pytest.raises(ValidationError):
        StudyConfig(coefficient=coeff, grid=GridSpec(1, 64),
                    epsilons=(0.5,), stepper=stepper, replicas=0)
    cfg = small_study()
    assert cfg.epsilons == (0.5, 0.25)
    assert cfg.model_for(0.25).epsilon == 0.25
    assert cfg.noise_spec().modes == 63
    assert cfg.initial_values().shape == (63,)


# ---------------------------------------------------------------------------
# ladder runs


def test_ladder_degenerate_constant_coefficients():
    # a = c I makes every oscillating operator equal the effective one, so
    # all levels advance bitwise identically and every gap vanishes.
    res = run_ladder(small_study(
        coefficient=make_coefficient("constant", 1, value=2.5)))
    rep = res.report
    assert rep.errors == [0.0, 0.0]
    assert rep.wasserstein_final == [0.0, 0.0]
    for plain, corrected in zip(rep.plain_gradient, rep.corrected_gradient):
        assert plain == 0.0
        assert corrected == pytest.approx(0.0, abs=1e-12)
    assert res.a_tilde == pytest.approx(np.array([[2.5]]), rel=1e-12)
    # with no oscillation gap the energy functional agrees across levels
    assert max(rep.energy_functional) == pytest.approx(
        min(rep.energy_functional), rel=1e-12)


def test_ladder_raw_layout_and_reduction_roundtrip():
    res = run_ladder(small_study())
    raw = res.raw
    n_eps, P = 2, 6
    assert raw["err2"].shape == (n_eps, P)
    assert raw["sup_h2"].shape == (n_eps + 1, P)
    assert raw["final_states"].shape == (n_eps + 1, P, 63)
    assert list(raw["shape"]) == [3, 2, 5]
    # reduce_raw is the single raw-to-report path and must be stable
    # through an npz round trip, byte for byte
    direct = reduce_raw(raw).to_json()
    assert direct == res.report.to_json()
    buf = io.BytesIO()
    np.savez(buf, **raw)
    buf.seek(0)
    assert reduce_raw(dict(np.load(buf))).to_json() == direct


def test_ladder_replica_relabeling_invariance():
    res = run_ladder(small_study(replicas=4))
    raw = dict(res.raw)
    perm = np.array([2, 0, 3, 1])
    for key, *_ in diagnostics.ACCUMULATORS:
        arr = raw[key]
        levels = arr.shape[0]
        raw[key] = arr.reshape(levels, 4, 2)[:, perm].reshape(levels, 8)
    raw["final_states"] = raw["final_states"].reshape(
        -1, 4, 2, 63)[:, perm].reshape(-1, 8, 63)
    relabeled = reduce_raw(raw)
    base = res.report
    assert np.allclose(relabeled.errors, base.errors, rtol=1e-13)
    assert np.allclose(relabeled.error_stderr, base.error_stderr, rtol=1e-12)
    assert np.allclose(relabeled.energy_functional, base.energy_functional,
                       rtol=1e-13)
    assert np.allclose(relabeled.wasserstein_final, base.wasserstein_final,
                       rtol=1e-12, atol=1e-15)


def test_ladder_2d_runs_many_paths():
    # Every 2D level advances a (paths, dof) stack through one factor.
    coeff = make_coefficient("checkerboard", 2, low=1.0, high=3.0, width=0.05)
    grid = GridSpec(2, 32)
    cfg = StudyConfig(coefficient=coeff, grid=grid, epsilons=(0.5,),
                      stepper=StepperConfig(dt=0.01, horizon=0.02),
                      members=2, replicas=2, cell_cells=16)
    rep = run_ladder(cfg).report
    for values in (rep.errors, rep.plain_gradient, rep.corrected_gradient,
                   rep.energy_functional):
        assert np.all(np.isfinite(values))

    fac = ImplicitFactorization(grid, face_coefficients(coeff, grid, 0.5, 0.0),
                                dt=0.01)
    stack = np.random.default_rng(6).standard_normal((4, grid.dof))
    batched = fac.solve_batch(stack)
    for row, out in zip(stack, batched):
        assert np.array_equal(fac.solve_batch(row), out)


def test_static_2d_ladder_factors_each_level_once(monkeypatch):
    # a checkerboard does not depend on the fast time, so each level is
    # factored once for the whole run: the eps levels by LU, the effective
    # level, whose faces are the constants a~[d, d], by the tridiagonal
    # factor
    coeff = make_coefficient("checkerboard", 2, low=1.0, high=3.0, width=0.05)
    cfg = StudyConfig(coefficient=coeff, grid=GridSpec(2, 64),
                      epsilons=(0.5, 0.25),
                      stepper=StepperConfig(dt=0.002, horizon=0.01),
                      members=2, replicas=2, noise_law="mode_modulated",
                      cell_cells=32)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    builds, lu_factors = [], []
    init = ImplicitFactorization.__init__
    factor_2d = ImplicitFactorization._factor_2d

    def counting(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    def counting_lu(self):
        lu_factors.append(1)
        return factor_2d(self)

    monkeypatch.setattr(ImplicitFactorization, "__init__", counting)
    monkeypatch.setattr(ImplicitFactorization, "_factor_2d", counting_lu)
    run_ladder(cfg)
    assert (len(builds), len(lu_factors)) == (3, 2)


def block_study(family="layered", members=4, replicas=8,
                noise_law="scalar_multiplicative"):
    coeff = make_coefficient(family, 1, alpha=2.0, beta=1.0) \
        if family == "layered" else make_coefficient(family, 1)
    return StudyConfig(coefficient=coeff, grid=GridSpec(1, 128),
                       epsilons=(0.25, 0.125),
                       stepper=StepperConfig(dt=0.002, horizon=0.01),
                       members=members, replicas=replicas,
                       noise_law=noise_law, sigma0=0.2, cell_cells=32,
                       initial_amplitude=0.5)


@pytest.mark.parametrize("shards", [1, 2, 3])
@pytest.mark.parametrize("members, replicas, noise_law", [
    (4, 8, "scalar_multiplicative"),
    # 4 replicas (12 paths) per block, and a last block of 2 replicas
    (3, 34, "mode_modulated"),
])
def test_ladder_blocks_give_bitwise_equal_raw_arrays(monkeypatch, members,
                                                     replicas, noise_law,
                                                     shards):
    # Blocks of whole replicas step the same paths with the same draws, so
    # one block and many give the same bits, the pairing and the noise
    # amplitudes xi @ weights included; so do shards of blocks stepped in
    # forked processes. One CPU keeps the one block in one process.
    cfg = block_study(members=members, replicas=replicas,
                      noise_law=noise_law)
    dof = cfg.grid.dof
    assert len(diagnostics._replica_blocks(replicas, members, dof)) == 1
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    whole = run_ladder(cfg)
    assert whole.shards == 1
    monkeypatch.setattr(parallel, "BLOCK_VALUES", 1)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: shards)
    assert len(diagnostics._replica_blocks(replicas, members, dof)) >= 8
    blocked = run_ladder(cfg)
    assert blocked.shards == shards
    assert whole.raw.keys() == blocked.raw.keys()
    for key in whole.raw:
        assert np.array_equal(whole.raw[key], blocked.raw[key]), key


def test_shards_are_contiguous_runs_of_whole_blocks():
    blocks = diagnostics._replica_blocks(34, 3, 1023)
    assert len(blocks) == 5
    for count in (1, 2, 3, 5):
        shards = parallel.split(blocks, count)
        assert len(shards) == count
        assert [b for shard in shards for b in shard] == blocks
        assert max(map(len, shards)) - min(map(len, shards)) <= 1


def test_replica_blocks_cover_every_path_once():
    # 2 replicas of 8 paths per block on the 1D reference grid
    blocks = diagnostics._replica_blocks(32, 8, 1023)
    assert [(b.start, b.stop) for b in blocks] == [
        (16 * i, 16 * i + 16) for i in range(16)]
    # one 2D path fills a block; blocks are rounded up to four paths
    assert diagnostics._replica_blocks(6, 1, 127 ** 2) == [
        slice(0, 4), slice(4, 6)]


def test_time_dependent_ladder_factors_once_per_level_and_step(monkeypatch):
    # The coefficient of every eps level moves with t/eps, so each level
    # builds one factorization per step whatever the block count; the
    # effective level's tensor is constant and is factored once. One CPU
    # keeps every level in this process, where the builds are counted.
    cfg = block_study(family="separable_trig")
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    builds = []
    original = ImplicitFactorization.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ImplicitFactorization, "__init__", counting)
    expected = cfg.stepper.steps * len(cfg.epsilons) + 1
    whole = run_ladder(cfg).raw
    assert len(builds) == expected
    builds.clear()
    monkeypatch.setattr(parallel, "BLOCK_VALUES", 1)
    blocked = run_ladder(cfg).raw
    assert len(builds) == expected
    for key in whole:
        assert np.array_equal(whole[key], blocked[key]), key


def test_ladder_progress_reports_whole_steps(monkeypatch):
    # one call per finished step (5 steps), not one per block (8 blocks)
    monkeypatch.setattr(parallel, "BLOCK_VALUES", 1)
    calls = []
    run_ladder(block_study(), progress=lambda n, steps: calls.append(
        (n, steps)))
    assert calls == [(n, 5) for n in range(1, 6)]


def failing_study(monkeypatch, shards, poisoned):
    """16 paths in two one-replica blocks, split into ``shards`` shards.

    ``poisoned`` maps a path to the step from which its draws are NaN.
    """
    cfg = block_study(members=8, replicas=2)
    monkeypatch.setattr(parallel, "BLOCK_VALUES", 8 * cfg.grid.dof)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: shards)
    spec = cfg.noise_spec()
    first_bad = {NoiseStream.derive(spec, p % 8, p // 8).stream_id: step
                 for p, step in poisoned.items()}
    draw = NoiseStream.draw

    def poisoned_draw(self, count=None):
        xi = draw(self, count)
        step = first_bad.get(self.stream_id)
        return xi * np.nan if step is not None \
            and self.counter > step * spec.modes else xi

    monkeypatch.setattr(NoiseStream, "draw", poisoned_draw)
    return cfg


def ladder_failure(monkeypatch, shards, poisoned):
    cfg = failing_study(monkeypatch, shards, poisoned)
    with pytest.raises(NonFinite) as info:
        run_ladder(cfg)
    exc = info.value
    return type(exc), str(exc), exc.step, exc.time, exc.member


def test_ladder_nonfinite_names_the_global_path(monkeypatch):
    # member 5 of replica 1 is path 13, row 5 of the second block; with two
    # shards a forked child raises it, with the one-shard run's details
    one = ladder_failure(monkeypatch, 1, {13: 2})
    assert one[2] == 2 and one[4] == 13
    assert "path(s) [13]" in one[1]
    assert ladder_failure(monkeypatch, 2, {13: 2}) == one
    assert_no_child_left()


@pytest.mark.parametrize("parent_step, child_step", [(3, 1), (1, 3), (2, 2)])
def test_earliest_failing_step_wins_across_shards(monkeypatch, parent_step,
                                                  child_step):
    # path 3 is in the parent's shard, path 13 in the child's; ties go to
    # the lower shard, as the one-shard run meets the lower block first
    poisoned = {3: parent_step, 13: child_step}
    one = ladder_failure(monkeypatch, 1, poisoned)
    assert one[2] == min(poisoned.values())
    assert one[4] == (13 if child_step < parent_step else 3)
    assert ladder_failure(monkeypatch, 2, poisoned) == one
    assert_no_child_left()


@pytest.mark.parametrize("death", ["exit", "kill"])
def test_child_shard_that_dies_raises_internal_error(monkeypatch, death):
    # the lost child outranks the parent's NonFinite of the same step
    cfg = failing_study(monkeypatch, 2, {3: 0})
    parent = os.getpid()
    draw = NoiseStream.draw

    def dying_draw(self, count=None):
        if os.getpid() != parent:
            if death == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        return draw(self, count)

    monkeypatch.setattr(NoiseStream, "draw", dying_draw)
    with pytest.raises(InternalError) as info:
        run_ladder(cfg)
    status = "exit status 3" if death == "exit" else \
        f"signal {int(signal.SIGKILL)}"
    assert str(info.value) == (f"ladder shard of paths 8..15, eps levels "
                               f"0..1 ended with {status} and no report")
    assert_no_child_left()


def test_sharded_ladder_leaves_no_child(monkeypatch):
    cfg = failing_study(monkeypatch, 2, {})
    assert run_ladder(cfg).shards == 2
    assert_no_child_left()


def three_level_study():
    """A one-block 1D ladder with three eps levels."""
    coeff = make_coefficient("layered", 1, alpha=2.0, beta=1.0)
    return StudyConfig(coefficient=coeff, grid=GridSpec(1, 128),
                       epsilons=(0.5, 0.25, 0.125),
                       stepper=StepperConfig(dt=0.002, horizon=0.01),
                       members=4, replicas=2, noise_law="mode_modulated",
                       sigma0=0.2, cell_cells=32, initial_amplitude=0.5)


def small_2d_study():
    """A one-block 2D ladder of one path with two eps levels."""
    coeff = make_coefficient("checkerboard", 2, low=1.0, high=3.0, width=0.05)
    return StudyConfig(coefficient=coeff, grid=GridSpec(2, 64),
                       epsilons=(0.5, 0.25),
                       stepper=StepperConfig(dt=0.002, horizon=0.006),
                       members=1, replicas=1, noise_law="mode_modulated",
                       cell_cells=32, initial_amplitude=0.5)


@pytest.mark.parametrize("make, shards", [
    (three_level_study, {1: 1, 2: 2, 3: 3}),
    (small_2d_study, {1: 1, 2: 2, 3: 2}),
])
def test_level_shards_give_bitwise_equal_raw_arrays(monkeypatch, make,
                                                    shards):
    # With one block each shard steps a contiguous group of eps levels
    # and its own copy of the effective level, whose rows the shard of eps
    # level 0 writes; every raw array keeps the one-process bits.
    cfg = make()
    assert len(diagnostics._replica_blocks(
        cfg.replicas, cfg.members, cfg.grid.dof)) == 1
    results = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        results[cpus] = run_ladder(cfg)
        assert results[cpus].shards == shards[cpus]
        assert_no_child_left()
    for cpus in (2, 3):
        assert results[cpus].raw.keys() == results[1].raw.keys()
        for key in results[1].raw:
            assert np.array_equal(results[cpus].raw[key],
                                  results[1].raw[key]), (cpus, key)


def test_level_split_keeps_progress_calls(monkeypatch):
    calls = {}
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        calls[cpus] = []
        run_ladder(three_level_study(), progress=lambda n, steps, c=cpus:
                   calls[c].append((n, steps)))
    assert calls[1] == calls[2] == [(n, 5) for n in range(1, 6)]


def level_failure(monkeypatch, cpus, plan):
    """The error of a three-level ladder stepped by ``cpus`` processes.

    ``plan`` maps a level (an eps index, or 3 for the effective level) to
    the step at which its advance raises.
    """
    cfg = three_level_study()
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    advance = BatchedStepper.advance

    def failing_advance(self, U, xi, t, step_index, *args, **kwargs):
        level = 3 if self._faces is not None else \
            cfg.epsilons.index(self.model.epsilon)
        if plan.get(level) == step_index:
            raise NonFinite(f"level {level} fails", step=step_index)
        return advance(self, U, xi, t, step_index, *args, **kwargs)

    monkeypatch.setattr(BatchedStepper, "advance", failing_advance)
    with pytest.raises(NonFinite) as info:
        run_ladder(cfg)
    assert_no_child_left()
    return str(info.value), info.value.step


@pytest.mark.parametrize("plan", [
    # shard 0 fails in its effective copy, shard 1 at eps level 1 before
    {3: 2, 1: 2},
    {0: 3, 2: 1},
    {0: 2, 2: 2},
    {1: 1, 3: 1},
    {3: 0},
])
def test_level_shard_failures_rank_as_one_shard(monkeypatch, plan):
    # a one-shard run meets failures in (step, block, level) order, with
    # the effective level last
    one = level_failure(monkeypatch, 1, plan)
    step = min(plan.values())
    assert one == (f"level {min(k for k, v in plan.items() if v == step)} "
                   f"fails", step)
    for cpus in (2, 3):
        assert level_failure(monkeypatch, cpus, plan) == one


def test_level_shard_that_dies_raises_internal_error(monkeypatch):
    cfg = three_level_study()
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    parent = os.getpid()
    draw = NoiseStream.draw

    def dying_draw(self, count=None):
        if os.getpid() != parent:
            os._exit(3)
        return draw(self, count)

    monkeypatch.setattr(NoiseStream, "draw", dying_draw)
    with pytest.raises(InternalError) as info:
        run_ladder(cfg)
    assert str(info.value) == ("ladder shard of paths 0..7, eps levels 2..2 "
                               "ended with exit status 3 and no report")
    assert_no_child_left()


def two_shard_study():
    """A one-block 1D ladder whose two eps levels go to two shards."""
    coeff = make_coefficient("layered", 1, alpha=2.0, beta=1.0)
    return StudyConfig(coefficient=coeff, grid=GridSpec(1, 256),
                       epsilons=(1 / 8, 1 / 16),
                       stepper=StepperConfig(dt=1e-3, horizon=0.02),
                       members=4, replicas=8, sigma0=0.2, cell_cells=32,
                       initial_amplitude=0.5)


def test_parent_failure_stops_the_child_at_the_next_step(monkeypatch):
    # the child would die at step 5 and outrank the parent's NonFinite of
    # step 1, but it stops at step 2
    cfg = two_shard_study()
    assert len(diagnostics._replica_blocks(
        cfg.replicas, cfg.members, cfg.grid.dof)) == 1
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    parent = os.getpid()
    advance = BatchedStepper.advance

    def failing_advance(self, U, xi, t, step_index, *args, **kwargs):
        if os.getpid() == parent and step_index == 1:
            raise NonFinite("parent fails", step=step_index)
        if os.getpid() != parent and step_index >= 5:
            os._exit(7)
        return advance(self, U, xi, t, step_index, *args, **kwargs)

    monkeypatch.setattr(BatchedStepper, "advance", failing_advance)
    with pytest.raises(NonFinite, match="parent fails"):
        run_ladder(cfg)
    assert_no_child_left()


def test_child_failure_stops_the_parent_at_the_next_step(monkeypatch):
    cfg = two_shard_study()
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    parent = os.getpid()
    advance = BatchedStepper.advance
    advanced = [-1]

    def failing_advance(self, U, xi, t, step_index, *args, **kwargs):
        if os.getpid() != parent and step_index == 1:
            raise NonFinite("child fails", step=step_index)
        if os.getpid() == parent:
            advanced[0] = max(advanced[0], step_index)
        return advance(self, U, xi, t, step_index, *args, **kwargs)

    monkeypatch.setattr(BatchedStepper, "advance", failing_advance)
    with pytest.raises(NonFinite, match="child fails"):
        run_ladder(cfg)
    assert_no_child_left()
    assert 1 <= advanced[0] < 5 < cfg.stepper.steps


def split_block_study():
    """Three 16-path blocks and two eps levels: on two CPUs, shard 0 steps
    block 0 and eps level 0 of block 1, shard 1 eps level 1 of block 1 and
    block 2, and each steps an effective copy of block 1."""
    coeff = make_coefficient("layered", 1, alpha=2.0, beta=1.0)
    return StudyConfig(coefficient=coeff, grid=GridSpec(1, 1024),
                       epsilons=(1 / 8, 1 / 16),
                       stepper=StepperConfig(dt=1e-4, horizon=5e-4),
                       members=4, replicas=12, noise_law="mode_modulated",
                       sigma0=0.2, cell_cells=32, initial_amplitude=0.5)


def test_block_split_between_shards_keeps_raw_arrays(monkeypatch):
    cfg = split_block_study()
    blocks = diagnostics._replica_blocks(cfg.replicas, cfg.members,
                                         cfg.grid.dof)
    assert [(b.start, b.stop) for b in blocks] == [(0, 16), (16, 32),
                                                   (32, 48)]
    results = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        results[cpus] = run_ladder(cfg)
        assert results[cpus].shards == cpus
        assert_no_child_left()
    for cpus in (2, 3):
        assert results[cpus].raw.keys() == results[1].raw.keys()
        for key in results[1].raw:
            assert np.array_equal(results[cpus].raw[key],
                                  results[1].raw[key]), (cpus, key)


def test_private_effective_copies_keep_the_raw_arrays(monkeypatch):
    # two one-replica blocks of three eps levels on three CPUs: shard 1
    # steps eps level 2 of block 0 and level 0 of block 1, shard 2 levels
    # 1 and 2 of block 1; each steps a private copy of the effective level
    # of a block whose rows another shard owns
    cfg = three_level_study()
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    whole = run_ladder(cfg)
    monkeypatch.setattr(parallel, "BLOCK_VALUES", 1)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    assert len(diagnostics._replica_blocks(
        cfg.replicas, cfg.members, cfg.grid.dof)) == 2
    split = run_ladder(cfg)
    assert split.shards == 3
    assert_no_child_left()
    assert whole.raw.keys() == split.raw.keys()
    for key in whole.raw:
        assert np.array_equal(whole.raw[key], split.raw[key]), key


def test_ladder_steps_its_states_in_the_shared_rows(monkeypatch):
    # every level is stepped in its rows of the shared final states, so
    # numpy allocates less than one (levels, paths, dof) copy of them;
    # blocks of 64 paths keep each block's temporaries below that too
    cfg = StudyConfig(
        coefficient=make_coefficient("layered", 1, alpha=2.0, beta=1.0),
        grid=GridSpec(1, 256), epsilons=(1 / 8, 1 / 16),
        stepper=StepperConfig(dt=1e-3, horizon=5e-3), members=8,
        replicas=64, cell_cells=32)
    assert len(diagnostics._replica_blocks(
        cfg.replicas, cfg.members, cfg.grid.dof)) == 8
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    run_ladder(cfg)  # the first run's imports and caches are not counted
    tracemalloc.start()
    try:
        result = run_ladder(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    states = result.raw["final_states"]
    assert states.shape == (3, 512, 255)
    assert peak < states.nbytes, (peak, states.nbytes)


def assert_2d_ladder_shard_count_free(monkeypatch, family, tau_slices):
    """Raw arrays of a three-level 128^2 ladder, bitwise at 1, 2 and 3
    shards: three eps levels of one block give one shard per CPU."""
    cfg = StudyConfig(coefficient=make_coefficient(family, 2),
                      grid=GridSpec(2, 128), epsilons=(0.5, 0.25, 0.125),
                      stepper=StepperConfig(dt=0.002, horizon=0.01),
                      members=2, replicas=2, noise_law="mode_modulated",
                      sigma0=0.5, cell_cells=32, cell_tau_slices=tau_slices)
    results = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        results[cpus] = run_ladder(cfg)
        assert results[cpus].shards == cpus
        assert_no_child_left()
    for cpus in (2, 3):
        for key in results[1].raw:
            assert np.array_equal(results[cpus].raw[key],
                                  results[1].raw[key]), (cpus, key)


def test_2d_ladder_raw_arrays_do_not_depend_on_the_shard_count(
        monkeypatch):
    # LU solves, the tridiagonal factor of the effective level and the
    # table noise synthesis all keep their bits
    assert_2d_ladder_shard_count_free(monkeypatch, "checkerboard", 1)


def test_time_dependent_2d_ladder_raw_arrays_do_not_depend_on_the_shard_count(
        monkeypatch):
    # every separable_trig level goes through the tridiagonal factor, and
    # the eps levels refactor it every step
    assert_2d_ladder_shard_count_free(monkeypatch, "separable_trig", 2)


def test_split_block_failures_rank_as_one_shard(monkeypatch):
    # on two CPUs eps level 1 of block 1 fails in the child and the parent's
    # effective copy of block 1 in the same step; a one-shard run meets the
    # eps level first
    cfg = split_block_study()
    advance = BatchedStepper.advance

    def failing_advance(self, U, xi, t, step_index, *args, **kwargs):
        level = "effective" if self._faces is not None else \
            cfg.epsilons.index(self.model.epsilon)
        if (kwargs.get("first_row") == 16 and step_index == 2
                and level in (1, "effective")):
            raise NonFinite(f"level {level} fails", step=step_index)
        return advance(self, U, xi, t, step_index, *args, **kwargs)

    monkeypatch.setattr(BatchedStepper, "advance", failing_advance)
    errors = {}
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        with pytest.raises(NonFinite) as info:
            run_ladder(cfg)
        assert_no_child_left()
        errors[cpus] = str(info.value), info.value.step
    assert errors[1] == errors[2] == ("level 1 fails", 2)


def test_shard_names_give_paths_and_eps_levels():
    a, b, c = slice(0, 16), slice(16, 32), slice(32, 48)
    assert diagnostics._shard_name([(a, [0, 1]), (b, [0])]) == \
        "ladder shard of paths 0..31, eps levels 0..1"
    assert diagnostics._shard_name([(b, [1]), (c, [0, 1])]) == \
        "ladder shard of paths 16..47, eps levels 0..1"
    assert diagnostics._shard_name([(a, [2])]) == \
        "ladder shard of paths 0..15, eps levels 2..2"


def stored_ladder_paths(cfg, result):
    """Re-step every ladder path with the ladder's engine and draws.

    Returns one (paths, steps+1, dof) trajectory array per level, the
    effective level last.
    """
    spec = cfg.noise_spec()
    dt = cfg.stepper.dt
    steppers = [BatchedStepper(cfg.grid, cfg.model_for(e), spec,
                               members=cfg.members, dt=dt)
                for e in cfg.epsilons]
    steppers.append(BatchedStepper(cfg.grid, cfg.model_for(cfg.epsilons[-1]),
                                   spec, members=cfg.members, dt=dt,
                                   homogenized_tensor=result.a_tilde))
    streams = [NoiseStream.derive(spec, m, r)
               for r in range(cfg.replicas) for m in range(cfg.members)]
    u0 = np.tile(cfg.initial_values(), (len(streams), 1))
    paths = [[u0] for _ in steppers]
    for n in range(cfg.stepper.steps):
        xi = np.stack([s.draw() for s in streams])
        for stepper, path in zip(steppers, paths):
            path.append(stepper.advance(path[-1], xi, n * dt, n))
    return [np.stack(path, axis=1) for path in paths]


@pytest.mark.parametrize("family", ["layered", "separable_trig"])
def test_stored_paths_reproduce_ladder_accumulators(monkeypatch, family):
    # The diagnostics on stored trajectories and the ladder's streaming
    # accumulators are one definition: same face differences, same slopes,
    # same time rules. The energy sup over t_0 .. t_N and the left-point
    # pairing over t_0 .. t_{N-1} keep every bit, in one process and in
    # two level shards.
    cfg = small_study(coefficient=make_coefficient(family, 1))
    results = {}
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        results[cpus] = run_ladder(cfg)
        assert results[cpus].shards == cpus
    result = results[1]
    raw = result.raw
    paths = stored_ladder_paths(cfg, result)
    assert np.array_equal(np.stack([p[:, -1] for p in paths]),
                          raw["final_states"])
    dt, steps = cfg.stepper.dt, cfg.stepper.steps
    hN = cfg.grid.h ** cfg.grid.dimension
    stepper = BatchedStepper(cfg.grid, cfg.model_for(cfg.epsilons[0]),
                             cfg.noise_spec(), members=cfg.members, dt=dt)
    sup_h2 = []
    for path in paths:
        sup = stepper.energy_rows(np.ascontiguousarray(path[:, 0]))["H2"]
        for n in range(1, steps + 1):
            h2 = stepper.energy_rows(np.ascontiguousarray(path[:, n]))["H2"]
            sup = np.maximum(sup, h2)
        sup_h2.append(sup)
    pairing = []
    mesh = cfg.grid.meshgrid()
    for li, eps in enumerate(cfg.epsilons):
        osc = np.sin(2.0 * np.pi * mesh[0] / eps).reshape(-1)
        acc = np.zeros(paths[li].shape[0])
        for n in range(steps):
            acc += dt * hN * diagnostics._pair(
                np.ascontiguousarray(paths[li][:, n]), osc)
        pairing.append(acc)
    for cpus, res in results.items():
        assert np.array_equal(res.raw["sup_h2"], np.stack(sup_h2)), cpus
        assert np.array_equal(res.raw["pairing"], np.stack(pairing)), cpus
    for li, eps in enumerate(cfg.epsilons):
        for p in range(paths[li].shape[0]):
            pairing = two_scale_pairing(paths[li][p], cfg.grid, dt, eps)
            assert pairing == pytest.approx(raw["pairing"][li, p], rel=1e-12)
            plain, corrected = corrector_residual(
                paths[li][p], paths[-1][p], result.cell, cfg.grid, dt, eps)
            assert plain == pytest.approx(np.sqrt(raw["plain2"][li, p]),
                                          rel=1e-12)
            assert corrected == pytest.approx(np.sqrt(raw["corr2"][li, p]),
                                              rel=1e-12)


def test_one_slice_ladder_computes_corrector_slopes_once(monkeypatch):
    # With one tau slice the corrector slopes do not move with t/eps, so a
    # time-dependent ladder computes them once per level and axis. corr2,
    # the only raw array that reads them, keeps every bit it had when they
    # were recomputed at each step's (t + dt)/eps. One CPU keeps every
    # level in this process, where the calls are counted.
    cfg = small_study(coefficient=make_coefficient("separable_trig", 1))
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    calls = []
    original = diagnostics.corrector_slopes

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "corrector_slopes", counting)
    result = run_ladder(cfg)
    assert len(calls) == len(cfg.epsilons) * cfg.grid.dimension

    grid, dt = cfg.grid, cfg.stepper.dt
    paths = stored_ladder_paths(cfg, result)
    hom = paths[-1]
    for li, eps in enumerate(cfg.epsilons):
        corr2 = np.zeros(hom.shape[0])
        for n in range(cfg.stepper.steps):
            slopes = diagnostics._face_corrector_slopes(
                result.cell, grid, eps, (n * dt + dt) / eps)
            _, c2 = diagnostics._gradient_residuals(
                stack_face_differences(paths[li][:, n + 1], grid),
                stack_face_differences(hom[:, n + 1], grid), slopes, grid)
            corr2 += dt * c2
        assert np.array_equal(corr2, result.raw["corr2"][li]), eps


def test_moving_corrector_slopes_keep_the_raw_arrays(monkeypatch):
    # With several tau slices a time-dependent ladder moves its corrector
    # slopes: each step n reads them at tau = (n + 1) dt / eps, and the raw
    # arrays have the same bits on one shard and on three. One CPU keeps
    # every level in this process, where the slopes' times are seen.
    cfg = StudyConfig(coefficient=make_coefficient("separable_trig", 1),
                      grid=GridSpec(1, 64), epsilons=(0.5, 0.25),
                      stepper=StepperConfig(dt=0.002, horizon=0.01),
                      members=2, replicas=4, cell_cells=32,
                      cell_tau_slices=3)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    seen = set()
    original = diagnostics._face_corrector_slopes

    def recording(cell, grid, eps, tau):
        seen.add((eps, tau))
        return original(cell, grid, eps, tau)

    monkeypatch.setattr(diagnostics, "_face_corrector_slopes", recording)
    whole = run_ladder(cfg)
    dt = cfg.stepper.dt
    assert {(eps, (n * dt + dt) / eps) for eps in cfg.epsilons
            for n in range(cfg.stepper.steps)} <= seen
    monkeypatch.setattr(diagnostics, "_face_corrector_slopes", original)
    monkeypatch.setattr(parallel, "BLOCK_VALUES", 1)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    split = run_ladder(cfg)
    assert split.shards == 3
    assert_no_child_left()
    assert whole.raw.keys() == split.raw.keys()
    for key in whole.raw:
        assert np.array_equal(whole.raw[key], split.raw[key]), key


def test_ladder_seed_changes_output():
    base = run_ladder(small_study(seed=0)).report
    other = run_ladder(small_study(seed=1)).report
    assert base.errors != other.errors


def report_from_json(text: str) -> ConvergenceReport:
    """Rebuild a report from ``ConvergenceReport.to_json`` output."""
    return ConvergenceReport(**json.loads(text))


def test_report_serialization_roundtrip():
    rep = run_ladder(small_study()).report
    clone = report_from_json(rep.to_json())
    assert clone.to_json() == rep.to_json()
    csv = rep.to_csv()
    lines = csv.strip().split("\n")
    assert len(lines) == 1 + len(rep.epsilons)
    assert lines[0].count(",") == 10
    for line in lines[1:]:
        assert len(line.split(",")) == 11
        [float(v) for v in line.split(",")]


def test_report_validation():
    with pytest.raises(ValidationError):
        ConvergenceReport(
            epsilons=[0.25, 0.5], errors=[0.1, 0.2],
            error_stderr=[0.0, 0.0], plain_gradient=[0.0, 0.0],
            plain_stderr=[0.0, 0.0], corrected_gradient=[0.0, 0.0],
            corrected_stderr=[0.0, 0.0], pairings=[0.0, 0.0],
            pairing_stderr=[0.0, 0.0], energy_functional=[0.0, 0.0, 0.0],
            energy_stderr=[0.0, 0.0, 0.0], sup_moment_p2=[0.0, 0.0, 0.0],
            sup_moment_p4=[0.0, 0.0, 0.0], wasserstein_final=[0.0, 0.0],
            replicas=1, members=1, steps=1, dt=0.1, a_tilde=[[1.0]])
    with pytest.raises(ValidationError):
        ConvergenceReport(
            epsilons=[0.5, 0.25], errors=[0.1],
            error_stderr=[0.0, 0.0], plain_gradient=[0.0, 0.0],
            plain_stderr=[0.0, 0.0], corrected_gradient=[0.0, 0.0],
            corrected_stderr=[0.0, 0.0], pairings=[0.0, 0.0],
            pairing_stderr=[0.0, 0.0], energy_functional=[0.0, 0.0, 0.0],
            energy_stderr=[0.0, 0.0, 0.0], sup_moment_p2=[0.0, 0.0, 0.0],
            sup_moment_p4=[0.0, 0.0, 0.0], wasserstein_final=[0.0, 0.0],
            replicas=1, members=1, steps=1, dt=0.1, a_tilde=[[1.0]])


# ---------------------------------------------------------------------------
# the reduction spelled out once per accumulator, with the report's former
# serializers: the oracle that reduce_raw, to_json and to_csv must match
# byte for byte


def _oracle_replica_stats(per_path, replicas, members):
    groups = per_path.reshape(replicas, members).mean(axis=1)
    mean = float(per_path.mean())
    se = float(groups.std(ddof=1) / np.sqrt(replicas)) if replicas > 1 else 0.0
    return mean, se


def oracle_reduce_raw(raw: dict) -> ConvergenceReport:
    eps_list = [float(e) for e in np.asarray(raw["epsilons"]).reshape(-1)]
    n_eps = len(eps_list)
    R, M, steps = (int(v) for v in np.asarray(raw["shape"]).reshape(-1))
    dt = float(np.asarray(raw["dt"]).reshape(-1)[0])
    hN = float(np.asarray(raw["grid_scale"]).reshape(-1)[0])
    a_tilde = np.atleast_2d(np.asarray(raw["a_tilde"], dtype=float))
    err2, plain2, corr2 = raw["err2"], raw["plain2"], raw["corr2"]
    pairing, sup_h2 = raw["pairing"], raw["sup_h2"]
    int_v2, int_l4 = raw["int_v2"], raw["int_l4"]
    final_states = raw["final_states"]

    errors, error_se = [], []
    plain, plain_se = [], []
    corrected, corrected_se = [], []
    pair_mean, pair_se = [], []
    for li in range(n_eps):
        for acc, out_m, out_se in ((err2, errors, error_se),
                                   (plain2, plain, plain_se),
                                   (corr2, corrected, corrected_se)):
            m, se = _oracle_replica_stats(acc[li], R, M)
            out_m.append(float(np.sqrt(m)))
            out_se.append(float(se / (2.0 * np.sqrt(m))) if m > 0 else 0.0)
        m, se = _oracle_replica_stats(pairing[li], R, M)
        pair_mean.append(float(m))
        pair_se.append(float(se))

    energy, energy_se = [], []
    sup_p2, sup_p4 = [], []
    for li in range(n_eps + 1):
        functional = sup_h2[li] + int_v2[li] + int_l4[li]
        m, se = _oracle_replica_stats(functional, R, M)
        energy.append(float(m))
        energy_se.append(float(se))
        sup_p2.append(float(np.mean(sup_h2[li])))
        sup_p4.append(float(np.mean(sup_h2[li] ** 2)))

    w2 = []
    hom_obs = np.sqrt(hN * np.sum(final_states[n_eps] ** 2, axis=-1))
    for li in range(n_eps):
        obs = np.sqrt(hN * np.sum(final_states[li] ** 2, axis=-1))
        w2.append(wasserstein2_1d(obs, hom_obs))

    return ConvergenceReport(
        epsilons=eps_list,
        errors=errors, error_stderr=error_se,
        plain_gradient=plain, plain_stderr=plain_se,
        corrected_gradient=corrected, corrected_stderr=corrected_se,
        pairings=pair_mean, pairing_stderr=pair_se,
        energy_functional=energy, energy_stderr=energy_se,
        sup_moment_p2=sup_p2, sup_moment_p4=sup_p4,
        wasserstein_final=w2, replicas=R, members=M, steps=steps, dt=dt,
        a_tilde=[[float(v) for v in row] for row in a_tilde],
        levels=[f"eps={e:g}" for e in eps_list] + ["effective"])


def _oracle_jsonable(obj):
    if isinstance(obj, dict):
        return {k: _oracle_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_oracle_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _oracle_jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def oracle_to_json(report: ConvergenceReport) -> str:
    payload = {k: getattr(report, k) for k in report.__dataclass_fields__}
    return json.dumps(_oracle_jsonable(payload), indent=2, sort_keys=True)


def oracle_to_csv(report: ConvergenceReport) -> str:
    lines = ["epsilon,error,error_stderr,plain_gradient,plain_stderr,"
             "corrected_gradient,corrected_stderr,pairing,pairing_stderr,"
             "energy_functional,energy_stderr"]
    for i, e in enumerate(report.epsilons):
        row = (e, report.errors[i], report.error_stderr[i],
               report.plain_gradient[i], report.plain_stderr[i],
               report.corrected_gradient[i], report.corrected_stderr[i],
               report.pairings[i], report.pairing_stderr[i],
               report.energy_functional[i], report.energy_stderr[i])
        lines.append(",".join(repr(v) for v in row))
    return "\n".join(lines) + "\n"


def trig_study():
    return small_study(coefficient=make_coefficient("separable_trig", 1))


@pytest.mark.parametrize("make, cpus", [
    (small_study, 1), (small_2d_study, 2), (trig_study, 1)])
def test_reduction_matches_per_accumulator_oracle(monkeypatch, make, cpus):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    result = run_ladder(make())
    buf = io.BytesIO()
    np.savez(buf, **result.raw)
    buf.seek(0)
    stored = dict(np.load(buf))
    for raw, report in ((result.raw, result.report),
                        (stored, reduce_raw(stored))):
        oracle = oracle_reduce_raw(raw)
        assert report.to_json() == oracle_to_json(oracle)
        assert report.to_csv() == oracle_to_csv(oracle)
