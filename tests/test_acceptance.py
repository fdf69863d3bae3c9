"""Acceptance suite: eleven end-to-end checks, one test per criterion.

Running ``pytest -v tests/test_acceptance.py`` prints one pass/fail line
per criterion. Thresholds appear literally in the asserts; values frozen
from the seeded reference runs guard against silent numerical drift.
The shared reference ladder (criteria 6 to 8) dominates the runtime: its
fixture took 34.8 and 42.0 s in two runs of the whole suite on a shared
2-core host, stepped by two processes (1024 cells, 4 levels, 256 paths,
2500 steps); everything else finishes in seconds.
"""

import json
import textwrap
import time

import numpy as np
import pytest

from twoscale.cell import CellGrid, solve_cell_problem
from twoscale.cli import main
from twoscale.coefficients import make_coefficient
from twoscale.diagnostics import StudyConfig, run_ladder
from twoscale.ensemble import (Ensemble, ObservableSamples, chaos_gap,
                               wasserstein2_1d)
from twoscale.grid import (GridSpec, ScalarField, VectorField, inner_H,
                           norm_H, norm_V)
from twoscale.integrator import (BatchedStepper, StepperConfig,
                                 increment_scaling, run_ensemble)
from twoscale.manifest import read_manifest
from twoscale.models import (ModelSpec, apply_A_eps, apply_B,
                             check_B_local_monotonicity, face_coefficients,
                             leray_project)
from twoscale.noise import (NoiseStream, QWienerSpec, default_mode_count,
                            partial_trace, sample_increment)

from forks import deadline

SQRT3 = np.sqrt(3.0)


def layered(dimension=1):
    return make_coefficient("layered", dimension, alpha=2.0, beta=1.0)


def random_field(grid, rng):
    return ScalarField(grid, rng.standard_normal(grid.shape))


@pytest.fixture(scope="module")
def reference_ladder():
    """The frozen reference study shared by criteria 6, 7, and 8."""
    cfg = StudyConfig(
        coefficient=layered(), grid=GridSpec(dimension=1, cells=1024),
        epsilons=(1 / 8, 1 / 16, 1 / 32),
        stepper=StepperConfig(dt=1e-4, horizon=0.25),
        members=8, replicas=32, sigma0=0.1, cell_cells=256, seed=2026)
    t0 = time.perf_counter()
    with deadline(300):
        result = run_ladder(cfg)
    return result.report, time.perf_counter() - t0


def test_criterion_01_cell_exactness_constant_coefficient():
    t0 = time.perf_counter()
    coeff = make_coefficient("constant", dimension=2, value=2.5)
    sol = solve_cell_problem(coeff, CellGrid(dimension=2, cells=32))
    elapsed = time.perf_counter() - t0
    tensor_error = np.max(np.abs(sol.a_tilde - 2.5 * np.eye(2)))
    corrector_max = np.max(np.abs(sol.correctors))
    print(f"tensor error {tensor_error:.2e}, max corrector "
          f"{corrector_max:.2e}, {elapsed:.2f}s")
    assert tensor_error <= 1e-10
    assert corrector_max <= 1e-10
    assert elapsed < 1.0


def test_criterion_02_one_dimensional_harmonic_mean_oracles():
    t0 = time.perf_counter()
    sol = solve_cell_problem(layered(), CellGrid(dimension=1, cells=256))
    static = abs(sol.a_tilde[0, 0] - SQRT3) / SQRT3

    sep = make_coefficient("separable_trig", dimension=1, alpha=2.0,
                           beta=1.0, gamma=2.0, delta=1.0)
    sol_tau = solve_cell_problem(sep, CellGrid(dimension=1, cells=256,
                                               tau_slices=16))
    target = 2.0 * SQRT3
    modulated = abs(sol_tau.a_tilde[0, 0] - target) / target
    elapsed = time.perf_counter() - t0
    print(f"static rel err {static:.2e}, tau-modulated rel err "
          f"{modulated:.2e}, {elapsed:.2f}s")
    assert static <= 5e-4
    assert modulated <= 1e-3
    assert elapsed < 5.0


def test_criterion_03_two_dimensional_laminate_tensor():
    t0 = time.perf_counter()
    sol = solve_cell_problem(layered(dimension=2),
                             CellGrid(dimension=2, cells=128))
    elapsed = time.perf_counter() - t0
    a = sol.a_tilde
    print(f"a11 {a[0, 0]:.6f}, a12 {a[0, 1]:.2e}, a22 {a[1, 1]:.6f}, "
          f"{elapsed:.1f}s")
    assert abs(a[0, 0] - SQRT3) <= 1e-3
    assert abs(a[0, 1]) <= 1e-6
    assert abs(a[1, 0]) <= 1e-6
    assert abs(a[1, 1] - 2.0) <= 1e-3
    assert elapsed < 60.0


def test_criterion_04_operator_contracts():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)

    # diffusion: symmetry and coercivity over 100 random field pairs
    grid = GridSpec(1, 1024)
    coeff = layered()
    eps = 1 / 8
    faces = face_coefficients(coeff, grid, eps, 0.0)
    measured = min(float(np.min(f)) for f in faces)
    assert abs(measured - coeff.kappa) <= 0.05 * coeff.kappa
    for _ in range(100):
        u = random_field(grid, rng)
        v = random_field(grid, rng)
        au = apply_A_eps(u, coeff, eps, 0.0)
        av = apply_A_eps(v, coeff, eps, 0.0)
        scale = norm_H(au) * norm_H(v) + norm_H(u) * norm_H(av)
        assert abs(inner_H(au, v) - inner_H(u, av)) <= 1e-12 * scale
        assert inner_H(au, u) >= (measured - 1e-9) * norm_V(u) ** 2

    # advection: exact skew pairing over 100 solenoidal pairs
    grid2 = GridSpec(2, 32)
    for _ in range(100):
        u = leray_project(VectorField(random_field(grid2, rng)
                                      for _ in range(2)))
        v = leray_project(VectorField(random_field(grid2, rng)
                                      for _ in range(2)))
        b = apply_B(u, v)
        pairing = sum(inner_H(b[m], v[m]) for m in range(2))
        uh = np.sqrt(sum(norm_H(u[m]) ** 2 for m in range(2)))
        vv = sum(norm_V(v[m]) ** 2 for m in range(2))
        assert abs(pairing) <= 1e-12 * uh * vv

    # advection: the locally monotone bound fitted on the coarse grid
    # keeps holding on finer grids (zero violations)
    fitted = check_B_local_monotonicity(GridSpec(2, 16), samples=30, seed=7)
    assert 0.0 < fitted < np.inf
    for n in (32, 64):
        assert check_B_local_monotonicity(GridSpec(2, n), samples=30,
                                          seed=7) <= fitted

    elapsed = time.perf_counter() - t0
    print(f"measured ellipticity {measured:.4f} vs declared {coeff.kappa}, "
          f"monotonicity constant {fitted:.2e}, {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_05_noise_increment_calibration():
    t0 = time.perf_counter()
    grid = GridSpec(1, 128)
    spec = QWienerSpec(grid=grid, modes=default_mode_count(grid), gamma=2.0,
                       lambda0=1.0, seed=2026)
    stream = NoiseStream.derive(spec, 0)
    dt = 0.01
    draws = np.stack([sample_increment(stream, dt).values
                      for _ in range(10_000)])
    mean = draws.mean(axis=0)
    variance = float(np.mean(np.sum((draws - mean) ** 2, axis=-1)) * grid.h)
    target = partial_trace(spec) * dt
    rel = abs(variance - target) / target

    lag_dots = np.sum(draws[:-1] * draws[1:], axis=-1) * grid.h
    correlation = float(lag_dots.sum()
                        / np.sum(draws[:-1] ** 2 * grid.h))
    elapsed = time.perf_counter() - t0
    print(f"variance {variance:.6f} vs trace*dt {target:.6f} "
          f"(rel {rel:.3f}), lag-1 correlation {correlation:+.4f}, "
          f"{elapsed:.1f}s")
    assert rel <= 0.05
    assert abs(correlation) <= 0.05
    assert elapsed < 10.0


def test_criterion_06_homogenization_ladder(reference_ladder):
    report, elapsed = reference_ladder
    errors = report.errors
    print(f"errors {[f'{e:.6f}' for e in errors]}, "
          f"ratio {errors[2] / errors[0]:.4f}, {elapsed:.0f}s")
    assert errors[0] > errors[1] > errors[2] > 0.0
    assert errors[2] <= 0.5 * errors[0]
    assert errors == pytest.approx([0.004273, 0.002135, 0.001065], rel=1e-2)
    assert all(s > 0 for s in report.error_stderr)
    assert elapsed <= 600.0


def test_criterion_07_corrector_gain(reference_ladder):
    report, _ = reference_ladder
    plain = report.plain_gradient
    corrected = report.corrected_gradient
    print(f"corrected drop {corrected[0] / corrected[2]:.2f}x, "
          f"plain drop {plain[0] / plain[2]:.3f}x")
    assert corrected[0] / corrected[2] >= 2.0
    assert plain[0] / plain[2] < 1.5
    assert corrected == pytest.approx([0.01780, 0.00858, 0.00424], rel=1e-2)
    assert plain == pytest.approx([0.15116, 0.15173, 0.15124], rel=1e-2)


def test_criterion_08_energy_uniformity(reference_ladder):
    report, _ = reference_ladder
    energy = report.energy_functional
    ratio = max(energy) / min(energy)
    print(f"energy {[f'{e:.4f}' for e in energy]}, max/min {ratio:.4f}")
    assert ratio <= 1.5
    assert energy == pytest.approx([0.6780, 0.6784, 0.6783, 0.6554],
                                   rel=1e-2)
    for moments in (report.sup_moment_p2, report.sup_moment_p4):
        assert len(moments) == len(energy)
        assert all(np.isfinite(m) and m > 0 for m in moments)
    assert len(report.energy_stderr) == len(energy)
    assert all(np.isfinite(s) and s >= 0 for s in report.energy_stderr)


def test_criterion_09_increment_scaling():
    t0 = time.perf_counter()
    grid = GridSpec(dimension=1, cells=128)
    model = ModelSpec(variant="allen_cahn", coefficient=layered(),
                      epsilon=1 / 8, mean_field="stokes_drag", cubic=True,
                      noise_law="scalar_multiplicative", sigma0=1.5)
    spec = QWienerSpec(grid=grid, modes=default_mode_count(grid), gamma=2.0,
                       lambda0=1.0, seed=7)
    paths, steps, dt = 32, 512, 1e-4
    stepper = BatchedStepper(grid, model, spec, members=1, dt=dt)
    streams = [NoiseStream.derive(spec, i) for i in range(paths)]
    x = grid.axis_nodes()
    U = np.tile(0.5 * np.sin(np.pi * x), (paths, 1))
    trajectories = np.empty((paths, steps + 1, grid.dof))
    trajectories[:, 0] = U
    for k in range(steps):
        xi = np.stack([s.draw() for s in streams])
        U = stepper.advance(U, xi, k * dt, k)
        trajectories[:, k + 1] = U
    fit = increment_scaling(trajectories, grid, lags=[1, 2, 4, 8, 16], dt=dt)
    elapsed = time.perf_counter() - t0
    print(f"slope {fit.slope:.4f}, {elapsed:.1f}s")
    assert not fit.degenerate
    assert 0.7 <= fit.slope <= 1.3
    assert fit.slope == pytest.approx(1.0352, rel=2e-2)
    assert elapsed < 120.0


def test_criterion_10_mean_field_sanity():
    coeff = layered()

    # a single member exerts zero drag on itself: bitwise identical runs
    grid1 = GridSpec(1, 64)
    u0 = ScalarField(grid1, 0.5 * np.sin(np.pi * grid1.axis_nodes()))
    spec1 = QWienerSpec(grid=grid1, modes=16, gamma=2.0, lambda0=1.0, seed=5)
    finals = []
    for mean_field in ("stokes_drag", "none"):
        model = ModelSpec(variant="allen_cahn", coefficient=coeff,
                          epsilon=1 / 8, mean_field=mean_field, cubic=True,
                          noise_law="scalar_multiplicative", sigma0=0.3)
        final, _ = run_ensemble(Ensemble(members=[u0], noise=spec1), model,
                                StepperConfig(dt=1e-3, horizon=0.02))
        finals.append(final.members[0].values.copy())
    assert np.array_equal(finals[0], finals[1])

    # chaos gap shrinks as the interacting system grows
    grid = GridSpec(1, 128)
    spec = QWienerSpec(grid=grid, modes=default_mode_count(grid), gamma=2.0,
                       lambda0=1.0, seed=11)
    u0_vals = np.sin(np.pi * grid.axis_nodes())
    dt, steps = 1e-3, 256

    def interacting_observables(members):
        model = ModelSpec(variant="allen_cahn", coefficient=coeff,
                          epsilon=1 / 8, mean_field="stokes_drag",
                          cubic=True, noise_law="scalar_multiplicative",
                          sigma0=0.3)
        stepper = BatchedStepper(grid, model, spec, members=members, dt=dt)
        streams = [NoiseStream.derive(spec, i) for i in range(members)]
        U = np.tile(u0_vals, (members, 1))
        for k in range(steps):
            xi = np.stack([s.draw() for s in streams])
            U = stepper.advance(U, xi, k * dt, k)
        return ObservableSamples(
            kind="H_norm", values=np.sqrt(grid.h * np.sum(U ** 2, axis=-1)))

    samples = {m: interacting_observables(m) for m in (16, 64, 256)}
    gap16 = chaos_gap(samples[16], samples[256])
    gap64 = chaos_gap(samples[64], samples[256])
    print(f"gap(16,256) {gap16:.3e} >= gap(64,256) {gap64:.3e}")
    assert gap16 >= gap64
    assert gap16 == pytest.approx(1.0041e-3, rel=5e-2)
    assert gap64 == pytest.approx(2.6328e-4, rel=5e-2)

    # the 1d transport distance is a metric on 100 random triples
    rng = np.random.default_rng(17)
    for _ in range(100):
        a, b, c = (rng.standard_normal(16) for _ in range(3))
        ab = wasserstein2_1d(a, b)
        bc = wasserstein2_1d(b, c)
        ac = wasserstein2_1d(a, c)
        assert ab >= 0.0 and bc >= 0.0 and ac >= 0.0
        assert ab == pytest.approx(wasserstein2_1d(b, a), rel=1e-12)
        assert wasserstein2_1d(a, a) == 0.0
        assert ac <= ab + bc + 1e-12
        if ab == 0.0:
            assert np.array_equal(np.sort(a), np.sort(b))


def test_criterion_11_reproducibility(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text(textwrap.dedent("""
        [grid]
        cells = 64
        [stepper]
        dt = 0.01
        horizon = 0.02
        [ensemble]
        members = 2
        replicas = 2
        [study]
        epsilons = 0.5, 0.25
        cell_cells = 32
        initial_amplitude = 0.5
        [run]
        seed = 9
        """).lstrip(), encoding="utf-8")

    for command in ("cell", "simulate", "ladder", "corrector"):
        first = tmp_path / command / "a"
        second = tmp_path / command / "b"
        for out in (first, second):
            assert main([command, "-c", str(config), "-o", str(out)]) == 0
        manifest = read_manifest(first)
        for name in list(manifest["files"]) + ["manifest.json"]:
            assert (first / name).read_bytes() \
                == (second / name).read_bytes(), f"{command}/{name}"

    # re-rendering a stored archive is just as deterministic
    ladder_dir = tmp_path / "ladder" / "a"
    assert main(["report", "-d", str(ladder_dir)]) == 0
    snapshot = {name: (ladder_dir / name).read_bytes()
                for name in ("report.json", "report.csv", "manifest.json")}
    assert main(["report", "-d", str(ladder_dir)]) == 0
    for name, blob in snapshot.items():
        assert (ladder_dir / name).read_bytes() == blob, name
    capsys.readouterr()

    summary = json.loads((tmp_path / "simulate" / "a"
                          / "simulate.json").read_text())
    assert summary["members"] == 2
