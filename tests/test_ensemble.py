"""Tests for ensembles, empirical measures, and Wasserstein diagnostics."""

import itertools

import numpy as np
import pytest

from twoscale.coefficients import make_coefficient
from twoscale.ensemble import (Ensemble, ObservableSamples, chaos_gap,
                               quantile_subsample, wasserstein2_1d)
from twoscale.errors import CountMismatch
from twoscale.grid import GridSpec, ScalarField, norm_H
from twoscale.integrator import BatchedStepper
from twoscale.models import ModelSpec
from twoscale.noise import NoiseStream, QWienerSpec

from empirical import empirical_measure


def grid1d(cells=32):
    return GridSpec(1, cells)


def constant_field(grid, value):
    return ScalarField(grid, np.full(grid.shape, float(value)))


def random_members(grid, count, seed=0):
    rng = np.random.default_rng(seed)
    return [ScalarField(grid, rng.standard_normal(grid.shape))
            for _ in range(count)]


# ---------------------------------------------------------------------------
# empirical measure


def test_measure_identical_members_gives_zero_drag():
    grid = grid1d()
    u = ScalarField(grid, np.sin(np.pi * grid.axis_nodes()))
    measure = empirical_measure([u, u, u, u])
    assert np.array_equal(measure.mean.values, u.values)
    model = ModelSpec(variant="allen_cahn",
                      coefficient=make_coefficient("layered", 1, alpha=2.0,
                                                   beta=1.0),
                      epsilon=0.125, mean_field="stokes_drag", cubic=False)
    spec = QWienerSpec(grid=grid, modes=4)
    stepper = BatchedStepper(grid, model, spec, members=4, dt=0.01)
    U = np.tile(u.values.reshape(-1), (4, 1))
    drag, _ = stepper.explicit_terms(U, np.zeros((4, spec.modes)))
    assert np.all(drag == 0.0)


def test_measure_two_constants():
    grid = grid1d()
    measure = empirical_measure([constant_field(grid, 1.0),
                                 constant_field(grid, 3.0)])
    assert np.max(np.abs(measure.mean.values - 2.0)) == 0.0
    expected_second = (norm_H(constant_field(grid, 1.0)) ** 2
                       + norm_H(constant_field(grid, 3.0)) ** 2) / 2.0
    assert measure.second_moment == pytest.approx(expected_second, rel=1e-14)


def test_measure_deterministic_and_permutation_invariant():
    grid = grid1d()
    members = random_members(grid, 5, seed=3)
    first = empirical_measure(members)
    again = empirical_measure(list(members))
    assert np.array_equal(first.mean.values, again.mean.values)
    assert first.second_moment == again.second_moment
    # exact-arithmetic witness: integer-valued members make the summation
    # order immaterial, so a permuted list reproduces the mean bitwise
    rng = np.random.default_rng(4)
    exact = [ScalarField(grid, rng.integers(-8, 9, grid.shape).astype(float))
             for _ in range(6)]
    permuted = [exact[i] for i in (3, 0, 5, 1, 4, 2)]
    assert np.array_equal(empirical_measure(exact).mean.values,
                          empirical_measure(permuted).mean.values)
    # general floats still agree to rounding
    shuffled = [members[i] for i in (2, 0, 4, 1, 3)]
    assert np.allclose(first.mean.values,
                       empirical_measure(shuffled).mean.values,
                       rtol=1e-14, atol=1e-14)


def test_measure_rejects_empty():
    with pytest.raises(ValueError):
        empirical_measure([])


# ---------------------------------------------------------------------------
# Wasserstein distance


def test_w2_identical_samples():
    a = np.array([0.3, -1.2, 4.5, 0.0])
    assert wasserstein2_1d(a, a.copy()) == 0.0


def test_w2_constant_shift():
    rng = np.random.default_rng(1)
    for shift in (0.5, -2.25, 1e-3):
        a = rng.standard_normal(64)
        assert wasserstein2_1d(a, a + shift) == pytest.approx(abs(shift),
                                                              rel=1e-12)


def test_w2_three_point_oracle():
    a = np.array([0.0, 1.0, 2.0])
    b = np.array([0.0, 0.0, 3.0])
    value = wasserstein2_1d(a, b)
    assert value == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-12)
    # the sorted coupling matches the exhaustive minimum over all couplings
    best = min(np.sqrt(np.mean((a - b[list(p)]) ** 2))
               for p in itertools.permutations(range(3)))
    assert value == pytest.approx(best, rel=1e-12)


def test_w2_sorted_coupling_is_optimal_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        value = wasserstein2_1d(a, b)
        best = min(np.sqrt(np.mean((a - b[list(p)]) ** 2))
                   for p in itertools.permutations(range(5)))
        assert value <= best + 1e-12


def test_w2_count_mismatch():
    with pytest.raises(CountMismatch):
        wasserstein2_1d(np.zeros(3), np.zeros(4))
    with pytest.raises(CountMismatch):
        wasserstein2_1d(np.array([]), np.array([]))


def test_w2_metric_axioms():
    rng = np.random.default_rng(42)
    for _ in range(100):
        a = rng.standard_normal(16)
        b = rng.standard_normal(16)
        c = rng.standard_normal(16)
        assert wasserstein2_1d(a, a) == 0.0
        assert wasserstein2_1d(a, b) == wasserstein2_1d(b, a)
        assert wasserstein2_1d(a, c) <= (wasserstein2_1d(a, b)
                                         + wasserstein2_1d(b, c) + 1e-12)
        if wasserstein2_1d(a, b) == 0.0:
            assert np.array_equal(np.sort(a), np.sort(b))


# ---------------------------------------------------------------------------
# quantile subsampling and the chaos gap


def test_quantile_subsample_full_size_is_sorted_identity():
    rng = np.random.default_rng(9)
    v = rng.standard_normal(12)
    assert np.array_equal(quantile_subsample(v, 12), np.sort(v))


def test_quantile_subsample_known_picks():
    v = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    assert np.array_equal(quantile_subsample(v, 4),
                          np.array([2.0, 4.0, 6.0, 8.0]))
    assert np.array_equal(quantile_subsample(np.array([5.0, 1.0, 9.0]), 1),
                          np.array([5.0]))


def test_quantile_subsample_bounds():
    v = np.arange(4.0)
    with pytest.raises(CountMismatch):
        quantile_subsample(v, 0)
    with pytest.raises(CountMismatch):
        quantile_subsample(v, 5)


def test_chaos_gap_identical_laws():
    small = ObservableSamples(kind="H_norm", values=np.array([0.0, 2.0]))
    large = ObservableSamples(kind="H_norm",
                              values=np.array([0.0, 0.0, 2.0, 2.0]))
    assert chaos_gap(small, small) == 0.0
    # the large sample carries the same law, so quantile matching finds it
    assert chaos_gap(small, large) == 0.0


def test_chaos_gap_orders_sizes():
    small = ObservableSamples(kind="H_norm", values=np.zeros(8))
    large = ObservableSamples(kind="H_norm", values=np.zeros(4))
    with pytest.raises(CountMismatch):
        chaos_gap(small, large)


# ---------------------------------------------------------------------------
# observables


def test_observable_validation():
    with pytest.raises(ValueError):
        ObservableSamples(kind="energy", values=np.zeros(3))
    with pytest.raises(ValueError):
        ObservableSamples(kind="H_norm", values=np.zeros((2, 2)))
    obs = ObservableSamples(kind="H_norm", values=np.arange(3.0))
    with pytest.raises(ValueError):
        obs.values[0] = 5.0


# ---------------------------------------------------------------------------
# ensemble container


def noise_spec(grid):
    return QWienerSpec(grid=grid, modes=8, gamma=2.0, lambda0=1.0, seed=0)


def test_ensemble_stream_keys():
    grid = grid1d()
    spec = noise_spec(grid)
    members = random_members(grid, 4, seed=8)
    # member i draws from (i, 0), as simulate's member i does
    ids = [s.stream_id for s in Ensemble(members=members, noise=spec).streams]
    assert ids == [NoiseStream.derive(spec, i, 0).stream_id
                   for i in range(4)]
    # both indices enter the key: a ladder path (member m, replica r)
    # draws from (m, r), and no two of these keys agree
    keys = {NoiseStream.derive(spec, m, r).stream_id
            for m in range(4) for r in range(3)}
    assert len(keys) == 12
    # explicit streams are kept, also when they share one key
    shared = [NoiseStream.derive(spec, 0, 0) for _ in members]
    common = Ensemble(members=members, noise=spec, streams=shared)
    assert common.streams is shared


def test_ensemble_validation():
    grid = grid1d()
    with pytest.raises(ValueError):
        Ensemble(members=[], noise=noise_spec(grid))
    mixed = [ScalarField.zeros(grid), ScalarField.zeros(GridSpec(1, 64))]
    with pytest.raises(ValueError):
        Ensemble(members=mixed, noise=noise_spec(grid))
    members = random_members(grid, 3, seed=2)
    ens = Ensemble(members=members, noise=noise_spec(grid))
    with pytest.raises(ValueError):
        Ensemble(members=members, noise=noise_spec(grid),
                 streams=ens.streams[:2])


def test_ensemble_properties():
    grid = grid1d()
    ens = Ensemble(members=random_members(grid, 3, seed=1),
                   noise=noise_spec(grid))
    assert ens.grid == grid
    assert ens.size == 3
    assert ens.time == 0.0
