"""Grid, field, and norm behavior on the unit box."""
from __future__ import annotations

import numpy as np
import pytest

from twoscale.grid import (
    GridSpec,
    ScalarField,
    inner_H,
    node_inner,
    norm_H,
    norm_V,
    sine_coefficients,
)
from twoscale.integrator import increment_scaling

from modes import first_eigenvalue, sine_mode


def test_grid_rejects_bad_shapes():
    with pytest.raises(ValueError):
        GridSpec(dimension=3, cells=16)
    with pytest.raises(ValueError):
        GridSpec(dimension=1, cells=12)  # not a power of two
    with pytest.raises(ValueError):
        GridSpec(dimension=1, cells=4)  # below the minimum


def test_field_requires_finite_matching_values():
    g = GridSpec(dimension=1, cells=8)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros(5))
    bad = np.zeros(7)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        ScalarField(g, bad)


def test_fields_are_immutable_values():
    g = GridSpec(dimension=1, cells=8)
    f = ScalarField(g, np.arange(7, dtype=float))
    with pytest.raises(ValueError):
        f.values[0] = 99.0


def test_norm_H_zero_field():
    g = GridSpec(dimension=2, cells=16)
    assert norm_H(ScalarField(g, np.zeros(g.shape))) == 0.0


def test_norm_H_constant_field_closed_form():
    # h * (n-1) node sum: sqrt(7/8) on 8 cells
    g = GridSpec(dimension=1, cells=8)
    f = ScalarField(g, np.ones(7))
    assert abs(norm_H(f) - np.sqrt(7.0 / 8.0)) < 1e-12


def test_norm_H_sine_matches_integral():
    g = GridSpec(dimension=1, cells=256)
    f = ScalarField(g, np.sin(np.pi * g.axis_nodes()))
    assert abs(norm_H(f) - 1.0 / np.sqrt(2.0)) < 1e-3


def test_norm_V_sine_matches_integral():
    g = GridSpec(dimension=1, cells=256)
    f = ScalarField(g, np.sin(np.pi * g.axis_nodes()))
    assert abs(norm_V(f) - np.pi / np.sqrt(2.0)) < 1e-2


def test_norm_V_single_spike_hand_value():
    # one interior node at height 1 on n=8: two unit face jumps,
    # V^2 = h * 2 / h^2 = 16, so V = 4
    g = GridSpec(dimension=1, cells=8)
    vals = np.zeros(7)
    vals[3] = 1.0
    assert abs(norm_V(ScalarField(g, vals)) - 4.0) < 1e-12


def test_hminus1_proxy_single_mode_weight():
    # The increment fit measures increments in the H^-1 proxy. A path
    # moving along e_1 at unit speed has increments lag * e_1, whose
    # squared proxy is lag^2 / (1 + pi^2).
    g = GridSpec(dimension=1, cells=64)
    e1 = sine_mode(g, 1)
    assert abs(norm_H(e1) - 1.0) < 1e-12
    lags = np.array([1, 2, 5, 10])
    path = np.arange(11.0)[None, :, None] * e1.values.reshape(1, 1, -1)
    fit = increment_scaling(path, g, lags, dt=1.0)
    expected = lags ** 2 / (1.0 + np.pi ** 2)
    np.testing.assert_allclose(fit.mean_square, expected, rtol=1e-12)


def test_hminus1_proxy_below_H_norm():
    # every proxy weight is below 1, so the increment fit's mean squared
    # proxy stays below the mean squared H norm of the same increments
    rng = np.random.default_rng(42)
    lags = (1, 2, 5, 10)
    for g in (GridSpec(dimension=1, cells=64), GridSpec(dimension=2, cells=16)):
        paths = rng.standard_normal((10, 11) + g.shape)
        fit = increment_scaling(paths, g, lags, dt=1.0)
        grid_axes = tuple(range(2, 2 + g.dimension))
        for lag, proxy in zip(lags, fit.mean_square):
            d = paths[:, lag:] - paths[:, :-lag]
            h2 = g.h ** g.dimension * np.mean(np.sum(d * d, axis=grid_axes))
            assert proxy <= h2 * (1.0 + 1e-12)


def test_norms_absolutely_homogeneous():
    rng = np.random.default_rng(7)
    g = GridSpec(dimension=1, cells=32)
    for _ in range(20):
        f = ScalarField(g, rng.standard_normal(g.shape))
        c = float(rng.standard_normal())
        for norm in (norm_H, norm_V):
            assert abs(norm(c * f) - abs(c) * norm(f)) < 1e-10 * (1 + norm(f))


def test_norm_H_triangle_inequality():
    rng = np.random.default_rng(11)
    g = GridSpec(dimension=2, cells=16)
    for _ in range(50):
        f = ScalarField(g, rng.standard_normal(g.shape))
        w = ScalarField(g, rng.standard_normal(g.shape))
        assert norm_H(f + w) <= norm_H(f) + norm_H(w) + 1e-12


def test_poincare_constant_stable_across_resolutions():
    # the first sine mode extremizes H/V; its ratio approaches 1/pi
    ratios = []
    for n in (64, 128, 256):
        g = GridSpec(dimension=1, cells=n)
        e1 = sine_mode(g, 1)
        ratios.append(norm_H(e1) / norm_V(e1))
    base = ratios[0]
    for r in ratios[1:]:
        assert abs(r - base) <= 0.1 * base
    # all fields obey the bound realized by the extremizer
    rng = np.random.default_rng(3)
    g = GridSpec(dimension=1, cells=128)
    cp = 1.0 / np.sqrt(first_eigenvalue(g))
    for _ in range(50):
        f = ScalarField(g, rng.standard_normal(g.shape))
        assert norm_H(f) <= cp * norm_V(f) * (1 + 1e-12)


def test_sine_transform_is_unitary():
    rng = np.random.default_rng(5)
    for g in (GridSpec(dimension=1, cells=32), GridSpec(dimension=2, cells=16)):
        stack = rng.standard_normal((3,) + g.shape)
        c = sine_coefficients(stack, g)
        for f, row in zip(stack, c):
            assert abs(np.sqrt(np.sum(row ** 2))
                       - norm_H(ScalarField(g, f))) < 1e-10
            # a stack transforms row by row
            assert np.array_equal(row, sine_coefficients(f, g))


def test_first_eigenvalue_matches_mode():
    # Rayleigh quotient of e_1 under the face-difference form
    for g in (GridSpec(dimension=1, cells=64), GridSpec(dimension=2, cells=16)):
        k = 1 if g.dimension == 1 else (1, 1)
        e1 = sine_mode(g, k)
        quotient = norm_V(e1) ** 2 / norm_H(e1) ** 2
        assert abs(quotient - first_eigenvalue(g)) < 1e-9 * first_eigenvalue(g)


def test_inner_product_consistent_with_norm():
    rng = np.random.default_rng(13)
    g = GridSpec(dimension=1, cells=32)
    f = ScalarField(g, rng.standard_normal(g.shape))
    assert abs(inner_H(f, f) - norm_H(f) ** 2) < 1e-12


def test_field_norms_are_node_inner_on_a_one_row_stack():
    # the single-field norms are the engine's stack reduction, bit for bit
    rng = np.random.default_rng(17)
    for g in (GridSpec(dimension=1, cells=64), GridSpec(dimension=2, cells=16)):
        f, w = (ScalarField(g, rng.standard_normal(g.shape)) for _ in range(2))
        a, b = f.values.reshape(1, -1), w.values.reshape(1, -1)
        assert inner_H(f, w) == node_inner(a, b, g)[0]
        assert norm_H(f) == np.sqrt(node_inner(a, a, g)[0])
