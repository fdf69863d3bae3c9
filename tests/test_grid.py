"""Grid, field, and norm behavior on the unit box."""
from __future__ import annotations

import numpy as np
import pytest

from twoscale.errors import CountMismatch, SolverDiverged
from twoscale.grid import (
    GridSpec,
    ScalarField,
    field_from_csv,
    field_from_sine_coefficients,
    field_to_csv,
    first_eigenvalue,
    inner_H,
    norm_H,
    norm_Hminus1_proxy,
    norm_L4,
    norm_V,
    preconditioned_cg,
    sine_coefficients,
    sine_mode,
)


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
    assert norm_H(ScalarField.zeros(g)) == 0.0


def test_norm_H_constant_field_closed_form():
    # h * (n-1) node sum: sqrt(7/8) on 8 cells
    g = GridSpec(dimension=1, cells=8)
    f = ScalarField(g, np.ones(7))
    assert abs(norm_H(f) - np.sqrt(7.0 / 8.0)) < 1e-12


def test_norm_H_sine_matches_integral():
    g = GridSpec(dimension=1, cells=256)
    f = ScalarField.from_function(g, lambda x: np.sin(np.pi * x))
    assert abs(norm_H(f) - 1.0 / np.sqrt(2.0)) < 1e-3


def test_norm_V_sine_matches_integral():
    g = GridSpec(dimension=1, cells=256)
    f = ScalarField.from_function(g, lambda x: np.sin(np.pi * x))
    assert abs(norm_V(f) - np.pi / np.sqrt(2.0)) < 1e-2


def test_norm_V_single_spike_hand_value():
    # one interior node at height 1 on n=8: two unit face jumps,
    # V^2 = h * 2 / h^2 = 16, so V = 4
    g = GridSpec(dimension=1, cells=8)
    vals = np.zeros(7)
    vals[3] = 1.0
    assert abs(norm_V(ScalarField(g, vals)) - 4.0) < 1e-12


def test_hminus1_proxy_single_mode_weight():
    g = GridSpec(dimension=1, cells=64)
    e1 = sine_mode(g, 1)
    assert abs(norm_H(e1) - 1.0) < 1e-12
    expected = 1.0 / np.sqrt(1.0 + np.pi ** 2)
    assert abs(norm_Hminus1_proxy(e1) - expected) < 1e-12


def test_hminus1_proxy_below_H_norm():
    rng = np.random.default_rng(42)
    g = GridSpec(dimension=1, cells=64)
    g2 = GridSpec(dimension=2, cells=16)
    for _ in range(100):
        f = ScalarField(g, rng.standard_normal(g.shape))
        assert norm_Hminus1_proxy(f) <= norm_H(f) + 1e-12
        f2 = ScalarField(g2, rng.standard_normal(g2.shape))
        assert norm_Hminus1_proxy(f2) <= norm_H(f2) + 1e-12


def test_norms_absolutely_homogeneous():
    rng = np.random.default_rng(7)
    g = GridSpec(dimension=1, cells=32)
    for _ in range(20):
        f = ScalarField(g, rng.standard_normal(g.shape))
        c = float(rng.standard_normal())
        for norm in (norm_H, norm_V, norm_L4, norm_Hminus1_proxy):
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
        f = ScalarField(g, rng.standard_normal(g.shape))
        c = sine_coefficients(f)
        assert abs(np.sqrt(np.sum(c ** 2)) - norm_H(f)) < 1e-10
        back = field_from_sine_coefficients(g, c)
        assert np.max(np.abs(back.values - f.values)) < 1e-10


def test_first_eigenvalue_matches_mode():
    # Rayleigh quotient of e_1 under the face-difference form
    for g in (GridSpec(dimension=1, cells=64), GridSpec(dimension=2, cells=16)):
        k = 1 if g.dimension == 1 else (1, 1)
        e1 = sine_mode(g, k)
        quotient = norm_V(e1) ** 2 / norm_H(e1) ** 2
        assert abs(quotient - first_eigenvalue(g)) < 1e-9 * first_eigenvalue(g)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    for g in (GridSpec(dimension=1, cells=16), GridSpec(dimension=2, cells=8)):
        f = ScalarField(g, rng.standard_normal(g.shape))
        path = tmp_path / f"field{g.dimension}.csv"
        field_to_csv(f, path)
        back = field_from_csv(path)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)
        header = path.read_text().splitlines()[0]
        assert f"n={g.cells}" in header and f"N={g.dimension}" in header


def test_csv_rejects_truncation(tmp_path):
    g = GridSpec(dimension=1, cells=16)
    f = ScalarField(g, np.ones(15))
    path = tmp_path / "f.csv"
    field_to_csv(f, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(CountMismatch):
        field_from_csv(path)


def test_inner_product_consistent_with_norm():
    rng = np.random.default_rng(13)
    g = GridSpec(dimension=1, cells=32)
    f = ScalarField(g, rng.standard_normal(g.shape))
    assert abs(inner_H(f, f) - norm_H(f) ** 2) < 1e-12


# ---------------------------------------------------------------------------
# preconditioned conjugate gradients


def _spd_matrix(n, rng):
    q = rng.standard_normal((n, n))
    return q @ q.T + n * np.eye(n)


def test_pcg_solves_each_row_and_counts_per_row():
    rng = np.random.default_rng(21)
    a = _spd_matrix(12, rng)
    diag = np.diag(a)
    b = rng.standard_normal((3, 12))
    b[1] = 0.0
    x, res, its = preconditioned_cg(lambda v: v @ a, lambda v: v / diag,
                                    b, 1e-12, 100, "test CG")
    np.testing.assert_allclose(x, np.linalg.solve(a, b.T).T, atol=1e-10)
    assert np.all(res <= 1e-12)
    assert its[1] == 0 and res[1] == 0.0 and np.all(its[[0, 2]] > 0)


@pytest.mark.filterwarnings("error")
def test_pcg_stops_at_indefinite_preconditioner():
    rng = np.random.default_rng(22)
    a = _spd_matrix(8, rng)
    with pytest.raises(SolverDiverged, match=r"r\.z") as err:
        preconditioned_cg(lambda v: v @ a, lambda v: -v,
                          rng.standard_normal((2, 8)), 1e-10, 50, "test CG")
    assert err.value.iterations == 0


def test_pcg_reports_exhausted_iteration_limit():
    rng = np.random.default_rng(23)
    a = _spd_matrix(16, rng)
    with pytest.raises(SolverDiverged, match="exceeded 2 iterations") as err:
        preconditioned_cg(lambda v: v @ a, lambda v: v,
                          rng.standard_normal((1, 16)), 1e-14, 2, "test CG")
    assert err.value.iterations == 2 and err.value.residual > 1e-14
