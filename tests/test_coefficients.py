"""Coefficient families: symmetry, periodicity, ellipticity, scaling."""
from __future__ import annotations

import numpy as np
import pytest

from twoscale.coefficients import (FAMILIES, CoefficientField, _sharp_bound,
                                   make_coefficient)
from twoscale.errors import ToolkitError, ValidationError


class EllipticityViolation(ToolkitError):
    """A coefficient field dipped below its derived ellipticity constant.

    Carries the offending sample point so the caller can report it.
    """

    def __init__(self, message: str, y=None, tau=None, value=None):
        super().__init__(message)
        self.y = y
        self.tau = tau
        self.value = value


def verify_ellipticity(coeff: CoefficientField, samples: int = 4096,
                       tau_samples: int = 8) -> float:
    """Audit the derived ellipticity constant against dense torus sampling.

    Samples at least ``samples`` points of the (y, tau) torus, takes the
    minimum eigenvalue of a = s I at each (that is s), and returns the
    sampled constant. Raises :class:`EllipticityViolation` carrying a
    witness point when the sampled minimum undercuts that constant
    beyond round-off.
    """
    samples = max(int(samples), 1000)
    if coeff.dimension == 1:
        m = samples
        y_axes = (np.arange(m) / m,)
        mesh = np.meshgrid(*y_axes, np.arange(tau_samples) / tau_samples,
                           indexing="ij")
        ys, taus = mesh[0], mesh[1]
    else:
        m = int(np.ceil(np.sqrt(samples)))
        ax = np.arange(m) / m
        ys1, ys2, taus = np.meshgrid(ax, ax, np.arange(tau_samples) / tau_samples,
                                     indexing="ij")
        ys = (ys1, ys2)
    eigmin = np.asarray(coeff.scalar(ys, taus), dtype=float)
    flat_idx = int(np.argmin(eigmin))
    measured = float(eigmin.reshape(-1)[flat_idx])
    if measured < coeff.kappa - 1e-12:
        idx = np.unravel_index(flat_idx, eigmin.shape)
        if coeff.dimension == 1:
            y_at = float(ys[idx])
        else:
            y_at = (float(ys[0][idx]), float(ys[1][idx]))
        tau_at = float(taus[idx])
        raise EllipticityViolation(
            f"sampled ellipticity {measured:.6g} undercuts kappa "
            f"{coeff.kappa:.6g} at y={y_at}, tau={tau_at}",
            y=y_at, tau=tau_at, value=measured)
    return measured


def test_constant_family_evaluates_to_scaled_identity():
    # a = s I with s = 2
    c = make_coefficient("constant", dimension=2, value=2.0)
    assert c.scalar(np.array([0.3, 0.7]), 0.1) == 2.0


def test_layered_family_closed_form_point():
    c = make_coefficient("layered", dimension=1, alpha=2.0, beta=1.0)
    s = c.scalar(np.array([0.25]), 0.0)
    assert abs(s[0] - 3.0) < 1e-12  # sin(pi/2) = 1


def test_symmetry_exact_for_all_families():
    # a = s I is exactly symmetric: every family gives one finite real
    # value s per point, the constant family included
    rng = np.random.default_rng(21)
    fields = [
        make_coefficient("constant", dimension=2, value=1.5),
        make_coefficient("layered", dimension=2, alpha=2.0, beta=1.0),
        make_coefficient("separable_trig", dimension=2, alpha=2.0, beta=1.0,
                         gamma=2.0, delta=1.0),
        make_coefficient("checkerboard", dimension=2, low=1.0, high=3.0,
                         width=0.05),
    ]
    for c in fields:
        y = rng.random((2, 25))
        tau = rng.random(25)
        s = c.scalar(y, tau)
        assert s.shape == (25,) and s.dtype == float
        assert np.all(np.isfinite(s))


def test_periodicity_under_integer_shifts():
    rng = np.random.default_rng(23)
    c = make_coefficient("separable_trig", dimension=1, alpha=2.0, beta=1.0,
                         gamma=2.0, delta=1.0)
    cb = make_coefficient("checkerboard", dimension=2, low=1.0, high=3.0,
                          width=0.05)
    for _ in range(100):
        y = rng.random(1)
        tau = float(rng.random())
        a0 = c.scalar(y, tau)
        a1 = c.scalar(y + 1.0, tau + 1.0)
        assert np.max(np.abs(a0 - a1)) < 1e-12
        y2 = rng.random(2)
        b0 = cb.scalar(y2, tau)
        b1 = cb.scalar(y2 + np.array([1.0, 2.0]), tau - 3.0)
        assert np.max(np.abs(b0 - b1)) < 1e-12


def test_scaled_evaluation_matches_wrapped_cell_point():
    c = make_coefficient("layered", dimension=1, alpha=2.0, beta=1.0)
    # x = 1/32 at eps = 1/8 lands on y = 1/4
    s = c.scalar_scaled(np.array([1.0 / 32.0]), 0.0, 1.0 / 8.0)
    assert abs(s[0] - 3.0) < 1e-12
    # eps = 1: scaled is plain evaluation
    y = np.array([0.37])
    assert np.array_equal(c.scalar_scaled(y, 0.2, 1.0), c.scalar(y, 0.2))


def test_scaled_field_has_eps_periods_across_the_box():
    c = make_coefficient("layered", dimension=1, alpha=2.0, beta=1.0)
    eps = 1.0 / 16.0
    x = (np.arange(4096) + 0.5) / 4096.0  # midpoints avoid exact zeros
    vals = np.array([c.scalar_scaled(np.array([xi]), 0.0, eps) for xi in x])
    signs = np.sign(vals - 2.0).reshape(-1)
    changes = np.sum(signs * np.roll(signs, -1) < 0)  # circular count
    assert changes == 2 * 16  # two zero crossings per period


def test_scaled_rejects_nonpositive_eps():
    c = make_coefficient("layered", dimension=1, alpha=2.0, beta=1.0)
    with pytest.raises(ValueError):
        c.scalar_scaled(np.array([0.5]), 0.0, 0.0)
    with pytest.raises(ValueError):
        c.scalar_scaled(np.array([0.5]), 0.0, -0.25)


def test_nested_eps_evaluations_agree_on_shared_phases():
    c = make_coefficient("layered", dimension=1, alpha=2.0, beta=1.0)
    eps = 1.0 / 8.0
    # x/eps and x/(2 eps) agree mod 1 whenever x is a multiple of 2 eps
    for k in range(4):
        x = np.array([2.0 * eps * k + 1e-9])
        a_fine = c.scalar_scaled(x, 0.0, eps)
        a_coarse = c.scalar_scaled(x, 0.0, 2.0 * eps)
        assert abs(a_fine - a_coarse) < 1e-6


def test_verify_ellipticity_constant_and_layered():
    c2 = make_coefficient("constant", dimension=2, value=2.0)
    assert abs(verify_ellipticity(c2, 1000) - 2.0) < 1e-12
    lay = make_coefficient("layered", dimension=1, alpha=2.0, beta=1.0)
    khat = verify_ellipticity(lay, 20000)
    assert abs(khat - 1.0) < 1e-3
    assert khat >= lay.kappa - 1e-12


class ShiftedDown(CoefficientField):
    """s - 2: for layered 2 + sin(2 pi y) the sign-changing sin(2 pi y),
    under the kappa 1 derived for s. No parameters build such a field."""

    def scalar(self, y, tau=0.0):
        return super().scalar(y, tau) - 2.0


def test_verify_ellipticity_flags_sign_changing_family():
    bad = ShiftedDown("layered", 1, FAMILIES["layered"])
    assert bad.kappa == 1.0
    with pytest.raises(EllipticityViolation) as err:
        verify_ellipticity(bad, 20000)
    # the witness point is carried along and actually violates
    assert err.value.y is not None
    assert err.value.value < 0.5


def test_default_kappa_matches_family_minimum():
    lay = make_coefficient("layered", dimension=1, alpha=2.0, beta=1.0)
    assert abs(lay.kappa - 1.0) < 1e-12
    sep = make_coefficient("separable_trig", dimension=1, alpha=2.0, beta=1.0,
                           gamma=2.0, delta=1.0)
    assert abs(sep.kappa - 1.0) < 1e-12
    cb = make_coefficient("checkerboard", dimension=2, low=1.0, high=3.0,
                          width=0.05)
    assert cb.kappa <= 1.0 + 1e-12


def test_separable_trig_bound_is_the_smallest_corner_product():
    # (alpha +- |beta|)(gamma +- |delta|): two nonnegative lower ends no
    # longer multiply into a positive bound when a factor changes sign
    with pytest.raises(ValidationError) as err:
        make_coefficient("separable_trig", 1, alpha=0.5, beta=1.0,
                         gamma=0.5, delta=1.0)
    assert "sharp bound -0.75" in str(err.value)
    # both factors negative: the product of the upper ends is the minimum
    both = make_coefficient("separable_trig", 1, alpha=-2.0, beta=1.0,
                            gamma=-2.0, delta=1.0)
    assert both.kappa == 1.0
    assert abs(verify_ellipticity(both) - 1.0) < 1e-12


class Unchecked(CoefficientField):
    """A field built past every check, with kappa -inf: the audit samples
    it without ever flagging it."""

    def __post_init__(self):
        object.__setattr__(self, "kappa", -np.inf)


@pytest.mark.parametrize("family, params", [
    ("constant", {"value": 0.5}),
    ("layered", {"alpha": 2.0, "beta": -1.5}),
    ("layered", {"alpha": -2.0, "beta": 0.0}),
    ("separable_trig", {"alpha": 2.0, "beta": -1.0, "gamma": 3.0,
                        "delta": -2.5}),
    ("separable_trig", {"alpha": -3.0, "beta": 1.0, "gamma": -1.0,
                        "delta": 0.5}),
    ("separable_trig", {"alpha": 1.0, "beta": 0.5, "gamma": -1.0,
                        "delta": 0.5}),
])
def test_sharp_bound_is_the_sampled_minimum(family, params):
    # the dense audit samples y = 1/4, 3/4 and tau = 0, 1/2, where each
    # factor takes its extremes, so it meets a sharp bound exactly; a
    # field is built exactly when that bound is positive
    bound = _sharp_bound(family, params)
    assert abs(verify_ellipticity(Unchecked(family, 1, params)) - bound) \
        < 1e-12
    if bound > 0:
        assert make_coefficient(family, 1, **params).kappa == bound
    else:
        with pytest.raises(ValidationError, match="not uniformly elliptic"):
            make_coefficient(family, 1, **params)


@pytest.mark.parametrize("family, dimension, params, field", [
    ("hexagonal", 1, {}, "family"),
    ("layered", 3, FAMILIES["layered"], "dimension"),
    ("layered", 1, {"alpha": 2.0}, None),
    ("layered", 1, {**FAMILIES["layered"], "gamma": 1.0}, None),
    ("checkerboard", 2, {**FAMILIES["checkerboard"], "width": 0.0}, "width"),
    ("constant", 1, {"value": 0.0}, None),
    ("checkerboard", 2, {**FAMILIES["checkerboard"], "low": -1.0}, None),
])
def test_field_checks_its_own_parameters(family, dimension, params, field):
    with pytest.raises(ValidationError) as err:
        CoefficientField(family, dimension, params)
    assert err.value.field == field


def test_kappa_is_derived_not_declared():
    with pytest.raises(TypeError):
        CoefficientField("layered", 1, FAMILIES["layered"], kappa=0.5)
    # make_coefficient passes it on as a parameter no family has
    with pytest.raises(ValidationError, match="kappa"):
        make_coefficient("layered", 1, kappa=0.5)
    assert CoefficientField("layered", 1, FAMILIES["layered"]).kappa == 1.0


def test_time_dependence_flag():
    assert make_coefficient("separable_trig", dimension=1, alpha=2.0,
                            beta=1.0, gamma=2.0, delta=1.0).time_dependent
    assert not make_coefficient("layered", dimension=1, alpha=2.0,
                                beta=1.0).time_dependent
