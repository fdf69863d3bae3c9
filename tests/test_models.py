"""Tests for the drift, advection, and noise operator layer."""

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.fft import dstn
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.sparse import csc_matrix

from twoscale.coefficients import make_coefficient
from twoscale.errors import (NonFinite, NotDivergenceFree, SolverDiverged,
                             ToolkitError)
from twoscale.grid import (GridSpec, ScalarField, VectorField, inner_H,
                           norm_H, norm_V)
from twoscale.integrator import BatchedStepper, _effective_faces
from twoscale.models import (ImplicitFactorization, ModelSpec, _apply_faces,
                             _central, apply_A_eps, apply_B,
                             check_B_local_monotonicity, face_coefficients,
                             leray_project, spectral_divergence_norm)
from twoscale.noise import QWienerSpec

from empirical import EmpiricalMeasure
from modes import first_eigenvalue, sine_mode


def layered():
    return make_coefficient("layered", 1, alpha=2.0, beta=1.0)


def zero_field(grid):
    return ScalarField(grid, np.zeros(grid.shape))


def constant(value=1.0, dimension=1):
    return make_coefficient("constant", dimension, value=value)


def random_field(grid, rng):
    return ScalarField(grid, rng.standard_normal(grid.shape))


def projected_pair(grid, rng):
    u = leray_project(VectorField(random_field(grid, rng) for _ in range(2)))
    v = leray_project(VectorField(random_field(grid, rng) for _ in range(2)))
    return u, v


# ---------------------------------------------------------------------------
# diffusion operator


def test_operator_zero_field():
    grid = GridSpec(1, 64)
    out = apply_A_eps(zero_field(grid), layered(), 0.125, 0.0)
    assert np.all(out.values == 0.0)


def test_operator_parabola_exact():
    # The three-point stencil differentiates quadratics exactly, so with
    # a constant unit coefficient -(x(1-x))'' = 2 holds at every node.
    grid = GridSpec(1, 64)
    x = grid.axis_nodes()
    u = ScalarField(grid, x * (1.0 - x))
    out = apply_A_eps(u, constant(), 1.0, 0.0)
    assert np.max(np.abs(out.values - 2.0)) < 1e-9


def test_operator_sine_eigenfunction():
    grid = GridSpec(1, 256)
    x = grid.axis_nodes()
    u = ScalarField(grid, np.sin(np.pi * x))
    out = apply_A_eps(u, constant(), 1.0, 0.0)
    rel = np.max(np.abs(out.values - np.pi ** 2 * u.values)) / np.pi ** 2
    assert rel < 1e-3


def test_operator_symmetric():
    rng = np.random.default_rng(5)
    cases = [
        (GridSpec(1, 128), layered(), 0.125),
        (GridSpec(2, 32),
         make_coefficient("checkerboard", 2, low=1.0, high=3.0, width=0.05),
         0.25),
    ]
    for grid, coeff, eps in cases:
        for _ in range(50):
            u = random_field(grid, rng)
            v = random_field(grid, rng)
            au = apply_A_eps(u, coeff, eps, 0.3)
            av = apply_A_eps(v, coeff, eps, 0.3)
            lhs = inner_H(au, v)
            rhs = inner_H(u, av)
            scale = norm_H(au) * norm_H(v) + norm_H(u) * norm_H(av)
            assert abs(lhs - rhs) <= 1e-12 * scale


def test_operator_coercive_with_measured_constant():
    # (A u, u) summed by parts equals the face-weighted V seminorm, so the
    # minimum face coefficient is an exact coercivity constant; on a fine
    # grid that measured constant sits within 5% of the declared one.
    grid = GridSpec(1, 1024)
    coeff = layered()
    eps = 0.125
    faces = face_coefficients(coeff, grid, eps, 0.0)
    measured = min(float(np.min(f)) for f in faces)
    assert abs(measured - coeff.kappa) <= 0.05 * coeff.kappa
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = random_field(grid, rng)
        quad = inner_H(apply_A_eps(u, coeff, eps, 0.0), u)
        assert quad >= (measured - 1e-9) * norm_V(u) ** 2


# ---------------------------------------------------------------------------
# the tensor form of the effective level's operator, an oracle for its
# constant faces a~[d, d]


def apply_tensor_oracle(values, tensor, h):
    """-sum_jk t_jk d_j d_k u on a stack (..., *grid.shape)."""
    dim = tensor.shape[0]
    out = _apply_faces(values, [tensor[d, d] for d in range(dim)], h)
    if dim == 2 and (tensor[0, 1] != 0.0 or tensor[1, 0] != 0.0):
        cross = _central(_central(values, 1, dim, h), 0, dim, h)
        out -= (tensor[0, 1] + tensor[1, 0]) * cross
    return out


def tensor_tridiagonal_oracle(grid, dt, tensor):
    """Diagonal and off-diagonal of I + dt A for a 1D tensor."""
    n = grid.cells
    h2 = grid.h ** 2
    t00 = float(tensor[0, 0])
    return (np.full(n - 1, 1.0 + 2.0 * dt * t00 / h2),
            np.full(n - 2, -dt * t00 / h2))


def assert_relative(actual, expected, rtol):
    """Every entry within rtol of the largest entry of ``expected``."""
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= rtol * scale


def tensor_solve_oracle(grid, dt, tensor, rhs):
    """I + dt A for a diagonal 2D tensor, inverted by a DST-I pair."""
    c = [float(tensor[d, d]) for d in range(2)]
    lam = (4.0 / grid.h ** 2) * np.sin(
        np.arange(1, grid.cells) * np.pi * grid.h / 2.0) ** 2
    inverse = 1.0 / ((2.0 * grid.cells) ** 2 * (
        1.0 + dt * (c[0] * lam[:, None] + c[1] * lam[None, :])))
    fields = rhs.reshape((-1,) + grid.shape)
    return dstn(dstn(fields, type=1, axes=(-2, -1)) * inverse, type=1,
                axes=(-2, -1)).reshape(rhs.shape)


def test_tensor_operator_matches_constant_scalar():
    rng = np.random.default_rng(2)
    grid = GridSpec(1, 64)
    u = random_field(grid, rng)
    via_tensor = apply_tensor_oracle(u.values, np.array([[2.5]]), grid.h)
    via_scalar = apply_A_eps(u, constant(2.5), 1.0, 0.0)
    assert np.max(np.abs(via_tensor - via_scalar.values)) < 1e-10

    grid2 = GridSpec(2, 32)
    u2 = random_field(grid2, rng)
    via_tensor = apply_tensor_oracle(u2.values, np.diag([3.0, 3.0]), grid2.h)
    via_scalar = apply_A_eps(u2, constant(3.0, dimension=2), 1.0, 0.0)
    assert np.max(np.abs(via_tensor - via_scalar.values)) < 1e-8


# diagonal tensors as cell solves give them: the layered sqrt(3), a
# constant's, a checkerboard's (whose mean over a face array misses it in
# the last bit) and a separable_trig's
DIAGONALS = {1: [1.7320508075688772, 2.5],
             2: [[1.788977161941657] * 2, [3.464101615137755, 4.0]]}


@pytest.mark.parametrize("dimension", [1, 2])
def test_constant_faces_apply_the_tensor_operator_bitwise(dimension):
    grid = GridSpec(dimension, 64 if dimension == 1 else 32)
    stack = np.random.default_rng(21).standard_normal((3,) + grid.shape)
    for diagonal in DIAGONALS[dimension]:
        tensor = np.diag(np.atleast_1d(diagonal))
        faces = _effective_faces(grid, tensor)
        assert np.array_equal(_apply_faces(stack, faces, grid.h),
                              apply_tensor_oracle(stack, tensor, grid.h))


def test_constant_faces_give_the_tensor_tridiagonal_factor_bitwise():
    grid = GridSpec(1, 128)
    dt = 0.01
    stack = np.random.default_rng(22).standard_normal((4, grid.dof))
    for value in DIAGONALS[1]:
        tensor = np.array([[value]])
        fac = ImplicitFactorization(grid, _effective_faces(grid, tensor), dt)
        d, e, info = dpttrf(*tensor_tridiagonal_oracle(grid, dt, tensor))
        assert info == 0
        expected, info = dpttrs(d, e, stack.T)
        assert info == 0
        assert np.array_equal(fac.solve_batch(stack), expected.T)


def test_constant_faces_match_the_tensor_2d_inverse():
    # the effective level's constant faces a~[d, d] go through the
    # tridiagonal factor, which matches the DST pair of the tensor's own
    # diagonal to round-off, not in every bit
    grid = GridSpec(2, 32)
    dt = 0.001
    stack = np.random.default_rng(23).standard_normal((3, grid.dof))
    for diagonal in DIAGONALS[2]:
        tensor = np.diag(diagonal)
        fac = ImplicitFactorization(grid, _effective_faces(grid, tensor), dt)
        assert_relative(fac.solve_batch(stack),
                        tensor_solve_oracle(grid, dt, tensor, stack), 1e-12)


# ---------------------------------------------------------------------------
# implicit solve


def solve_implicit(rhs, coeff, eps, t, dt):
    """(I + dt A_eps(t)) v = rhs through the engine's factorization."""
    fac = ImplicitFactorization(
        rhs.grid, face_coefficients(coeff, rhs.grid, eps, t), dt)
    return ScalarField(rhs.grid, fac.solve_batch(rhs.values))


def test_implicit_zero_step_is_identity():
    rng = np.random.default_rng(0)
    grid = GridSpec(1, 128)
    rhs = random_field(grid, rng)
    out = solve_implicit(rhs, layered(), 0.125, 0.0, dt=0.0)
    assert np.max(np.abs(out.values - rhs.values)) < 1e-13


def test_implicit_eigenmode_decay():
    # With a unit coefficient the first sine mode is an exact eigenvector
    # of the discrete operator, so one implicit step divides it by
    # 1 + dt * mu_1 with the discrete eigenvalue mu_1 = (4/h^2) sin^2(pi h/2).
    grid = GridSpec(1, 128)
    e1 = sine_mode(grid, (1,))
    dt = 0.1
    out = solve_implicit(e1, constant(), 1.0, 0.0, dt=dt)
    expected = e1.values / (1.0 + dt * first_eigenvalue(grid))
    assert np.max(np.abs(out.values - expected)) < 1e-10


def test_implicit_residual_contract_1d():
    rng = np.random.default_rng(3)
    grid = GridSpec(1, 128)
    rhs = random_field(grid, rng)
    dt = 0.01
    eps = 0.125
    v = solve_implicit(rhs, layered(), eps, 0.2, dt=dt)
    residual = v + apply_A_eps(v, layered(), eps, 0.2) * dt - rhs
    assert norm_H(residual) <= 1e-8 * norm_H(rhs)


def test_implicit_residual_contract_2d():
    rng = np.random.default_rng(3)
    grid = GridSpec(2, 32)
    coeff = make_coefficient("checkerboard", 2, low=1.0, high=3.0, width=0.05)
    rhs = random_field(grid, rng)
    dt = 0.01
    v = solve_implicit(rhs, coeff, 0.25, 0.0, dt=dt)
    residual = v + apply_A_eps(v, coeff, 0.25, 0.0) * dt - rhs
    assert norm_H(residual) <= 1e-8 * norm_H(rhs)


def test_implicit_batch_matches_single_solves():
    rng = np.random.default_rng(9)
    grid = GridSpec(1, 64)
    faces = face_coefficients(layered(), grid, 0.125, 0.0)
    fac = ImplicitFactorization(grid, faces, dt=0.01)
    stack = rng.standard_normal((5, grid.dof))
    batched = fac.solve_batch(stack)
    for i in range(5):
        single = fac.solve_batch(stack[i])
        assert np.array_equal(batched[i], single)


def _dense_implicit(grid, coeff, eps, dt):
    """I + dt A_eps as a dense matrix, one operator application per column."""
    return _dense(grid, dt, lambda u: apply_A_eps(u, coeff, eps, 0.0))


def _dense(grid, dt, operator):
    """I + dt * operator as a dense matrix on the flattened grid."""
    eye = np.eye(grid.dof)
    cols = [operator(ScalarField(grid, e.reshape(grid.shape))).values.ravel()
            for e in eye]
    return eye + dt * np.array(cols).T


def _dense_tensor(grid, dt, tensor):
    """I + dt * (-sum_jk t_jk d_j d_k) as a dense matrix."""
    return _dense(grid, dt, lambda u: ScalarField(
        grid, apply_tensor_oracle(u.values, tensor, grid.h)))


def test_tridiagonal_solve_matches_dense():
    # The LDL^T factor must reproduce a dense solve of I + dt A_eps, on a
    # signed (paths, dof) stack and on a single right-hand side.
    rng = np.random.default_rng(11)
    grid = GridSpec(1, 64)
    dt = 0.01
    fac = ImplicitFactorization(
        grid, face_coefficients(layered(), grid, 0.125, 0.0), dt)
    dense = _dense_implicit(grid, layered(), 0.125, dt)
    stack = rng.standard_normal((6, grid.dof))
    expected = np.linalg.solve(dense, stack.T).T
    np.testing.assert_allclose(fac.solve_batch(stack), expected,
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(fac.solve_batch(stack[2]), expected[2],
                               rtol=1e-12, atol=0.0)


def test_tridiagonal_rejects_non_spd_operator():
    # Negative faces make I + dt A indefinite: the factorization must
    # refuse instead of returning a solver for the wrong system.
    grid = GridSpec(1, 16)
    with pytest.raises(SolverDiverged):
        ImplicitFactorization(grid, [np.full(16, -1.0)], dt=0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tridiagonal_rejects_non_finite_operator(bad):
    # NaN passes pttrf's positivity test; the factor check must catch it
    grid = GridSpec(1, 16)
    faces = face_coefficients(layered(), grid, 0.125, 0.0)
    faces[0][5] = bad
    with pytest.raises(NonFinite):
        ImplicitFactorization(grid, faces, dt=0.01)


def test_tridiagonal_rejects_non_finite_rhs():
    grid = GridSpec(1, 16)
    fac = ImplicitFactorization(
        grid, face_coefficients(layered(), grid, 0.125, 0.0), dt=0.01)
    rhs = np.ones((3, grid.dof))
    for bad in (np.nan, np.inf):
        rhs[1, 4] = bad
        with pytest.raises(NonFinite):
            fac.solve_batch(rhs)


def checkerboard():
    return make_coefficient("checkerboard", 2, low=1.0, high=3.0, width=0.05)


def faces_2d(kind, grid):
    """2D faces that vary along both axes (the checkerboard), along axis 0
    only (separable_trig at a time between its extremes) or nowhere (the
    effective level's a~[d, d])."""
    if kind == "checkerboard":
        return face_coefficients(checkerboard(), grid, 0.25, 0.0)
    if kind == "separable_trig":
        return face_coefficients(make_coefficient("separable_trig", 2), grid,
                                 0.25, 0.37)
    return _effective_faces(grid, np.diag([1.75, 2.5]))


def superlu_oracle(grid, faces, dt):
    """The SuperLU factor of the 5-point matrix, whatever the faces."""
    oracle = object.__new__(ImplicitFactorization)
    oracle.grid, oracle.faces, oracle.dt = grid, faces, dt
    oracle._solve = oracle._factor_2d()
    return oracle


def negative_checkerboard_faces(grid):
    """2D faces of -1 and +3 in a checkerboard: I + dt A is indefinite
    for dt = 0.1 on 16^2, though every diagonal entry is positive."""
    signs = [np.indices(shape).sum(axis=0) % 2 for shape in
             [(grid.cells, grid.cells - 1), (grid.cells - 1, grid.cells)]]
    return [np.where(s == 0, -1.0, 3.0) for s in signs]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["constant", "layers", "checkerboard"])
def test_implicit_2d_factor_refuses_an_indefinite_operator(kind):
    # Negative faces make I + dt A indefinite. Constant faces of -1, and
    # layers of -1 and +3 along axis 0, go through one tridiagonal system
    # per sine mode, and some mode's pttrf must meet a non-positive pivot;
    # the checkerboard goes through the LU factor, which must meet one
    # too. None may return a solver for the wrong system.
    grid = GridSpec(2, 16)
    if kind == "constant":
        faces = [np.full((16, 15), -1.0), np.full((15, 16), -1.0)]
    elif kind == "layers":
        faces = [np.repeat(np.where(np.arange(n) % 2, 3.0, -1.0)[:, None],
                           m, axis=1) for n, m in [(16, 15), (15, 16)]]
    else:
        faces = negative_checkerboard_faces(grid)
    dense = np.eye(grid.dof) + 0.1 * np.array(
        [_apply_faces(e.reshape(grid.shape), faces, grid.h).ravel()
         for e in np.eye(grid.dof)]).T
    assert np.min(np.linalg.eigvalsh(dense)) < 0.0
    with pytest.raises(SolverDiverged, match="not positive definite"):
        ImplicitFactorization(grid, faces, dt=0.1)


def test_implicit_2d_rejects_non_finite_faces():
    grid = GridSpec(2, 16)
    for bad in (np.nan, np.inf):
        for faces in (face_coefficients(checkerboard(), grid, 0.25, 0.0),
                      [np.full((16, 15), 2.0), np.full((15, 16), 2.0)]):
            faces[1][3, 4] = bad
            with pytest.raises(NonFinite):
                ImplicitFactorization(grid, faces, dt=0.01)


def five_point_csc_oracle(grid, faces, dt):
    """The 5-point I + dt A as CSC, assembled column by column.

    Column (i, j) holds its neighbours (i-1, j), (i, j-1), itself,
    (i, j+1) and (i+1, j), in row order, where they are interior.
    """
    sx, sy = faces
    m = grid.cells - 1
    k = dt / grid.h ** 2
    values = np.stack([
        -k * sx[:-1], -k * sy[:, :-1],
        1.0 + k * ((sx[:-1] + sx[1:]) + (sy[:, :-1] + sy[:, 1:])),
        -k * sy[:, 1:], -k * sx[1:]], axis=-1)
    rows = np.arange(m * m).reshape(m, m, 1) + np.array([-m, -1, 0, 1, m])
    present = np.ones(values.shape, dtype=bool)
    present[0, :, 0] = present[:, 0, 1] = False
    present[:, -1, 3] = present[-1, :, 4] = False
    starts = np.concatenate([[0], np.cumsum(present.sum(axis=-1))])
    return csc_matrix((values[present], rows[present], starts),
                      shape=(m * m, m * m))


@pytest.mark.parametrize("cells", [64, 128])
@pytest.mark.parametrize("kind", ["checkerboard", "random"])
def test_2d_factor_assembles_the_five_point_matrix_bitwise(monkeypatch, kind,
                                                          cells):
    # the matrix built from five diagonals has the column-by-column
    # assembly's exact CSC arrays, so SuperLU factors the same bits; random
    # signed faces with a small step keep the operator positive definite
    grid = GridSpec(2, cells)
    if kind == "checkerboard":
        faces = face_coefficients(checkerboard(), grid, 0.25, 0.0)
        dt = 0.01
    else:
        rng = np.random.default_rng(cells)
        faces = [rng.standard_normal((cells, cells - 1)),
                 rng.standard_normal((cells - 1, cells))]
        dt = 1e-6
    factored = []
    splu = scipy.sparse.linalg.splu

    def recording(matrix, **kwargs):
        factored.append(matrix)
        return splu(matrix, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording)
    ImplicitFactorization(grid, faces, dt)
    expected = five_point_csc_oracle(grid, faces, dt)
    [matrix] = factored
    assert matrix.format == "csc"
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(matrix, name), getattr(expected, name))


def axis_0_faces(kind, grid):
    """2D faces of every kind that varies along axis 0 only."""
    if kind == "random":  # positive, one value per row
        rng = np.random.default_rng(grid.cells)
        return [np.repeat(rng.uniform(0.5, 3.0, (n, 1)), m, axis=1)
                for n, m in [(grid.cells, grid.cells - 1),
                             (grid.cells - 1, grid.cells)]]
    if kind in ("constant", "layered"):
        coeff = (make_coefficient("constant", 2, value=1.5)
                 if kind == "constant" else make_coefficient("layered", 2))
        return face_coefficients(coeff, grid, 0.125, 0.0)
    return faces_2d(kind, grid)


@pytest.mark.parametrize("cells", [64, 128])
@pytest.mark.parametrize("kind", ["constant", "layered", "separable_trig",
                                  "effective", "random"])
def test_tridiagonal_2d_factor_matches_the_superlu_oracle(kind, cells):
    grid = GridSpec(2, cells)
    faces = axis_0_faces(kind, grid)
    stack = np.random.default_rng(24).standard_normal((8, grid.dof))
    for dt in (1e-3, 1e-2):
        assert_relative(ImplicitFactorization(grid, faces, dt).solve_batch(
            stack), superlu_oracle(grid, faces, dt).solve_batch(stack), 1e-12)


@pytest.mark.parametrize("kind", ["checkerboard", "constant", "layered",
                                  "separable_trig", "effective", "random"])
def test_the_2d_factor_is_chosen_from_the_faces(monkeypatch, kind):
    # only faces that vary along axis 1 reach SuperLU
    grid = GridSpec(2, 32)
    faces = (faces_2d(kind, grid) if kind == "checkerboard"
             else axis_0_faces(kind, grid))
    factored = []

    def recording(name):
        method = getattr(ImplicitFactorization, name)

        def factor(self):
            factored.append(name)
            return method(self)
        return factor

    for name in ("_factor_2d", "_factor_tridiagonal"):
        monkeypatch.setattr(ImplicitFactorization, name, recording(name))
    ImplicitFactorization(grid, faces, dt=0.01)
    assert factored == (["_factor_2d"] if kind == "checkerboard"
                        else ["_factor_tridiagonal"])


@pytest.mark.parametrize("kind", ["checkerboard", "constant",
                                  "separable_trig"])
def test_direct_2d_solve_matches_dense(kind):
    # The LU factor (the checkerboard) and the tridiagonal factor (faces
    # that vary along axis 0 only) are both direct: each path matches a
    # dense solve to round-off.
    grid = GridSpec(2, 16)
    dt = 0.01
    if kind == "checkerboard":
        faces = face_coefficients(checkerboard(), grid, 0.25, 0.0)
        dense = _dense_implicit(grid, checkerboard(), 0.25, dt)
    elif kind == "constant":
        tensor = np.diag([1.75, 2.5])
        faces = _effective_faces(grid, tensor)
        dense = _dense_tensor(grid, dt, tensor)
    else:
        faces = faces_2d(kind, grid)
        dense = _dense(grid, dt, lambda u: ScalarField(
            grid, _apply_faces(u.values, faces, grid.h)))
    fac = ImplicitFactorization(grid, faces, dt)
    stack = np.random.default_rng(12).standard_normal((3, grid.dof))
    np.testing.assert_allclose(fac.solve_batch(stack),
                               np.linalg.solve(dense, stack.T).T,
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("kind", ["checkerboard", "constant",
                                  "separable_trig"])
def test_implicit_2d_path_has_the_same_bits_alone_and_in_a_stack(kind):
    # each path is transformed and solved on its own, so the stack a path
    # comes in (a ladder block, a simulate shard's rows) cannot change its
    # bits
    grid = GridSpec(2, 32)
    fac = ImplicitFactorization(grid, faces_2d(kind, grid), dt=0.01)
    stack = np.random.default_rng(14).standard_normal((5, grid.dof))
    out = fac.solve_batch(stack)
    for row, expected in zip(stack, out):
        assert np.array_equal(fac.solve_batch(row), expected)
    assert np.array_equal(fac.solve_batch(stack[1:4]), out[1:4])
    assert np.array_equal(
        fac.solve_batch(stack.reshape((5,) + grid.shape)),
        out.reshape((5,) + grid.shape))


@pytest.mark.parametrize("kind", ["tridiagonal", "checkerboard", "constant",
                                  "separable_trig"])
def test_solve_into_out_keeps_the_bits(kind):
    # pttrs solving in place, with or without a DST on either side, and
    # the per-path LU solves all write into out the bits of a call without
    # it: a new array, the right-hand side itself, or a block of rows of a
    # larger array
    if kind == "tridiagonal":
        grid = GridSpec(1, 64)
        faces = face_coefficients(layered(), grid, 0.125, 0.0)
    else:
        grid = GridSpec(2, 32)
        faces = faces_2d(kind, grid)
    fac = ImplicitFactorization(grid, faces, dt=0.01)
    stack = np.random.default_rng(15).standard_normal((5, grid.dof))
    expected = fac.solve_batch(stack)
    out = np.full_like(stack, np.nan)
    assert fac.solve_batch(stack, out=out) is out
    assert np.array_equal(out, expected)
    rhs = stack.copy()
    assert fac.solve_batch(rhs, out=rhs) is rhs
    assert np.array_equal(rhs, expected)
    states = np.zeros((2, 7, grid.dof))
    block = states[1, 1:6]
    block[...] = stack
    fac.solve_batch(block, out=block)
    assert np.array_equal(states[1, 1:6], expected)
    assert not states[0].any() and not states[1, [0, 6]].any()


def test_non_finite_rhs_is_left_as_it_was():
    # the check comes before the solve, so an in-place solve that raises
    # leaves the right-hand side for the caller to name the bad paths
    grid = GridSpec(1, 64)
    fac = ImplicitFactorization(
        grid, face_coefficients(layered(), grid, 0.125, 0.0), dt=0.01)
    rhs = np.random.default_rng(16).standard_normal((3, grid.dof))
    rhs[1, 5] = np.nan
    before = rhs.copy()
    with pytest.raises(NonFinite):
        fac.solve_batch(rhs, out=rhs)
    assert np.array_equal(rhs, before, equal_nan=True)


def test_implicit_2d_rejects_non_finite_rhs():
    grid = GridSpec(2, 16)
    fac = ImplicitFactorization(
        grid, face_coefficients(checkerboard(), grid, 0.25, 0.0), dt=0.01)
    rhs = np.ones((2, grid.dof))
    rhs[1, 7] = np.nan
    with pytest.raises(NonFinite):
        fac.solve_batch(rhs)


@pytest.mark.parametrize("kind", ["checkerboard", "separable_trig"])
def test_implicit_2d_zero_row_stays_zero_in_a_stack(kind):
    # a zero right-hand side solves to zero, and the path beside it keeps
    # the bits of its lone solve
    grid = GridSpec(2, 16)
    fac = ImplicitFactorization(grid, faces_2d(kind, grid), dt=0.01)
    row = np.random.default_rng(5).standard_normal(grid.dof)
    out = fac.solve_batch(np.stack([np.zeros(grid.dof), row]))
    assert np.array_equal(out[0], np.zeros(grid.dof))
    assert np.array_equal(out[1], fac.solve_batch(row))


# ---------------------------------------------------------------------------
# divergence-free projection and advection


def test_leray_projection_idempotent_and_orthogonal():
    rng = np.random.default_rng(1)
    grid = GridSpec(2, 32)
    v = VectorField(random_field(grid, rng) for _ in range(2))
    p = leray_project(v)
    pp = leray_project(p)
    scale = max(norm_H(v[0]), norm_H(v[1]))
    for m in range(2):
        assert np.max(np.abs(pp[m].values - p[m].values)) < 1e-10 * scale
    # the removed part is H-orthogonal to the projection
    cross = sum(inner_H(v[m] - p[m], p[m]) for m in range(2))
    assert abs(cross) < 1e-10 * scale ** 2
    assert spectral_divergence_norm(p) < 1e-10 * scale


def test_advection_zero_advected_field():
    rng = np.random.default_rng(4)
    grid = GridSpec(2, 32)
    u, _ = projected_pair(grid, rng)
    zero = VectorField(zero_field(grid) for _ in range(2))
    out = apply_B(u, zero)
    assert all(np.all(out[m].values == 0.0) for m in range(2))


def test_advection_pairs_to_zero():
    rng = np.random.default_rng(0)
    grid = GridSpec(2, 32)
    for _ in range(100):
        u, v = projected_pair(grid, rng)
        b = apply_B(u, v)
        pairing = sum(inner_H(b[m], v[m]) for m in range(2))
        uh = np.sqrt(sum(norm_H(u[m]) ** 2 for m in range(2)))
        vv = sum(norm_V(v[m]) ** 2 for m in range(2))
        assert abs(pairing) <= 1e-12 * uh * vv


def test_advection_rejects_divergent_field():
    grid = GridSpec(2, 32)
    x, y = grid.meshgrid()
    u = VectorField((
        ScalarField(grid, np.sin(np.pi * x) * np.sin(np.pi * y)),
        zero_field(grid),
    ))
    assert spectral_divergence_norm(u) > 1e-8
    with pytest.raises(NotDivergenceFree) as err:
        apply_B(u, u)
    assert err.value.divergence_norm > 1e-8


def test_advection_dimension_and_grid_guards():
    grid = GridSpec(2, 16)
    other = GridSpec(2, 32)
    u = VectorField(zero_field(grid) for _ in range(2))
    w = VectorField(zero_field(other) for _ in range(2))
    with pytest.raises(ValueError):
        apply_B(u, w)


def test_advection_monotonicity_constant_stable():
    # Fit the local-monotonicity constant on the coarse grid; the same
    # constant must keep bounding the observed ratios on finer grids.
    fitted = check_B_local_monotonicity(GridSpec(2, 16), samples=30, seed=7)
    assert 0.0 < fitted < np.inf
    for n in (32, 64):
        finer = check_B_local_monotonicity(GridSpec(2, n), samples=30, seed=7)
        assert finer <= fitted


# ---------------------------------------------------------------------------
# mean-field drift, through the batched engine


def drag_only():
    return ModelSpec(variant="allen_cahn", coefficient=layered(),
                     epsilon=0.125, mean_field="stokes_drag", cubic=False)


def cubic_only():
    return ModelSpec(variant="allen_cahn", coefficient=layered(),
                     epsilon=0.125, mean_field="none", cubic=True)


def drag_and_cubic():
    return ModelSpec(variant="allen_cahn", coefficient=layered(),
                     epsilon=0.125, mean_field="stokes_drag", cubic=True)


def explicit_terms(model, paths, members=None, xi=None, spec=None, dt=0.01):
    """``BatchedStepper.explicit_terms`` on a (paths, dof) stack.

    ``paths`` are fields or raw rows; ``members`` defaults to one replica
    holding every path, so mu is the empirical law of the whole stack.
    """
    rows = [p.values.reshape(-1) if isinstance(p, ScalarField) else p
            for p in paths]
    U = np.stack(rows)
    if spec is None:
        spec = QWienerSpec(grid=GridSpec(1, U.shape[1] + 1), modes=4, seed=0)
    stepper = BatchedStepper(spec.grid, model, spec,
                             members=members or len(U), dt=dt)
    if xi is None:
        xi = np.zeros((len(U), spec.modes))
    return stepper.explicit_terms(U, xi)


def test_drag_single_member_vanishes():
    rng = np.random.default_rng(8)
    grid = GridSpec(1, 64)
    stack = [random_field(grid, rng) for _ in range(3)]
    drift, _ = explicit_terms(drag_only(), stack, members=1)
    assert np.all(drift == 0.0)


def test_drag_two_constant_members():
    # The drag adds u - mean: against the mean 2 of the members 1 and 3 it
    # pushes each member further from the mean, -1 and +1.
    grid = GridSpec(1, 64)
    one = np.full(grid.dof, 1.0)
    drift, _ = explicit_terms(drag_only(), [one, 3.0 * one])
    assert np.max(np.abs(drift[0] - (-1.0))) < 1e-14
    assert np.max(np.abs(drift[1] - 1.0)) < 1e-14


def test_drag_couples_members_within_a_replica_only():
    grid = GridSpec(1, 64)
    one = np.full(grid.dof, 1.0)
    stack = [one, 3.0 * one, 10.0 * one, 10.0 * one]
    drift, _ = explicit_terms(drag_only(), stack, members=2)
    assert np.max(np.abs(drift[:2] - np.array([[-1.0], [1.0]]))) < 1e-14
    assert np.all(drift[2:] == 0.0)


def test_cubic_fixed_points():
    grid = GridSpec(1, 64)
    levels = (1.0, 0.0, 2.0)
    drift, _ = explicit_terms(cubic_only(),
                              [np.full(grid.dof, v) for v in levels])
    for row, expected in zip(drift, (0.0, 0.0, -6.0)):
        assert np.max(np.abs(row - expected)) < 1e-12


def test_drift_sum_of_parts():
    rng = np.random.default_rng(14)
    grid = GridSpec(1, 64)
    stack = [random_field(grid, rng) for _ in range(3)]
    combined, _ = explicit_terms(drag_and_cubic(), stack)
    drag, _ = explicit_terms(drag_only(), stack)
    cubic, _ = explicit_terms(cubic_only(), stack)
    assert np.max(np.abs(combined - (drag + cubic))) < 1e-14


def test_drag_translation_equivariance():
    rng = np.random.default_rng(21)
    grid = GridSpec(1, 64)
    stack = rng.standard_normal((2, grid.dof))
    base, _ = explicit_terms(drag_only(), stack)
    shifted, _ = explicit_terms(drag_only(), stack + 0.7)
    assert np.max(np.abs(base - shifted)) < 1e-12


def test_measure_summary_consistency():
    grid = GridSpec(1, 32)
    rng = np.random.default_rng(6)
    members = [random_field(grid, rng) for _ in range(3)]
    mean = ScalarField(grid, sum(m.values for m in members) / 3.0)
    second = sum(norm_H(m) ** 2 for m in members) / 3.0
    EmpiricalMeasure(mean=mean, second_moment=second, count=3,
                     members=members)
    with pytest.raises(ValueError):
        EmpiricalMeasure(mean=mean, second_moment=second, count=2,
                         members=members)
    with pytest.raises(ValueError):
        EmpiricalMeasure(mean=ScalarField(grid, mean.values + 0.5),
                         second_moment=second, count=3, members=members)
    with pytest.raises(ValueError):
        EmpiricalMeasure(mean=mean, second_moment=second, count=0)


def test_drift_zero_point_mass():
    grid = GridSpec(1, 64)
    drift, _ = explicit_terms(drag_and_cubic(), [np.zeros(grid.dof)])
    assert np.all(drift == 0.0)


#: Growth constant for the drag + cubic drift, fitted once over random
#: fields and then frozen. Analytically (F(u), u) + ||u||_L4^4
#: <= 2.5 (||u||^2 + mu(||.||^2)) with Young and Jensen, so 2.5 is sharp
#: enough and never violated.
F_GROWTH_CONSTANT = 2.5


class ContractViolation(ToolkitError):
    """A structural inequality on the drift failed on a sample."""

    def __init__(self, message: str, inequality: str | None = None,
                 margin: float | None = None):
        super().__init__(message)
        self.inequality = inequality
        self.margin = margin


def check_F_contracts(model: ModelSpec, grid: GridSpec, samples: int = 100,
                      seed: int = 20260816, tol: float = 1e-10) -> dict:
    """Sample the structural drift inequalities on the batched drift.

    Each sample draws a random stack of three paths and evaluates
    ``BatchedStepper.explicit_terms`` on it as one replica, so mu is the
    empirical law of that stack. Checks, on every path u of the stack,
      growth        (F(u, mu), u) <= C (||u||_H^2 + mu(||.||_H^2)) - ||u||_L4^4
    and, on a random pair u1, u2 with the drag off,
      monotonicity  (F2(u1) - F2(u2), u1 - u2) <= ||u1 - u2||_H^2 for the
                    cubic reaction part.

    Returns a report dict with worst margins; raises
    :class:`ContractViolation` if any margin exceeds ``tol`` times the
    sample scale.
    """
    members = 3
    spec = QWienerSpec(grid=grid, modes=1)
    growth = BatchedStepper(grid, model, spec, members=members, dt=1.0)
    # one member per replica: the drag is exactly zero, the cubic remains
    cubic = BatchedStepper(grid, model, spec, members=1, dt=1.0)
    hN = grid.h ** grid.dimension
    rng = np.random.default_rng(seed)
    worst_growth = -np.inf
    worst_mono = -np.inf
    for _ in range(samples):
        U = rng.standard_normal((members, grid.dof))
        if model.mean_field == "stokes_drag":
            drift, _ = growth.explicit_terms(U, np.zeros((members, 1)))
            rows = growth.energy_rows(U)
            second = float(np.mean(rows["H2"]))
            l4 = rows["L4"] if model.cubic else 0.0
            gap = (hN * np.sum(drift * U, axis=-1)
                   - F_GROWTH_CONSTANT * (rows["H2"] + second) + l4)
            scale = np.maximum(1.0, np.maximum(rows["H2"], second))
            worst_growth = max(worst_growth, float(np.max(gap / scale)))
        if model.cubic:
            pair = rng.standard_normal((2, grid.dof))
            drift, _ = cubic.explicit_terms(pair, np.zeros((2, 1)))
            d = pair[0] - pair[1]
            d2 = hN * float(np.sum(d * d))
            gap = hN * float(np.sum((drift[0] - drift[1]) * d)) - d2
            worst_mono = max(worst_mono, gap / max(1.0, d2))
    report = {
        "samples": samples,
        "growth_constant": F_GROWTH_CONSTANT,
        "worst_growth_margin": worst_growth,
        "worst_monotonicity_margin": worst_mono,
    }
    if worst_growth > tol:
        raise ContractViolation(
            f"drift growth bound violated by {worst_growth:.3e}",
            inequality="growth", margin=worst_growth)
    if worst_mono > tol:
        raise ContractViolation(
            f"cubic monotonicity violated by {worst_mono:.3e}",
            inequality="monotonicity", margin=worst_mono)
    return report


def test_drift_contract_report():
    grid = GridSpec(1, 64)
    report = check_F_contracts(drag_and_cubic(), grid, samples=100)
    assert report["samples"] == 100
    assert report["growth_constant"] == 2.5
    assert report["worst_growth_margin"] <= 1e-10
    assert report["worst_monotonicity_margin"] <= 1e-10


def test_cubic_monotonicity_direct():
    rng = np.random.default_rng(16)
    grid = GridSpec(1, 64)
    for _ in range(100):
        u1 = random_field(grid, rng)
        u2 = random_field(grid, rng)
        d = u1 - u2
        (f1, f2), _ = explicit_terms(cubic_only(), [u1, u2], members=1)
        lhs = inner_H(ScalarField(grid, (f1 - f2).reshape(grid.shape)), d)
        assert lhs <= norm_H(d) ** 2 + 1e-12


# ---------------------------------------------------------------------------
# noise law, through the batched engine


def g_lipschitz_constant(model: ModelSpec, spec: QWienerSpec) -> float:
    """Squared-Lipschitz constant of the noise law in the HS proxy norm.

    Exact for the scalar law: sum_k lambda_k sigma_k^2. The modulated law
    picks up the sup of the mode amplitudes, 2^(N/2).
    """
    sig = model.mode_sigmas(spec.modes)
    base = float(np.sum(spec.eigenvalues * sig ** 2))
    if model.noise_law == "scalar_multiplicative":
        return base
    return base * 2.0 ** spec.grid.dimension


def noise_setup(law="scalar_multiplicative", modes=16, cells=64):
    grid = GridSpec(1, cells)
    spec = QWienerSpec(grid=grid, modes=modes, gamma=2.0, lambda0=1.0, seed=0)
    model = ModelSpec(variant="allen_cahn", coefficient=layered(),
                      epsilon=0.125, noise_law=law, sigma0=0.3)
    return grid, spec, model


def noise_increments(model, spec, paths, xi, dt):
    """G(u) dW for each path of the stack against its row of draws."""
    _, noise = explicit_terms(model, paths, members=1, xi=np.atleast_2d(xi),
                              spec=spec, dt=dt)
    return noise


def test_noise_zero_field():
    for law in ("scalar_multiplicative", "mode_modulated"):
        grid, spec, model = noise_setup(law)
        xi = np.ones((2, spec.modes))
        out = noise_increments(model, spec, np.zeros((2, grid.dof)), xi,
                               0.01)
        assert np.all(out == 0.0)


def test_noise_scalar_lipschitz_exact():
    # Feeding each unit mode draw in turn with dt = 1 reads off the columns
    # of the noise operator, so the summed squared column differences equal
    # the squared Lipschitz constant times ||u1 - u2||^2 exactly.
    rng = np.random.default_rng(12)
    grid, spec, model = noise_setup("scalar_multiplicative")
    u1 = random_field(grid, rng)
    u2 = random_field(grid, rng)
    total = 0.0
    for k in range(spec.modes):
        xi = np.zeros((2, spec.modes))
        xi[:, k] = 1.0
        d1, d2 = noise_increments(model, spec, [u1, u2], xi, 1.0)
        total += norm_H(ScalarField(grid, d1 - d2)) ** 2
    expected = g_lipschitz_constant(model, spec) * norm_H(u1 - u2) ** 2
    assert abs(total - expected) <= 1e-12 * expected


def test_noise_variance_oracle():
    # For the scalar law the pairing (G(u) dW, e1) with u = e1 is the single
    # Gaussian sum_k sqrt(lambda_k dt) sigma_k xi_k whose variance is
    # dt * sum_k lambda_k sigma_k^2.
    grid, spec, model = noise_setup("scalar_multiplicative")
    e1 = sine_mode(grid, (1,)).values.reshape(-1)
    dt = 0.01
    draws = 10_000
    xi = np.random.default_rng(2026).standard_normal((draws, spec.modes))
    out = noise_increments(model, spec, np.tile(e1, (draws, 1)), xi, dt)
    samples = grid.h * (out @ e1)
    expected = dt * g_lipschitz_constant(model, spec)
    observed = float(np.var(samples))
    assert abs(observed - expected) <= 0.05 * expected


def test_noise_mode_modulated_single_mode():
    rng = np.random.default_rng(13)
    grid, spec, model = noise_setup("mode_modulated")
    u = random_field(grid, rng)
    k = 3
    xi = np.zeros(spec.modes)
    xi[k] = 1.0
    dt = 0.04
    (out,) = noise_increments(model, spec, [u], xi, dt)
    sigma_k = model.sigma0 / (k + 1.0)
    mode = spec.basis[k]
    expected = (np.sqrt(spec.eigenvalues[k] * dt) * sigma_k
                * u.values.reshape(-1) * mode)
    assert np.max(np.abs(out - expected)) < 1e-13


def test_noise_modulated_constant_scales_with_dimension():
    grid, spec, model = noise_setup("scalar_multiplicative")
    base = g_lipschitz_constant(model, spec)
    _, _, modulated = noise_setup("mode_modulated")
    assert g_lipschitz_constant(modulated, spec) == pytest.approx(
        base * 2.0 ** grid.dimension)


# ---------------------------------------------------------------------------
# model assembly guards


def test_model_budget_validation():
    # no drift term reads eta or ell, so ModelSpec has no such fields
    for name in ("eta", "ell"):
        with pytest.raises(TypeError, match=name):
            ModelSpec(variant="allen_cahn", coefficient=layered(),
                      epsilon=0.125, **{name: 0.0})


def test_model_rejects_unknown_kinds():
    with pytest.raises(ValueError):
        ModelSpec(variant="heat", coefficient=layered(), epsilon=0.125)
    with pytest.raises(ValueError):
        ModelSpec(variant="allen_cahn", coefficient=layered(), epsilon=0.125,
                  mean_field="gravity")
    with pytest.raises(ValueError):
        ModelSpec(variant="allen_cahn", coefficient=layered(), epsilon=0.125,
                  noise_law="additive")
    with pytest.raises(ValueError):
        ModelSpec(variant="allen_cahn", coefficient=layered(), epsilon=0.0)
    with pytest.raises(ValueError):
        ModelSpec(variant="navier_stokes_2d", coefficient=layered(),
                  epsilon=0.125)
