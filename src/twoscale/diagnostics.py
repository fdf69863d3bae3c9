"""Convergence diagnostics: two-scale pairings, resolution ladders, correctors.

The central experiment is the ladder: the same ensemble of driven paths is
advanced at several oscillation scales eps and once with the effective
constant-coefficient operator, all consuming identical noise increments
per path (synchronous coupling) from identical initial data. Streaming
accumulators then measure, per path,

  * the squared L2(0,T; H) distance to the effective path,
  * plain and corrector-reconstructed gradient residuals,
  * the two-scale pairing against an oscillating test function,
  * the energy functionals that must stay bounded uniformly in eps.

Everything is reduced to means with replica-level standard errors. No
trajectory is ever stored; a ladder over 4 levels x 256 paths x 2500 steps
on 1024 cells (the acceptance reference ladder) took 34.7 and 37.8 s in
two runs on a shared 2-core host in two processes, against 69.6 and
70.4 s in one.
"""
from __future__ import annotations

import itertools
import json
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import parallel
from .cell import CellGrid, CellSolution, corrector_slopes, solve_cell_problem
from .coefficients import CoefficientField
from .ensemble import wasserstein2_1d
from .errors import IntegrityError, ValidationError
from .grid import (GridSpec, adjacent_pairs, face_energy, face_sums,
                   is_power_of_two, stack_face_differences)
from .integrator import BatchedStepper, StepperConfig
from .models import ModelSpec
from .noise import NoiseStream, QWienerSpec

__all__ = [
    "sine_initial_state",
    "check_initial_mode",
    "check_ladder",
    "StudyConfig",
    "ConvergenceReport",
    "LadderResult",
    "ACCUMULATORS",
    "run_ladder",
    "load_raw",
    "reduce_raw",
]


# ---------------------------------------------------------------------------
# ladder study


def sine_initial_state(grid: GridSpec, amplitude: float,
                       mode: int) -> np.ndarray:
    """u0 = amplitude * prod_d sin(mode pi x_d) on the interior nodes."""
    vals = np.full(grid.shape, amplitude)
    for c in grid.meshgrid():
        vals = vals * np.sin(mode * np.pi * c)
    return vals


def check_initial_mode(grid: GridSpec, initial_mode: int) -> None:
    """Reject a sine mode outside 1 ... cells - 1: sin(mode pi x) vanishes
    at every node for mode 0 or cells, and a larger mode aliases."""
    if not 1 <= initial_mode <= grid.cells - 1:
        raise ValidationError(f"initial_mode must be in 1 ... {grid.cells - 1}"
                              f" (cells - 1), got {initial_mode}",
                              field="initial_mode")


def check_ladder(epsilons, members: int, replicas: int) -> tuple[float, ...]:
    """The epsilons as floats; rejects a ladder that is empty, not positive
    or not strictly decreasing, and fewer than one member or replica."""
    eps = tuple(float(e) for e in epsilons)
    if not eps:
        raise ValidationError("epsilon list is empty", field="epsilon")
    if any(not e > 0 for e in eps):
        raise ValidationError("epsilon values must be positive",
                              field="epsilon")
    if any(eps[i + 1] >= eps[i] for i in range(len(eps) - 1)):
        raise ValidationError(
            "epsilon ladder must be strictly decreasing", field="epsilon")
    for name, count in (("members", members), ("replicas", replicas)):
        if count < 1:
            raise ValidationError(f"{name} must be >= 1", field=name)
    return eps


@dataclass(frozen=True)
class StudyConfig:
    """Everything a coupled resolution-ladder study needs.

    The epsilon list must be strictly decreasing; each level shares the
    grid, the time step, the initial state, and (synchronously coupled)
    the noise increments with the effective reference level.
    """

    coefficient: CoefficientField
    grid: GridSpec
    epsilons: tuple[float, ...]
    stepper: StepperConfig
    members: int = 8
    replicas: int = 32
    mean_field: str = "stokes_drag"
    cubic: bool = True
    noise_law: str = "scalar_multiplicative"
    sigma0: float = 0.1
    modes: int | None = None
    gamma: float = 2.0
    lambda0: float = 1.0
    seed: int = 0
    initial_amplitude: float = 1.0
    initial_mode: int = 1
    cell_cells: int = 256
    cell_tau_slices: int = 1

    def __post_init__(self):
        eps = check_ladder(self.epsilons, self.members, self.replicas)
        check_initial_mode(self.grid, self.initial_mode)
        n = self.grid.cells
        for e in eps:
            if n < 16.0 / e:
                raise ValidationError(
                    f"grid cells {n} under-resolve epsilon={e}: "
                    f"need n >= 16/epsilon = {16.0 / e:.0f}", field="epsilon")
            if self.stepper.dt > e / 8.0 + 1e-15:
                raise ValidationError(
                    f"dt={self.stepper.dt} exceeds epsilon/8 for "
                    f"epsilon={e}", field="dt")
        object.__setattr__(self, "epsilons", eps)

    def noise_spec(self) -> QWienerSpec:
        return QWienerSpec(grid=self.grid, modes=self.modes, gamma=self.gamma,
                           lambda0=self.lambda0, seed=self.seed)

    def model_for(self, eps: float) -> ModelSpec:
        return ModelSpec(variant="allen_cahn", coefficient=self.coefficient,
                         epsilon=eps, mean_field=self.mean_field,
                         cubic=self.cubic, noise_law=self.noise_law,
                         sigma0=self.sigma0)

    def initial_values(self) -> np.ndarray:
        return sine_initial_state(self.grid, self.initial_amplitude,
                                  self.initial_mode).reshape(-1)


# The per-path accumulators that open raw.npz, in its order, before
# "final_states": (name, whether a last row holds the effective level,
# whether it sums squares, so that no entry is negative). A row holds one
# number per path, and the other rows are the eps levels.
ACCUMULATORS = (("err2", False, True), ("plain2", False, True),
                ("corr2", False, True), ("pairing", False, False),
                ("sup_h2", True, True), ("int_v2", True, True),
                ("int_l4", True, True))


@dataclass
class LadderResult:
    """Raw per-path accumulators plus the reduced summary of one ladder."""

    config: StudyConfig
    a_tilde: np.ndarray
    cell: CellSolution
    raw: dict[str, np.ndarray]
    report: "ConvergenceReport"
    shards: int  # processes that stepped the paths


@dataclass
class ConvergenceReport:
    """Reduced ladder summary: errors against the effective path, per level.

    epsilons are strictly decreasing; every error carries a replica-level
    standard error. energy maps hold the uniform-bound functionals per
    level (the last entry of each list is the effective level where it
    applies).
    """

    epsilons: list[float]
    errors: list[float]
    error_stderr: list[float]
    plain_gradient: list[float]
    plain_stderr: list[float]
    corrected_gradient: list[float]
    corrected_stderr: list[float]
    pairings: list[float]
    pairing_stderr: list[float]
    energy_functional: list[float]
    energy_stderr: list[float]
    sup_moment_p2: list[float]
    sup_moment_p4: list[float]
    wasserstein_final: list[float]
    replicas: int
    members: int
    steps: int
    dt: float
    a_tilde: list[list[float]]
    levels: list[str] = field(default_factory=list)

    def __post_init__(self):
        eps = list(self.epsilons)
        if any(eps[i + 1] >= eps[i] for i in range(len(eps) - 1)):
            raise ValidationError("report epsilons must be strictly "
                                  "decreasing", field="epsilon")
        if len(self.errors) != len(eps) or len(self.error_stderr) != len(eps):
            raise ValidationError("error lists inconsistent with epsilons",
                                  field="errors")

    def to_json(self) -> str:
        payload = {k: getattr(self, k) for k in self.__dataclass_fields__}
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        """One row per eps level; the effective level has no error row."""
        columns = (self.epsilons, self.errors, self.error_stderr,
                   self.plain_gradient, self.plain_stderr,
                   self.corrected_gradient, self.corrected_stderr,
                   self.pairings, self.pairing_stderr,
                   self.energy_functional, self.energy_stderr)
        lines = ["epsilon,error,error_stderr,plain_gradient,plain_stderr,"
                 "corrected_gradient,corrected_stderr,pairing,pairing_stderr,"
                 "energy_functional,energy_stderr"]
        lines += [",".join(repr(v) for v in row) for row in zip(*columns)]
        return "\n".join(lines) + "\n"


def _level_stats(acc: np.ndarray, replicas: int, members: int,
                 root: bool = False) -> tuple[list[float], list[float]]:
    """Per level (row of ``acc``), the mean over all paths and the standard
    error over replica means; with ``root``, the square root of the mean
    and its standard error by the delta method."""
    means, ses = [], []
    for per_path in acc:
        groups = per_path.reshape(replicas, members).mean(axis=1)
        mean = float(per_path.mean())
        se = (float(groups.std(ddof=1) / np.sqrt(replicas)) if replicas > 1
              else 0.0)
        if root:
            se = float(se / (2.0 * np.sqrt(mean))) if mean > 0 else 0.0
            mean = float(np.sqrt(mean))
        means.append(mean)
        ses.append(se)
    return means, ses


def _replica_blocks(replicas: int, members: int, dof: int) -> list[slice]:
    """Path slices of blocks of whole replicas, about
    ``parallel.BLOCK_VALUES`` values each.

    Every block but the last holds a multiple of four paths. OpenBLAS
    matrix-vector kernels take rows in groups of four, and a row's bits
    depend on the kind of group it lands in; with such blocks each path
    lands in the same kind as in the whole stack, so ``xi @ weights`` keeps
    its bits.
    """
    group = 4 // int(np.gcd(members, 4))  # replicas per four-path group
    per_block = max(1, parallel.BLOCK_VALUES // (members * dof))
    per_block = -(-per_block // group) * group
    return [slice(r * members, min(r + per_block, replicas) * members)
            for r in range(0, replicas, per_block)]


def run_ladder(cfg: StudyConfig, progress=None) -> LadderResult:
    """Advance all ladder levels in lockstep and reduce the diagnostics.

    Levels: one per epsilon plus the effective level driven by the
    homogenized tensor of the cell solve. All levels see identical initial
    data and identical noise draws per path; the drag couples members
    within each replica only.

    Within each step, the paths go in blocks of whole replicas
    (``parallel.BLOCK_VALUES``): a block draws its noise, advances every
    level and updates every accumulator before the next block starts.
    Each accumulator has one update site: the left-point pairing before
    the advances (t_0 .. t_{N-1}), every other one after them. The energy
    sup starts at u0's, written once before any shard starts.
    Draws are per path and the drag stays inside a replica, so the block
    size changes no result; a time-dependent coefficient is still factored
    once per level and step.

    The work items are (block, eps level), block by block, split into
    contiguous runs, one shard per usable CPU and at most one per item.
    For each block it touches, a shard steps the eps levels it holds there
    plus its own copy of the block's effective level, whose rows only the
    shard of the block's eps level 0 owns. This process steps shard 0
    and a forked child steps each other shard, none waiting for another;
    the accumulators and the final states live in shared memory and every
    shard writes only its own rows, so the shard count changes no bit
    either. A shard steps each level in place in the rows it owns of the
    final states; only the effective level of a block whose eps level 0
    another shard holds (at most the shard's first block) is stepped in a
    private buffer, allocated after the fork. A failure is raised as a
    one-shard run raises it: the first in
    (step, block, level) order, the effective level last in each block;
    the other shards stop at the next step. A child that ends without a
    report raises :class:`InternalError`.
    ``progress(n, steps)``, when given, is called after about every tenth
    step of shard 0.
    """
    grid = cfg.grid
    dim = grid.dimension
    cell_grid = CellGrid(dimension=dim, cells=cfg.cell_cells,
                         tau_slices=cfg.cell_tau_slices)
    cell_sol = solve_cell_problem(cfg.coefficient, cell_grid)
    a_tilde = cell_sol.a_tilde

    spec = cfg.noise_spec()
    eps_list = list(cfg.epsilons)
    n_eps = len(eps_list)
    P = cfg.replicas * cfg.members
    steps = cfg.stepper.steps
    dt = cfg.stepper.dt
    hN = grid.h ** dim

    # the effective level, last, reuses the smallest-eps model constants
    steppers = [BatchedStepper(grid, cfg.model_for(e), spec,
                               members=cfg.members, dt=dt,
                               homogenized_tensor=tensor)
                for e, tensor in [*zip(eps_list, [None] * n_eps),
                                  (eps_list[-1], a_tilde)]]

    streams = [NoiseStream.derive(spec, m, r)
               for r in range(cfg.replicas) for m in range(cfg.members)]
    blocks = _replica_blocks(cfg.replicas, cfg.members, grid.dof)
    # a shard is a list of (block, the eps levels it holds there)
    items = [(rows, li) for rows in blocks for li in range(n_eps)]
    shards = [[(rows, [li for _, li in run])
               for rows, run in itertools.groupby(part, lambda w: w[0])]
              for part in parallel.split(
                  items, min(parallel.usable_cpus(), len(items)))]
    u0 = cfg.initial_values()

    # streaming accumulators and the final states, shared with the forked
    # shards
    *accumulators, final_states = parallel.shared_zeros(
        [(n_eps + effective, P) for _, effective, _ in ACCUMULATORS]
        + [(n_eps + 1, P, grid.dof)])
    err2, plain2, corr2, pairing, sup_h2, int_v2, int_l4 = accumulators
    # every level starts from u0, so its energy sup starts at u0's
    final_states[:] = u0
    sup_h2[:] = steppers[0].energy_rows(u0[None])["H2"]

    mesh = grid.meshgrid()
    osc = [np.sin(2.0 * np.pi * mesh[0] / e).reshape(-1) for e in eps_list]
    # corrector_slopes reads tau only when the cell solve has several slices
    slopes_move = cfg.coefficient.time_dependent and cell_grid.tau_slices > 1

    def run_shard(shard):
        """Step the shard's eps levels of each of its blocks and the
        block's effective level; before each level's step, yield its
        failure rank (step, first path of the block, level)."""
        held = {li for _, levels in shard for li in levels}
        # per block, one (block paths, dof) state stack per level, the
        # effective level last: the shard's own rows of final_states, and
        # a private copy of an effective level that another shard owns
        states = [{li: (final_states[li, rows] if li < n_eps or levels[0] == 0
                        else np.tile(u0, (rows.stop - rows.start, 1)))
                   for li in [*levels, n_eps]} for rows, levels in shard]
        for n in range(steps):
            t = n * dt
            if n == 0 or slopes_move:
                face_slopes = {li: _face_corrector_slopes(
                    cell_sol, grid, eps_list[li],
                    (t + dt) / eps_list[li] if slopes_move else 0.0)
                    for li in held}
            for (rows, levels), S in zip(shard, states):
                xi = np.stack([s.draw() for s in streams[rows]])
                for li in levels:  # left-point pairing over t_0 .. t_{N-1}
                    pairing[li, rows] += dt * hN * _pair(S[li], osc[li])
                for li, U in S.items():
                    yield n + 1, rows.start, li
                    steppers[li].advance(U, xi, t, n, first_row=rows.start,
                                         out=U)
                # one set of face differences per level, shared by the
                # gradient residuals and the V2 energy
                grads = {li: stack_face_differences(U, grid)
                         for li, U in S.items()}
                hom = S[n_eps]
                for li in levels:
                    diff = S[li] - hom
                    diff *= diff
                    err2[li, rows] += dt * hN * np.sum(diff, axis=-1)
                    p2, c2 = _gradient_residuals(grads[li], grads[n_eps],
                                                 face_slopes[li], grid)
                    plain2[li, rows] += dt * p2
                    corr2[li, rows] += dt * c2
                # the shard of the block's eps level 0 owns its effective
                # energy rows and final states
                for li in (S if levels[0] == 0 else levels):
                    energy = steppers[li].energy_rows(S[li], grads[li])
                    sup = sup_h2[li, rows]
                    np.maximum(sup, energy["H2"], out=sup)
                    int_v2[li, rows] += dt * energy["V2"]
                    int_l4[li, rows] += dt * energy["L4"]
            if (progress is not None and shard is shards[0]
                    and (n + 1) % max(1, steps // 10) == 0):
                progress(n + 1, steps)

    # built before the fork, so the shards inherit the modules it imported
    # (``scipy.linalg``, and ``scipy.fft`` for a 2D ladder's effective level)
    steppers[-1].factorization(0.0)
    parallel.run_shards(run_shard, shards, _shard_name)

    raw = {
        **{name: acc for (name, *_), acc in zip(ACCUMULATORS, accumulators)},
        "final_states": final_states,
        "epsilons": np.array(eps_list), "a_tilde": np.atleast_2d(a_tilde),
        "grid_scale": np.array([hN]),
        "shape": np.array([cfg.replicas, cfg.members, steps]),
        "dt": np.array([dt]),
    }
    report = reduce_raw(raw)
    return LadderResult(config=cfg, a_tilde=a_tilde, cell=cell_sol, raw=raw,
                        report=report, shards=len(shards))


def _shard_name(shard: list) -> str:
    levels = [li for _, held in shard for li in held]
    return (f"ladder shard of paths {shard[0][0].start}.."
            f"{shard[-1][0].stop - 1}, eps levels {min(levels)}.."
            f"{max(levels)}")


def load_raw(path: Path) -> dict:
    """The arrays of a stored ladder archive, laid out as ``run_ladder``
    writes them. Raises :class:`IntegrityError` when the file is not an npz
    archive, or naming the first array that is missing, is not real and
    finite, is misshapen, or has a sign that ``run_ladder`` cannot write."""
    def bad(key: str, why: str) -> IntegrityError:
        return IntegrityError(f"{path}: array {key!r} {why}", path=str(path))

    try:
        with np.load(path) as archive:
            raw = {k: archive[k] for k in archive.files}
    except (OSError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise IntegrityError(f"{path}: not a readable npz archive ({exc})",
                             path=str(path)) from None
    for key in ("epsilons", "shape", "dt", "grid_scale", "a_tilde",
                "final_states", *(name for name, *_ in ACCUMULATORS)):
        if key not in raw:
            raise bad(key, "is missing")
        if raw[key].dtype.kind not in "fiu":
            raise bad(key, f"has dtype {raw[key].dtype}, not real numbers")
        if not np.all(np.isfinite(raw[key])):
            raise bad(key, "has non-finite values")
    eps, shape, states = raw["epsilons"], raw["shape"], raw["final_states"]
    if (eps.ndim != 1 or eps.size == 0 or not np.all(eps > 0)
            or np.any(np.diff(eps) >= 0)):
        raise bad("epsilons", "is not a strictly decreasing list of "
                              "positive values")
    if (shape.shape != (3,) or shape.dtype.kind not in "iu"
            or not np.all(shape >= 1)):
        raise bad("shape", "is not three counts >= 1 (replicas, members, "
                           "steps)")
    levels, paths = eps.size, int(shape[0]) * int(shape[1])
    dof = states.shape[-1] if states.ndim == 3 else "dof"
    # N x N for the final states' (cells - 1)^N nodes, as no (2^k - 1)^2
    # is 2^j - 1 for k > 1; any square passes with misshapen states
    side = ((1 if is_power_of_two(dof + 1) else 2,) if states.ndim == 3
            else raw["a_tilde"].shape[:1])
    expected = {
        "dt": (1,), "grid_scale": (1,), "a_tilde": side * 2,
        **{name: (levels + effective, paths)
           for name, effective, _ in ACCUMULATORS},
        "final_states": (levels + 1, paths, dof),
    }
    for key, want in expected.items():
        if raw[key].shape != want:
            asks = ("'final_states' asks" if key == "a_tilde"
                    else "'epsilons' and 'shape' ask")
            raise bad(key, f"has shape {raw[key].shape}, but {asks} for "
                           f"{want}")
    for key in ("dt", "grid_scale"):
        if not raw[key][0] > 0:
            raise bad(key, "is not positive")
    for name, _, squares in ACCUMULATORS:
        if squares and np.any(raw[name] < 0):
            raise bad(name, "has negative values")
    return raw


def reduce_raw(raw: dict) -> ConvergenceReport:
    """Rebuild the reduced report from the stored per-path accumulators.

    This is the only path from raw arrays to human-facing numbers, so a
    stored archive can be re-rendered at any time without recomputation.
    """
    eps_list = [float(e) for e in np.asarray(raw["epsilons"]).reshape(-1)]
    R, M, steps = (int(v) for v in np.asarray(raw["shape"]).reshape(-1))
    dt = float(np.asarray(raw["dt"]).reshape(-1)[0])
    hN = float(np.asarray(raw["grid_scale"]).reshape(-1)[0])
    a_tilde = np.atleast_2d(np.asarray(raw["a_tilde"], dtype=float))
    errors, error_se = _level_stats(raw["err2"], R, M, root=True)
    plain, plain_se = _level_stats(raw["plain2"], R, M, root=True)
    corrected, corrected_se = _level_stats(raw["corr2"], R, M, root=True)
    pair_mean, pair_se = _level_stats(raw["pairing"], R, M)
    sup_h2 = raw["sup_h2"]
    energy, energy_se = _level_stats(sup_h2 + raw["int_v2"] + raw["int_l4"],
                                     R, M)
    sup_p2 = _level_stats(sup_h2, R, M)[0]
    sup_p4 = _level_stats(sup_h2 ** 2, R, M)[0]
    # final H norms, one level at a time: no (levels, paths, dof) square
    norms = [np.sqrt(hN * np.sum(states ** 2, axis=-1))
             for states in raw["final_states"]]
    w2 = [wasserstein2_1d(obs, norms[-1]) for obs in norms[:-1]]

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


def _pair(U: np.ndarray, osc: np.ndarray) -> np.ndarray:
    """Per-path sums of U * osc in a fixed order: the bits of a BLAS
    product ``U @ osc`` depend on the BLAS thread count."""
    return np.einsum("pd,d->p", U, osc)


def _face_corrector_slopes(sol: CellSolution, grid: GridSpec, eps: float,
                           tau: float) -> list[np.ndarray]:
    """Corrector slope matrices at the face midpoints of each axis."""
    mids = grid.h * (np.arange(grid.cells) + 0.5)
    nodes = grid.axis_nodes()
    out = []
    for axis in range(grid.dimension):
        mesh = np.meshgrid(*[mids if d == axis else nodes
                             for d in range(grid.dimension)], indexing="ij")
        out.append(corrector_slopes(sol, tuple(c / eps for c in mesh), tau))
    return out


def _gradient_residuals(eps_grad: list[np.ndarray], hom_grad: list[np.ndarray],
                        face_slopes: list[np.ndarray], grid: GridSpec,
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Per-path squared H norms of plain and corrected gradient residuals.

    Gradients arrive as raw face differences; the reconstruction adds the
    corrector slope contribution at the face midpoints of each axis. In
    2D the cross contribution uses the same-axis face differences of the
    transverse component, which share the face layout to O(h). Both
    residuals are face arrays per axis, summed by ``grid.face_energy``.
    """
    dim = grid.dimension
    plain, corrected = [], []
    for j, (de, dh) in enumerate(zip(eps_grad, hom_grad)):
        plain.append(de - dh)
        # a transverse component is averaged from its axis-i faces onto
        # the nodes, then from the nodes onto the axis-j faces
        terms = []
        for i, d in enumerate(hom_grad):
            if i != j:
                d = 0.5 * face_sums(0.5 * np.add(*adjacent_pairs(d, i, dim)),
                                    j, dim)
            terms.append(d * face_slopes[j][..., i, j][None])
        rec = terms[0]
        rec += dh  # dh + each slope term, in axis order
        for term in terms[1:]:
            rec += term
        corrected.append(np.subtract(de, rec, out=rec))
    return face_energy(plain, grid), face_energy(corrected, grid)
