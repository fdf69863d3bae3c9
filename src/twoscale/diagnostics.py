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
on 1024 cells (the acceptance reference ladder) took 64-65 s on a shared
2-core host in two processes, against 117-120 s in one.
"""
from __future__ import annotations

import contextlib
import json
import mmap
import os
import pickle
import signal
from dataclasses import dataclass, field

import numpy as np

from .cell import CellGrid, CellSolution, corrector_slopes, solve_cell_problem
from .coefficients import CoefficientField
from .ensemble import wasserstein2_1d
from .errors import InternalError, ValidationError
from .grid import GridSpec, ScalarField, stack_face_differences
from .integrator import BatchedStepper, StepperConfig
from .models import ModelSpec
from .noise import NoiseStream, QWienerSpec

__all__ = [
    "sine_initial_state",
    "check_ladder",
    "StudyConfig",
    "ConvergenceReport",
    "LadderResult",
    "two_scale_pairing",
    "corrector_residual",
    "run_ladder",
    "reduce_raw",
]


# ---------------------------------------------------------------------------
# pointwise diagnostics on stored trajectories


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
# ladder study


def sine_initial_state(grid: GridSpec, amplitude: float,
                       mode: int) -> np.ndarray:
    """u0 = amplitude * prod_d sin(mode pi x_d) on the interior nodes."""
    vals = np.full(grid.shape, amplitude)
    for c in grid.meshgrid():
        vals = vals * np.sin(mode * np.pi * c)
    return vals


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
        return json.dumps(_jsonable(payload), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ConvergenceReport":
        data = json.loads(text)
        return cls(**data)

    def to_csv(self) -> str:
        lines = ["epsilon,error,error_stderr,plain_gradient,plain_stderr,"
                 "corrected_gradient,corrected_stderr,pairing,pairing_stderr,"
                 "energy_functional,energy_stderr"]
        for i, e in enumerate(self.epsilons):
            row = (e, self.errors[i], self.error_stderr[i],
                   self.plain_gradient[i], self.plain_stderr[i],
                   self.corrected_gradient[i], self.corrected_stderr[i],
                   self.pairings[i], self.pairing_stderr[i],
                   self.energy_functional[i], self.energy_stderr[i])
            lines.append(",".join(repr(v) for v in row))
        return "\n".join(lines) + "\n"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _replica_stats(per_path: np.ndarray, replicas: int,
                   members: int) -> tuple[float, float]:
    """Mean over all paths plus the standard error over replica means."""
    groups = per_path.reshape(replicas, members).mean(axis=1)
    mean = float(per_path.mean())
    se = float(groups.std(ddof=1) / np.sqrt(replicas)) if replicas > 1 else 0.0
    return mean, se


#: Size of one level stack of a replica block, in float64 values. 16,384
#: values (128 kB) keep a block's stacks and temporaries in a 2 MiB L2
#: cache; the 1D reference ladder (8 members, 1023 dof) gets 2 replicas.
BLOCK_VALUES = 16_384


def _replica_blocks(replicas: int, members: int, dof: int) -> list[slice]:
    """Path slices of blocks of whole replicas, about BLOCK_VALUES each.

    Every block but the last holds a multiple of four paths. OpenBLAS
    matrix-vector kernels take rows in groups of four, and a row's bits
    depend on the kind of group it lands in; with such blocks each path
    lands in the same kind as in the whole stack, so ``xi @ weights`` keeps
    its bits.
    """
    group = 4 // int(np.gcd(members, 4))  # replicas per four-path group
    per_block = max(1, BLOCK_VALUES // (members * dof))
    per_block = -(-per_block // group) * group
    return [slice(r * members, min(r + per_block, replicas) * members)
            for r in range(0, replicas, per_block)]


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where ``os.fork`` does not exist."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shards(items: list, count: int) -> list[list]:
    """``count`` contiguous runs of ``items``, as even as they split."""
    return [[items[i] for i in part]
            for part in np.array_split(np.arange(len(items)), count)]


def _shared_zeros(shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Zeroed float64 arrays in one anonymous shared mapping.

    A forked child's writes to these arrays are seen by the parent, so a
    shard hands back its results without pipes or pickles.
    """
    sizes = [int(np.prod(shape)) for shape in shapes]
    flat = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)), dtype=np.float64)
    ends = np.cumsum(sizes)
    return [flat[end - size:end].reshape(shape)
            for shape, size, end in zip(shapes, sizes, ends)]


def run_ladder(cfg: StudyConfig, progress=None) -> LadderResult:
    """Advance all ladder levels in lockstep and reduce the diagnostics.

    Levels: one per epsilon plus the effective level driven by the
    homogenized tensor of the cell solve. All levels see identical initial
    data and identical noise draws per path; the drag couples members
    within each replica only.

    Within each step, the paths go in blocks of whole replicas
    (``BLOCK_VALUES``): a block draws its noise, advances every level and
    updates every accumulator before the next block starts. Draws are per
    path and the drag stays inside a replica, so the block size changes no
    result; a time-dependent coefficient is still factored once per level
    and step.

    The work is split into shards, one per usable CPU. With at least as
    many blocks as the smaller of the CPU and eps level counts, each shard
    steps every level over a contiguous run of blocks. With fewer blocks,
    each shard steps every block for a contiguous group of eps levels plus
    its own copy of the effective level, whose rows only the shard of eps
    level 0 writes. This process steps shard 0 and a forked child steps
    each other shard; the accumulators live in shared memory and every
    shard writes only its own rows, so the shard count changes no bit
    either. A failure is raised as a one-shard run raises it: the first in
    (step, block, level) order, the effective level last in each block. A
    child that ends without a report raises :class:`InternalError`.
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

    steppers = []
    for e in eps_list:
        steppers.append(BatchedStepper(grid, cfg.model_for(e), spec,
                                       members=cfg.members, dt=dt,
                                       tol=cfg.stepper.tol))
    # the effective level reuses the smallest-eps model constants
    steppers.append(BatchedStepper(grid, cfg.model_for(eps_list[-1]), spec,
                                   members=cfg.members, dt=dt,
                                   tol=cfg.stepper.tol,
                                   homogenized_tensor=a_tilde))

    streams = [NoiseStream.derive(spec, m, r)
               for r in range(cfg.replicas) for m in range(cfg.members)]
    blocks = _replica_blocks(cfg.replicas, cfg.members, grid.dof)
    cpus = _usable_cpus()
    # shards are (eps levels, blocks); ties go to blocks, which repeat no work
    if len(blocks) >= min(cpus, n_eps):
        shards = [(range(n_eps), part)
                  for part in _shards(blocks, min(cpus, len(blocks)))]
    else:
        shards = [(part, blocks)
                  for part in _shards(range(n_eps), min(cpus, n_eps))]
    u0 = cfg.initial_values()

    # streaming accumulators, all shaped (levels, paths), and the final
    # states, shared with the forked shards
    (err2, plain2, corr2, pairing, sup_h2, int_v2, int_l4,
     final_states) = _shared_zeros([(n_eps, P)] * 4 + [(n_eps + 1, P)] * 3
                                   + [(n_eps + 1, P, grid.dof)])

    mesh = grid.meshgrid()
    osc = [np.sin(2.0 * np.pi * mesh[0] / e).reshape(-1) for e in eps_list]
    # corrector_slopes reads tau only when the cell solve has several slices
    slopes_move = cfg.coefficient.time_dependent and cell_grid.tau_slices > 1

    def run_shard(shard, progress):
        """Step the shard's eps levels and the effective level over its
        blocks; before each level's step, yield its failure rank (step,
        first path of the block, level)."""
        levels, shard_blocks = shard
        # the effective level steps last; the shard of eps level 0 owns its
        # energy rows and final states
        stepped = [*levels, n_eps]
        owned = stepped if levels[0] == 0 else list(levels)
        # per block, one (block paths, dof) state stack per level
        states = [{li: np.tile(u0, (rows.stop - rows.start, 1))
                   for li in stepped} for rows in shard_blocks]
        face_slopes = {li: _face_corrector_slopes(cell_sol, grid,
                                                  eps_list[li], 0.0)
                       for li in levels}
        # t = 0 contributions: pairing left-point, energy sup
        for rows, S in zip(shard_blocks, states):
            for li in levels:
                pairing[li, rows] += dt * hN * _pair(S[li], osc[li])
            for li in owned:
                sup_h2[li, rows] = steppers[li].energy_rows(S[li], 0.0)["H2"]
        for n in range(steps):
            t = n * dt
            if slopes_move:
                face_slopes = {li: _face_corrector_slopes(
                    cell_sol, grid, eps_list[li], (t + dt) / eps_list[li])
                    for li in levels}
            for rows, S in zip(shard_blocks, states):
                xi = np.stack([s.draw() for s in streams[rows]])
                for li in stepped:
                    yield n + 1, rows.start, li
                    S[li] = steppers[li].advance(S[li], xi, t, n,
                                                 first_row=rows.start)
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
                    if n < steps - 1:  # left-point pairing: t_{n+1} counts
                        pairing[li, rows] += dt * hN * _pair(S[li], osc[li])
                for li in owned:
                    energy = steppers[li].energy_rows(S[li], t + dt,
                                                      grads[li])
                    sup = sup_h2[li, rows]
                    np.maximum(sup, energy["H2"], out=sup)
                    int_v2[li, rows] += dt * energy["V2"]
                    int_l4[li, rows] += dt * energy["L4"]
            if progress is not None and (n + 1) % max(1, steps // 10) == 0:
                progress(n + 1, steps)
        for rows, S in zip(shard_blocks, states):
            for li in owned:
                final_states[li, rows] = S[li]

    _run_shards(run_shard, shards, progress)

    raw = {
        "err2": err2, "plain2": plain2, "corr2": corr2, "pairing": pairing,
        "sup_h2": sup_h2, "int_v2": int_v2, "int_l4": int_l4,
        "final_states": final_states,
        "epsilons": np.array(eps_list), "a_tilde": np.atleast_2d(a_tilde),
        "grid_scale": np.array([hN]),
        "shape": np.array([cfg.replicas, cfg.members, steps]),
        "dt": np.array([dt]),
    }
    report = reduce_raw(raw)
    return LadderResult(config=cfg, a_tilde=a_tilde, cell=cell_sol, raw=raw,
                        report=report, shards=len(shards))


def _run_shards(run_shard, shards: list[tuple], progress) -> None:
    """Run ``run_shard`` on every shard, shards 1 and up in forked children.

    A shard is a pair (eps levels, blocks). ``run_shard(shard, progress)``
    is a generator that yields the (step, block, level) rank of each piece
    of work before it does it, and writes its results into shared memory.
    Shard 0 runs here and alone gets ``progress``. Every child is waited
    for, also when shard 0 fails. Of all failures, the one of the lowest
    rank is raised: the one a one-shard run meets first (the lowest shard
    on ties, whose work is the same). A failure before the first yield
    ranks as step 0, and a child that ended without a report raises
    :class:`InternalError` before any of them. Python 3.12 and later warn
    that ``fork`` is called with threads running once OpenBLAS has started
    its thread pool, which OpenBLAS shuts down before a fork; the warning
    is left as it is.
    """
    # level shards share their blocks, block shards their levels
    by_levels = len(shards) > 1 and shards[0][1] == shards[1][1]
    children = {}  # shard index -> (pid, read end of its report pipe)
    try:
        for index in range(1, len(shards)):
            children[index] = _fork_shard(run_shard, shards[index],
                                          [fd for _, fd in children.values()])
        failures = []
        failure = _drive(run_shard(shards[0], progress))
        if failure is not None:
            if not isinstance(failure[1], Exception):
                raise failure[1]  # an interrupt: stop the children
            failures.append((failure[0], 0, failure[1]))
        for index in list(children):
            failure = _reap(*children[index],
                            _shard_name(shards[index], by_levels))
            del children[index]
            if failure is not None:
                failures.append((failure[0], index, failure[1]))
    finally:
        for pid, fd in children.values():
            with contextlib.suppress(OSError):
                os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if failures:
        raise min(failures, key=lambda f: f[:2])[2]


def _shard_name(shard: tuple, by_levels: bool) -> str:
    levels, blocks = shard
    if by_levels:
        return f"eps levels {levels[0]}..{levels[-1]}"
    return f"paths {blocks[0].start}..{blocks[-1].stop - 1}"


def _drive(shard):
    """Exhaust a shard's generator: None, or (rank, exception) on failure,
    the rank being the last one the generator yielded."""
    rank = (0,)
    try:
        for rank in shard:
            pass
    except BaseException as exc:  # noqa: B036 - reported, not swallowed
        return rank, exc
    return None


def _fork_shard(run_shard, shard: tuple,
                inherited: list[int]) -> tuple[int, int]:
    """Fork a child that runs one shard: its pid and its report pipe.

    The child writes nothing to the pipe on success and a pickled
    (rank, exception) on failure, then leaves through ``os._exit``, so
    no cleanup of the parent's runs twice.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, read_fd
    code = 1
    try:
        for fd in [read_fd, *inherited]:
            os.close(fd)
        failure = _drive(run_shard(shard, None))
        with os.fdopen(write_fd, "wb") as pipe:
            if failure is not None:
                pipe.write(_pickled_failure(*failure))
        code = 0
    finally:
        os._exit(code)


def _pickled_failure(rank: tuple, exc: BaseException) -> bytes:
    """(rank, exc) pickled; an exception that does not survive the round
    trip travels as an InternalError with its class name and message."""
    try:
        blob = pickle.dumps((rank, exc))
        pickle.loads(blob)
        return blob
    except Exception:
        return pickle.dumps((rank, InternalError(
            f"{type(exc).__name__}: {exc}")))


def _reap(pid: int, fd: int, name: str):
    """Wait for one shard's child: None, or (rank, exception) of its
    failure. A child that ended without a report ranks before any step."""
    with os.fdopen(fd, "rb") as pipe:
        report = pipe.read()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status == 0:
        return pickle.loads(report) if report else None
    how = f"signal {-status}" if status < 0 else f"exit status {status}"
    return (-1,), InternalError(
        f"ladder shard of {name} ended with {how} and no report")


def reduce_raw(raw: dict) -> ConvergenceReport:
    """Rebuild the reduced report from the stored per-path accumulators.

    This is the only path from raw arrays to human-facing numbers, so a
    stored archive can be re-rendered at any time without recomputation.
    """
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
            m, se = _replica_stats(acc[li], R, M)
            out_m.append(float(np.sqrt(m)))
            # delta method: se of sqrt(mean) from se of the mean
            out_se.append(float(se / (2.0 * np.sqrt(m))) if m > 0 else 0.0)
        m, se = _replica_stats(pairing[li], R, M)
        pair_mean.append(float(m))
        pair_se.append(float(se))

    energy, energy_se = [], []
    sup_p2, sup_p4 = [], []
    for li in range(n_eps + 1):
        functional = sup_h2[li] + int_v2[li] + int_l4[li]
        m, se = _replica_stats(functional, R, M)
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


def _pair(U: np.ndarray, osc: np.ndarray) -> np.ndarray:
    """Per-path sums of U * osc in a fixed order: the bits of a BLAS
    product ``U @ osc`` depend on the BLAS thread count."""
    return np.einsum("pd,d->p", U, osc)


def _face_corrector_slopes(sol: CellSolution, grid: GridSpec, eps: float,
                           tau: float) -> list[np.ndarray]:
    """Corrector slope matrices at the face midpoints of each axis."""
    n = grid.cells
    mids = grid.h * (np.arange(n) + 0.5)
    nodes = grid.axis_nodes()
    out = []
    for axis in range(grid.dimension):
        if grid.dimension == 1:
            coords = mids / eps
        else:
            ax = [None, None]
            ax[axis] = mids
            ax[1 - axis] = nodes
            mesh = np.meshgrid(ax[0], ax[1], indexing="ij")
            coords = tuple(c / eps for c in mesh)
        out.append(corrector_slopes(sol, coords, tau))
    return out


def _gradient_residuals(eps_grad: list[np.ndarray], hom_grad: list[np.ndarray],
                        face_slopes: list[np.ndarray], grid: GridSpec,
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Per-path squared H norms of plain and corrected gradient residuals.

    Gradients arrive as raw face differences; the reconstruction adds the
    corrector slope contribution at the face midpoints of each axis. In
    2D the cross contribution uses the same-axis face differences of the
    transverse component, which share the face layout to O(h).
    """
    hN = grid.h ** grid.dimension
    P = eps_grad[0].shape[0]
    plain2 = np.zeros(P)
    corr2 = np.zeros(P)
    inv_h2 = 1.0 / grid.h ** 2
    for j in range(grid.dimension):
        de = eps_grad[j]
        dh = hom_grad[j]
        diff = de - dh
        diff *= diff
        plain2 += hN * inv_h2 * np.sum(diff.reshape(P, -1), axis=-1)
        # transverse components are interpolated onto axis-j faces
        terms = [(hom_grad[i] if i == j else _to_faces(hom_grad[i], i, j, grid))
                 * face_slopes[j][..., i, j][None]
                 for i in range(grid.dimension)]
        rec = terms[0]
        rec += dh  # dh + each slope term, in axis order
        for term in terms[1:]:
            rec += term
        np.subtract(de, rec, out=rec)
        rec *= rec
        corr2 += hN * inv_h2 * np.sum(rec.reshape(P, -1), axis=-1)
    return plain2, corr2


def _to_faces(diffs: np.ndarray, from_axis: int, to_axis: int,
              grid: GridSpec) -> np.ndarray:
    """Re-locate axis-i face differences onto axis-j faces by averaging."""
    # average pairs along from_axis (faces -> nodes), then along to_axis
    # (nodes -> faces) with zero ghosts
    a = from_axis + 1
    b = to_axis + 1
    nodes = 0.5 * (np.take(diffs, range(0, diffs.shape[a] - 1), axis=a)
                   + np.take(diffs, range(1, diffs.shape[a]), axis=a))
    pad = [(0, 0)] * diffs.ndim
    pad[b] = (1, 1)
    padded = np.pad(nodes, pad)
    return 0.5 * (np.take(padded, range(0, padded.shape[b] - 1), axis=b)
                  + np.take(padded, range(1, padded.shape[b]), axis=b))
