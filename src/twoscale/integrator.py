"""Semi-implicit Euler-Maruyama stepping with energy accounting.

One step advances u^n to u^{n+1} by treating the stiff oscillating
diffusion implicitly (coefficient frozen at t_n) and everything else
explicitly:

    u^{n+1} = (I + dt A_eps(t_n))^{-1} [ u^n + dt (F(u^n, mu^n) - B(u^n,u^n))
                                          + G(u^n) dW^n ].

A stability guard dt * (||u||_inf / h + reaction bound) <= 1/2 rejects
steps that the explicit terms cannot support, and any non-finite state
aborts the path with diagnostics. The scheme satisfies an exact discrete
energy identity in the force-free case,

    ||u^{n+1}||^2 - ||u^n||^2 = -2 dt (A u^{n+1}, u^{n+1})
                                - dt^2 ||A u^{n+1}||^2,

which the tests assert to solver tolerance.

``BatchedStepper`` is the one stepping engine: members (and, in coupled
studies, whole replica blocks) advance as one (paths, dof) array per level,
so the per-step cost is a few vectorized array passes plus one direct
solve against a factor built once per coefficient time: in 1D one LAPACK
``pttrs`` call on the whole stack against the LDL^T factor from
``pttrf``; in 2D one SuperLU solve per path, or a DST-I pair for the
effective level's constant faces (see ``models.ImplicitFactorization``).
A time-dependent 2D coefficient refactors every step, which costs more
than the solves of a single path. ``run_ensemble`` records every member's
energy ledger into one (steps+1, members, columns) array. An ensemble of at least
``parallel.BLOCK_VALUES`` values per usable CPU (64 members on 1024 cells
on two CPUs) is split by members into one forked shard per CPU; the
shards step in lockstep, one barrier per step, and every output keeps the
bits of a one-process run. Smaller ensembles run in this process.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import parallel
from .ensemble import Ensemble
from .errors import NonFinite, StepRejected, ValidationError
from .grid import (GridSpec, ScalarField, face_energy, sine_coefficients,
                   sine_weights_Hminus1, stack_face_differences)
from .models import ImplicitFactorization, ModelSpec, face_coefficients
from .noise import QWienerSpec, mode_synthesis

__all__ = [
    "StepperConfig",
    "EnergyLedger",
    "BatchedStepper",
    "run_ensemble",
    "ensemble_shards",
    "increment_scaling",
    "IncrementFit",
]

GUARD_LIMIT = 0.5

# the model variants BatchedStepper steps; the CLI rejects the others
STEPPED_VARIANTS = ("allen_cahn",)

LEDGER_COLUMNS = ("step", "t", "H2", "Hp", "V2", "L4",
                  "cumulative_dissipation")


@dataclass(frozen=True)
class StepperConfig:
    """Time-stepping parameters; horizon / dt must be integral (to round-off).
    The implicit solves are direct, so there is no solver tolerance."""

    dt: float
    horizon: float

    def __post_init__(self):
        if not self.dt > 0:
            raise ValidationError("dt must be positive", field="dt")
        if not self.horizon > 0:
            raise ValidationError("horizon must be positive", field="horizon")
        ratio = self.horizon / self.dt
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ValidationError(
                f"horizon {self.horizon} is not an integer number of steps "
                f"of dt {self.dt}", field="horizon")

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass(eq=False)
class EnergyLedger:
    """Per-step energy records for one member path.

    ``table`` has one row per step and one column per name in
    ``LEDGER_COLUMNS``: step index, time, ||u||_H^2, the H-moment column Hp
    (the p = 2 moment, so equal to H2), ||u||_V^2, ||u||_L4^4, and the
    running dissipation sum 2 dt (A u^{m}, u^{m}) over completed steps.
    ``run_ensemble`` hands out views into one table shared by all members.
    Columns read by name (``ledger.H2``) are views too.
    """

    table: np.ndarray

    def __getattr__(self, name: str) -> np.ndarray:
        if name in LEDGER_COLUMNS:
            return self.table[..., LEDGER_COLUMNS.index(name)]
        raise AttributeError(name)

    def validate(self) -> None:
        """Raise on a non-finite entry or a decreasing dissipation sum, for
        one member or for a (steps+1, members, columns) table at once."""
        if not np.all(np.isfinite(self.table[..., 2:])):
            raise NonFinite("ledger contains non-finite entries")
        if np.any(np.diff(self.cumulative_dissipation, axis=0) < -1e-12):
            raise ValueError("cumulative dissipation must be nondecreasing")

    def to_csv(self, path) -> None:
        """Write the header and every row in one formatted pass.

        The step column prints as an integer and every other value as
        ``repr`` of the float, which reads back bitwise.
        """
        row = "%d" + ",%r" * (len(LEDGER_COLUMNS) - 1) + "\n"
        body = (row * len(self.table)) % tuple(self.table.ravel().tolist())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(LEDGER_COLUMNS) + "\n" + body)


def _reaction_bound(max_abs: float, model: ModelSpec) -> float:
    bound = 0.0
    if model.cubic:
        bound += 3.0 * max_abs ** 2 + 1.0
    if model.mean_field == "stokes_drag":
        bound += 1.0
    return bound


def check_guard(max_abs: float, model: ModelSpec, dt: float, h: float,
                step_index: int | None = None) -> float:
    """Evaluate the stability guard; raise :class:`StepRejected` beyond 1/2.

    A non-finite ``max_abs`` (a NaN or Inf in the state) raises
    :class:`NonFinite`: NaN compares false against the limit, so it would
    pass the guard otherwise.
    """
    if not np.isfinite(max_abs):
        raise NonFinite(f"non-finite state before step {step_index} "
                        f"(max|u| = {max_abs})", step=step_index)
    value = dt * (max_abs / h + _reaction_bound(max_abs, model))
    if value > GUARD_LIMIT:
        raise StepRejected(
            f"stability guard {value:.3f} exceeds {GUARD_LIMIT} "
            f"(max|u| = {max_abs:.3g}, dt = {dt})",
            guard_value=value, step=step_index)
    return value


def _effective_faces(grid: GridSpec, tensor) -> list[np.ndarray]:
    """Axis-d faces equal to tensor[d, d], laid out as ``face_coefficients``
    returns them, of a tensor that is diagonal to round-off."""
    tensor = np.asarray(tensor, dtype=float)
    dim = grid.dimension
    if tensor.shape != (dim, dim) or np.max(np.abs(
            tensor - np.diag(np.diag(tensor)))) > 1e-8 * np.max(np.abs(tensor)):
        raise ValidationError(f"the homogenized tensor must be a diagonal "
                              f"{dim}x{dim} matrix, got {tensor.tolist()}",
                              field="homogenized_tensor")
    return [np.full(tuple(grid.cells if a == d else grid.cells - 1
                          for a in range(dim)), tensor[d, d])
            for d in range(dim)]


class BatchedStepper:
    """Advances a stack of scalar member paths under one model.

    The stack has shape (paths, dof) and is grouped into replicas of
    ``members`` consecutive paths; the drag couples members within each
    replica only. The implicit factorization is cached and rebuilt only
    when the coefficient actually depends on the fast time.

    ``homogenized_tensor`` makes this the effective level, factored once
    with the constant faces a~[d, d]. Every coefficient family's cell solve
    gives a diagonal tensor to round-off; a shape other than (N, N) or an
    off-diagonal entry above 1e-8 times the largest diagonal entry raises
    :class:`ValidationError`.
    """

    def __init__(self, grid: GridSpec, model: ModelSpec, spec: QWienerSpec,
                 members: int, dt: float,
                 homogenized_tensor: np.ndarray | None = None):
        if model.variant not in STEPPED_VARIANTS:
            raise ValidationError(f"the engine cannot step {model.variant!r}",
                                  field="variant")
        self.grid = grid
        self.model = model
        self.spec = spec
        self.members = members
        self.dt = float(dt)
        self.tensor = homogenized_tensor
        self._faces = (None if homogenized_tensor is None
                       else _effective_faces(grid, homogenized_tensor))
        self._g_weights = (np.sqrt(spec.eigenvalues * self.dt)
                           * model.mode_sigmas(spec.modes))
        if model.noise_law == "mode_modulated":  # built before a ladder forks
            self._synthesize = mode_synthesis(spec)
        self._fac: ImplicitFactorization | None = None
        self._fac_time: float | None = None

    # -- operator cache -----------------------------------------------------

    def factorization(self, t: float) -> ImplicitFactorization:
        time_dependent = (self._faces is None
                          and self.model.coefficient.time_dependent)
        if self._fac is None or (time_dependent and self._fac_time != t):
            faces = self._faces or face_coefficients(
                self.model.coefficient, self.grid, self.model.epsilon, t)
            self._fac = ImplicitFactorization(self.grid, faces, self.dt)
            self._fac_time = t
        return self._fac

    # -- one step over the whole stack ---------------------------------------

    def explicit_terms(self, U: np.ndarray, xi: np.ndarray,
                       rows: slice = slice(None),
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Drift F(U, mu) and noise increment G(U) dW for ``rows`` of U.

        mu is the empirical law of each replica's ``members`` paths. The
        drag adds U - mean: it pushes each member away from its replica
        mean (u = 1 against a mean of 2 gives -1), it does not pull toward
        it. The optional cubic adds U - U^3. The noise is
        (sum_k sqrt(lambda_k dt) sigma_k xi_k) U for the scalar law and
        U * sum_k sqrt(lambda_k dt) sigma_k xi_k e_k for the mode-modulated
        one. The replica means and the noise factor read the whole stack
        whatever ``rows`` is: BLAS changes kernel with the row count, so a
        row keeps the bits of a whole-stack call only this way.

        Args:
            U: state stack (paths, dof).
            xi: mode draws (paths, K).
            rows: the paths to return terms for, all by default.
        """
        model = self.model
        part = U[rows]
        drift = np.zeros_like(part)
        if model.mean_field == "stokes_drag":
            groups = U.reshape(-1, self.members, U.shape[-1])
            mean = groups.mean(axis=1, keepdims=True)
            if part.shape == U.shape:
                np.subtract(groups, mean, out=drift.reshape(groups.shape))
            else:  # each row less the mean of its own replica
                replica = np.arange(len(U))[rows] // self.members
                np.subtract(part, mean[replica, 0], out=drift)
        if model.cubic:
            cubic = part * part
            cubic *= part
            drift += np.subtract(part, cubic, out=cubic)
        if model.noise_law == "scalar_multiplicative":
            noise = (xi @ self._g_weights)[rows, None] * part
        else:
            noise = self._synthesize(xi * self._g_weights)[rows]
            noise *= part
        return drift, noise

    def advance(self, U: np.ndarray, xi: np.ndarray, t: float,
                step_index: int, first_row: int = 0,
                rows: slice = slice(None)) -> np.ndarray:
        """One semi-implicit step of ``rows`` of the stack, all by default.

        The guard reads max|U| of the whole stack, and the drift and noise
        read it as :meth:`explicit_terms` says, so a row's new state does
        not depend on which rows are stepped with it. The right-hand side
        U + dt drift + noise is checked for finite values once, by the
        solve; a finite right-hand side and a finite positive definite
        operator give a finite state, and the guard of the next step checks
        it again.

        Args:
            U: state stack (paths, dof).
            xi: mode draws (paths, K) shared with any coupled levels.
            t: current time (coefficient frozen here).
            step_index: for diagnostics.
            first_row: index of U's first row among all paths, added to
                the paths a :class:`NonFinite` names.
            rows: the paths to step; the result holds only these.
        """
        max_abs = float(np.max(np.abs(U))) if U.size else 0.0
        check_guard(max_abs, self.model, self.dt, self.grid.h, step_index)
        drift, noise = self.explicit_terms(U, xi, rows)
        rhs = self.dt * drift
        rhs += U[rows]
        rhs += noise
        fac = self.factorization(t)
        try:
            return fac.solve_batch(rhs)
        except NonFinite:
            bad = np.where(~np.all(np.isfinite(rhs), axis=-1))[0] \
                + first_row + (rows.start or 0)
            raise NonFinite(
                f"non-finite explicit update at step {step_index} "
                f"(t={t:.6g}) in path(s) {bad[:4].tolist()}",
                step=step_index, time=t,
                member=int(bad[0]) if bad.size else None) from None

    # -- energy bookkeeping ---------------------------------------------------

    def energy_rows(self, U: np.ndarray,
                    diffs: list[np.ndarray] | None = None,
                    ) -> dict[str, np.ndarray]:
        """Instantaneous energy functionals for every path in the stack.

        ``diffs`` are the face differences of U per axis, shaped
        (paths, *faces), when the caller has them already.
        """
        g = self.grid
        hN = g.h ** g.dimension
        U2 = U * U
        h2 = hN * np.sum(U2, axis=-1)
        v2 = face_energy(stack_face_differences(U, g) if diffs is None
                         else diffs, g)
        U2 *= U2
        l4 = hN * np.sum(U2, axis=-1)
        return {"H2": h2, "V2": v2, "L4": l4}


def ensemble_shards(members: int, dof: int) -> list[slice]:
    """Member runs of ``run_ensemble``: one per usable CPU, as many as get
    at least ``parallel.BLOCK_VALUES`` values each, and at least one."""
    return [slice(part[0], part[-1] + 1) for part in parallel.split(
        range(members), parallel.shard_count(members, dof))]


def run_ensemble(ensemble: Ensemble, model: ModelSpec, config: StepperConfig,
                 ) -> tuple[Ensemble, list[EnergyLedger]]:
    """Advance every member to the horizon with per-step measure refresh.

    Returns the final ensemble and one energy ledger per member, each a
    view into one (steps+1, members, columns) table. The empirical measure
    entering the drag is recomputed from the current members at the top of
    every step.

    The members are split into contiguous runs, one per usable CPU, when
    each run gets at least ``parallel.BLOCK_VALUES`` values (a 1D ensemble
    of 64 members on 1024 cells splits in two; the small ones stay in this
    process). This process steps the first run and a forked child each
    other one, in lockstep: the states, the draws and the ledger table are
    shared, and a barrier ends every step. Each shard draws its own
    members' noise and writes only its own rows, but reads the whole stack
    for the drag mean, the guard and the noise factor, so every row keeps
    the bits of a one-process run. A failure is raised as a one-process run
    raises it, and a child that ends without a report raises
    :class:`InternalError`.
    """
    g = ensemble.grid
    spec = ensemble.noise
    size = ensemble.size
    stepper = BatchedStepper(g, model, spec, members=size, dt=config.dt)
    steps = config.steps
    streams = ensemble.streams
    t0 = ensemble.time
    shards = ensemble_shards(size, g.dof)
    # step n reads buffer n % 2 of the states and the draws and writes the
    # next states into the other buffer; a shard's draws for step n go in
    # before the barrier that starts it
    states, draws, table = parallel.shared_zeros([
        (2, size, g.dof), (2, size, spec.modes),
        (steps + 1, size, len(LEDGER_COLUMNS))])
    states[0] = [m.values.reshape(-1) for m in ensemble.members]
    table[:, :, 0] = np.arange(steps + 1)[:, None]

    def run_shard(rows):
        """Step the members ``rows``; yield (n,) at the barrier before
        step n, once the shard's draws for it are in."""
        ledger = table[:, rows]
        diss = np.zeros(rows.stop - rows.start)

        def record(n: int, t: float, U: np.ndarray, diffs=None) -> None:
            energy = stepper.energy_rows(U, diffs)
            ledger[n, :, 1] = t
            ledger[n, :, 2] = ledger[n, :, 3] = energy["H2"]
            ledger[n, :, 4] = energy["V2"]
            ledger[n, :, 5] = energy["L4"]
            ledger[n, :, 6] = diss

        record(0, t0, states[0, rows])
        for n in range(steps):
            draws[n % 2, rows] = [s.draw() for s in streams[rows]]
            yield (n,)
            t_frozen = t0 + n * config.dt
            U_new = stepper.advance(states[n % 2], draws[n % 2], t_frozen, n,
                                    rows=rows)
            states[(n + 1) % 2, rows] = U_new
            # dissipation pairs the new state with the faces of the implicit
            # solve (frozen at t_n), so the energy identity is exact; the V2
            # energy reuses the same face differences
            diffs = stack_face_differences(U_new, g)
            faces = stepper.factorization(t_frozen).faces
            diss += 2.0 * config.dt * face_energy(diffs, g, faces)
            record(n + 1, t0 + (n + 1) * config.dt, U_new, diffs)

    parallel.run_shards(
        run_shard, shards,
        lambda rows: f"simulate shard of members {rows.start}..{rows.stop - 1}",
        lockstep=True)
    for s in streams[shards[0].stop:]:  # each child drew once per step
        s.counter += steps * spec.modes

    U = states[steps % 2]
    members = [ScalarField(g, U[i].reshape(g.shape)) for i in range(size)]
    final = Ensemble(members=members, noise=spec,
                     time=t0 + steps * config.dt, streams=streams)
    EnergyLedger(table).validate()
    return final, [EnergyLedger(table[:, i]) for i in range(size)]


# ---------------------------------------------------------------------------
# path increment scaling


@dataclass(frozen=True)
class IncrementFit:
    """Least-squares slope of log mean-square increments against log lag."""

    slope: float
    intercept: float
    lags: np.ndarray
    mean_square: np.ndarray
    degenerate: bool = False


def increment_scaling(trajectories: np.ndarray, grid: GridSpec,
                      lags, dt: float) -> IncrementFit:
    """Fit the temporal scaling exponent of path increments.

    Args:
        trajectories: array (paths, steps+1, dof...) of stored states.
        grid: the spatial grid of the states.
        lags: integer step lags; at least four, spanning a decade.
        dt: step size.

    The increment size is measured in the spectral H^-1 proxy norm and
    averaged over paths and over all start times at each lag. A zero path
    (all increments vanishing) yields the degenerate flag instead of a
    slope.
    """
    lags = np.asarray(sorted(int(l) for l in lags), dtype=int)
    if lags.size < 4:
        raise ValueError("need at least four lags")
    if lags[0] < 1:
        raise ValueError("lags must be positive")
    if lags[-1] < 10 * lags[0]:
        raise ValueError("lags must span at least a decade")
    traj = np.asarray(trajectories, dtype=float)
    paths = traj.reshape(traj.shape[0], traj.shape[1], -1)
    steps = paths.shape[1] - 1
    if lags[-1] > steps:
        raise ValueError("largest lag exceeds the trajectory length")

    # H^-1 proxy of increments, batched through the sine transform
    w = sine_weights_Hminus1(grid).reshape(-1)
    coeffs = sine_coefficients(paths.reshape(paths.shape[:2] + grid.shape),
                               grid).reshape(paths.shape)

    msd = np.empty(lags.size)
    for j, lag in enumerate(lags):
        d = coeffs[:, lag:, :] - coeffs[:, :-lag, :]
        msd[j] = np.mean(np.sum(w * d * d, axis=-1))
    if np.any(msd <= 0.0):
        return IncrementFit(slope=float("nan"), intercept=float("nan"),
                            lags=lags, mean_square=msd, degenerate=True)
    x = np.log(lags * dt)
    y = np.log(msd)
    slope, intercept = np.polyfit(x, y, 1)
    return IncrementFit(slope=float(slope), intercept=float(intercept),
                        lags=lags, mean_square=msd, degenerate=False)
