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
so the per-step cost is a few vectorized array passes plus, in 1D, one
LAPACK ``pttrs`` solve of the whole stack against the LDL^T factor from
``pttrf``. ``run_ensemble`` records every member's energy ledger into one
(steps+1, members, columns) array.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dstn

from .ensemble import Ensemble
from .errors import NonFinite, StepRejected, ValidationError
from .grid import (GridSpec, ScalarField, face_energy, sine_weights_Hminus1,
                   stack_face_differences)
from .models import ImplicitFactorization, ModelSpec, face_coefficients
from .noise import QWienerSpec

__all__ = [
    "StepperConfig",
    "EnergyLedger",
    "BatchedStepper",
    "run_ensemble",
    "increment_scaling",
    "IncrementFit",
]

GUARD_LIMIT = 0.5

LEDGER_COLUMNS = ("step", "t", "H2", "Hp", "V2", "L4",
                  "cumulative_dissipation")


@dataclass(frozen=True)
class StepperConfig:
    """Time-stepping parameters; horizon / dt must be integral (to round-off).

    ``tol`` is the relative residual of the 2D implicit CG solve; the 1D
    implicit solve is a direct LAPACK ``pttrf``/``pttrs`` solve and does
    not read it.
    """

    dt: float
    horizon: float
    tol: float = 1e-8

    def __post_init__(self):
        if not self.dt > 0:
            raise ValidationError("dt must be positive", field="dt")
        if not self.horizon > 0:
            raise ValidationError("horizon must be positive", field="horizon")
        if not self.tol > 0:
            raise ValidationError("tol must be positive", field="tol")
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
    Columns read by name (``ledger.H2``) are views too. Signed drift and
    noise work totals are kept for the energy balance diagnostics.
    """

    table: np.ndarray
    drift_work: float = 0.0
    noise_work: float = 0.0

    def __getattr__(self, name: str) -> np.ndarray:
        if name in LEDGER_COLUMNS:
            return self.table[:, LEDGER_COLUMNS.index(name)]
        raise AttributeError(name)

    def validate(self) -> None:
        if not np.all(np.isfinite(self.table[:, 2:])):
            raise NonFinite("ledger contains non-finite entries")
        if np.any(np.diff(self.cumulative_dissipation) < -1e-12):
            raise ValueError("cumulative dissipation must be nondecreasing")

    def to_csv(self, path) -> None:
        """Write the header and every row in one formatted pass.

        The step column prints as an integer and every other value as
        ``repr`` of the float, which reads back bitwise.
        """
        self.validate()
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


class BatchedStepper:
    """Advances a stack of scalar member paths under one model.

    The stack has shape (paths, dof) and is grouped into replicas of
    ``members`` consecutive paths; the drag couples members within each
    replica only. The implicit factorization is cached and rebuilt only
    when the coefficient actually depends on the fast time.
    """

    def __init__(self, grid: GridSpec, model: ModelSpec, spec: QWienerSpec,
                 members: int, dt: float, tol: float = 1e-8,
                 homogenized_tensor: np.ndarray | None = None):
        self.grid = grid
        self.model = model
        self.spec = spec
        self.members = members
        self.dt = float(dt)
        self.tol = float(tol)
        self.tensor = homogenized_tensor
        self._g_weights = (np.sqrt(spec.eigenvalues * self.dt)
                           * model.mode_sigmas(spec.modes))
        if model.noise_law == "mode_modulated":  # built before a ladder forks
            self._g_basis = spec.basis
        self._fac: ImplicitFactorization | None = None
        self._fac_time: float | None = None

    # -- operator cache -----------------------------------------------------

    def factorization(self, t: float) -> ImplicitFactorization:
        time_dependent = (self.tensor is None
                          and self.model.coefficient.time_dependent)
        if self._fac is None or (time_dependent and self._fac_time != t):
            if self.tensor is not None:
                self._fac = ImplicitFactorization(
                    self.grid, None, self.dt, tensor=self.tensor)
            else:
                faces = face_coefficients(self.model.coefficient, self.grid,
                                          self.model.epsilon, t)
                self._fac = ImplicitFactorization(self.grid, faces, self.dt)
            self._fac_time = t
        return self._fac

    # -- one step over the whole stack ---------------------------------------

    def explicit_terms(self, U: np.ndarray,
                       xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Drift F(U, mu) and noise increment G(U) dW for every path.

        mu is the empirical law of each replica's ``members`` paths. The
        drag adds U - mean: it pushes each member away from its replica
        mean (u = 1 against a mean of 2 gives -1), it does not pull toward
        it. The optional cubic adds U - U^3. The noise is
        (sum_k sqrt(lambda_k dt) sigma_k xi_k) U for the scalar law and
        U * sum_k sqrt(lambda_k dt) sigma_k xi_k e_k for the mode-modulated
        one.

        Args:
            U: state stack (paths, dof).
            xi: mode draws (paths, K).
        """
        model = self.model
        drift = np.zeros_like(U)
        if model.mean_field == "stokes_drag":
            groups = U.reshape(-1, self.members, U.shape[-1])
            np.subtract(groups, groups.mean(axis=1, keepdims=True),
                        out=drift.reshape(groups.shape))
        if model.cubic:
            cubic = U * U
            cubic *= U
            drift += np.subtract(U, cubic, out=cubic)
        if model.noise_law == "scalar_multiplicative":
            noise = (xi @ self._g_weights)[:, None] * U
        else:
            noise = (xi * self._g_weights) @ self._g_basis
            noise *= U
        return drift, noise

    def advance(self, U: np.ndarray, xi: np.ndarray, t: float,
                step_index: int,
                terms: tuple[np.ndarray, np.ndarray] | None = None,
                first_row: int = 0) -> np.ndarray:
        """One semi-implicit step of the whole stack.

        The right-hand side U + dt drift + noise is checked for finite
        values once, by the solve; a finite right-hand side and a finite
        positive definite operator give a finite state, and the guard of
        the next step checks it again.

        Args:
            U: state stack (paths, dof).
            xi: mode draws (paths, K) shared with any coupled levels.
            t: current time (coefficient frozen here).
            step_index: for diagnostics.
            terms: ``explicit_terms(U, xi)`` when the caller has it
                already; evaluated here otherwise.
            first_row: index of U's first row among all paths, added to
                the paths a :class:`NonFinite` names.
        """
        max_abs = float(np.max(np.abs(U))) if U.size else 0.0
        check_guard(max_abs, self.model, self.dt, self.grid.h, step_index)
        drift, noise = self.explicit_terms(U, xi) if terms is None else terms
        rhs = self.dt * drift
        rhs += U
        rhs += noise
        fac = self.factorization(t)
        try:
            return fac.solve_batch(rhs, tol=self.tol)
        except NonFinite:
            bad = np.where(~np.all(np.isfinite(rhs), axis=-1))[0] \
                + first_row
            raise NonFinite(
                f"non-finite explicit update at step {step_index} "
                f"(t={t:.6g}) in path(s) {bad[:4].tolist()}",
                step=step_index, time=t,
                member=int(bad[0]) if bad.size else None) from None

    # -- energy bookkeeping ---------------------------------------------------

    def energy_rows(self, U: np.ndarray, t_next: float,
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
        return {"t": t_next, "H2": h2, "V2": v2, "L4": l4}


def run_ensemble(ensemble: Ensemble, model: ModelSpec, config: StepperConfig,
                 ) -> tuple[Ensemble, list[EnergyLedger]]:
    """Advance every member to the horizon with per-step measure refresh.

    Returns the final ensemble and one energy ledger per member, each a
    view into one (steps+1, members, columns) table. The empirical measure
    entering the drag is recomputed from the current members at the top of
    every step.
    """
    g = ensemble.grid
    spec = ensemble.noise
    stepper = BatchedStepper(g, model, spec, members=ensemble.size,
                             dt=config.dt, tol=config.tol)
    U = np.stack([m.values.reshape(-1) for m in ensemble.members])
    steps = config.steps
    table = np.empty((steps + 1, ensemble.size, len(LEDGER_COLUMNS)))
    table[:, :, 0] = np.arange(steps + 1)[:, None]
    diss = np.zeros(ensemble.size)
    drift_work = np.zeros(ensemble.size)
    noise_work = np.zeros(ensemble.size)

    def record(n: int, t: float, U: np.ndarray, diffs=None) -> None:
        rows = stepper.energy_rows(U, t, diffs)
        table[n, :, 1] = t
        table[n, :, 2] = table[n, :, 3] = rows["H2"]
        table[n, :, 4] = rows["V2"]
        table[n, :, 5] = rows["L4"]
        table[n, :, 6] = diss

    t = ensemble.time
    record(0, t, U)
    hN = g.h ** g.dimension
    for n in range(steps):
        xi = np.stack([s.draw() for s in ensemble.streams])
        t_frozen = t
        drift, noise = stepper.explicit_terms(U, xi)
        U_new = stepper.advance(U, xi, t_frozen, n, (drift, noise))
        t = ensemble.time + (n + 1) * config.dt
        # dissipation pairs the new state with the faces of the implicit
        # solve (frozen at t_n), so the energy identity is exact; the V2
        # energy reuses the same face differences
        diffs = stack_face_differences(U_new, g)
        faces = stepper.factorization(t_frozen).faces
        diss += 2.0 * config.dt * face_energy(diffs, g, faces)
        # signed work pairings against the pre-step state
        drift_work += config.dt * hN * np.sum(drift * U, axis=-1)
        noise_work += hN * np.sum(noise * U, axis=-1)
        record(n + 1, t, U_new, diffs)
        U = U_new

    members = [ScalarField(g, U[i].reshape(g.shape))
               for i in range(ensemble.size)]
    final = Ensemble(members=members, noise=spec, time=t,
                     common_noise=ensemble.common_noise,
                     level=ensemble.level, streams=ensemble.streams)
    ledgers = [EnergyLedger(table[:, i], float(drift_work[i]),
                            float(noise_work[i]))
               for i in range(ensemble.size)]
    for led in ledgers:
        led.validate()
    return final, ledgers


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
    scale = (grid.h / np.sqrt(2.0)) ** grid.dimension
    shaped = paths.reshape(paths.shape[0], paths.shape[1], *grid.shape)
    axes = tuple(range(2, 2 + grid.dimension))
    coeffs = scale * dstn(shaped, type=1, axes=axes)
    coeffs = coeffs.reshape(paths.shape[0], paths.shape[1], -1)

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
