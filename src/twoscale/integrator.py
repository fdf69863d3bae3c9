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

Batched engine: members (and, in coupled studies, whole replica blocks)
advance as one (paths, dof) array per level, so the per-step cost is a few
vectorized array passes plus, in 1D, one LAPACK ``pttrs`` solve of the
whole stack against the LDL^T factor from ``pttrf``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dstn

from .ensemble import Ensemble
from .errors import NonFinite, StepRejected
from .grid import (GridSpec, ScalarField, gradient_energy,
                   sine_weights_Hminus1)
from .models import (
    EmpiricalMeasure,
    ImplicitFactorization,
    ModelSpec,
    apply_B,
    apply_F,
    apply_G_increment,
    face_coefficients,
)
from .noise import NoiseStream, QWienerSpec

__all__ = [
    "StepperConfig",
    "EnergyLedger",
    "BatchedStepper",
    "step",
    "run_ensemble",
    "increment_scaling",
    "IncrementFit",
]

GUARD_LIMIT = 0.5

LEDGER_COLUMNS = ("step", "t", "H2", "Hp", "V2", "L4",
                  "cumulative_dissipation")


@dataclass(frozen=True)
class StepperConfig:
    """Time-stepping parameters.

    horizon / dt must be integral (to round-off); moment_p >= 2 selects the
    higher moment tracked by the ledgers.
    """

    dt: float
    horizon: float
    tol: float = 1e-8
    max_steps: int | None = None
    moment_p: int = 2

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        ratio = self.horizon / self.dt
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ValueError(
                f"horizon {self.horizon} is not an integer number of steps "
                f"of dt {self.dt}")
        if self.moment_p < 2:
            raise ValueError("moment_p must be >= 2")

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass
class EnergyLedger:
    """Per-step energy records for one member path.

    Columns: step index, time, ||u||_H^2, ||u||_H^p, ||u||_V^2,
    ||u||_L4^4, and the running dissipation sum 2 dt (A u^{m}, u^{m})
    accumulated over completed steps. Signed drift and noise work totals
    are tracked alongside for the energy balance diagnostics.
    """

    moment_p: int = 2
    steps: list[int] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    H2: list[float] = field(default_factory=list)
    Hp: list[float] = field(default_factory=list)
    V2: list[float] = field(default_factory=list)
    L4: list[float] = field(default_factory=list)
    cumulative_dissipation: list[float] = field(default_factory=list)
    drift_work: float = 0.0
    noise_work: float = 0.0

    def append(self, step_index: int, t: float, h2: float, v2: float,
               l4: float, dissipation_total: float) -> None:
        h2 = float(h2)
        self.steps.append(int(step_index))
        self.times.append(float(t))
        self.H2.append(h2)
        self.Hp.append(h2 ** (self.moment_p / 2.0))
        self.V2.append(float(v2))
        self.L4.append(float(l4))
        self.cumulative_dissipation.append(float(dissipation_total))

    def validate(self) -> None:
        cols = [self.H2, self.Hp, self.V2, self.L4,
                self.cumulative_dissipation]
        for col in cols:
            arr = np.asarray(col)
            if not np.all(np.isfinite(arr)):
                raise NonFinite("ledger contains non-finite entries")
        diss = np.asarray(self.cumulative_dissipation)
        if diss.size and np.any(np.diff(diss) < -1e-12):
            raise ValueError("cumulative dissipation must be nondecreasing")

    def to_csv(self, path) -> None:
        self.validate()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(LEDGER_COLUMNS) + "\n")
            for i in range(len(self.steps)):
                row = (self.steps[i], self.times[i], self.H2[i], self.Hp[i],
                       self.V2[i], self.L4[i],
                       self.cumulative_dissipation[i])
                fh.write(",".join(repr(v) for v in row) + "\n")


def _reaction_bound(max_abs: float, model: ModelSpec) -> float:
    bound = 0.0
    if model.cubic:
        bound += 3.0 * max_abs ** 2 + 1.0
    if model.mean_field == "stokes_drag":
        bound += 1.0
    return bound


def check_guard(max_abs: float, model: ModelSpec, dt: float, h: float,
                step_index: int | None = None) -> float:
    """Evaluate the stability guard; raise :class:`StepRejected` beyond 1/2."""
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
        sig = model.sigma0 / np.arange(1, spec.modes + 1, dtype=float)
        self._g_weights = np.sqrt(spec.eigenvalues * self.dt) * sig
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
        """Drift F(U) and noise increment G(U) dW for every path.

        Args:
            U: state stack (paths, dof).
            xi: mode draws (paths, K).
        """
        model = self.model
        drift = np.zeros_like(U)
        if model.mean_field == "stokes_drag":
            groups = U.reshape(-1, self.members, U.shape[-1])
            means = groups.mean(axis=1, keepdims=True)
            drift += U - np.broadcast_to(means, groups.shape).reshape(U.shape)
        if model.cubic:
            drift += U - U * U * U
        if model.noise_law == "scalar_multiplicative":
            amp = xi @ self._g_weights
            noise = amp[:, None] * U
        else:
            fields = (xi * self._g_weights) @ self.spec.basis
            noise = U * fields
        return drift, noise

    def advance(self, U: np.ndarray, xi: np.ndarray, t: float,
                step_index: int,
                terms: tuple[np.ndarray, np.ndarray] | None = None,
                ) -> np.ndarray:
        """One semi-implicit step of the whole stack.

        Args:
            U: state stack (paths, dof).
            xi: mode draws (paths, K) shared with any coupled levels.
            t: current time (coefficient frozen here).
            step_index: for diagnostics.
            terms: ``explicit_terms(U, xi)`` when the caller has it
                already; evaluated here otherwise.
        """
        max_abs = float(np.max(np.abs(U))) if U.size else 0.0
        check_guard(max_abs, self.model, self.dt, self.grid.h, step_index)
        drift, noise = self.explicit_terms(U, xi) if terms is None else terms
        rhs = U + self.dt * drift + noise
        if not np.all(np.isfinite(rhs)):
            bad = np.where(~np.all(np.isfinite(rhs), axis=-1))[0]
            raise NonFinite(
                f"non-finite explicit update at step {step_index} "
                f"(t={t:.6g}) in path(s) {bad[:4].tolist()}",
                step=step_index, time=t,
                member=int(bad[0]) if bad.size else None)
        out = self.factorization(t).solve_batch(rhs, tol=self.tol)
        if not np.all(np.isfinite(out)):
            bad = np.where(~np.all(np.isfinite(out), axis=-1))[0]
            raise NonFinite(
                f"non-finite state after step {step_index} (t={t:.6g}) "
                f"in path(s) {bad[:4].tolist()}",
                step=step_index, time=t,
                member=int(bad[0]) if bad.size else None)
        return out

    # -- energy bookkeeping ---------------------------------------------------

    def energy_rows(self, U: np.ndarray, t_next: float) -> dict[str, np.ndarray]:
        """Instantaneous energy functionals for every path in the stack."""
        g = self.grid
        hN = g.h ** g.dimension
        U2 = U * U
        h2 = hN * np.sum(U2, axis=-1)
        v2 = gradient_energy(U.reshape((-1,) + g.shape), g)
        l4 = hN * np.sum(U2 * U2, axis=-1)
        return {"t": t_next, "H2": h2, "V2": v2, "L4": l4}


def step(u: ScalarField, model: ModelSpec, measure: EmpiricalMeasure | None,
         stream: NoiseStream, dt: float, t: float,
         tol: float = 1e-8) -> ScalarField:
    """One semi-implicit step of a single scalar path (reference version).

    The batched engine is the production path; this form exists for
    single-path studies and as the executable definition the batched code
    is tested against.
    """
    spec = stream.spec
    check_guard(float(np.max(np.abs(u.values))), model, dt, u.grid.h)
    drift = apply_F(u, measure, model) if (
        model.mean_field == "stokes_drag" or model.cubic) \
        else ScalarField.zeros(u.grid)
    xi = stream.draw()
    noise = apply_G_increment(u, xi, dt, model, spec)
    rhs = ScalarField(u.grid, u.values + dt * drift.values + noise.values)
    from .models import solve_implicit

    out = solve_implicit(rhs, model.coefficient, model.epsilon, t, dt, tol)
    if not np.all(np.isfinite(out.values)):
        raise NonFinite(f"non-finite state at t={t:.6g}", time=t)
    return out


def step_velocity(u, model: ModelSpec, measure, streams, dt: float, t: float,
                  tol: float = 1e-8):
    """One semi-implicit step of the 2D velocity variant.

    Advection enters explicitly through the skew-symmetrized projected
    form; each component then goes through the scalar implicit solve with
    its own noise draw.
    """
    from .grid import VectorField
    from .models import solve_implicit

    g = u.grid
    max_abs = max(float(np.max(np.abs(c.values))) for c in u.components)
    check_guard(max_abs, model, dt, g.h)
    b = apply_B(u, u)
    comps = []
    for m, comp in enumerate(u.components):
        drift = np.zeros(g.shape)
        if model.mean_field == "stokes_drag":
            drift += comp.values - measure[m].mean.values
        if model.cubic:
            drift += comp.values - comp.values * comp.values * comp.values
        drift -= b[m].values
        xi = streams[m].draw()
        noise = apply_G_increment(comp, xi, dt, model, streams[m].spec)
        rhs = ScalarField(g, comp.values + dt * drift + noise.values)
        comps.append(solve_implicit(rhs, model.coefficient, model.epsilon,
                                    t, dt, tol))
    return VectorField(comps)


def run_ensemble(ensemble: Ensemble, model: ModelSpec, config: StepperConfig,
                 ) -> tuple[Ensemble, list[EnergyLedger]]:
    """Advance every member to the horizon with per-step measure refresh.

    Returns the final ensemble and one energy ledger per member. The
    empirical measure entering the drag is recomputed from the current
    members at the top of every step.
    """
    g = ensemble.grid
    spec = ensemble.noise
    stepper = BatchedStepper(g, model, spec, members=ensemble.size,
                             dt=config.dt, tol=config.tol)
    U = np.stack([m.values.reshape(-1) for m in ensemble.members])
    ledgers = [EnergyLedger(moment_p=config.moment_p)
               for _ in range(ensemble.size)]
    diss = np.zeros(ensemble.size)
    rows = stepper.energy_rows(U, ensemble.time)
    for i, led in enumerate(ledgers):
        led.append(0, ensemble.time, rows["H2"][i], rows["V2"][i],
                   rows["L4"][i], diss[i])

    steps = config.steps
    if config.max_steps is not None:
        steps = min(steps, config.max_steps)
    t = ensemble.time
    hN = g.h ** g.dimension
    for n in range(steps):
        xi = np.stack([s.draw() for s in ensemble.streams])
        t_frozen = t
        drift, noise = stepper.explicit_terms(U, xi)
        U_new = stepper.advance(U, xi, t_frozen, n, (drift, noise))
        t = ensemble.time + (n + 1) * config.dt
        # dissipation pairs the new state with the faces of the implicit
        # solve (frozen at t_n), so the energy identity is exact
        faces = stepper.factorization(t_frozen).faces
        diss += 2.0 * config.dt * gradient_energy(
            U_new.reshape((-1,) + g.shape), g, faces)
        rows = stepper.energy_rows(U_new, t)
        # signed work pairings against the pre-step state
        work_drift = config.dt * hN * np.sum(drift * U, axis=-1)
        work_noise = hN * np.sum(noise * U, axis=-1)
        for i, led in enumerate(ledgers):
            led.append(n + 1, t, rows["H2"][i], rows["V2"][i],
                       rows["L4"][i], diss[i])
            led.drift_work += work_drift[i]
            led.noise_work += work_noise[i]
        U = U_new

    members = [ScalarField(g, U[i].reshape(g.shape))
               for i in range(ensemble.size)]
    final = Ensemble(members=members, noise=spec, time=t,
                     common_noise=ensemble.common_noise,
                     level=ensemble.level, streams=ensemble.streams)
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
