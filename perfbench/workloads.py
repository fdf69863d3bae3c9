"""Benchmark workloads: what one run executes and how its outputs are checked.

Each workload is a frozen description of its inputs. ``setup(seed)`` builds a
session (imports, configuration objects, work directory); ``session.run()``
is the timed part, one complete run through the public API or CLI; and
``session.inspect(handle)`` turns the run's outputs into an :class:`Outcome`
outside the timed region.

Inputs depend only on the workload description and the seed, so the same
seed gives the same inputs. At ``REFERENCE_SEED`` the result vector is also
compared with ``reference.json``, stored from the unmodified toolkit.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = HERE / "_work"
REFERENCE_FILE = HERE / "reference.json"
REFERENCE_SEED = 2026

sys.path.insert(0, str(SRC))
import twoscale  # noqa: E402
from twoscale import cli, diagnostics  # noqa: E402
from twoscale.coefficients import make_coefficient  # noqa: E402
from twoscale.config import parse_config  # noqa: E402
from twoscale.grid import GridSpec  # noqa: E402
from twoscale.integrator import StepperConfig  # noqa: E402

if not Path(twoscale.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"twoscale was imported from {twoscale.__file__}, "
                      f"not from {SRC}")


@dataclass
class Outcome:
    """What the checks need from one run.

    values: named result vectors, compared with the stored reference.
    digest: sha256 over every output of the run; repeated runs in one
        process must reproduce it bitwise.
    problems: failed checks; a run with any problem counts as failed.
    """

    values: dict[str, list[float]]
    digest: str
    problems: list[str] = field(default_factory=list)


def _import_lazy_solvers() -> None:
    """The 1D solver imports these inside functions; count them as set-up."""
    from scipy.linalg import cho_solve_banded, cholesky_banded  # noqa: F401


def _finite_problems(values: dict[str, list[float]]) -> list[str]:
    return [f"{k} is not finite" for k, v in values.items()
            if not np.all(np.isfinite(v))]


def _decreasing_problems(errors: list[float]) -> list[str]:
    if all(a > b for a, b in zip(errors, errors[1:])):
        return []
    return [f"ladder errors do not strictly decrease with eps: {errors}"]


# ---------------------------------------------------------------------------
# ladders through diagnostics.run_ladder


@dataclass(frozen=True)
class Ladder:
    """A coupled resolution ladder run through ``diagnostics.run_ladder``.

    ``rtol`` bounds the reference comparison relative to the largest entry
    of each result vector: a reordering of floating-point work moves the
    outputs far less, any change of model, noise or solver far more.
    """

    name: str
    dimension: int
    cells: int
    family: str
    coefficient: tuple[tuple[str, float], ...]
    epsilons: tuple[float, ...]
    dt: float
    steps: int
    members: int
    replicas: int
    rtol: float
    noise_law: str = "scalar_multiplicative"
    sigma0: float = 0.1
    cell_cells: int = 256

    def setup(self, seed: int) -> "LadderSession":
        _import_lazy_solvers()
        coeff = make_coefficient(self.family, self.dimension,
                                 **dict(self.coefficient))
        config = diagnostics.StudyConfig(
            coefficient=coeff, grid=GridSpec(self.dimension, self.cells),
            epsilons=self.epsilons,
            stepper=StepperConfig(dt=self.dt, horizon=self.steps * self.dt),
            members=self.members, replicas=self.replicas,
            noise_law=self.noise_law, sigma0=self.sigma0,
            cell_cells=self.cell_cells, seed=seed)
        return LadderSession(config)


class LadderSession:
    def __init__(self, config):
        self.config = config

    def run(self):
        # looked up at call time so that tracing wrappers apply
        return diagnostics.run_ladder(self.config)

    def inspect(self, result) -> Outcome:
        report = result.report
        values = {
            "errors": report.errors,
            "plain_gradient": report.plain_gradient,
            "corrected_gradient": report.corrected_gradient,
            "pairings": report.pairings,
            "energy_functional": report.energy_functional,
            "a_tilde": np.ravel(report.a_tilde).tolist(),
        }
        digest = hashlib.sha256(report.to_json().encode())
        for key in sorted(result.raw):
            digest.update(np.ascontiguousarray(result.raw[key]).tobytes())
        problems = _finite_problems(values) + _decreasing_problems(
            report.errors)
        return Outcome(values, digest.hexdigest(), problems)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# the simulate subcommand through cli.main


@dataclass(frozen=True)
class Simulate:
    """``twoscale simulate`` run in-process through ``cli.main``."""

    name: str
    cells: int
    members: int
    dt: float
    steps: int
    rtol: float

    def ini(self, seed: int) -> str:
        return "\n".join([
            "[grid]", f"cells = {self.cells}",
            "[coefficient]", "family = separable_trig",
            "[model]", "noise_law = mode_modulated", "sigma0 = 0.5",
            "[stepper]", f"dt = {self.dt!r}",
            f"horizon = {self.steps * self.dt!r}",
            "[ensemble]", f"members = {self.members}",
            "[study]", "initial_mode = 3",
            "[run]", f"seed = {seed}", ""])

    def setup(self, seed: int) -> "SimulateSession":
        _import_lazy_solvers()
        text = self.ini(seed)
        config = parse_config(text)
        WORK_DIR.mkdir(exist_ok=True)
        return SimulateSession(config, text)


class SimulateSession:
    def __init__(self, config, text: str):
        self.config = config
        self.dir = Path(tempfile.mkdtemp(prefix="simulate-", dir=WORK_DIR))
        self.ini = self.dir / "simulate.ini"
        self.ini.write_text(text, encoding="utf-8")
        self.runs = 0

    def run(self):
        out = self.dir / f"run{self.runs}"
        self.runs += 1
        # cli.main prints the run directory; keep it off the result stream
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", "-c", str(self.ini), "-o", str(out)])
        return code, out

    def inspect(self, handle) -> Outcome:
        code, out = handle
        try:
            if code != 0:
                return Outcome({}, "", [f"simulate exited with code {code}"])
            manifest_bytes = (out / "manifest.json").read_bytes()
            listed = list(json.loads(manifest_bytes)["files"])
            missing = [name for name in listed + ["run_info.json"]
                       if not (out / name).is_file()]
            if missing:
                return Outcome({}, "", [f"manifest files missing: {missing}"])
            summary = json.loads((out / "simulate.json").read_text())
            states = np.load(out / "final_states.npy")
            grid = self.config.grid()
            h_norms = np.sqrt(grid.h ** grid.dimension
                              * np.sum(states.reshape(len(states), -1) ** 2,
                                       axis=-1))
            values = {"mean_H2": [summary["mean_H2"]],
                      "final_H_norm": h_norms.tolist()}
            digest = hashlib.sha256(manifest_bytes).hexdigest()
            return Outcome(values, digest, _finite_problems(values))
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# the workloads and their reference


WORKLOADS = {w.name: w for w in (
    # criterion-6 reference ladder with the horizon cut to 25 steps
    Ladder(name="ladder_1d", dimension=1, cells=1024, family="layered",
           coefficient=(("alpha", 2.0), ("beta", 1.0)),
           epsilons=(1 / 8, 1 / 16, 1 / 32), dt=1e-4, steps=25,
           members=8, replicas=32, rtol=1e-10),
    # one path: the 2D implicit solve rejects a (paths, dof) stack with more
    # than one path; the implicit and cell solves are CG with relative
    # tolerances 1e-8 and 1e-10, so the reference tolerance sits above them
    Ladder(name="ladder_2d", dimension=2, cells=128, family="checkerboard",
           coefficient=(("low", 1.0), ("high", 3.0), ("width", 0.05)),
           epsilons=(1 / 4, 1 / 8), dt=1e-3, steps=10, members=1,
           replicas=1, rtol=1e-6, noise_law="mode_modulated"),
    Simulate(name="simulate_1d", cells=1024, members=64, dt=1e-4,
             steps=100, rtol=1e-10),
)}


def params(workload) -> dict:
    """The workload's inputs as JSON, stored beside its reference."""
    return json.loads(json.dumps(dataclasses.asdict(workload)))


def reference_problems(workload, values: dict[str, list[float]]) -> list[str]:
    """Compare a reference-seed result vector with ``reference.json``."""
    stored = json.loads(REFERENCE_FILE.read_text()).get(workload.name)
    if stored is None or stored["params"] != params(workload):
        return [f"no stored reference for {workload.name} with these inputs"]
    problems = []
    for key, ref in stored["values"].items():
        ref = np.asarray(ref, dtype=float)
        got = np.asarray(values.get(key, []), dtype=float)
        if got.shape != ref.shape:
            problems.append(f"{key}: shape {got.shape} != {ref.shape}")
            continue
        tol = workload.rtol * np.max(np.abs(ref))
        worst = float(np.max(np.abs(got - ref)))
        if not worst <= tol:
            problems.append(f"{key}: differs from the reference by {worst:.3e}"
                            f" (tolerance {tol:.3e})")
    return problems
