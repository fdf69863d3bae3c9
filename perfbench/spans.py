"""Spans around the public calls into each layer, and the per-layer metrics.

Tracing wraps functions and methods from outside the toolkit: a function
imported by name is replaced in the module that imported it, a method on its
class. ``installed`` puts the wrappers in place and restores the originals on
exit, so a traced run never leaves wrappers behind. Spans are kept in memory
as (name, start, end, parent) and reduced when the run ends.

A span's own time is its duration minus the part of it that its child spans
cover. A metric ending in ``.s`` is the full duration of a span that has no
traced children; one ending in ``.self_s`` is an own time. Together with the
own time of the root span they add up to the traced run time.
"""
from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

ROOT_SPAN = "bench.run"

# (name, unit) of every per-layer metric, in the order they are printed
LAYER_METRICS = (
    ("noise.draw.calls", "count"),
    ("noise.draw.s", "s"),
    ("noise.philox_builds", "count"),
    ("models.solve_batch.calls", "count"),
    ("models.solve_batch.s", "s"),
    ("models.solve_batch.gbps_computed", "GB/s"),
    ("models.factor.calls", "count"),
    ("models.factor.s", "s"),
    ("models.solves_per_factor", "solves/factor"),
    ("models.face_coefficients.calls", "count"),
    ("models.face_coefficients.s", "s"),
    ("integrator.advance.calls", "count"),
    ("integrator.advance.self_s", "s"),
    ("integrator.energy_rows.s", "s"),
    ("integrator.run_ensemble.self_s", "s"),
    ("integrator.ledger_csv.s", "s"),
    ("cell.solve_cell_problem.s", "s"),
    ("cell.cg_iters", "count"),
    ("cell.corrector_slopes.s", "s"),
    ("diagnostics.run_ladder.self_s", "s"),
    ("diagnostics.reduce_raw.s", "s"),
    ("cli.main.self_s", "s"),
    ("manifest.write_manifest.s", "s"),
    ("bench.run.self_s", "s"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
)

# counts that must repeat exactly from one traced run to the next
EXACT_COUNTS = ("noise.draw.calls", "noise.philox_builds",
                "models.factor.calls", "models.solve_batch.calls",
                "cell.cg_iters")

# the time metrics whose sum is the traced run time
ATTRIBUTED = tuple(name for name, unit in LAYER_METRICS
                   if unit == "s" and not name.startswith("trace."))


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()


def _covered(intervals: list[tuple[float, float]], start: float,
             end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def summarize(spans: list[list]) -> dict[str, tuple[int, float, float]]:
    """Per span name: (calls, total duration, own time)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, tuple[int, float, float]] = {}
    for index, (name, start, end, _) in enumerate(spans):
        own = (end - start) - _covered(children.get(index, []), start, end)
        calls, total, own_sum = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + (end - start), own_sum + own)
    return out


# ---------------------------------------------------------------------------
# what gets wrapped


def _solve_bytes(tracer: Tracer, args, result) -> None:
    """Computed bytes of a 1D tridiagonal solve: rhs, result and factor."""
    fac, rhs = args[0], args[1]
    if fac.grid.dimension == 1:
        factor = 2 * fac.grid.dof * 8  # diagonal and off-diagonal, float64
        tracer.counts["models.solve_batch.bytes"] += (
            rhs.nbytes + result.nbytes + factor)


def _cell_iterations(tracer: Tracer, args, result) -> None:
    tracer.counts["cell.cg_iters"] += int(result.iterations.sum())


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: a span around it, or only a call count."""

    owner: object
    attr: str
    span: str | None = None
    count: str | None = None
    after: object = None  # hook(tracer, args, result) run after the call


def targets() -> list[Target]:
    from twoscale import cli, diagnostics, integrator, models, noise

    return [
        Target(noise.NoiseStream, "draw", span="noise.draw"),
        Target(noise, "Philox", count="noise.philox_builds"),
        Target(models.ImplicitFactorization, "__init__",
               span="models.factor"),
        Target(models.ImplicitFactorization, "solve_batch",
               span="models.solve_batch", after=_solve_bytes),
        Target(integrator, "face_coefficients",
               span="models.face_coefficients"),
        Target(integrator.BatchedStepper, "advance",
               span="integrator.advance"),
        Target(integrator.BatchedStepper, "energy_rows",
               span="integrator.energy_rows"),
        Target(integrator.EnergyLedger, "to_csv",
               span="integrator.ledger_csv"),
        Target(cli, "run_ensemble", span="integrator.run_ensemble"),
        Target(diagnostics, "solve_cell_problem",
               span="cell.solve_cell_problem", after=_cell_iterations),
        Target(diagnostics, "corrector_slopes", span="cell.corrector_slopes"),
        Target(diagnostics, "run_ladder", span="diagnostics.run_ladder"),
        Target(cli, "run_ladder", span="diagnostics.run_ladder"),
        Target(diagnostics, "reduce_raw", span="diagnostics.reduce_raw"),
        Target(cli, "main", span="cli.main"),
        Target(cli, "write_manifest", span="manifest.write_manifest"),
    ]


def _wrap(tracer: Tracer, target: Target, fn):
    if target.span is None:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[target.count] += 1
            return fn(*args, **kwargs)
        return counted

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(target.span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if target.after is not None:
            target.after(tracer, args, result)
        return result
    return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore."""
    originals = []
    try:
        for target in targets():
            fn = vars(target.owner)[target.attr]
            originals.append((target.owner, target.attr, fn))
            setattr(target.owner, target.attr, _wrap(tracer, target, fn))
        yield tracer
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# metrics of one traced run


def run_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the run recorded under the root span.

    ``trace.overhead_s`` needs the untraced run time and is filled in by
    the caller.
    """
    spans = summarize(tracer.spans)

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    solve_s = total("models.solve_batch")
    solve_bytes = tracer.counts["models.solve_batch.bytes"]
    factors = calls("models.factor")
    return {
        "noise.draw.calls": calls("noise.draw"),
        "noise.draw.s": total("noise.draw"),
        "noise.philox_builds": tracer.counts["noise.philox_builds"],
        "models.solve_batch.calls": calls("models.solve_batch"),
        "models.solve_batch.s": solve_s,
        "models.solve_batch.gbps_computed":
            solve_bytes / solve_s / 1e9 if solve_bytes else 0.0,
        "models.factor.calls": factors,
        "models.factor.s": total("models.factor"),
        "models.solves_per_factor":
            calls("models.solve_batch") / factors if factors else 0.0,
        "models.face_coefficients.calls": calls("models.face_coefficients"),
        "models.face_coefficients.s": total("models.face_coefficients"),
        "integrator.advance.calls": calls("integrator.advance"),
        "integrator.advance.self_s": own("integrator.advance"),
        "integrator.energy_rows.s": total("integrator.energy_rows"),
        "integrator.run_ensemble.self_s": own("integrator.run_ensemble"),
        "integrator.ledger_csv.s": total("integrator.ledger_csv"),
        "cell.solve_cell_problem.s": total("cell.solve_cell_problem"),
        "cell.cg_iters": tracer.counts["cell.cg_iters"],
        "cell.corrector_slopes.s": total("cell.corrector_slopes"),
        "diagnostics.run_ladder.self_s": own("diagnostics.run_ladder"),
        "diagnostics.reduce_raw.s": total("diagnostics.reduce_raw"),
        "cli.main.self_s": own("cli.main"),
        "manifest.write_manifest.s": total("manifest.write_manifest"),
        "bench.run.self_s": own(ROOT_SPAN),
        "trace.run_s": total(ROOT_SPAN),
    }


def attribution_gap(metrics: dict[str, float]) -> float:
    """Traced run time minus the sum of the attributed time metrics."""
    return metrics["trace.run_s"] - sum(metrics[name] for name in ATTRIBUTED)
