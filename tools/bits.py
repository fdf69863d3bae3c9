"""Check that the working tree writes the same bits as an earlier commit.

    python tools/bits.py --against REV

extracts ``git archive REV`` into a temporary directory and runs
``RUN_SET`` through ``python -m twoscale.cli`` twice: with that tree's
``src`` and with this checkout's. Every child runs with
``OPENBLAS_NUM_THREADS=1`` and is pinned to 1, 2 and, where this process
may use three CPUs, 3 CPUs in turn, so the toolkit's forked shards see
that many usable CPUs. The ``report`` run re-renders the earlier tree's
archive in both trees, so it checks the report code alone.

For each output file, ``run_info.json`` aside (it holds wall clocks), it
prints ``identical`` or each of the file's arrays that differs, by name,
with its largest relative difference: the arrays of an npy or npz file,
the numbers of a JSON file by key, the columns of a CSV file. It exits 0
when every file is identical, 1 otherwise. Bits depend on the BLAS and the
library versions, so both trees run on one machine and no digest is
stored.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SKIPPED = {"run_info.json"}


@dataclass(frozen=True)
class Run:
    """One ``twoscale`` command: ``config`` maps INI sections to their
    keys. A ``report`` run re-renders a copy of the archive that the run
    named ``source`` wrote in the reference tree."""

    name: str
    command: str
    config: dict | None = None
    source: str | None = None

    def ini(self) -> str:
        lines = []
        for section, values in self.config.items():
            lines.append(f"[{section}]")
            lines += [f"{key} = {value}" for key, value in values.items()]
        return "\n".join(lines) + "\n"


def _stepper(dt: float, steps: int) -> dict:
    return {"dt": repr(dt), "horizon": repr(steps * dt)}


def _ladder_1d(seed: int) -> Run:
    """The acceptance reference ladder cut to 25 steps, as in the
    benchmark's ``ladder_1d``."""
    return Run(f"ladder_1d_seed{seed}", "ladder", {
        "grid": {"cells": 1024},
        "coefficient": {"family": "layered", "alpha": 2.0, "beta": 1.0},
        "stepper": _stepper(1e-4, 25),
        "ensemble": {"members": 8, "replicas": 32},
        "study": {"epsilons": "0.125, 0.0625, 0.03125", "cell_cells": 256},
        "run": {"seed": seed}})


def _ladder_2d(seed: int) -> Run:
    """A one-path 2D checkerboard ladder, as in ``ladder_2d``."""
    return Run(f"ladder_2d_seed{seed}", "ladder", {
        "grid": {"dimension": 2, "cells": 128},
        "coefficient": {"family": "checkerboard", "low": 1.0, "high": 3.0,
                        "width": 0.05},
        "model": {"noise_law": "mode_modulated"},
        "stepper": _stepper(1e-3, 10),
        "ensemble": {"members": 1, "replicas": 1},
        "study": {"epsilons": "0.25, 0.125", "cell_cells": 256},
        "run": {"seed": seed}})


RUN_SET = [
    _ladder_1d(2026), _ladder_1d(7), _ladder_2d(2026), _ladder_2d(7),
    # the benchmark's simulate_1d: refactored every step
    Run("simulate_1d", "simulate", {
        "grid": {"cells": 1024},
        "coefficient": {"family": "separable_trig"},
        "model": {"noise_law": "mode_modulated", "sigma0": 0.5},
        "stepper": _stepper(1e-4, 100),
        "ensemble": {"members": 64},
        "study": {"initial_mode": 3},
        "run": {"seed": 2026}}),
    # the drift without drag or cubic, which no other run reaches, under
    # the scalar noise law; at 2 CPUs, 65 members x 255 values fill each of
    # two shards
    Run("simulate_1d_linear", "simulate", {
        "grid": {"cells": 256},
        "model": {"mean_field": "none", "cubic": "false"},
        "stepper": _stepper(1e-3, 40),
        "ensemble": {"members": 130},
        "run": {"seed": 2026}}),
    Run("simulate_2d_constant", "simulate", {
        "grid": {"dimension": 2, "cells": 64},
        "coefficient": {"family": "constant"},
        "stepper": _stepper(1e-3, 10),
        "ensemble": {"members": 4},
        "run": {"seed": 2026}}),
    Run("cell_1d", "cell", {
        "coefficient": {"family": "layered"},
        "study": {"cell_cells": 256}}),
    Run("cell_2d", "cell", {
        "grid": {"dimension": 2},
        "coefficient": {"family": "checkerboard"},
        "study": {"cell_cells": 256}}),
    # time-dependent, so the corrector slopes move with the fast time
    Run("corrector_1d", "corrector", {
        "grid": {"cells": 256},
        "coefficient": {"family": "separable_trig"},
        "stepper": _stepper(1e-3, 20),
        "ensemble": {"members": 4, "replicas": 4},
        "study": {"epsilons": "0.125, 0.0625", "cell_cells": 128,
                  "cell_tau_slices": 4},
        "run": {"seed": 2026}}),
    Run("corrector_2d", "corrector", {
        "grid": {"dimension": 2, "cells": 64},
        "coefficient": {"family": "separable_trig"},
        "stepper": _stepper(1e-3, 10),
        "ensemble": {"members": 2, "replicas": 2},
        "study": {"epsilons": "0.25", "cell_cells": 64,
                  "cell_tau_slices": 2},
        "run": {"seed": 2026}}),
    Run("report_ladder_1d", "report", source="ladder_1d_seed2026"),
]


def run_tree(tree: Path, out: Path, runs: list[Run], cpus: set[int],
             archives: Path | None = None) -> dict[str, str]:
    """Run ``runs`` with ``tree/src`` on ``cpus``, each into ``out/name``.

    A ``report`` run copies its source archive from ``archives`` (default
    ``out``). Returns the failures: run name -> exit code and stderr.
    """
    out.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TWOSCALE_")}
    env.update(PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    failures = {}
    for run in runs:
        target = out / run.name
        if run.command == "report":
            shutil.copytree((archives or out) / run.source, target)
            args = ["report", "-d", str(target)]
        else:
            config = out / f"{run.name}.ini"
            config.write_text(run.ini(), encoding="utf-8")
            args = [run.command, "-c", str(config), "-o", str(target)]
        done = subprocess.run(
            [sys.executable, "-m", "twoscale.cli", *args], cwd=out, env=env,
            capture_output=True, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        if done.returncode != 0:
            failures[run.name] = (f"exited {done.returncode}: "
                                  f"{done.stderr.strip()}")
    return failures


def _json_numbers(value, name: str = "") -> dict[str, np.ndarray]:
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            out.update(_json_numbers(item, f"{name}.{key}" if name else key))
        return out
    try:
        return {name: np.asarray(value, dtype=float)}
    except (TypeError, ValueError):  # text, or a ragged list
        return {}


def _arrays(path: Path) -> dict[str, np.ndarray]:
    """The numbers of an output file, by array name."""
    if path.suffix == ".npy":
        return {path.name: np.load(path)}
    if path.suffix == ".npz":
        with np.load(path) as archive:
            return {key: archive[key] for key in archive.files}
    if path.suffix == ".json":
        return _json_numbers(json.loads(path.read_text(encoding="utf-8")))
    if path.suffix == ".csv":
        with path.open(newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        return {col: np.asarray(values, dtype=float)
                for col, *values in zip(*rows)}
    return {}


def compare_file(a: Path, b: Path) -> str:
    """``identical``, or how the file ``b`` differs from ``a``: each array
    that differs, in the file's order, with its largest relative
    difference."""
    if a.read_bytes() == b.read_bytes():
        return "identical"
    arrays_a, arrays_b = _arrays(a), _arrays(b)
    if arrays_a.keys() != arrays_b.keys():
        return (f"differs: arrays {sorted(arrays_a)} against "
                f"{sorted(arrays_b)}")
    moved = []
    for key, x in arrays_a.items():
        y = arrays_b[key]
        if x.shape != y.shape:
            return f"differs: {key!r} has shape {x.shape} against {y.shape}"
        if np.array_equal(x, y, equal_nan=True):
            continue
        scale = max(np.max(np.abs(x)), np.max(np.abs(y)))
        rel = float(np.max(np.abs(x - y)) / scale) if scale > 0 else np.inf
        moved.append(f"{key!r} {rel:.3e}")
    if not moved:
        return "differs, but in no number"
    return "differs: largest relative difference in " + ", ".join(moved)


def compare_outputs(a: Path, b: Path) -> dict[str, str]:
    """Every file of the run directories under ``a`` or ``b`` -> its
    verdict."""
    names = {p.relative_to(root).as_posix() for root in (a, b)
             for run in root.iterdir() if run.is_dir()
             for p in run.rglob("*") if p.is_file() and p.name not in SKIPPED}
    verdicts = {}
    for name in sorted(names):
        if not (a / name).is_file() or not (b / name).is_file():
            side = "reference" if (a / name).is_file() else "change"
            verdicts[name] = f"only in the {side} tree"
        else:
            verdicts[name] = compare_file(a / name, b / name)
    return verdicts


def cpu_sets() -> list[set[int]]:
    """The first 1, 2 and 3 CPUs this process may use, as far as it has
    them."""
    own = sorted(os.sched_getaffinity(0))
    return [set(own[:k]) for k in (1, 2, 3) if k <= len(own)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="the commit whose outputs are the reference")
    args = parser.parse_args(argv)
    clean = True
    with tempfile.TemporaryDirectory(prefix="bits-") as tmp:
        work = Path(tmp)
        reference = work / "reference"
        reference.mkdir()
        archive = subprocess.run(["git", "archive", args.against], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(reference)], input=archive,
                       check=True)
        for cpus in cpu_sets():
            base = work / f"{len(cpus)}cpu" / "reference"
            change = work / f"{len(cpus)}cpu" / "change"
            for tree, failures in (
                    ("reference", run_tree(reference, base, RUN_SET, cpus)),
                    ("change", run_tree(ROOT, change, RUN_SET, cpus,
                                        archives=base))):
                for name, why in failures.items():
                    print(f"{len(cpus)} cpu  {name}  {tree} tree {why}")
                    clean = False
            for name, verdict in compare_outputs(base, change).items():
                print(f"{len(cpus)} cpu  {name}  {verdict}")
                clean = clean and verdict == "identical"
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
