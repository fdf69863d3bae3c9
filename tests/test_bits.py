"""Self-test of ``tools/bits.py`` on two source trees, without git.

The tool runs one set of ``twoscale`` commands in two trees and names
every output file whose bytes differ. Here the run set is tiny: a tree
against itself must be identical, and a copy with a looser cell CG
tolerance must differ in the files that the cell solve reaches, and in no
other. Within a file, the tool names each array that differs.
"""
import importlib.util
import os
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bits",
                                               ROOT / "tools" / "bits.py")
bits = sys.modules["bits"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bits)

LADDER = {"grid": {"cells": 64},
          "stepper": {"dt": 0.01, "horizon": 0.02},
          "ensemble": {"members": 1, "replicas": 2},
          "study": {"epsilons": "0.5, 0.25", "cell_cells": 32,
                    "initial_amplitude": 0.5},
          "run": {"seed": 9}}
TINY_RUNS = [
    bits.Run("cell", "cell", {"study": {"cell_cells": 32}}),
    bits.Run("ladder", "ladder", LADDER),
    bits.Run("simulate", "simulate", {**LADDER,
                                      "ensemble": {"members": 2}}),
    bits.Run("report", "report", source="ladder"),
]


def test_bits_names_the_files_a_changed_constant_reaches(tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    mutant = tmp_path / "mutant"
    shutil.copytree(tree, mutant)
    cell = mutant / "src" / "twoscale" / "cell.py"
    text = cell.read_text(encoding="utf-8")
    assert text.count("CG_TOL = 1e-10") == 1
    cell.write_text(text.replace("CG_TOL = 1e-10", "CG_TOL = 1e-4"),
                    encoding="utf-8")
    cpus = {min(os.sched_getaffinity(0))}

    base = tmp_path / "base"
    assert bits.run_tree(tree, base, TINY_RUNS, cpus) == {}
    assert bits.run_tree(tree, tmp_path / "again", TINY_RUNS, cpus,
                         archives=base) == {}
    same = bits.compare_outputs(base, tmp_path / "again")
    assert set(same.values()) == {"identical"}
    assert {"cell/correctors.npy", "ladder/raw.npz", "report/report.json",
            "simulate/final_states.npy"} <= set(same)

    assert bits.run_tree(mutant, tmp_path / "changed", TINY_RUNS, cpus,
                         archives=base) == {}
    changed = bits.compare_outputs(base, tmp_path / "changed")
    assert changed.keys() == same.keys()
    differing = {name for name, verdict in changed.items()
                 if verdict != "identical"}
    # the report re-renders the same archive, so only the runs that
    # solve a cell differ
    assert {"cell/cell.json", "cell/correctors.npy",
            "ladder/raw.npz"} <= differing
    assert {name.split("/")[0] for name in differing} == {"cell", "ladder"}
    assert "largest relative difference" in changed["cell/correctors.npy"]


def test_bits_names_the_arrays_that_moved_in_an_npz(tmp_path):
    rng = np.random.default_rng(1)
    kept, moved = rng.standard_normal(8), rng.standard_normal((2, 3))
    np.savez(tmp_path / "a.npz", kept=kept, moved=moved)
    np.savez(tmp_path / "same.npz", kept=kept, moved=moved)
    bumped = moved.copy()
    bumped[1, 2] += 1e-3 * np.max(np.abs(moved))
    np.savez(tmp_path / "b.npz", kept=kept, moved=bumped)
    assert bits.compare_file(tmp_path / "a.npz",
                             tmp_path / "same.npz") == "identical"
    verdict = bits.compare_file(tmp_path / "a.npz", tmp_path / "b.npz")
    assert verdict == ("differs: largest relative difference in "
                       "'moved' 1.000e-03")
