"""Where the transform modules load, checked in fresh interpreters.

The toolkit imports ``scipy.fft`` (which loads ``scipy.special``) inside
the functions that transform, so a 1D ``simulate`` never loads either. The
cell solve transforms with ``numpy.fft``, so a 1D ``ladder`` never loads
them either. A 2D ladder's effective level, and a 2D ``simulate`` whose
faces vary along axis 0 only, step with ``scipy.fft`` (a DST-I along axis
1 before the tridiagonal solves) and never load ``scipy.sparse``. A run
that forks imports the module its shards transform with before the fork,
so that no shard pays for the import on its own pages. The suite's own
imports would hide all of this, so every case runs in a new process.
"""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import twoscale
from twoscale import parallel

PACKAGE_ROOT = str(Path(twoscale.__file__).resolve().parents[1])

#: Wraps ``os.fork`` to record, at every fork, whether the module named
#: ``TRANSFORM`` is loaded; the parent prints the record at the end.
RECORD_FORKS = """
import os
import sys

forks = []
_fork = os.fork


def fork():
    forks.append(TRANSFORM in sys.modules)
    return _fork()


os.fork = fork
"""

#: Makes every import of ``scipy.fft`` or ``scipy.special`` fail, in this
#: process and in every forked child, where the failure ends the run.
BLOCK_SCIPY_FFT = """
import sys


class Block:
    def find_spec(self, name, path=None, target=None):
        if name in ("scipy.fft", "scipy.special"):
            raise ImportError(f"{name} must not load")


sys.meta_path.insert(0, Block())
"""

SIMULATE_1D_INI = """
[grid]
cells = 64
[ensemble]
members = 4
[stepper]
dt = 0.001
horizon = 0.004
[run]
seed = 5
"""

#: Constant faces: each 2D step is a DST-I, one tridiagonal solve per sine
#: mode and the inverse DST-I. 16 members of 63^2 values split into two
#: shards on two CPUs.
CONSTANT_2D_INI = """
[grid]
dimension = 2
cells = 64
[coefficient]
family = layered
beta = 0.0
[ensemble]
members = 16
[stepper]
dt = 0.001
horizon = 0.003
[run]
seed = 5
"""

#: Faces that vary along axis 0 and in time: every step refactors the
#: tridiagonal systems. Split in two like ``CONSTANT_2D_INI``.
SEPARABLE_2D_INI = CONSTANT_2D_INI.replace("family = layered\nbeta = 0.0",
                                           "family = separable_trig")

#: eps 1/4 and 1/8 on 128 cells: one block of two eps levels, which split
#: into two shards on two CPUs.
LADDER_1D_INI = """
[grid]
cells = 128
[ensemble]
members = 2
replicas = 2
[stepper]
dt = 0.001
horizon = 0.004
[study]
epsilons = 0.25, 0.125
cell_cells = 16
[run]
seed = 5
"""

#: Each run, and the module its shards transform with.
FORKING_RUNS = {
    # a 128^2 cell is the smallest whose two directions split in two
    "cell_2d": ("numpy.fft", """
        from twoscale.cell import CellGrid, solve_cell_problem
        from twoscale.coefficients import make_coefficient

        solve_cell_problem(make_coefficient("checkerboard", 2),
                           CellGrid(2, 128))
        """),
    "ladder_2d": ("scipy.fft", """
        from twoscale.coefficients import make_coefficient
        from twoscale.diagnostics import StudyConfig, run_ladder
        from twoscale.grid import GridSpec
        from twoscale.integrator import StepperConfig

        run_ladder(StudyConfig(
            coefficient=make_coefficient("checkerboard", 2),
            grid=GridSpec(2, 64), epsilons=(0.5, 0.25),
            stepper=StepperConfig(dt=0.002, horizon=0.004), members=2,
            replicas=2, noise_law="mode_modulated", cell_cells=32))
        """),
    "constant_2d_simulate": ("scipy.fft", """
        from twoscale.cli import main

        assert main(["simulate", "-c", "constant_2d.ini", "-o", "out"]) == 0
        """),
    "separable_2d_simulate": ("scipy.fft", """
        from twoscale.cli import main

        assert main(["simulate", "-c", "separable_2d.ini", "-o", "out"]) == 0
        assert "scipy.sparse" not in sys.modules
        """),
}


def run_python(code: str, cwd: Path) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_simulate_1d_loads_neither_scipy_fft_nor_scipy_special(tmp_path):
    (tmp_path / "simulate.ini").write_text(SIMULATE_1D_INI, encoding="utf-8")
    loaded = run_python("""
        import sys

        import twoscale
        import twoscale.cli

        assert twoscale.cli.main(
            ["simulate", "-c", "simulate.ini", "-o", "out"]) == 0
        print([m for m in ("scipy.fft", "scipy.special") if m in sys.modules])
        """, tmp_path)
    assert loaded == "[]"


def test_ladder_1d_never_loads_scipy_fft_or_scipy_special(tmp_path):
    (tmp_path / "ladder.ini").write_text(LADDER_1D_INI, encoding="utf-8")
    loaded = run_python(BLOCK_SCIPY_FFT + textwrap.dedent("""
        from twoscale.cli import main

        assert main(["ladder", "-c", "ladder.ini", "-o", "out"]) == 0
        print([m for m in ("scipy.fft", "scipy.special") if m in sys.modules])
        """), tmp_path)
    assert loaded == "[]"


@pytest.mark.skipif(parallel.usable_cpus() < 2,
                    reason="a run forks only with at least 2 usable CPUs")
@pytest.mark.parametrize("run", sorted(FORKING_RUNS))
def test_the_shards_transform_module_is_loaded_before_every_fork(tmp_path,
                                                                  run):
    for name, ini in [("constant_2d", CONSTANT_2D_INI),
                      ("separable_2d", SEPARABLE_2D_INI)]:
        (tmp_path / f"{name}.ini").write_text(ini, encoding="utf-8")
    transform, code = FORKING_RUNS[run]
    forks = run_python(f"TRANSFORM = {transform!r}\n" + RECORD_FORKS
                       + textwrap.dedent(code) + "print(forks)\n", tmp_path)
    assert forks.startswith("[True") and "False" not in forks, forks
