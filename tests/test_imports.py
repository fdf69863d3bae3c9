"""Where the toolkit's modules load, checked in fresh interpreters.

``import twoscale`` loads none of the toolkit's modules, and no toolkit
module imports a ``scipy`` module at its top, so ``import twoscale.cli``
loads no ``scipy`` module at all. Each is imported where it is first used:
``scipy.linalg`` with the first tridiagonal factor, ``scipy.fft`` (which
loads ``scipy.special``) with the first transform, and ``scipy.sparse``
with the SuperLU factor. So a 1D ``cell`` and a ``report`` load none of
them, a 1D ``simulate`` or ``ladder`` loads ``scipy.linalg`` alone (the
cell solve transforms with ``numpy.fft``), and a 2D ladder's effective
level, or a 2D ``simulate`` whose faces vary along axis 0 only, adds
``scipy.fft`` (a DST-I along axis 1 before the tridiagonal solves) and
never loads ``scipy.sparse``. A run that forks imports every module its
shards need before the fork, so that no shard pays for the import on its
own pages. The suite's own imports would hide all of this, so every case
runs in a new process.
"""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import twoscale
from twoscale import parallel
from twoscale.cli import main

PACKAGE_ROOT = str(Path(twoscale.__file__).resolve().parents[1])

#: Wraps ``os.fork`` to record, at every fork, which of the modules named
#: in ``NEEDED`` are not loaded yet; the parent prints the record at the end.
RECORD_FORKS = """
import os
import sys

forks = []
_fork = os.fork


def fork():
    forks.append([m for m in NEEDED if m not in sys.modules])
    return _fork()


os.fork = fork
"""

#: Makes every import of a module named in ``BLOCKED`` fail, in this
#: process and in every forked child, where the failure ends the run.
BLOCK_IMPORTS = """
import sys


class Block:
    def find_spec(self, name, path=None, target=None):
        if name in BLOCKED:
            raise ImportError(f"{name} must not load")


sys.meta_path.insert(0, Block())
"""

#: The modules that a factor or a transform imports on first use.
SOLVER_MODULES = ("scipy.linalg", "scipy.fft", "scipy.sparse",
                  "scipy.special")

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

#: Two steps of 40 members on 1024 cells: 40 x 1023 values split into two
#: shards of at least ``parallel.BLOCK_VALUES`` on two CPUs.
SIMULATE_1D_FORKING_INI = """
[grid]
cells = 1024
[ensemble]
members = 40
[stepper]
dt = 0.0001
horizon = 0.0002
[run]
seed = 5
"""

INIS = {"simulate_1d": SIMULATE_1D_FORKING_INI, "ladder_1d": LADDER_1D_INI,
        "constant_2d": CONSTANT_2D_INI, "separable_2d": SEPARABLE_2D_INI}

#: Each run, and every module its shards need.
FORKING_RUNS = {
    # a 128^2 cell is the smallest whose two directions split in two
    "cell_2d": (("numpy.fft",), """
        from twoscale.cell import CellGrid, solve_cell_problem
        from twoscale.coefficients import make_coefficient

        solve_cell_problem(make_coefficient("checkerboard", 2),
                           CellGrid(2, 128))
        """),
    "ladder_1d": (("scipy.linalg",), """
        from twoscale.cli import main

        assert main(["ladder", "-c", "ladder_1d.ini", "-o", "out"]) == 0
        """),
    # the eps levels' SuperLU factors are built after the fork, one per
    # shard, so scipy.sparse may load in the children
    "ladder_2d": (("scipy.linalg", "scipy.fft"), """
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
    "simulate_1d": (("scipy.linalg",), """
        from twoscale.cli import main

        assert main(["simulate", "-c", "simulate_1d.ini", "-o", "out"]) == 0
        """),
    "constant_2d_simulate": (("scipy.linalg", "scipy.fft"), """
        from twoscale.cli import main

        assert main(["simulate", "-c", "constant_2d.ini", "-o", "out"]) == 0
        """),
    "separable_2d_simulate": (("scipy.linalg", "scipy.fft"), """
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
    loaded = run_python("BLOCKED = ('scipy.fft', 'scipy.special')\n"
                        + BLOCK_IMPORTS + textwrap.dedent("""
        from twoscale.cli import main

        assert main(["ladder", "-c", "ladder.ini", "-o", "out"]) == 0
        print([m for m in BLOCKED if m in sys.modules])
        """), tmp_path)
    assert loaded == "[]"


def test_importing_the_package_loads_none_of_its_modules(tmp_path):
    loaded = run_python("""
        import sys

        import twoscale

        print(sorted(m for m in sys.modules if m.startswith("twoscale.")))
        """, tmp_path)
    assert loaded == "[]"


def test_importing_the_cli_loads_no_scipy_module(tmp_path):
    loaded = run_python("""
        import sys

        import twoscale.cli

        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """, tmp_path)
    assert loaded == "[]"


@pytest.mark.parametrize("argv", [["cell", "-c", "ladder.ini", "-o", "cell"],
                                  ["report", "-d", "ladder"]],
                         ids=["cell", "report"])
def test_cell_1d_and_report_load_no_solver_module(tmp_path, argv):
    (tmp_path / "ladder.ini").write_text(LADDER_1D_INI, encoding="utf-8")
    if argv[0] == "report":  # the archive it re-renders, made in this process
        assert main(["ladder", "-c", str(tmp_path / "ladder.ini"),
                     "-o", str(tmp_path / "ladder")]) == 0
    loaded = run_python(f"BLOCKED = {SOLVER_MODULES!r}\n" + BLOCK_IMPORTS
                        + textwrap.dedent(f"""
        from twoscale.cli import main

        assert main({argv!r}) == 0
        print([m for m in BLOCKED if m in sys.modules])
        """), tmp_path)
    assert loaded == "[]"


@pytest.mark.skipif(parallel.usable_cpus() < 2,
                    reason="a run forks only with at least 2 usable CPUs")
@pytest.mark.parametrize("run", sorted(FORKING_RUNS))
def test_the_shards_transform_module_is_loaded_before_every_fork(tmp_path,
                                                                  run):
    for name, ini in INIS.items():
        (tmp_path / f"{name}.ini").write_text(ini, encoding="utf-8")
    needed, code = FORKING_RUNS[run]
    forks = run_python(f"NEEDED = {needed!r}\n" + RECORD_FORKS
                       + textwrap.dedent(code) + "print(forks)\n", tmp_path)
    # one list of the modules missing at each fork: every one empty
    assert forks.startswith("[[]") and set(forks) <= set("[], "), forks
