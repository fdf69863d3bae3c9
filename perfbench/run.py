"""twoscale benchmark: run one workload back to back and check its outputs.

  python3 perfbench/run.py --workload ladder_1d --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
  python3 perfbench/run.py --write-reference

One process runs one workload in a closed loop: an untimed warm-up run,
then complete runs one after another until ``--seconds`` have passed. Every
run's outputs are checked (see workloads.py); a run that raises or misses a
check counts as failed.

With ``--trace 0`` the end-to-end metrics are printed: ``run_s`` (median
wall time of one run), ``setup_s`` (median set-up time over fresh
processes) and ``peak_rss_mb``. With ``--trace 1`` the loop is split: half
untraced, half with spans around the public calls into each layer, and the
per-layer metrics of the median traced run are printed. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--workload all`` runs every
workload in its own process and prints a table.

Without the toolkit's sources in ``src/twoscale`` next to this directory
the benchmark exits with code 1 and prints no result.
"""
import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

# pinned before numpy loads; recorded with every result
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

try:
    import workloads  # noqa: E402
except ImportError as exc:  # no twoscale sources next to this directory
    sys.exit(f"perfbench: {exc}")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
MIN_RUNS = 3
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="store every workload's result vector at the "
                        "reference seed in reference.json")
    return p


# ---------------------------------------------------------------------------
# machine record


def _openblas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded in this process."""
    import ctypes

    maps = Path("/proc/self/maps")
    libs = sorted({line.split()[-1] for line in maps.read_text().splitlines()
                   if "openblas" in line.lower() and ".so" in line}) \
        if maps.is_file() else []
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        sha, _, refname = line.partition(" ")
        if refname == name:
            return sha
    return "unknown"


def machine_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": _openblas_threads(),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# runs


def probe_setup(name: str, seed: int) -> float:
    """Set-up seconds of one fresh process (setup_probe.py)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


class Runner:
    """Runs one workload session and checks every run's outputs."""

    def __init__(self, workload, seed: int, session):
        self.workload = workload
        self.seed = seed
        self.session = session
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first = None  # (digest, reference problems) of run 1

    def once(self, tracer: spans.Tracer | None = None) -> float | None:
        """One complete run: its wall time, or None if the run raised.

        A run that raises or misses a check counts as failed.
        """
        self.attempted += 1
        elapsed = None
        try:
            if tracer is None:
                start = time.perf_counter()
                handle = self.session.run()
                elapsed = time.perf_counter() - start
            else:
                tracer.reset()
                root = tracer.open(spans.ROOT_SPAN)
                try:
                    handle = self.session.run()
                finally:
                    tracer.close(root)
                elapsed = tracer.spans[root][2] - tracer.spans[root][1]
            problems = self._check(self.session.inspect(handle))
        except Exception as exc:  # a run that raises counts as failed
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return elapsed

    def _check(self, outcome) -> list[str]:
        if outcome.problems:
            return list(outcome.problems)
        if self._first is None:
            # runs identical to the first share its reference verdict
            self._first = (outcome.digest, workloads.reference_problems(
                self.workload, outcome.values)
                if self.seed == workloads.REFERENCE_SEED else [])
        if outcome.digest != self._first[0]:
            return ["outputs differ bitwise from the first run"]
        return list(self._first[1])

    def loop(self, seconds: float, tracer: spans.Tracer | None = None):
        """Runs back to back until ``seconds`` passed and MIN_RUNS were made.

        Returns the wall times of the runs that completed, and with a
        tracer also their per-layer metrics.
        """
        times, layers = [], []
        deadline = time.perf_counter() + seconds
        attempts = 0
        while attempts < MIN_RUNS or time.perf_counter() < deadline:
            attempts += 1
            elapsed = self.once(tracer)
            if elapsed is not None:
                times.append(elapsed)
                if tracer is not None:
                    layers.append(spans.run_metrics(tracer))
        return times, layers


def _tail(times: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 20:
        return f"no percentile has ten of {n} samples beyond it"
    return f"p{100 * (n - 10) // n} = {sorted(times)[n - 11]:.6g} s"


def bench(workload, seed: int, seconds: float, trace: bool,
          probes: int = SETUP_PROBES) -> tuple[dict, list[str]]:
    """One benchmark invocation: the result object and the report lines."""
    setup = [probe_setup(workload.name, seed) for _ in range(probes)] \
        if not trace else []
    session = workload.setup(seed)
    runner = Runner(workload, seed, session)
    lines = []
    harness_problems = []
    try:
        runner.once()  # warm-up, untimed
        if not trace:
            times, _ = runner.loop(seconds)
        else:
            times, _ = runner.loop(seconds / 2)
            with spans.installed(spans.Tracer()) as tracer:
                _, layers = runner.loop(seconds / 2, tracer)
    finally:
        session.close()
    if not times or (trace and not layers):
        raise RuntimeError(f"{workload.name}: no run completed: "
                           f"{runner.problems[:3]}")
    run_s = statistics.median(times)
    lines.append(f"{workload.name} seed {seed}: {runner.attempted} runs "
                 f"(1 warm-up), failed {runner.failed}, failed_frac "
                 f"{runner.failed / runner.attempted:g}")
    if not trace:
        metrics = {
            "run_s": run_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        notes = {"run_s": f"median of {len(times)} runs; {_tail(times)}",
                 "setup_s": f"median of {len(setup)} fresh processes",
                 "peak_rss_mb": "this process"}
    else:
        for name in spans.EXACT_COUNTS:
            seen = {m[name] for m in layers}
            if len(seen) > 1:
                harness_problems.append(f"{name} differs across traced "
                                        f"runs: {sorted(seen)}")
        for m in layers:
            gap = spans.attribution_gap(m)
            if abs(gap) > 1e-6 * m["trace.run_s"]:
                harness_problems.append(f"own times miss the traced run "
                                        f"time by {gap:.3e} s")
        chosen = sorted(layers, key=lambda m: m["trace.run_s"])[
            (len(layers) - 1) // 2]
        metrics = dict(chosen, **{"trace.overhead_s":
                                  chosen["trace.run_s"] - run_s})
        units = dict(spans.LAYER_METRICS)
        notes = {"trace.run_s": f"median of {len(layers)} traced runs",
                 "trace.overhead_s": f"minus the untraced median of "
                                     f"{len(times)} runs"}
    for name, value in metrics.items():
        lines.append(f"  {name:34s} {value:14.6g} {units[name]:14s}"
                     f" {notes.get(name, '')}".rstrip())
    problems = dict.fromkeys(runner.problems + harness_problems)
    for problem in list(problems)[:10]:
        lines.append(f"  problem: {problem}")
    result = {
        "correct": runner.failed == 0 and not harness_problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, lines


def run_all(args, names) -> int:
    """Every workload in its own process, then one table."""
    results = {}
    for name in names:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        out = done.stdout.strip().splitlines()
        if done.returncode != 0 or not out:
            print(f"{name}: exited with code {done.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(out[:-1]))
        results[name] = json.loads(out[-1])
    rows = {name: (m["unit"], [r["metrics"][name]["value"]
                               for r in results.values()])
            for name, m in next(iter(results.values()))["metrics"].items()}
    rows["failed_frac"] = ("fraction", [r["failed"] / r["attempted"]
                                        for r in results.values()])
    print("\n" + f"{'metric':34s} {'unit':14s} " +
          " ".join(f"{n:>12s}" for n in results))
    for name, (unit, values) in rows.items():
        print(f"{name:34s} {unit:14s} " +
              " ".join(f"{v:12.6g}" for v in values))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def write_reference(table) -> int:
    stored = {}
    for name, workload in table.items():
        session = workload.setup(workloads.REFERENCE_SEED)
        try:
            outcome = session.inspect(session.run())
        finally:
            session.close()
        if outcome.problems:
            print(f"{name}: {outcome.problems}", file=sys.stderr)
            return 1
        stored[name] = {"params": workloads.params(workload),
                        "values": outcome.values}
    workloads.REFERENCE_FILE.write_text(json.dumps(stored, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_FILE.name} at seed "
          f"{workloads.REFERENCE_SEED}")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    table = workloads.WORKLOADS
    if args.write_reference:
        return write_reference(table)
    if args.workload == "all":
        return run_all(args, list(table))
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(table)} or all", file=sys.stderr)
        return 2
    result, lines = bench(table[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    print("machine " + json.dumps(machine_record(), sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
