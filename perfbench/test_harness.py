"""Fast self-test of the benchmark harness at tiny problem sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_harness.py
"""
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "ladder_1d": dataclasses.replace(
        workloads.WORKLOADS["ladder_1d"], cells=512, steps=2, replicas=2,
        cell_cells=32),
    "ladder_2d": dataclasses.replace(
        workloads.WORKLOADS["ladder_2d"], cells=64, epsilons=(1 / 2, 1 / 4),
        steps=2, cell_cells=16),
    "simulate_1d": dataclasses.replace(
        workloads.WORKLOADS["simulate_1d"], cells=64, members=4, steps=3),
}


def test_own_time_subtracts_children():
    s = [["root", 0.0, 10.0, -1],
         ["a", 1.0, 4.0, 0],
         ["leaf", 2.0, 3.0, 1],
         ["b", 5.0, 9.0, 0],
         ["leaf", 6.0, 7.0, 3]]
    out = spans.summarize(s)
    assert out["root"] == (1, 10.0, 3.0)
    assert out["a"] == (1, 3.0, 2.0)
    assert out["b"] == (1, 4.0, 3.0)
    assert out["leaf"] == (2, 2.0, 2.0)
    assert sum(own for _, _, own in out.values()) == 10.0


def test_own_time_counts_overlapping_children_once():
    s = [["parent", 0.0, 10.0, -1],
         ["c", 2.0, 6.0, 0],
         ["d", 5.0, 12.0, 0]]  # overlaps c and outlives its parent
    assert spans.summarize(s)["parent"][2] == pytest.approx(2.0)


def test_tracer_nests_spans():
    tracer = spans.Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    assert [sp[3] for sp in tracer.spans] == [-1, outer]
    out = spans.summarize(tracer.spans)
    assert out["outer"][2] == pytest.approx(out["outer"][1] - out["inner"][1])


def test_wrappers_are_restored_after_tracing():
    before = [vars(t.owner)[t.attr] for t in spans.targets()]
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer()):
            during = [vars(t.owner)[t.attr] for t in spans.targets()]
            raise RuntimeError("leave the block early")
    after = [vars(t.owner)[t.attr] for t in spans.targets()]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_reference_tolerance_passes_round_off_and_catches_changes():
    workload = workloads.WORKLOADS["ladder_1d"]
    stored = json.loads(workloads.REFERENCE_FILE.read_text())
    values = stored["ladder_1d"]["values"]
    nudged = {k: [v * (1 + 1e-13) for v in vals] for k, vals in values.items()}
    assert workloads.reference_problems(workload, nudged) == []
    changed = dict(values, errors=[v * (1 + 1e-8) for v in values["errors"]])
    assert workloads.reference_problems(workload, changed)
    assert workloads.reference_problems(TINY["ladder_1d"], values)


class FakeSession:
    """Hands out preset outputs; ``None`` makes the run raise."""

    def __init__(self, values, digests):
        self.values = values
        self.digests = iter(digests)

    def run(self):
        digest = next(self.digests)
        if digest is None:
            raise RuntimeError("solver failure")
        return digest

    def inspect(self, digest):
        return workloads.Outcome(self.values, digest)


def test_runs_that_raise_or_differ_count_as_failed():
    workload = workloads.WORKLOADS["ladder_1d"]
    runner = run.Runner(workload, 1, FakeSession({}, ["a", "a", None, "b"]))
    results = [runner.once() for _ in range(4)]
    assert results[2] is None and None not in results[:2] + results[3:]
    assert (runner.attempted, runner.failed) == (4, 2)


def test_reference_mismatch_fails_every_identical_run():
    workload = workloads.WORKLOADS["ladder_1d"]
    stored = json.loads(workloads.REFERENCE_FILE.read_text())
    values = dict(stored["ladder_1d"]["values"], errors=[1.0, 0.5, 0.25])
    runner = run.Runner(workload, workloads.REFERENCE_SEED,
                        FakeSession(values, ["a", "a"]))
    for _ in range(2):
        runner.once()
    assert runner.failed == 2


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed(name, trace):
    result, lines = run.bench(TINY[name], seed=1, seconds=0.01, trace=trace,
                              probes=1)
    section = "per_layer" if trace else "end_to_end"
    expected = {(m["name"], m["unit"]) for m in BENCHMARK[section]}
    assert {(k, v["unit"]) for k, v in result["metrics"].items()} == expected
    assert result["correct"], lines
    assert result["attempted"] >= 1 + run.MIN_RUNS * (2 if trace else 1)
    assert result["failed"] == 0
    json.dumps(result)


def test_workload_list_matches_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder_1d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
