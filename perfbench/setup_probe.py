"""Set-up time of one workload, measured in a fresh process.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds from the first statement to a ready session: importing
numpy, scipy and twoscale, the solver imports done lazily inside functions,
and building the workload's configuration objects.
"""
import sys
import time

start = time.perf_counter()
import workloads  # noqa: E402

session = workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
elapsed = time.perf_counter() - start
session.close()
print(repr(elapsed))
