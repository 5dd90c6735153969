"""Time one set-up of a workload in a fresh process and print it in seconds.

Usage: setup_probe.py WORKLOAD SEED WORKDIR (with src and perfbench on
PYTHONPATH).  Set-up is importing osclass and generating the inputs, which
writes the JSON input files of the cli workload into WORKDIR.
"""

import sys
import time

start = time.perf_counter()
import workloads  # noqa: E402  (importing osclass is part of what is timed)

workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(time.perf_counter() - start)
