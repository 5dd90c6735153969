"""Benchmark of osclass: one seeded workload per process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Workloads: exact, estimate, structures, cli (see perfbench/README.md).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
record of the run (environment, tail percentile, per-op latencies, failures).
``--trace 1`` reports per-layer figures instead of end-to-end ones.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("exact", "estimate", "structures", "cli")
# One thread of work: BLAS and OpenMP pools stay at one thread, which is
# below nproc and keeps tiny-matrix timings steady.  Set before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "osclass", "__init__.py")):
        print(f"error: no osclass sources under {src}", file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, src)
    os.chdir(ROOT)
    import bench

    bench.check_source()
    line, detail = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record = json.dumps(detail)
    path = os.path.join(bench.OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(record + "\n" + json.dumps(line) + "\n")
    print(record)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
