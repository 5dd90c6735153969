"""Hash every op and probe result of the benchmark's workloads.

Run from the root of a checkout:

    python3 tools/op_hashes.py --seeds 1 2 3 --out hashes.json
    python3 tools/op_hashes.py --seeds 1 2 3 --against hashes.json

Each workload's batch is built by ``perfbench/workloads.py`` at every seed
(the ``cli`` inputs in a temporary directory), and every op, then every
probe op the batch does not hold already, runs once in order, its output
checked as the benchmark checks it (a check saves the reports that the
``verify`` ops read).  A result is pickled and hashed with SHA-256; in the
text of a ``cli`` report the temporary directory is replaced by a fixed
token first, so the hashes of two checkouts compare their outputs bit for
bit.  ``--against`` names a file written by ``--out`` and lists the ops of
the workloads and seeds run whose hash differs or is missing on either
side, exiting 1 if there is one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("exact", "estimate", "structures", "cli")
WORKDIR_TOKEN = "<workdir>"


def _digest(result, workdir: str) -> str:
    if (isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], str)):
        result = (result[0], result[1].replace(workdir, WORKDIR_TOKEN))
    return hashlib.sha256(pickle.dumps(result, protocol=4)).hexdigest()


def hash_workload(name: str, seed: int, tiny: bool = False) -> dict:
    """``{"<index> <kind>": sha256}`` over the batch's ops, then its probe's."""
    import workloads

    with tempfile.TemporaryDirectory(prefix="op-hashes-") as workdir:
        wl = workloads.build(name, seed, workdir, tiny=tiny)
        ops = wl.ops + [op for op in wl.probe if op not in wl.ops]
        out = {}
        for i, op in enumerate(ops):
            try:
                result = op.call()
                op.check(result)
            except Exception as exc:  # a raising op hashes as its error
                result = f"raised {type(exc).__name__}: {exc}"
            out[f"{i:03d} {op.kind}"] = _digest(result, workdir)
    return out


def collect(names, seeds, tiny: bool = False) -> dict:
    return {name: {str(seed): hash_workload(name, seed, tiny) for seed in seeds}
            for name in names}


def differences(got: dict, want: dict) -> list:
    """``workload/seed/op`` of every op whose hash differs or is on one side only."""
    out = []
    for name in sorted(set(got) | set(want)):
        for seed in sorted(set(got.get(name, {})) | set(want.get(name, {}))):
            a, b = got.get(name, {}).get(seed, {}), want.get(name, {}).get(seed, {})
            out += [f"{name}/{seed}/{op}" for op in sorted(set(a) | set(b))
                    if a.get(op) != b.get(op)]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--tiny", action="store_true", help="the benchmark's tiny batches")
    parser.add_argument("--out", help="write the hashes here as JSON")
    parser.add_argument("--against", help="compare with hashes written by --out")
    args = parser.parse_args(argv)
    for path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")):
        if path not in sys.path:
            sys.path.insert(0, path)
    hashes = collect(args.workloads, args.seeds, args.tiny)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(hashes, fh, indent=1, sort_keys=True)
    total = sum(len(ops) for per_seed in hashes.values() for ops in per_seed.values())
    if not args.against:
        print(f"{total} results hashed")
        return 0
    with open(args.against, encoding="utf-8") as fh:
        want = json.load(fh)
    diff = differences(hashes, {name: {seed: want.get(name, {}).get(seed, {}) for seed in per_seed}
                                for name, per_seed in hashes.items()})
    for op in diff:
        print(f"differs: {op}")
    print(f"{len(diff)} of {total} results differ")
    return 1 if diff else 0


if __name__ == "__main__":
    # one BLAS thread, as the benchmark runs; set before numpy loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.exit(main())
