#!/usr/bin/env python3
"""Benchmark command for bures.

    python3 perfbench/run.py --workload n3_stream --seed 1 --seconds 20 --trace 0

Run from the root of a source tree: the package is imported from ``src/``
beside this directory, not from an installed copy. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. See README.md beside this file.
"""

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: BLAS pools are held at one thread: the benchmark is one closed-loop client
#: with no extra threads, and with one of two CPUs busy a two-thread OpenBLAS
#: pool made N=100 coset sampling about 2x slower than one thread in trial runs.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _prepare_environment():
    """Pin BLAS threads and drop BURES_THREADS before numpy loads; return what was inherited."""
    inherited = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
    for k in BLAS_THREAD_VARS:
        os.environ[k] = "1"
    bures_threads = os.environ.pop("BURES_THREADS", None)
    return {
        "thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS},
        "inherited_thread_env": inherited,
        "bures_threads": "unset" if bures_threads is None else f"removed (was {bures_threads!r})",
    }


def _number(value):
    """JSON has no NaN; a metric with no samples (every call failed) is null."""
    return value if math.isfinite(value) else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bures" / "__init__.py").is_file():
        print(f"perfbench: no bures sources at {SRC}", file=sys.stderr)
        return 2
    env_notes = _prepare_environment()
    sys.path.insert(0, str(SRC))
    import bures
    import harness
    import tracer as tr

    if Path(bures.__file__).resolve().parent != SRC / "bures":
        print(f"perfbench: imported bures from {bures.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(harness.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.trace:
        try:
            tr.check_targets()
        except tr.MissingLayerError as exc:
            print(f"perfbench: traced layer {exc} is missing from the package", file=sys.stderr)
            return 2

    workdir = HERE / ".work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = harness.run(workload, args.seed, args.seconds, bool(args.trace), workdir, SRC, ROOT, env_notes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for metric in result["metrics"].values():
        metric["value"] = _number(metric["value"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
