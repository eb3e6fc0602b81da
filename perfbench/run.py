"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload dock-tcec --seed 1 --seconds 33 \\
        --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Every metric goes to standard output as one
``name value unit`` line, then the environment record as one JSON line,
then, as the last line, the result object::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

The command exits 1 when an output check fails, and 2 when the program
cannot be found next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_program():
    """Put the repository's ``src`` and ``benchmarks`` on the path."""
    for need in (ROOT / "src" / "repro", ROOT / "benchmarks"):
        if not need.is_dir():
            raise FileNotFoundError(f"{need} not found: run from a full "
                                    f"checkout of the repository")
    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "benchmarks")]
    import numpy as np
    from bench_hot_path import calibrate

    return np, calibrate


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("dock-tcec", "screen-mixed", "gateway-open"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        np, calibrate = _import_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    env = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "numpy_ref_s": calibrate(), "nproc": os.cpu_count(),
           "python": platform.python_version(), "numpy": np.__version__}
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        out = WORKLOADS[args.workload](args.seed, args.seconds,
                                       bool(args.trace), work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass            # another run still uses it

    error_rate = out.failed / max(1, out.attempted)
    for name, (value, unit) in sorted(out.metrics.items()):
        note = f" ({out.notes[name]})" if name in out.notes else ""
        print(f"{name:34s} {value:14.6g} {unit}{note}")
    print(f"{'error_rate':34s} {error_rate:14.6g} share "
          f"({out.failed} of {out.attempted})")
    for msg in out.failures[:20]:
        print(f"CHECK FAILED: {msg}")
    print(json.dumps({"env": env, "info": out.info}))
    correct = out.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
