"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload train-mv --seed 1 --seconds 30 --trace 0

Run from the repository root; roar3d is imported from ``src/`` there. Every
metric is printed as ``name value unit``, then the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. The full record (environment, all metrics,
digests) is written to ``perfbench/out/``; a traced run also saves its spans
there. After the measured ops, the run re-computes the first ops at a fixed
seed and is ``correct`` only if they match ``perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One process, single-threaded BLAS; set before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
NPROC = len(os.sched_getaffinity(0))
os.environ["ROAR_THREADS"] = str(min(2, NPROC))

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = HERE / "out"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "roar3d" / "__init__.py").is_file():
        print(f"error: no roar3d sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 3
    sys.path[:0] = [str(SRC), str(HERE)]
    import report
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           OUT / "work")
    ref_errors = workloads.reference_errors(args.workload, OUT / "work")
    result["errors"] += ref_errors
    result["correct"] = result["correct"] and not ref_errors
    env = report.environment(ROOT, BLAS_THREADS)
    lines, final = report.render(result, env, spec, OUT)
    for line in lines:
        print(line)
    print(final)
    return 0


if __name__ == "__main__":
    sys.exit(main())
