"""Write ``reference.json``: the first ops of every workload at the reference seed.

    python3 perfbench/make_reference.py

Run from the repository root. Every benchmark run re-computes these ops and
fails when they differ beyond rounding, so re-write the file only with a
change that is meant to change the computed results, and say so there.
"""

from __future__ import annotations

import json
import sys

import run  # sets the BLAS thread count before numpy is imported

sys.path[:0] = [str(run.SRC), str(run.HERE)]

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    ref = {wl: [np.asarray(out).tolist()
                for out in workloads.reference_outputs(wl, run.OUT / "work")]
           for wl in workloads.WORKLOADS}
    workloads.REFERENCE.write_text(json.dumps(ref) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
