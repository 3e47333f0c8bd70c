"""Environment record, metric units and the printed / written results."""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
from pathlib import Path

import numpy as np
import scipy

# units of the metrics the suffix rules in ``unit`` do not cover
UNITS = {
    "setup_s": "s",
    "op_cost.p50": "probe",
    "probe_ms.p50": "ms",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "items_per_s": "1/s",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
    "train_loss_mean": "loss",
    "sample_cd_x1000": "cd_x1000",
    "output_mean": "value",
    "trainer.perturbed_share": "ratio",
    "trainer.pert_skip_share": "ratio",
    "trainer.views_per_sample": "views",
    "router.primary_share": "ratio",
    "numerics.routed_attention.tokens_per_group": "tokens",
    "numerics.matmul.gflop": "GFLOP",
    "numerics.accum_grad.copy_mb": "MB",
    "checkpoint.mb": "MB",
    "traced.overhead_pct": "%",
}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms") or name.endswith(".ms") or name.endswith(".p50"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha(root: Path):
    """HEAD commit read from ``.git`` in the checkout (None when it is not a repo)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path, blas_threads_set: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_set": blas_threads_set, "threads": _blas_threads()},
        "ROAR_THREADS": os.environ.get("ROAR_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(root),
        "src_sha256": _src_digest(root),
    }


def _num(v):
    return None if v is None or (isinstance(v, float) and math.isnan(v)) else v


def render(result: dict, env: dict, spec: dict, out_dir: Path) -> tuple[list[str], str]:
    """Printed lines, the final JSON line, and the results file on disk.

    ``spec`` is the parsed BENCHMARK.json; it names the metrics of the JSON line.
    """
    wl, seed, traced = result["workload"], result["seed"], result["trace"]
    e2e = result["end_to_end"]
    lines = [f"# workload {wl}  seed {seed}  trace {int(traced)}  "
             f"ops {e2e['op_count']}  attempted {result['attempted']}  "
             f"failed {result['failed']}  correct {result['correct']}"]
    for err in result["errors"]:
        lines.append(f"# error: {err}")
    shown = {k: v for k, v in e2e.items() if k != "output_mean"}
    for name, value in shown.items():
        lines.append(f"{name} {value} {unit(name)}")

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"BENCH_{wl}_seed{seed}"
    record = {k: v for k, v in result.items() if k != "tracer"}
    record["environment"] = env
    if traced:
        layer = result["per_layer"]
        plain = out_dir / f"{stem}_trace0.json"
        if plain.is_file():
            base = json.loads(plain.read_text())["end_to_end"]["op_ms.p50"]
            if base:
                layer["traced.overhead_pct"] = (
                    100.0 * (layer["traced.op_ms.p50"] - base) / base)
        lines.append(f"# traced: self-time sum error {result['self_time_error_ms']:.3g} ms")
        for name, value in layer.items():
            lines.append(f"{name} {value} {unit(name)}")
        result["tracer"].save(out_dir / f"spans_{wl}.npz")
    (out_dir / f"{stem}_trace{int(traced)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=_num) + "\n")

    source = result["per_layer"] if traced else e2e
    names = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    metrics = {n: {"value": _num(source.get(n)), "unit": unit(n)} for n in names}
    final = json.dumps({"correct": bool(result["correct"]), "attempted": result["attempted"],
                        "failed": result["failed"], "metrics": metrics})
    return lines, final
