"""Geometry metrics, held-out evaluation, and routing-consistency analytics.

Chamfer distance is the non-squared, symmetric mean convention:
``CD = mean_a min_b |a-b| + mean_b min_a |a-b|``; tables report it times
1e3. F-score counts a nearest-neighbor hit when the distance is <= the
threshold (boundary inclusive) and is reported in percent. Nearest
neighbors run on a KD tree; the test suite pins the tree's distances to a
brute-force double loop exactly.

Routing consistency is the pairwise agreement rate of a token's hard view
choices across blocks, timesteps, or both jointly; every value lies in
[0, 1] and equals 1 on a constant trace.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .checkpoint import CheckpointError, save_sidecar
from .config import ConfigError, RunConfig
from .model import Model, integrate_flow, latent_decode
from .rng import stream
from .world import Camera, PointCloud, encode_view

__all__ = [
    "GeoMetrics",
    "chamfer_distance",
    "f_score",
    "cross_block_consistency",
    "cross_timestep_consistency",
    "global_consistency",
    "consistency_report",
    "eval_cameras",
    "evaluate",
    "save_trace",
    "load_trace",
    "EMPTY_CLOUD_CD",
]

# Worst-case sentinel for an empty decoded cloud: the diameter of the
# canonical box, larger than any real Chamfer distance inside it.
EMPTY_CLOUD_CD = 2.0 * np.sqrt(3.0)

TRACE_MAGIC = b"RTRC"
TRACE_VERSION = 1


@dataclass
class GeoMetrics:
    cd: float                 # raw units; presentation multiplies by 1e3
    f1_at_0_1: float          # percent
    f1_at_0_05: float         # percent


def _points(cloud) -> np.ndarray:
    pts = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (P, 3) points, got {pts.shape}")
    if pts.shape[0] == 0:
        raise ValueError("empty point cloud")
    return pts


def _nn_dists(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Exact nearest-neighbor distances from each src point into dst."""
    d, _ = cKDTree(dst).query(src, k=1)
    return np.atleast_1d(d)


def chamfer_distance(a, b) -> float:
    """Symmetric mean nearest-neighbor distance (non-squared)."""
    pa, pb = _points(a), _points(b)
    return float(np.mean(_nn_dists(pa, pb)) + np.mean(_nn_dists(pb, pa)))


def f_score(a, b, threshold: float) -> float:
    """Harmonic mean of NN precision/recall at ``threshold``, in percent."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    pa, pb = _points(a), _points(b)
    precision = float(np.mean(_nn_dists(pa, pb) <= threshold))
    recall = float(np.mean(_nn_dists(pb, pa) <= threshold))
    if precision + recall == 0.0:
        return 0.0
    # grouping keeps F1(A, B) == F1(B, A) bit-exact under the P/R swap
    return 200.0 * (precision * recall) / (precision + recall)


def geo_metrics(pred, target) -> GeoMetrics:
    return GeoMetrics(
        cd=chamfer_distance(pred, target),
        f1_at_0_1=f_score(pred, target, 0.1),
        f1_at_0_05=f_score(pred, target, 0.05),
    )


# ---------------------------------------------------------------------------
# routing consistency
# ---------------------------------------------------------------------------


def _check_trace(trace: np.ndarray) -> np.ndarray:
    trace = np.asarray(trace)
    if trace.ndim != 3:
        raise ValueError(f"trace must be (T, L, N), got {trace.shape}")
    if trace.min() < 0:
        raise ValueError("negative view index in trace")
    return trace.astype(np.int64)


def _pair_agreement(counts: np.ndarray, slots: int) -> np.ndarray:
    """Agreement rate from per-view selection counts over ``slots`` choices."""
    agree = 0.5 * (counts * (counts - 1.0)).sum(axis=-1)
    return agree / (0.5 * slots * (slots - 1.0))


def _counts_along(trace: np.ndarray, axis: int) -> np.ndarray:
    v_max = int(trace.max()) + 1
    return np.stack([(trace == v).sum(axis=axis) for v in range(v_max)], axis=-1)


def cross_block_consistency(trace: np.ndarray) -> float:
    """Mean pairwise agreement of a token's view choice across blocks."""
    trace = _check_trace(trace)
    if trace.shape[1] < 2:
        raise ValueError("need at least two blocks")
    rates = _pair_agreement(_counts_along(trace, axis=1), trace.shape[1])
    return float(rates.mean())


def cross_timestep_consistency(trace: np.ndarray) -> float:
    """Mean pairwise agreement of a (block, token) choice across timesteps."""
    trace = _check_trace(trace)
    if trace.shape[0] < 2:
        raise ValueError("need at least two timesteps")
    rates = _pair_agreement(_counts_along(trace, axis=0), trace.shape[0])
    return float(rates.mean())


def global_per_token(trace: np.ndarray) -> np.ndarray:
    """Per-token agreement over all (timestep, block) slot pairs."""
    trace = _check_trace(trace)
    T, L, N = trace.shape
    if T * L < 2:
        raise ValueError("need at least two (timestep, block) slots")
    flat = trace.reshape(T * L, N)
    return _pair_agreement(_counts_along(flat, axis=0), T * L)


def global_consistency(trace: np.ndarray) -> float:
    return float(global_per_token(trace).mean())


def _thirds(n: int) -> list[np.ndarray]:
    return np.array_split(np.arange(n), 3)


def consistency_report(traces: list[np.ndarray]) -> dict:
    """Aggregate consistency metrics over traces.

    Means are trace averages. Cross-block and cross-timestep stds are across
    traces; the global std is across the pooled per-token values (tokens are
    the sampling unit there, which is why its spread is a lot larger).
    Early/mid/late split timesteps for cross-block and global, and blocks
    for cross-timestep. Traces whose timestep or block counts differ, or
    that have fewer than two of either, raise ConfigError.
    """
    if not traces:
        raise ValueError("no traces")
    traces = [_check_trace(t) for t in traces]
    T, L, _ = traces[0].shape
    if T < 2 or L < 2:
        raise ConfigError(f"trace shape {traces[0].shape} needs at least two timesteps "
                          "and two blocks")
    for t in traces[1:]:
        if t.shape[:2] != (T, L):
            raise ConfigError(f"trace shapes {traces[0].shape} and {t.shape} differ in "
                              "timestep or block count")
    cb = np.array([cross_block_consistency(t) for t in traces])
    ct = np.array([cross_timestep_consistency(t) for t in traces])
    gl_tokens = np.concatenate([global_per_token(t) for t in traces])
    gl = np.array([global_consistency(t) for t in traces])

    def ranges(metric, splitter, parts):
        out = {}
        for name, rows in zip(("early", "mid", "late"), parts):
            if rows.size == 0:
                out[name] = float("nan")
                continue
            out[name] = float(np.mean([metric(splitter(t, rows)) for t in traces]))
        return out

    report = {
        "cross_block": {
            "mean": float(cb.mean()),
            "std": float(cb.std(ddof=0)),
            **ranges(cross_block_consistency, lambda t, r: t[r], _thirds(T)),
        },
        "cross_timestep": {
            "mean": float(ct.mean()),
            "std": float(ct.std(ddof=0)),
            **ranges(cross_timestep_consistency, lambda t, r: t[:, r], _thirds(L)),
        },
        "global": {
            "mean": float(gl.mean()),
            "std": float(gl_tokens.std(ddof=0)),
            **ranges(global_consistency, lambda t, r: t[r], _thirds(T)),
        },
        "traces": len(traces),
        "timesteps": T,
        "blocks": L,
    }
    return report


# ---------------------------------------------------------------------------
# held-out evaluation
# ---------------------------------------------------------------------------

# Fixed evaluation cameras: the reference view (azimuth 0) first, then the
# opposite bin, then the sides; counts above 4 repeat the ring at +/-20
# degrees elevation.
_EVAL_AZIMUTHS = (0.0, 180.0, 90.0, 270.0)
MAX_VIEWS = 12  # the four azimuths on three elevation rings


def eval_cameras(count: int) -> list[Camera]:
    if count < 1 or count > MAX_VIEWS:
        raise ValueError(f"view count must be in 1..{MAX_VIEWS}")
    cams = []
    for i in range(count):
        ring, pos = divmod(i, 4)
        elevation = (0.0, 20.0, -20.0)[ring]
        cams.append(Camera(azimuth=_EVAL_AZIMUTHS[pos], elevation=elevation))
    return cams


def evaluate(
    model: Model,
    split,
    cfg: RunConfig,
    view_counts=(1, 2, 4),
    seed: int = 0,
) -> dict:
    """Decode held-out shapes under each view count and score the geometry.

    The initial noise is drawn once per shape and reused for every view
    count, so per-shape comparisons across counts are paired. Empty decodes
    score the worst-case sentinel and are counted separately. Non-finite
    ``split.points`` raise ValueError.
    """
    if not np.isfinite(split.points).all():
        raise ValueError("evaluate needs finite split.points")
    n = len(split)
    N, D = split.latents.shape[1:]
    z_init = np.stack([stream(seed, "eval-noise", j).normal(size=(N, D)) for j in range(n)])
    cams_all = eval_cameras(max(view_counts))
    feats_all = np.stack([
        np.stack([encode_view(PointCloud(split.points[j]), cam, cfg.world)
                  for cam in cams_all])
        for j in range(n)
    ])

    rows: list[dict] = []
    summary: dict[int, dict] = {}
    for count in view_counts:
        feats = feats_all[:, :count]
        z0, _ = integrate_flow(model.params, model.cfg, feats,
                               np.zeros(n, dtype=np.int64), z_init,
                               steps=cfg.sample.euler_steps)
        cds, f1a, f1b, empty = [], [], [], 0
        for j in range(n):
            pred = latent_decode(z0[j], model.cfg)
            if pred.shape[0] == 0:
                empty += 1
                m = GeoMetrics(cd=EMPTY_CLOUD_CD, f1_at_0_1=0.0, f1_at_0_05=0.0)
            else:
                m = geo_metrics(pred, split.points[j])
            cds.append(m.cd)
            f1a.append(m.f1_at_0_1)
            f1b.append(m.f1_at_0_05)
            rows.append({
                "shape_id": split.ids[j],
                "view_count": count,
                "cd_x1000": 1e3 * m.cd,
                "f1_0_1": m.f1_at_0_1,
                "f1_0_05": m.f1_at_0_05,
            })
        cds = np.asarray(cds)
        summary[count] = {
            "cd_mean": float(cds.mean()),
            "cd_se": float(cds.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0,
            "f1_0_1_mean": float(np.mean(f1a)),
            "f1_0_05_mean": float(np.mean(f1b)),
            "empty_decodes": empty,
            "shapes": n,
            "cd_per_shape": cds.tolist(),
        }
    return {"rows": rows, "summary": summary}


def write_metrics_csv(path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("shape_id,view_count,cd_x1000,f1_0_1,f1_0_05\n")
        for r in rows:
            fh.write(f"{r['shape_id']},{r['view_count']},"
                     f"{r['cd_x1000']:.6f},{r['f1_0_1']:.4f},{r['f1_0_05']:.4f}\n")


# ---------------------------------------------------------------------------
# routing traces
# ---------------------------------------------------------------------------


def save_trace(path, trace: np.ndarray, view_count: int, meta: dict | None = None) -> None:
    """Binary routing trace: header + u16 hard indices, metadata in a sidecar."""
    trace = _check_trace(trace)
    if trace.max() >= view_count:
        raise ValueError("trace index exceeds view count")
    T, L, N = trace.shape
    with open(path, "wb") as fh:
        fh.write(TRACE_MAGIC)
        fh.write(struct.pack("<IIIII", TRACE_VERSION, T, L, N, view_count))
        fh.write(trace.astype("<u2").tobytes(order="C"))
    sidecar = {"timesteps": T, "blocks": L, "tokens": N, "views": view_count}
    sidecar.update(meta or {})
    save_sidecar(path, sidecar)


def load_trace(path) -> tuple[np.ndarray, int]:
    """Read a ``save_trace`` file; a bad header, payload length or index is a CheckpointError."""
    blob = Path(path).read_bytes()
    head = 24  # magic + five u32
    if len(blob) < head or blob[:4] != TRACE_MAGIC:
        raise CheckpointError(f"{path}: not a routing trace")
    version, T, L, N, V = struct.unpack("<IIIII", blob[4:head])
    if version != TRACE_VERSION:
        raise CheckpointError(f"{path}: unsupported trace version {version}")
    if T * L * N == 0 or len(blob) != head + 2 * T * L * N:
        raise CheckpointError(f"{path}: {len(blob) - head} payload bytes for a {T}x{L}x{N} trace")
    trace = np.frombuffer(blob, dtype="<u2", offset=head).reshape(T, L, N).astype(np.int64)
    if trace.max() >= V:
        raise CheckpointError(f"{path}: view index {trace.max()} with {V} views")
    return trace, int(V)
