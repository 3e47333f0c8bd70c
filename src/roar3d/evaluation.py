"""Geometry metrics, held-out evaluation, and routing-consistency analytics.

Chamfer distance is the non-squared, symmetric mean convention:
``CD = mean_a min_b |a-b| + mean_b min_a |a-b|``; tables report it times
1e3. F-score counts a nearest-neighbor hit when the distance is <= the
threshold (boundary inclusive) and is reported in percent. Nearest
neighbors come from one exact, blocked numpy pass over all pairs: every
call compares at most ``grid**3`` decoded points with one shape, a size at
which the pass is as fast as building two KD trees, so numpy is the only
dependency. The test suite pins its distances to a brute-force double loop
exactly.

Routing consistency is the pairwise agreement rate of a token's hard view
choices across blocks, timesteps, or both jointly; every value lies in
[0, 1] and equals 1 on a constant trace. A routing trace file is the tensor
container of checkpoint.py holding ``trace`` (T, L, N) and ``views``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checkpoint import CheckpointError, load_tensors, save_sidecar, save_tensors
from .config import ConfigError, RunConfig, WorldConfig
from .model import Model, integrate_flow, latent_decode
from .rng import stream
from .world import Camera, PointCloud, encode_view

# Rows of the smaller cloud per block of the nearest-neighbor pass. Against a
# 2048-point shape its two scratch buffers take 256 KB each; at 32 or 64 rows
# the allocator handed them back to the OS after every call, and each call
# faulted them in again.
_BLOCK_ROWS = 16

# Worst-case sentinel for an empty decoded cloud: the diameter of the
# canonical box, larger than any real Chamfer distance inside it.
EMPTY_CLOUD_CD = 2.0 * np.sqrt(3.0)


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
    if not np.isfinite(pts).all():
        raise ValueError("point cloud has non-finite coordinates")
    return pts


def _both_ways(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Exact nearest-neighbor distances a -> b and b -> a from one pass over all pairs.

    Blocks of rows of the smaller cloud are compared with the whole larger
    one: the squared differences are summed in x, y, z order, the minima are
    taken along both axes, and only the minima get a square root. The sum
    order is that of a per-point loop and ``sqrt`` is correctly rounded and
    monotone, so every distance is bit-identical to a brute-force search.
    """
    pa, pb = _points(a), _points(b)
    swap = len(pa) > len(pb)
    small, large = (pb, pa) if swap else (pa, pb)
    coords = np.ascontiguousarray(large.T)
    to_large = np.empty(len(small))
    to_small = np.full(len(large), np.inf)
    rows = min(_BLOCK_ROWS, len(small))
    acc, tmp = np.empty((rows, len(large))), np.empty((rows, len(large)))
    for i in range(0, len(small), rows):
        block = small[i:i + rows]
        d, t = acc[:len(block)], tmp[:len(block)]
        np.subtract(block[:, 0, None], coords[0], out=d)
        np.square(d, out=d)
        for k in (1, 2):
            np.subtract(block[:, k, None], coords[k], out=t)
            np.square(t, out=t)
            d += t
        d.min(axis=1, out=to_large[i:i + len(block)])
        np.minimum(to_small, d.min(axis=0), out=to_small)
    np.sqrt(to_large, out=to_large)
    np.sqrt(to_small, out=to_small)
    return (to_small, to_large) if swap else (to_large, to_small)


def _chamfer(d_ab: np.ndarray, d_ba: np.ndarray) -> float:
    return float(np.mean(d_ab) + np.mean(d_ba))


def _f_score(d_ab: np.ndarray, d_ba: np.ndarray, threshold: float) -> float:
    precision = float(np.mean(d_ab <= threshold))
    recall = float(np.mean(d_ba <= threshold))
    if precision + recall == 0.0:
        return 0.0
    # grouping keeps F1(A, B) == F1(B, A) bit-exact under the P/R swap
    return 200.0 * (precision * recall) / (precision + recall)


def geo_metrics(pred, target) -> GeoMetrics:
    """CD and both F-scores from one nearest-neighbor pass."""
    d = _both_ways(pred, target)
    return GeoMetrics(cd=_chamfer(*d), f1_at_0_1=_f_score(*d, 0.1),
                      f1_at_0_05=_f_score(*d, 0.05))


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


def _agreement(trace: np.ndarray, axes: tuple[int, ...], slots: str) -> np.ndarray:
    """Pairwise agreement rate of the view choices over the ``slots`` that ``axes``
    of a (T, L, N) trace span, one rate per position along the other axes."""
    trace = _check_trace(trace)
    moved = np.moveaxis(trace, axes, range(len(axes)))
    n = math.prod(moved.shape[:len(axes)])
    if n < 2:
        raise ValueError(f"need at least two {slots}")
    flat = moved.reshape(n, *moved.shape[len(axes):])
    counts = np.stack([(flat == v).sum(axis=0) for v in range(int(trace.max()) + 1)], axis=-1)
    agree = 0.5 * (counts * (counts - 1.0)).sum(axis=-1)
    return agree / (0.5 * n * (n - 1.0))


def cross_block_consistency(trace: np.ndarray) -> float:
    """Mean pairwise agreement of a token's view choice across blocks."""
    return float(_agreement(trace, (1,), "blocks").mean())


def cross_timestep_consistency(trace: np.ndarray) -> float:
    """Mean pairwise agreement of a (block, token) choice across timesteps."""
    return float(_agreement(trace, (0,), "timesteps").mean())


def global_per_token(trace: np.ndarray) -> np.ndarray:
    """Per-token agreement over all (timestep, block) slot pairs."""
    return _agreement(trace, (0, 1), "(timestep, block) slots")


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
    for cross-timestep; a third with no timestep or block in it (fewer than
    three to split) is None, which JSON writes as null. Traces whose
    timestep or block counts differ, or that have fewer than two of either,
    raise ConfigError.
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
            out[name] = (float(np.mean([metric(splitter(t, rows)) for t in traces]))
                         if rows.size else None)
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


def shape_features(pc: PointCloud, count: int, world: WorldConfig) -> np.ndarray:
    """(count, S, feat_dim) views of ``pc`` under the first ``count`` evaluation cameras."""
    return np.stack([encode_view(pc, cam, world) for cam in eval_cameras(count)])


def evaluate(model: Model, split, cfg: RunConfig, view_counts) -> dict:
    """Decode held-out shapes under each view count and score the geometry.

    The initial noise is drawn from ``cfg.seed`` once per shape and reused
    for every view count, so per-shape comparisons across counts are paired.
    Empty decodes score the worst-case sentinel and are counted separately.
    Non-finite ``split.points`` raise ValueError.
    """
    if not np.isfinite(split.points).all():
        raise ValueError("evaluate needs finite split.points")
    n = len(split)
    N, D = split.latents.shape[1:]
    z_init = np.stack([stream(cfg.seed, "eval-noise", j).normal(size=(N, D)) for j in range(n)])
    feats_all = np.stack([shape_features(PointCloud(split.points[j]), max(view_counts),
                                         cfg.world) for j in range(n)])

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
    """Tensor container of ``trace`` (T, L, N) hard view indices and their view
    count ``views``; the caller's ``meta`` goes in the JSON sidecar."""
    trace = _check_trace(trace)
    if trace.max() >= view_count:
        raise ValueError("trace index exceeds view count")
    save_tensors(path, {"trace": trace, "views": np.array(view_count)})
    save_sidecar(path, meta or {})


def load_trace(path) -> tuple[np.ndarray, int]:
    """Read a ``save_trace`` file as (trace, views).

    ``load_tensors`` checks the container. A missing ``trace`` or ``views``,
    a ``views`` that is not one integer, or a trace that is not a non-empty
    (T, L, N) array of integers in ``0..views-1`` (so ``views < 1`` too) is
    a CheckpointError.
    """
    tensors = load_tensors(path)
    if not {"trace", "views"} <= tensors.keys():
        raise CheckpointError(f"{path}: not a routing trace (needs 'trace' and 'views')")
    trace, views = tensors["trace"], tensors["views"]
    if views.shape != () or views != np.floor(views):
        raise CheckpointError(f"{path}: views must be one integer, got {views}")
    if trace.ndim != 3 or trace.size == 0:
        raise CheckpointError(f"{path}: trace must be a non-empty (T, L, N) array, "
                              f"got {trace.shape}")
    if not ((trace >= 0) & (trace < views) & (trace == np.floor(trace))).all():
        raise CheckpointError(f"{path}: trace entries must be view indices in "
                              f"0..{int(views) - 1}")
    return trace.astype(np.int64), int(views)
