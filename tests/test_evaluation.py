"""Geometry metrics and routing-consistency analytics against brute force."""

import dataclasses
import itertools

import numpy as np
import pytest

from roar3d.checkpoint import CheckpointError, load_sidecar, load_tensors, save_tensors
from roar3d.evaluation import (
    EMPTY_CLOUD_CD,
    GeoMetrics,
    consistency_report,
    cross_block_consistency,
    cross_timestep_consistency,
    evaluate,
    geo_metrics,
    global_consistency,
    load_trace,
    save_trace,
)
from roar3d.model import Model


def _brute_nn(src, dst):
    """Exhaustive nearest-neighbor distances: one vectorized row per point."""
    return np.array([np.sqrt(((dst - a) ** 2).sum(axis=1)).min() for a in src])


def _brute_chamfer(a, b):
    return float(np.mean(_brute_nn(a, b)) + np.mean(_brute_nn(b, a)))


def _brute_fscore(a, b, thr):
    p = float(np.mean(_brute_nn(a, b) <= thr))
    r = float(np.mean(_brute_nn(b, a) <= thr))
    return 0.0 if p + r == 0 else 200.0 * (p * r) / (p + r)


def _grid(n, spacing):
    axis = spacing * (np.arange(n) - (n - 1) / 2)
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)


def _edge_pairs():
    """Cloud pairs at the edges of the blocked nearest-neighbor pass: decoded-cloud
    sizes (1 to 64 points) against one 2048-point shape, 130 points crossing block
    boundaries in both argument orders, and a 4^3 grid inside an 8^3 grid, where
    every coarse point has eight nearest neighbors at exactly the same distance."""
    rng = np.random.default_rng(8)
    shape = rng.uniform(-1, 1, (2048, 3))
    pairs = [(rng.uniform(-1, 1, (n, 3)), shape) for n in (1, 2, 16, 17, 20, 63, 64)]
    cloud = rng.uniform(-1, 1, (130, 3))
    return pairs + [(cloud, shape), (shape, cloud), (_grid(4, 0.125), _grid(8, 0.0625))]


# ---------------------------------------------------------------------------
# chamfer distance
# ---------------------------------------------------------------------------


def test_chamfer_identical_clouds():
    pts = np.random.default_rng(0).uniform(-1, 1, (64, 3))
    assert geo_metrics(pts, pts).cd == 0.0


def test_chamfer_two_points_analytic():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[0.1, 0.0, 0.0]])
    cd = geo_metrics(a, b).cd
    assert abs(cd - 0.2) < 1e-15
    assert abs(1e3 * cd - 200.0) < 1e-12  # reported x1e3 convention


def test_chamfer_rejects_empty():
    with pytest.raises(ValueError):
        geo_metrics(np.zeros((0, 3)), np.ones((3, 3)))


def test_chamfer_matches_brute_force_exactly():
    rng = np.random.default_rng(1)
    pairs = [(rng.uniform(-1, 1, (int(rng.integers(5, 500)), 3)),
              rng.uniform(-1, 1, (int(rng.integers(5, 500)), 3))) for _ in range(30)]
    for a, b in pairs + _edge_pairs():
        assert geo_metrics(a, b).cd == _brute_chamfer(a, b)


def test_chamfer_symmetric_exactly():
    rng = np.random.default_rng(2)
    a = rng.uniform(-1, 1, (40, 3))
    b = rng.uniform(-1, 1, (60, 3))
    assert geo_metrics(a, b).cd == geo_metrics(b, a).cd


def test_chamfer_matches_pure_python_double_loop():
    rng = np.random.default_rng(3)
    a = rng.uniform(-1, 1, (30, 3))
    b = rng.uniform(-1, 1, (25, 3))
    dists = []
    for p in a:
        best = None
        for q in b:
            dx, dy, dz = p[0] - q[0], p[1] - q[1], p[2] - q[2]
            d = (dx * dx + dy * dy + dz * dz) ** 0.5
            best = d if best is None or d < best else best
        dists.append(best)
    rev = []
    for q in b:
        best = None
        for p in a:
            dx, dy, dz = p[0] - q[0], p[1] - q[1], p[2] - q[2]
            d = (dx * dx + dy * dy + dz * dz) ** 0.5
            best = d if best is None or d < best else best
        rev.append(best)
    expect = float(np.mean(dists) + np.mean(rev))
    assert geo_metrics(a, b).cd == expect


# ---------------------------------------------------------------------------
# f-score
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", [0, 1])
def test_metrics_reject_non_finite_points(side, bad):
    clouds = [np.zeros((4, 3)), np.ones((5, 3))]
    clouds[side][2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        geo_metrics(*clouds)


def test_fscore_identical_clouds():
    pts = np.random.default_rng(4).uniform(-1, 1, (32, 3))
    assert geo_metrics(pts, pts).f1_at_0_05 == 100.0


def test_fscore_two_points_below_threshold():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[0.1, 0.0, 0.0]])
    assert geo_metrics(a, b).f1_at_0_05 == 0.0


def test_fscore_boundary_inclusive():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[0.1, 0.0, 0.0]])
    assert geo_metrics(a, b).f1_at_0_1 == 100.0  # distance == threshold counts


def test_fscore_symmetric_and_matches_brute_force():
    rng = np.random.default_rng(5)
    pairs = [(rng.uniform(-1, 1, (int(rng.integers(5, 200)), 3)),
              rng.uniform(-1, 1, (int(rng.integers(5, 200)), 3))) for _ in range(20)]
    for a, b in pairs + _edge_pairs():
        m, swapped = geo_metrics(a, b), geo_metrics(b, a)
        assert m.f1_at_0_05 == _brute_fscore(a, b, 0.05) == swapped.f1_at_0_05
        assert m.f1_at_0_1 == _brute_fscore(a, b, 0.1) == swapped.f1_at_0_1


def test_geo_metrics_match_brute_force_on_unequal_clouds():
    """One nearest-neighbor pass gives CD and both F-scores of brute force bit for bit."""
    rng = np.random.default_rng(7)
    pairs = [(rng.uniform(-1, 1, (na, 3)), rng.uniform(-1, 1, (nb, 3)))
             for na, nb in ((1, 300), (57, 200), (400, 13))]
    for a, b in pairs + _edge_pairs():
        assert geo_metrics(a, b) == GeoMetrics(_brute_chamfer(a, b), _brute_fscore(a, b, 0.1),
                                               _brute_fscore(a, b, 0.05))


# ---------------------------------------------------------------------------
# routing consistency
# ---------------------------------------------------------------------------


def _brute_cross_block(trace):
    T, L, N = trace.shape
    vals = []
    for t in range(T):
        for n in range(N):
            agree = sum(trace[t, i, n] == trace[t, j, n]
                        for i, j in itertools.combinations(range(L), 2))
            vals.append(agree / (L * (L - 1) / 2))
    return float(np.mean(vals))


def _brute_cross_timestep(trace):
    T, L, N = trace.shape
    vals = []
    for l in range(L):
        for n in range(N):
            agree = sum(trace[i, l, n] == trace[j, l, n]
                        for i, j in itertools.combinations(range(T), 2))
            vals.append(agree / (T * (T - 1) / 2))
    return float(np.mean(vals))


def _brute_global(trace):
    T, L, N = trace.shape
    slots = [(t, l) for t in range(T) for l in range(L)]
    vals = []
    for n in range(N):
        agree = sum(trace[a][n] == trace[b][n]
                    for a, b in itertools.combinations(slots, 2))
        vals.append(agree / (len(slots) * (len(slots) - 1) / 2))
    return float(np.mean(vals))


def test_consistency_constant_trace_is_one():
    trace = np.full((5, 4, 6), 2)
    assert cross_block_consistency(trace) == 1.0
    assert cross_timestep_consistency(trace) == 1.0
    assert global_consistency(trace) == 1.0


def test_cross_block_total_disagreement():
    trace = np.zeros((3, 2, 4), dtype=int)
    trace[:, 1, :] = 1  # two blocks, always picking different views
    assert cross_block_consistency(trace) == 0.0


def test_cross_timestep_alternating():
    trace = np.zeros((2, 3, 4), dtype=int)
    trace[1] = 1  # T=2, always switching
    assert cross_timestep_consistency(trace) == 0.0


def test_global_half_split_closed_form():
    T, L = 4, 3
    slots = T * L
    trace = np.zeros((T, L, 2), dtype=int)
    flat = trace.reshape(slots, 2)
    flat[slots // 2:, :] = 1  # each token: half the slots view 0, half view 1
    expect = 2 * (slots // 2) * (slots // 2 - 1) / 2 / (slots * (slots - 1) / 2)
    assert abs(global_consistency(trace) - expect) < 1e-15


def test_consistency_matches_brute_force_on_random_micro_traces():
    rng = np.random.default_rng(7)
    for _ in range(50):
        T = int(rng.integers(2, 5))
        L = int(rng.integers(2, 5))
        N = int(rng.integers(1, 5))
        V = int(rng.integers(2, 4))
        trace = rng.integers(0, V, size=(T, L, N))
        assert cross_block_consistency(trace) == _brute_cross_block(trace)
        assert cross_timestep_consistency(trace) == _brute_cross_timestep(trace)
        assert global_consistency(trace) == _brute_global(trace)


def test_consistency_invariant_under_view_relabeling():
    rng = np.random.default_rng(8)
    trace = rng.integers(0, 4, size=(4, 3, 5))
    perm = np.array([2, 3, 1, 0])
    relabeled = perm[trace]
    assert cross_block_consistency(trace) == cross_block_consistency(relabeled)
    assert cross_timestep_consistency(trace) == cross_timestep_consistency(relabeled)
    assert global_consistency(trace) == global_consistency(relabeled)


def test_consistency_values_in_unit_interval():
    rng = np.random.default_rng(9)
    for _ in range(20):
        trace = rng.integers(0, 3, size=(5, 4, 6))
        for fn in (cross_block_consistency, cross_timestep_consistency, global_consistency):
            v = fn(trace)
            assert 0.0 <= v <= 1.0


def test_consistency_report_structure():
    rng = np.random.default_rng(10)
    traces = [rng.integers(0, 3, size=(6, 4, 8)) for _ in range(5)]
    rep = consistency_report(traces)
    for key in ("cross_block", "cross_timestep", "global"):
        for field in ("mean", "std", "early", "mid", "late"):
            assert field in rep[key]
            if field != "std":
                assert 0.0 <= rep[key][field] <= 1.0
    assert rep["traces"] == 5
    # constant traces: every metric is exactly 1 with zero spread
    rep1 = consistency_report([np.ones((6, 4, 8), dtype=int)] * 3)
    assert rep1["cross_block"]["mean"] == 1.0
    assert rep1["global"]["mean"] == 1.0
    assert rep1["cross_timestep"]["std"] == 0.0


# ---------------------------------------------------------------------------
# trace files
# ---------------------------------------------------------------------------


def test_trace_roundtrip(tmp_path):
    """A trace file is a tensor container of the trace and its view count; the sidecar
    holds the caller's meta and nothing else."""
    rng = np.random.default_rng(11)
    trace = rng.integers(0, 5, size=(7, 3, 9))
    path = tmp_path / "run.bin"
    save_trace(path, trace, view_count=5, meta={"shape_id": "x", "seed": 4})
    loaded, v = load_trace(path)
    assert v == 5
    assert np.array_equal(loaded, trace)
    tensors = load_tensors(path)
    assert list(tensors) == ["trace", "views"] and tensors["views"].shape == ()
    assert load_sidecar(path) == {"shape_id": "x", "seed": 4}


_TRACE = {"trace": np.zeros((2, 2, 3)), "views": np.array(2.0)}


@pytest.mark.parametrize("change", [
    lambda t: t.pop("trace"),
    lambda t: t.pop("views"),
    lambda t: t.update(trace=np.full((2, 2, 3), 0.5)),
    lambda t: t.update(trace=np.full((2, 2, 3), -1.0)),
    lambda t: t.update(trace=np.full((2, 2, 3), 2.0)),
    lambda t: t.update(trace=np.zeros((2, 3))),
    lambda t: t.update(trace=np.zeros((0, 2, 3))),
    lambda t: t.update(views=np.array(0.0)),
    lambda t: t.update(views=np.array(1.5)),
    lambda t: t.update(views=np.array([2.0])),
], ids=["no-trace", "no-views", "index-not-integer", "index-negative", "index-outside-views",
        "trace-not-3d", "trace-empty", "views-zero", "views-not-integer", "views-not-scalar"])
def test_load_trace_rejects_a_container_that_is_not_a_trace(tmp_path, change):
    path = tmp_path / "t.bin"
    save_tensors(path, _TRACE)
    assert load_trace(path)[1] == 2  # the unchanged container is a trace
    tensors = dict(_TRACE)
    change(tensors)
    save_tensors(path, tensors)
    with pytest.raises(CheckpointError):
        load_trace(path)


def test_empty_cloud_sentinel_value():
    assert EMPTY_CLOUD_CD > 2.0  # larger than any CD inside the unit box


def test_evaluate_rejects_non_finite_points(micro_cfg, micro_dataset):
    split = micro_dataset.split("test")
    points = split.points.copy()
    points[0, 0, 0] = np.nan
    model = Model.create(micro_cfg.model, 0)
    with pytest.raises(ValueError, match="finite split.points"):
        evaluate(model, dataclasses.replace(split, points=points), micro_cfg, view_counts=(1,))
