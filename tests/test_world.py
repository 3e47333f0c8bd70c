"""Shapes, rotation, cameras, the synthetic view encoder, and the dataset build."""

import threading

import numpy as np
import pytest

from roar3d.config import IMAGE_EXTENT, LIFT_SEED, WorldConfig
from roar3d.data import build_dataset
from roar3d.evaluation import chamfer_distance
from roar3d.rng import stream
from roar3d.world import (
    Camera,
    PointCloud,
    azimuth_bin,
    encode_view,
    feature_lift_matrix,
    generate_shape,
    rotate_azimuth,
    sample_views,
)

CFG = WorldConfig()


# ---------------------------------------------------------------------------
# generate_shape
# ---------------------------------------------------------------------------


def test_generate_shape_deterministic():
    a = generate_shape(42, "notched-box")
    b = generate_shape(42, "notched-box")
    assert np.array_equal(a.points, b.points)


def test_generate_shape_unknown_class():
    with pytest.raises(ValueError):
        generate_shape(0, "klein-bottle")


def test_generate_shape_bbox_contract():
    for seed in range(8):
        for klass in CFG.classes:
            pc = generate_shape(seed, klass, points=512)
            lo, hi = pc.points.min(axis=0), pc.points.max(axis=0)
            assert (lo >= -1.0).all() and (hi <= 1.0).all()
            center = 0.5 * (lo + hi)
            assert np.abs(center).max() < 1e-12
            assert pc.points.shape[0] >= 16


@pytest.mark.parametrize("klass", CFG.classes)
def test_no_quarter_rotation_maps_shape_to_itself(klass):
    """Chamfer distance to every nontrivial quarter rotation stays above 0.05."""
    for seed in (1, 2, 3, 11, 29):
        pc = generate_shape(seed, klass, points=768)
        for deg in (90.0, 180.0, 270.0):
            cd = chamfer_distance(pc, rotate_azimuth(pc, deg))
            assert cd > 0.05, f"{klass} seed {seed} rot {deg}: CD {cd}"


# ---------------------------------------------------------------------------
# rotate_azimuth
# ---------------------------------------------------------------------------


def test_rotate_zero_is_identity():
    pc = generate_shape(5, "l-prism", points=128)
    assert np.array_equal(rotate_azimuth(pc, 0.0).points, pc.points)


def test_rotate_quarter_turns_compose_exactly():
    pc = generate_shape(5, "asymmetric-cross", points=128)
    twice = rotate_azimuth(rotate_azimuth(pc, 90.0), 90.0)
    once = rotate_azimuth(pc, 180.0)
    assert np.abs(twice.points - once.points).max() < 1e-12


def test_rotate_analytic_point():
    pc = PointCloud(points=np.array([[1.0, 0.0, 0.0]]))
    out = rotate_azimuth(pc, 90.0)
    assert np.array_equal(out.points, [[0.0, 1.0, 0.0]])


def test_rotate_preserves_pairwise_distances():
    pc = generate_shape(9, "stepped-pyramid", points=200)
    rot = rotate_azimuth(pc, 37.5)
    d0 = np.linalg.norm(pc.points[:50, None] - pc.points[None, 50:100], axis=-1)
    d1 = np.linalg.norm(rot.points[:50, None] - rot.points[None, 50:100], axis=-1)
    assert np.abs(d0 - d1).max() < 1e-12
    assert rot.points.shape == pc.points.shape


# ---------------------------------------------------------------------------
# cameras
# ---------------------------------------------------------------------------


def test_azimuth_bin_boundaries():
    # half-up rounding: a boundary azimuth belongs to the next bin
    assert azimuth_bin(0.0) == 0
    assert azimuth_bin(44.999) == 0
    assert azimuth_bin(45.0) == 1
    assert azimuth_bin(314.9) == 3
    assert azimuth_bin(315.0) == 0
    assert azimuth_bin(359.9) == 0


def test_sample_views_single_bin_range():
    cams = sample_views(stream(0, "views"), count=64, bins=(0,))
    for cam in cams:
        assert azimuth_bin(cam.azimuth) == 0
        folded = (cam.azimuth + 45.0) % 360.0
        assert 0.0 <= folded < 90.0


def test_sample_views_bin_frequencies():
    cams = sample_views(stream(7, "views"), count=10_000, bins=(0, 1, 2, 3))
    freq = np.bincount([azimuth_bin(c.azimuth) for c in cams], minlength=4) / 10_000
    assert np.abs(freq - 0.25).max() < 0.02


def test_sample_views_deterministic():
    a = sample_views(stream(3, "views"), count=10, bins=(1, 2))
    b = sample_views(stream(3, "views"), count=10, bins=(1, 2))
    assert [(c.azimuth, c.elevation) for c in a] == [(c.azimuth, c.elevation) for c in b]


def test_sample_views_rejects_empty_bins():
    with pytest.raises(ValueError):
        sample_views(stream(0, "views"), count=1, bins=())
    with pytest.raises(ValueError):
        sample_views(stream(0, "views"), count=1, bins=(5,))


def test_stream_rejects_root_seed_outside_range():
    for seed in (-1, 2**63, 2**64 - 1):
        with pytest.raises(ValueError, match="root seed"):
            stream(seed, "views")
    assert stream(2**63 - 1, "views").random() != stream(0, "views").random()


# ---------------------------------------------------------------------------
# encode_view
# ---------------------------------------------------------------------------


def test_encode_view_deterministic():
    pc = generate_shape(13, "notched-box", points=512)
    cam = Camera(azimuth=30.0, elevation=-10.0)
    assert np.array_equal(encode_view(pc, cam, CFG), encode_view(pc, cam, CFG))


@pytest.mark.parametrize("feat_dim", [8, 32])
def test_feature_lift_is_drawn_once_and_read_only(feat_dim):
    """One read-only lift per feat_dim, equal to a fresh draw from LIFT_SEED."""
    lift = feature_lift_matrix(WorldConfig(feat_dim=feat_dim))
    fresh = stream(LIFT_SEED, "feature-lift").normal(size=(feat_dim, 5)) / np.sqrt(5.0)
    assert lift.tobytes() == fresh.tobytes()
    assert feature_lift_matrix(WorldConfig(feat_dim=feat_dim)) is lift
    assert not lift.flags.writeable
    with pytest.raises(ValueError):
        lift[0, 0] = 0.0


def test_encode_view_empty_patch_gives_zero_feature():
    # a single tight cluster occupies exactly one patch; all others are empty
    pts = np.full((64, 3), 0.9) + np.linspace(0, 0.01, 64)[:, None]
    pc = PointCloud(points=np.clip(pts, -1, 1))
    feats = encode_view(pc, Camera(azimuth=0.0, elevation=0.0), CFG)
    occupied = np.abs(feats).sum(axis=1) > 0
    assert occupied.sum() == 1
    assert np.array_equal(feats[~occupied], np.zeros_like(feats[~occupied]))


def test_encode_view_locality():
    """Moving the points of one patch changes only the affected patches."""
    rng = np.random.default_rng(4)
    pts = rng.uniform(-0.9, 0.9, size=(400, 3))
    pc = PointCloud(points=pts)
    cam = Camera(azimuth=0.0, elevation=0.0)
    base = encode_view(pc, cam, CFG)

    # recompute patch membership exactly as the encoder does
    from roar3d.world import camera_basis

    right, up, _ = camera_basis(cam)
    px, py = pts @ right, pts @ up
    g, extent = CFG.patch_grid, IMAGE_EXTENT
    cell = 2 * extent / g
    gx = np.clip(np.floor((px + extent) / cell).astype(int), 0, g - 1)
    gy = np.clip(np.floor((py + extent) / cell).astype(int), 0, g - 1)
    pid = gy * g + gx

    source = 5  # translate this patch's points along the camera's right axis
    moved = pts.copy()
    moved[pid == source] += cell * right
    px2, py2 = moved @ right, moved @ up
    gx2 = np.clip(np.floor((px2 + extent) / cell).astype(int), 0, g - 1)
    gy2 = np.clip(np.floor((py2 + extent) / cell).astype(int), 0, g - 1)
    dests = {int(p) for p in (gy2 * g + gx2)[pid == source]}

    feats2 = encode_view(PointCloud(points=moved), cam, CFG)
    changed = {int(p) for p in np.nonzero(np.abs(base - feats2).sum(axis=1) > 0)[0]}
    assert source in changed
    assert changed <= {source} | dests


def test_encode_view_canonical_cameras_distinguishable():
    """Mean-pooled features of the four bin-center views stay well separated.

    Frozen regression floor, measured over seeds on notched-box clouds
    (observed minimum 0.029 across seeds 0..4; mean pooling cancels most of
    the per-patch signal, so the pooled keys sit close together).
    """
    floor = 0.02
    for seed in (0, 1, 2, 3, 4):
        pc = generate_shape(seed, "notched-box")
        pooled = [encode_view(pc, Camera(azimuth=a, elevation=0.0), CFG).mean(axis=0)
                  for a in (0.0, 90.0, 180.0, 270.0)]
        for i in range(4):
            for j in range(i + 1, 4):
                dist = float(np.linalg.norm(pooled[i] - pooled[j]))
                assert dist > floor, f"seed {seed} views {i},{j}: {dist}"


# ---------------------------------------------------------------------------
# build_dataset
# ---------------------------------------------------------------------------


def test_build_dataset_runs_in_the_calling_thread(micro_cfg, tmp_path, monkeypatch):
    build_dataset(micro_cfg, tmp_path / "normal")
    monkeypatch.delenv("ROAR_THREADS", raising=False)

    def refuse(self):
        raise AssertionError("build_dataset started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    build_dataset(micro_cfg, tmp_path / "no-threads")
    normal = sorted(p.name for p in (tmp_path / "normal").iterdir())
    assert normal == sorted(p.name for p in (tmp_path / "no-threads").iterdir())
    for name in normal:
        assert (tmp_path / "no-threads" / name).read_bytes() == \
            (tmp_path / "normal" / name).read_bytes(), name
