"""Procedural 3D world: shapes, azimuth rotation, cameras, view encoding.

Shapes are unions of axis-aligned rectangles sampled by area, one generator
per class. Every class is rotationally asymmetric by construction (seeded
continuous dimensions, off-center cutouts) so a 90/180/270 degree azimuth
error is always measurable in Chamfer distance.

The view encoder is a deterministic stand-in for a pretrained image encoder:
it orthographically projects the cloud along the camera direction, computes
five statistics per patch (occupancy fraction, mean depth, depth variance,
2-D centroid offset) and lifts them to ``feat_dim`` channels through a fixed
seeded linear map shared across all views and runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import IMAGE_EXTENT, LIFT_SEED, OCCLUSION_WINDOW, SHAPE_CLASSES, WorldConfig
from .rng import stream

BIN_CENTERS = (0.0, 90.0, 180.0, 270.0)


@dataclass
class PointCloud:
    """Surface samples in the canonical [-1, 1]^3 box, bbox centered at origin."""

    points: np.ndarray            # (P, 3) float64


@dataclass
class Camera:
    azimuth: float                # degrees in [0, 360)
    elevation: float              # degrees

    def __post_init__(self):
        self.azimuth = float(self.azimuth) % 360.0
        self.elevation = float(self.elevation)


def azimuth_bin(azimuth: float) -> int:
    """Bin index, 90-degree sectors centered at 0/90/180/270 (half-up rounding)."""
    return int(math.floor(((azimuth % 360.0) + 45.0) / 90.0)) % 4


# ---------------------------------------------------------------------------
# shape generation
# ---------------------------------------------------------------------------


def _rect(corner, du, dv) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (np.asarray(corner, float), np.asarray(du, float), np.asarray(dv, float))


def _box_sides(x0, x1, y0, y1, z0, z1, skip=()) -> list:
    """Six faces of an axis-aligned box, minus the named ones."""
    faces = {
        "-x": _rect((x0, y0, z0), (0, y1 - y0, 0), (0, 0, z1 - z0)),
        "+x": _rect((x1, y0, z0), (0, y1 - y0, 0), (0, 0, z1 - z0)),
        "-y": _rect((x0, y0, z0), (x1 - x0, 0, 0), (0, 0, z1 - z0)),
        "+y": _rect((x0, y1, z0), (x1 - x0, 0, 0), (0, 0, z1 - z0)),
        "-z": _rect((x0, y0, z0), (x1 - x0, 0, 0), (0, y1 - y0, 0)),
        "+z": _rect((x0, y0, z1), (x1 - x0, 0, 0), (0, y1 - y0, 0)),
    }
    return [r for name, r in faces.items() if name not in skip]


def _ring(ox0, ox1, oy0, oy1, ix0, ix1, iy0, iy1, z) -> list:
    """Flat ring at height z: outer rectangle minus inner rectangle."""
    return [
        _rect((ox0, oy0, z), (ix0 - ox0, 0, 0), (0, oy1 - oy0, 0)),
        _rect((ix1, oy0, z), (ox1 - ix1, 0, 0), (0, oy1 - oy0, 0)),
        _rect((ix0, oy0, z), (ix1 - ix0, 0, 0), (0, iy0 - oy0, 0)),
        _rect((ix0, iy1, z), (ix1 - ix0, 0, 0), (0, oy1 - iy1, 0)),
    ]


def _mirror(rects, sx: float, sy: float) -> list:
    """Reflect a rect list through x -> sx*x, y -> sy*y (sx, sy in {-1, +1})."""
    if sx == 1.0 and sy == 1.0:
        return rects
    flip = np.array([sx, sy, 1.0])
    return [(o * flip, e1 * flip, e2 * flip) for o, e1, e2 in rects]


def _notched_box(rng) -> list:
    """Box with a corner notch; the carved corner is seeded, so which side
    hides the concavity varies per shape - a single view cannot rely on a
    class-wide prior for it."""
    a = rng.uniform(0.62, 0.88)
    b = rng.uniform(0.34, 0.50)
    c = rng.uniform(0.40, 0.65)
    x0 = a - rng.uniform(0.5, 0.9) * a
    y0 = b - rng.uniform(0.5, 0.9) * b
    z0 = c - rng.uniform(0.6, 1.1) * c
    rects = _box_sides(-a, a, -b, b, -c, c, skip=("+x", "+y", "+z"))
    rects += [
        # +x face around the notch
        _rect((a, -b, -c), (0, y0 + b, 0), (0, 0, 2 * c)),
        _rect((a, y0, -c), (0, b - y0, 0), (0, 0, z0 + c)),
        # +y face around the notch
        _rect((-a, b, -c), (x0 + a, 0, 0), (0, 0, 2 * c)),
        _rect((x0, b, -c), (a - x0, 0, 0), (0, 0, z0 + c)),
        # +z face around the notch
        _rect((-a, -b, c), (x0 + a, 0, 0), (0, 2 * b, 0)),
        _rect((x0, -b, c), (a - x0, 0, 0), (0, y0 + b, 0)),
        # interior notch walls
        _rect((x0, y0, z0), (0, b - y0, 0), (0, 0, c - z0)),
        _rect((x0, y0, z0), (a - x0, 0, 0), (0, 0, c - z0)),
        _rect((x0, y0, z0), (a - x0, 0, 0), (0, b - y0, 0)),
    ]
    return _mirror(rects, rng.choice((-1.0, 1.0)), rng.choice((-1.0, 1.0)))


def _l_prism(rng) -> list:
    a = rng.uniform(0.55, 0.85)
    b = rng.uniform(0.45, 0.70)
    c = rng.uniform(0.30, 0.55)
    x0 = rng.uniform(-0.3, 0.35) * a
    y0 = rng.uniform(-0.3, 0.35) * b
    sides = [
        _rect((-a, -b, -c), (2 * a, 0, 0), (0, 0, 2 * c)),          # y = -b
        _rect((a, -b, -c), (0, y0 + b, 0), (0, 0, 2 * c)),          # x = +a
        _rect((x0, y0, -c), (a - x0, 0, 0), (0, 0, 2 * c)),         # step top
        _rect((x0, y0, -c), (0, b - y0, 0), (0, 0, 2 * c)),         # step side
        _rect((-a, b, -c), (x0 + a, 0, 0), (0, 0, 2 * c)),          # y = +b
        _rect((-a, -b, -c), (0, 2 * b, 0), (0, 0, 2 * c)),          # x = -a
    ]
    caps = []
    for z in (-c, c):
        caps.append(_rect((-a, -b, z), (2 * a, 0, 0), (0, y0 + b, 0)))
        caps.append(_rect((-a, y0, z), (x0 + a, 0, 0), (0, b - y0, 0)))
    # seeded corner choice: the cut may face any horizontal direction
    return _mirror(sides + caps, rng.choice((-1.0, 1.0)), rng.choice((-1.0, 1.0)))


def _asymmetric_cross(rng) -> list:
    a1 = rng.uniform(0.55, 0.9)
    a2 = rng.uniform(0.25, 0.45)
    b1 = rng.uniform(0.3, 0.45)
    b2 = rng.uniform(0.55, 0.9)
    w = rng.uniform(0.12, 0.2)    # x-arm half width
    u = rng.uniform(0.12, 0.2)    # y-arm half width
    c = rng.uniform(0.25, 0.45)
    sides = [
        _rect((-a1, -w, -c), (0, 2 * w, 0), (0, 0, 2 * c)),
        _rect((a2, -w, -c), (0, 2 * w, 0), (0, 0, 2 * c)),
        _rect((-u, -b1, -c), (2 * u, 0, 0), (0, 0, 2 * c)),
        _rect((-u, b2, -c), (2 * u, 0, 0), (0, 0, 2 * c)),
    ]
    for y in (-w, w):
        sides.append(_rect((-a1, y, -c), (a1 - u, 0, 0), (0, 0, 2 * c)))
        sides.append(_rect((u, y, -c), (a2 - u, 0, 0), (0, 0, 2 * c)))
    for x in (-u, u):
        sides.append(_rect((x, w, -c), (0, b2 - w, 0), (0, 0, 2 * c)))
        sides.append(_rect((x, -b1, -c), (0, b1 - w, 0), (0, 0, 2 * c)))
    caps = []
    for z in (-c, c):
        caps.append(_rect((-a1, -w, z), (a1 + a2, 0, 0), (0, 2 * w, 0)))
        caps.append(_rect((-u, w, z), (2 * u, 0, 0), (0, b2 - w, 0)))
        caps.append(_rect((-u, -b1, z), (2 * u, 0, 0), (0, b1 - w, 0)))
    # seeded reflection: which arm is the long one varies per shape
    return _mirror(sides + caps, rng.choice((-1.0, 1.0)), rng.choice((-1.0, 1.0)))


def _stepped_pyramid(rng) -> list:
    levels = 3
    ax = rng.uniform(0.65, 0.9)
    ay = rng.uniform(0.5, 0.75)
    z0 = -rng.uniform(0.45, 0.6)
    heights = rng.uniform(0.25, 0.4, size=levels)
    cx, cy = 0.0, 0.0
    boxes = []
    z = z0
    for i in range(levels):
        boxes.append((cx - ax, cx + ax, cy - ay, cy + ay, z, z + heights[i]))
        nx = ax * rng.uniform(0.55, 0.7)
        ny = ay * rng.uniform(0.55, 0.7)
        # offsets keep a minimum magnitude so no 180-degree near-symmetry sneaks in
        cx = cx + rng.choice((-1.0, 1.0)) * rng.uniform(0.35, 0.8) * (ax - nx)
        cy = cy + rng.choice((-1.0, 1.0)) * rng.uniform(0.35, 0.8) * (ay - ny)
        ax, ay = nx, ny
        z += heights[i]
    rects = []
    for i, (x0, x1, y0, y1, zl, zh) in enumerate(boxes):
        rects += _box_sides(x0, x1, y0, y1, zl, zh, skip=("-z", "+z"))
        if i == 0:
            rects.append(_rect((x0, y0, zl), (x1 - x0, 0, 0), (0, y1 - y0, 0)))
        if i + 1 < len(boxes):
            nx0, nx1, ny0, ny1, _, _ = boxes[i + 1]
            rects += _ring(x0, x1, y0, y1, nx0, nx1, ny0, ny1, zh)
        else:
            rects.append(_rect((x0, y0, zh), (x1 - x0, 0, 0), (0, y1 - y0, 0)))
    return rects


_GENERATORS = {
    "notched-box": _notched_box,
    "l-prism": _l_prism,
    "asymmetric-cross": _asymmetric_cross,
    "stepped-pyramid": _stepped_pyramid,
}

assert tuple(_GENERATORS) == SHAPE_CLASSES


def generate_shape(seed: int, klass: str, points: int = 2048) -> PointCloud:
    """Deterministic surface-sampled point cloud for (seed, class)."""
    if klass not in _GENERATORS:
        raise ValueError(f"unknown shape class {klass!r} (have {sorted(_GENERATORS)})")
    if points < 16:
        raise ValueError("point count must be >= 16")
    rng = stream(seed, "shape:" + klass)
    rects = _GENERATORS[klass](rng)
    corners = np.stack([r[0] for r in rects])
    e1 = np.stack([r[1] for r in rects])
    e2 = np.stack([r[2] for r in rects])
    areas = np.linalg.norm(np.cross(e1, e2), axis=1)
    pick = rng.choice(len(rects), size=points, p=areas / areas.sum())
    u = rng.uniform(0.0, 1.0, size=(points, 1))
    v = rng.uniform(0.0, 1.0, size=(points, 1))
    pts = corners[pick] + u * e1[pick] + v * e2[pick]
    center = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
    pts = pts - center
    return PointCloud(points=pts)


# Exact {-1, 0, 1} matrices of 0-3 quarter turns about z; model.rotate_latent
# turns latent offsets with the same ones.
QUARTER_TURNS = {
    0: np.array([[1.0, 0.0], [0.0, 1.0]]),
    1: np.array([[0.0, -1.0], [1.0, 0.0]]),
    2: np.array([[-1.0, 0.0], [0.0, -1.0]]),
    3: np.array([[0.0, 1.0], [-1.0, 0.0]]),
}


def rotate_azimuth(pc: PointCloud, degrees: float) -> PointCloud:
    """Rigid rotation about the vertical (z) axis, right-handed.

    Multiples of 90 degrees use exact {-1, 0, 1} matrices so quarter turns
    compose bit-exactly.
    """
    pts = pc.points
    quarters = degrees / 90.0
    if quarters == round(quarters):
        rot = QUARTER_TURNS[int(round(quarters)) % 4]
    else:
        rad = math.radians(degrees)
        rot = np.array([[math.cos(rad), -math.sin(rad)], [math.sin(rad), math.cos(rad)]])
    out = pts.copy()
    out[:, 0] = rot[0, 0] * pts[:, 0] + rot[0, 1] * pts[:, 1]
    out[:, 1] = rot[1, 0] * pts[:, 0] + rot[1, 1] * pts[:, 1]
    return PointCloud(points=out)


# ---------------------------------------------------------------------------
# cameras and view encoding
# ---------------------------------------------------------------------------


def sample_views(
    rng: np.random.Generator,
    count: int,
    bins=(0, 1, 2, 3),
    elevation_max: float = 30.0,
) -> list[Camera]:
    """Cameras with azimuth uniform within uniformly chosen bins."""
    bins = sorted(set(int(b) for b in bins))
    if not bins or any(b not in (0, 1, 2, 3) for b in bins):
        raise ValueError(f"bins must be a non-empty subset of {{0..3}}, got {bins}")
    if count < 1:
        raise ValueError("count must be >= 1")
    cams = []
    for _ in range(count):
        b = bins[rng.integers(0, len(bins))]
        azimuth = (BIN_CENTERS[b] + rng.uniform(-45.0, 45.0)) % 360.0
        cams.append(Camera(azimuth=azimuth, elevation=rng.uniform(-elevation_max, elevation_max)))
    return cams


def camera_basis(cam: Camera) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal (right, up, view-direction) for an orthographic camera."""
    a = math.radians(cam.azimuth)
    e = math.radians(cam.elevation)
    d = np.array([math.cos(e) * math.cos(a), math.cos(e) * math.sin(a), math.sin(e)])
    right = np.array([-math.sin(a), math.cos(a), 0.0])
    up = np.array([-math.sin(e) * math.cos(a), -math.sin(e) * math.sin(a), math.cos(e)])
    return right, up, d


_LIFT_CACHE: dict[int, np.ndarray] = {}


def feature_lift_matrix(cfg: WorldConfig) -> np.ndarray:
    """The fixed 5 -> feat_dim linear lift, identical for every view and run.

    It is drawn from ``LIFT_SEED`` once per ``feat_dim`` and returned read-only.
    """
    if cfg.feat_dim not in _LIFT_CACHE:
        lift = stream(LIFT_SEED, "feature-lift").normal(size=(cfg.feat_dim, 5))
        lift /= math.sqrt(5.0)
        lift.flags.writeable = False
        _LIFT_CACHE[cfg.feat_dim] = lift
    return _LIFT_CACHE[cfg.feat_dim]


# Fixed per-statistic scales bringing the five raw patch statistics to a
# comparable O(1) dynamic range before the lift.
_STAT_SCALES = np.array([5.0, 1.5, 20.0, 6.0, 6.0])


def encode_view(pc: PointCloud, cam: Camera, cfg: WorldConfig) -> np.ndarray:
    """Per-patch statistics of the orthographic projection, lifted to feat_dim.

    A camera only sees surfaces: depth statistics and centroid offsets are
    computed over the visible shell of each patch column (points within
    ``OCCLUSION_WINDOW`` of the patch's nearest depth), while the occupancy
    fraction keeps the full silhouette. The patch grid spans ``IMAGE_EXTENT``
    either side of the view axis. Patches with no projected points produce
    exactly zero features (the lift is linear with no bias).
    """
    right, up, d = camera_basis(cam)
    px = pc.points @ right
    py = pc.points @ up
    # depth measured toward the camera: smaller = nearer to the viewer
    depth = -(pc.points @ d)
    g = cfg.patch_grid
    extent = IMAGE_EXTENT
    cell = 2.0 * extent / g
    gx = np.clip(np.floor((px + extent) / cell).astype(np.int64), 0, g - 1)
    gy = np.clip(np.floor((py + extent) / cell).astype(np.int64), 0, g - 1)
    pid = gy * g + gx
    S = g * g
    P = pc.points.shape[0]
    counts = np.bincount(pid, minlength=S).astype(np.float64)

    near = np.full(S, np.inf)
    np.minimum.at(near, pid, depth)
    visible = depth <= near[pid] + OCCLUSION_WINDOW
    vid = pid[visible]
    vcounts = np.bincount(vid, minlength=S).astype(np.float64)
    safe = np.maximum(vcounts, 1.0)
    vdepth = depth[visible]
    mean_depth = np.bincount(vid, weights=vdepth, minlength=S) / safe
    mean_sq = np.bincount(vid, weights=vdepth * vdepth, minlength=S) / safe
    var_depth = np.maximum(mean_sq - mean_depth**2, 0.0)
    cx = np.bincount(vid, weights=px[visible], minlength=S) / safe
    cy = np.bincount(vid, weights=py[visible], minlength=S) / safe
    centers_x = -extent + cell * (np.arange(S) % g + 0.5)
    centers_y = -extent + cell * (np.arange(S) // g + 0.5)
    off_x = np.where(vcounts > 0, cx - centers_x, 0.0)
    off_y = np.where(vcounts > 0, cy - centers_y, 0.0)
    stats = np.stack([counts / P, mean_depth, var_depth, off_x, off_y], axis=1)
    return (stats * _STAT_SCALES) @ feature_lift_matrix(cfg).T
