"""Procedural shapes, azimuth bins, and the synthetic view encoder.

Generates one shape per class, shows that quarter rotations are detectable
in Chamfer distance, samples cameras over the azimuth bins, and encodes a
view into per-patch features.
"""

import numpy as np

from roar3d.config import WorldConfig
from roar3d.evaluation import chamfer_distance
from roar3d.rng import stream
from roar3d.world import (Camera, azimuth_bin, encode_view, generate_shape, rotate_azimuth,
                          sample_views)

cfg = WorldConfig()

print("=== shape classes ===")
for klass in cfg.classes:
    pc = generate_shape(seed=7, klass=klass, points=1024)
    lo, hi = pc.points.min(axis=0), pc.points.max(axis=0)
    cds = [chamfer_distance(pc, rotate_azimuth(pc, d)) for d in (90, 180, 270)]
    print(f"{klass:18s} bbox [{lo.round(2)} .. {hi.round(2)}]  "
          f"CD to rotations: {[round(c, 3) for c in cds]}")

print("\n=== cameras ===")
cams = sample_views(stream(0, "views"), count=8, bins=(0, 1, 2, 3),
                    elevation_max=cfg.elevation_max)
for cam in cams:
    print(f"azimuth {cam.azimuth:7.2f}  elevation {cam.elevation:7.2f}  "
          f"bin {azimuth_bin(cam.azimuth)}")

print("\n=== view encoding ===")
pc = generate_shape(seed=7, klass="notched-box")
for az in (0.0, 90.0, 180.0, 270.0):
    feats = encode_view(pc, Camera(azimuth=az, elevation=0.0), cfg)
    occupied = (np.abs(feats).sum(axis=1) > 0).sum()
    print(f"azimuth {az:5.1f}: features {feats.shape}, {occupied}/{feats.shape[0]} patches hit, "
          f"pooled-key norm {np.linalg.norm(feats.mean(axis=0)):.3f}")

# determinism: encoding the same view twice is bit-identical
a = encode_view(pc, cams[0], cfg)
b = encode_view(pc, cams[0], cfg)
print("\nencode determinism:", np.array_equal(a, b))
