"""Geometry metrics and router-consistency analytics.

Chamfer distance / F-score conventions on hand-checkable examples, then the
three consistency metrics on synthetic routing traces.
"""

import numpy as np

from roar3d.evaluation import (
    consistency_report,
    cross_block_consistency,
    cross_timestep_consistency,
    geo_metrics,
    global_consistency,
)
from roar3d.world import generate_shape, rotate_azimuth

print("=== Chamfer distance (reported x 1e3) ===")
a = np.array([[0.0, 0.0, 0.0]])
b = np.array([[0.1, 0.0, 0.0]])
print("single points 0.1 apart:", 1e3 * geo_metrics(a, b).cd)

pc = generate_shape(3, "l-prism", points=512)
for deg in (0.0, 90.0, 180.0):
    cd = geo_metrics(pc, rotate_azimuth(pc, deg)).cd
    print(f"shape vs itself rotated {deg:5.1f}: CD x1e3 = {1e3 * cd:8.2f}")

print("\n=== F-score boundary convention (<= threshold counts) ===")
m = geo_metrics(a, b)
print("threshold 0.05:", m.f1_at_0_05, "| threshold 0.1:", m.f1_at_0_1)

print("\n=== routing consistency ===")
rng = np.random.default_rng(0)
T, L, N, V = 16, 4, 32, 4

constant = np.full((T, L, N), 2)
print("constant trace:    ",
      cross_block_consistency(constant), cross_timestep_consistency(constant),
      global_consistency(constant))

random_trace = rng.integers(0, V, size=(T, L, N))
print("random trace:       cb=%.3f ct=%.3f gl=%.3f (chance level ~ 1/V)" % (
    cross_block_consistency(random_trace),
    cross_timestep_consistency(random_trace),
    global_consistency(random_trace)))

# a trace that is stable over time but varies across blocks, like a trained
# router whose depth levels specialize to different views
per_block = rng.integers(0, V, size=(1, L, N))
stable_time = np.repeat(per_block, T, axis=0)
print("time-stable trace:  cb=%.3f ct=%.3f gl=%.3f" % (
    cross_block_consistency(stable_time),
    cross_timestep_consistency(stable_time),
    global_consistency(stable_time)))

print("\n=== aggregated report over several traces ===")
traces = [rng.integers(0, V, size=(T, L, N)) for _ in range(6)]
rep = consistency_report(traces)
for key in ("cross_block", "cross_timestep", "global"):
    r = rep[key]
    print(f"{key:15s} mean {r['mean']:.4f}  std {r['std']:.4f}  "
          f"early/mid/late {r['early']:.4f}/{r['mid']:.4f}/{r['late']:.4f}")
