"""Inference overhead of routing, measured: routed vs single-view sampling time.

The paper claims routing adds no inference overhead over the single-view
baseline. This times ``integrate_flow`` (batch 1, the desk config's 32 Euler
steps) for the single-view model and for its routed upgrade at 1, 2, 4 and
8 views of one shape, and prints the routed-to-single time ratio. Each
figure is the median of a few interleaved rounds, with single-threaded BLAS.
It also counts the router's score calls per request: none at one view,
where the argmax of one column is known, and one per block and step above.
Above one view each request routes through the router's folded score
matrices; the demo checks that its routing decisions equal those of the
same request routed with the exact logits, and exits 1 if any differ.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import dataclasses  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import roar3d.model as model_module  # noqa: E402
from roar3d.config import RunConfig  # noqa: E402
from roar3d.evaluation import shape_features  # noqa: E402
from roar3d.model import Model, integrate_flow  # noqa: E402
from roar3d.trainer import upgrade_from_single  # noqa: E402
from roar3d.world import generate_shape  # noqa: E402

ROUNDS = 3
VIEW_COUNTS = (1, 2, 4, 8)

cfg = RunConfig()  # the desk config
steps = cfg.sample.euler_steps
single = Model.create(dataclasses.replace(cfg.model, arch="single"), seed=0)
rng = np.random.default_rng(0)
# adaLN-zero gates and the zero velocity head would make every velocity 0;
# random values stand in for trained weights (timing only)
for name, p in single.params.items():
    if name.endswith("mod.w") or name.endswith("head.w"):
        p.data[...] = rng.normal(0.0, 0.1, size=p.shape)
routed = upgrade_from_single(single)

pc = generate_shape(0, "l-prism", cfg.world.points)
feats = {v: shape_features(pc, v, cfg.world)[None] for v in VIEW_COUNTS}
z_init = rng.normal(size=(1, cfg.model.tokens, cfg.model.model_dim))
primary = np.zeros(1, dtype=np.int64)

runs = {"single": lambda: integrate_flow(single.params, single.cfg, feats[1], primary,
                                         z_init, steps)}
for v in VIEW_COUNTS:
    runs[v] = lambda v=v, trace=False: integrate_flow(routed.params, routed.cfg, feats[v],
                                                      primary, z_init, steps, trace)

# hard traces of each request, routed through the score matrices and then with
# the exact logits: the view context hands the router its keys unfolded
traces = {v: runs[v](trace=True)[1] for v in VIEW_COUNTS}
fold = model_module.score_matrix
model_module.score_matrix = lambda keys, p: keys
exact = {v: runs[v](trace=True)[1] for v in VIEW_COUNTS}
model_module.score_matrix = fold
equal = {v: np.array_equal(traces[v], exact[v]) for v in VIEW_COUNTS}

# router score calls per request, counted in one untimed run per view count
score = model_module.routing_logits_batched
calls = []


def counted_score(*args):
    calls.append(1)
    return score(*args)


router_calls = {}
model_module.routing_logits_batched = counted_score
for v in VIEW_COUNTS:
    calls.clear()
    runs[v]()
    router_calls[v] = len(calls)
model_module.routing_logits_batched = score

times = {key: [] for key in runs}
for round_ in range(ROUNDS + 1):  # round 0 warms up and is not kept
    for key, run in runs.items():
        start = time.perf_counter()
        run()
        if round_:
            times[key].append(time.perf_counter() - start)

base = float(np.median(times["single"]))
print(f"integrate_flow, batch 1, {steps} Euler steps, median of {ROUNDS} rounds")
print(f"single-view baseline: {base * 1e3:7.1f} ms")
for v in VIEW_COUNTS:
    t = float(np.median(times[v]))
    print(f"routed, {v} view(s):  {t * 1e3:7.1f} ms   routed/single {t / base:.2f}   "
          f"router calls {router_calls[v]}   decisions equal: {equal[v]}")
if not all(equal.values()):
    sys.exit(1)
