"""The miniature routed transformer: forward pass, cost contract, parameters.

Runs a micro model over random latents and views, shows the per-token
attended-key counter (the whole point of top-1 routing: attention cost does
not grow with the view count), and prints the parameter budget.
"""

import dataclasses

import numpy as np

from roar3d.config import ModelConfig
from roar3d.model import ForwardOptions, Model, count_parameters, forward_multiview
from roar3d.numerics import AttentionMeter

cfg = ModelConfig(blocks=2, grid=2, model_dim=16, heads=2, head_dim=4,
                  patches=4, feat_dim=8, mlp_ratio=2)
model = Model.create(cfg, seed=0)
rng = np.random.default_rng(0)
B, N = 2, cfg.tokens

print("=== attended keys per token, varying view count ===")
for v in (1, 2, 4, 8, 12):
    feats = rng.normal(size=(B, v, cfg.patches, cfg.feat_dim))
    z_t = rng.normal(size=(B, N, cfg.model_dim))
    with AttentionMeter() as meter:
        forward_multiview(model.params, cfg, z_t, rng.random(B), feats,
                          np.zeros(B, dtype=np.int64), ForwardOptions(mode="inference"))
    keys = meter.per_token_keys("cross")
    print(f"V={v:2d}: every token attends exactly {keys.min()}..{keys.max()} keys "
          f"(patch count S={cfg.patches})")

print("\n=== the concatenation baseline pays per view ===")
from roar3d.model import forward_single

single = Model.create(dataclasses.replace(cfg, arch="single"), seed=0)
for v in (1, 4):
    feats = rng.normal(size=(B, v * cfg.patches, cfg.feat_dim))
    with AttentionMeter() as meter:
        forward_single(single.params, single.cfg, rng.normal(size=(B, N, cfg.model_dim)),
                       rng.random(B), feats)
    keys = meter.per_token_keys("cross")
    print(f"V={v}: concat attention touches {keys.max()} keys per token")

print("\n=== parameter budget (desk config) ===")
counts = count_parameters(Model.create(ModelConfig(), seed=0).params)
for k in ("backbone", "ca_p", "ca_a", "router"):
    print(f"{k:10s} {counts[k]:8d}")
print(f"added/baseline ratio: {counts['added_ratio']:.3f}")
