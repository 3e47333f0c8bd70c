"""The miniature routed transformer: forward pass, cost contract, parameters.

Runs a micro model over random latents and views, shows how block 0 splits
the tokens over the views and how many keys each token attends (the whole
point of top-1 routing: attention cost does not grow with the view count),
and prints the parameter budget.
"""

import numpy as np

from roar3d.config import ModelConfig
from roar3d.model import ForwardOptions, Model, count_parameters, forward_multiview

cfg = ModelConfig(blocks=2, grid=2, model_dim=16, heads=2, head_dim=4,
                  patches=4, feat_dim=8)
model = Model.create(cfg, seed=0)
rng = np.random.default_rng(0)
B, N = 2, cfg.tokens

print("=== block-0 token split and keys per token, varying view count ===")
for v in (1, 2, 4, 8, 12):
    feats = rng.normal(size=(B, v, cfg.patches, cfg.feat_dim))
    z_t = rng.normal(size=(B, N, cfg.model_dim))
    _, info = forward_multiview(model.params, cfg, z_t, rng.random(B), feats,
                                np.zeros(B, dtype=np.int64), ForwardOptions(mode="inference"))
    split = np.bincount(info.decisions[0].hard_index.ravel(), minlength=v)
    print(f"V={v:2d}: tokens per view {split.tolist()}; routed keys per token "
          f"{feats.shape[2]} (S), concat attends {v * feats.shape[2]} (V*S)")

print("\n=== parameter budget (desk config) ===")
counts = count_parameters(Model.create(ModelConfig(), seed=0).params)
for k in ("backbone", "ca_p", "ca_a", "router"):
    print(f"{k:10s} {counts[k]:8d}")
print(f"added/baseline ratio: {counts['added_ratio']:.3f}")
