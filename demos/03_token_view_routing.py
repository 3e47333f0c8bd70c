"""Token-wise view routing and the straight-through estimator.

Pools view keys, scores every (token, view) pair through the multi-head
router, selects hard views with Gumbel noise, and shows that the
straight-through multiplier is exactly one in the forward pass while carrying
soft gradients backward. Without gradients (``no_grad``) the argmax is the whole decision.
"""

import numpy as np

import roar3d.numerics as nx
from roar3d.config import ModelConfig
from roar3d.model import init_params
from roar3d.numerics import Tensor
from roar3d.router import gumbel_select, router_keys, routing_logits_batched, routing_noise
from roar3d.rng import stream

rng = stream(0, "demo-router")
N, V, S, D = 8, 3, 16, 32

feats = rng.normal(size=(V, S, D))  # per-view patch features
tokens = rng.normal(size=(N, D))

# the router weights are block 0's "blocks.0.router.*" entries of the model's flat dict
cfg = ModelConfig(blocks=1, model_dim=D, feat_dim=D, heads=4, head_dim=8)
prefix = "blocks.0.router."
params = {k[len(prefix):]: p for k, p in init_params(cfg, 0).items()
          if k.startswith(prefix)}
print("router weights:", {k: p.shape for k, p in params.items()})

# the router works on batches: this demo is a batch of one sample
pooled = Tensor(feats.mean(axis=1)[None])  # one key per view: the mean over its patches
print("pooled keys:", pooled.shape)
# the keys depend on the views only: a sampling request projects them once
keys = router_keys(pooled, params)
print("projected keys:", keys.shape)

# the router scores pre-normed tokens
normed = nx.layer_norm(Tensor(tokens[None]), params["ln_gain"], params["ln_bias"])
logits = routing_logits_batched(normed, keys, params)
print("routing logits (token x view):\n", logits.data[0].round(3))

print("\n=== train mode: Gumbel exploration ===")
for step in range(3):
    noise = routing_noise(run_seed=0, step=step, block=0, shape=(1, N, V))
    dec = gumbel_select(logits, noise=noise)
    print(f"step {step}: hard choices {dec.hard_index[0]}")

print("\n=== inference mode: deterministic ===")
dec = gumbel_select(logits)
print("hard choices:", dec.hard_index[0])
print("soft weights row 0:", dec.y_soft[0, 0].round(3), "sum", dec.y_soft[0, 0].sum())
with nx.no_grad():
    bare = gumbel_select(logits)
print("under no_grad: same choices", np.array_equal(bare.hard_index, dec.hard_index),
      "| soft weights", bare.y_soft, "| multiplier", bare.multiplier)

multiplier = dec.multiplier
print("\nSTE multiplier forward values:", multiplier.data.ravel())

# backward: gradient reaches the router parameters through the soft weights
target = Tensor(rng.normal(size=multiplier.shape))
nx.mse(multiplier, target).backward()  # dL/dm_n = 2 (m_n - target_n) / N
print("w_agg gradient:", params["w_agg"].grad.round(5))
print("|dL/dW_q|:", float(np.abs(params["w_q"].grad).max()))
