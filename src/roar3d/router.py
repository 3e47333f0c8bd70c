"""Token-wise view routing.

Each 3D latent token scores every input view through pooled view keys and a
multi-head query/key affinity, then commits to exactly one view. Selection
is a hard argmax; during training Gumbel noise encourages exploration and a
straight-through composite carries softmax gradients back to the router
parameters. At inference the noise is dropped and routing is deterministic.

Ties at the argmax break toward the lowest view index, which keeps replays
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nx
from .numerics import Tensor
from .rng import stream

__all__ = ["RoutingDecision", "routing_logits_batched", "gumbel_select"]


@dataclass
class RoutingDecision:
    """Hard per-token view choices plus the differentiable soft weights."""

    hard_index: np.ndarray        # (..., N) int64
    y_soft: Tensor                # (..., N, V), rows sum to 1

    def ste_multiplier(self) -> Tensor:
        """(..., N, 1) multiplier: forward exactly 1, backward d(y_soft[v*])."""
        return nx.ste_one(nx.take_index_last(self.y_soft, self.hard_index))

    def surrogate_multiplier(self, offset: np.ndarray) -> Tensor:
        """Differentiable stand-in y_soft[v*] + offset used for gradient checks.

        With ``offset = 1 - y_soft[v*]`` captured at the evaluation point this
        equals the straight-through composite as a plain function of the
        parameters (no stop-gradient), so central differences of the network
        built with it match the tape gradients of the STE network.
        """
        picked = nx.take_index_last(self.y_soft, self.hard_index)
        return nx.add(picked, Tensor(offset))

    def soft_entropy(self) -> float:
        p = np.clip(self.y_soft.data, 1e-12, 1.0)
        return float(-(p * np.log(p)).sum(axis=-1).mean())


def routing_logits_batched(z: Tensor, pooled: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Batched routing scores: z (B, N, D), pooled (B, V, feat_dim) -> (B, N, V).

    ``p`` holds one block's router weights by short name. Projections are
    input-major (``z @ w_q``), so ``w_q`` is (model_dim, heads * head_dim) and
    ``w_k`` is (feat_dim, heads * head_dim). ``ln_gain``/``ln_bias`` normalize
    the raw token before projection, ``q_gain``/``k_gain`` are the
    post-projection RMSNorm gains, and ``w_agg`` mixes the per-head scores,
    one weight per head.
    """
    B, N, _ = z.shape
    V = pooled.shape[1]
    H = p["w_agg"].shape[0]
    zt = nx.layer_norm(z, p["ln_gain"], p["ln_bias"])
    q = nx.rms_norm(nx.matmul(zt, p["w_q"]), p["q_gain"])               # (B, N, H*dh)
    k = nx.rms_norm(nx.matmul(pooled, p["w_k"]), p["k_gain"])           # (B, V, H*dh)
    dh = q.shape[-1] // H
    qh = nx.transpose(nx.reshape(q, (B, N, H, dh)), (0, 2, 1, 3))       # (B, H, N, dh)
    kh = nx.transpose(nx.reshape(k, (B, V, H, dh)), (0, 2, 3, 1))       # (B, H, dh, V)
    scores = nx.scale(nx.matmul(qh, kh), 1.0 / np.sqrt(dh))             # (B, H, N, V)
    return nx.head_mix(scores, p["w_agg"])                              # (B, N, V)


def sample_gumbel(rng: np.random.Generator, shape) -> np.ndarray:
    """-log(-log(u)) with u in the open interval (0, 1); u == 0 is redrawn."""
    u = rng.random(shape)
    while True:
        bad = u == 0.0
        if not bad.any():
            break
        u[bad] = rng.random(int(bad.sum()))
    return -np.log(-np.log(u))


def gumbel_select(logits: Tensor, tau: float = 1.0,
                  noise: np.ndarray | None = None) -> RoutingDecision:
    """Hard view selection with straight-through soft weights.

    ``logits`` may be (N, V) or batched (B, N, V). Training passes Gumbel
    ``noise`` of the same shape, which is added before the argmax and the
    softmax; without it (inference) selection is the plain argmax.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    logits = logits if isinstance(logits, Tensor) else Tensor(logits)
    noisy = logits if noise is None else nx.add(logits, Tensor(noise))
    hard = np.argmax(noisy.data, axis=-1)
    y_soft = nx.softmax(nx.scale(noisy, 1.0 / tau))
    return RoutingDecision(hard_index=hard, y_soft=y_soft)


def routing_noise(run_seed: int, step: int, block: int, shape) -> np.ndarray:
    """Counter-keyed Gumbel noise: reproducible for a given (seed, step, block).

    Tokens and views map to fixed positions of the Philox counter stream, so
    the draw for one routing call never depends on other calls.
    """
    return sample_gumbel(stream(run_seed, "gumbel", step, block), shape)
