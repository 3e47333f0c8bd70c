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

__all__ = ["RouterParams", "RoutingDecision", "pool_view_keys", "routing_logits_batched",
           "gumbel_select"]


@dataclass
class RouterParams:
    """Per-block routing parameters.

    Projections are stored input-major (``z @ w_q``), so ``w_q`` is
    (model_dim, heads * head_dim) and ``w_k`` is (feat_dim, heads * head_dim).
    ``ln_*`` normalize the raw token before projection; ``q_gain``/``k_gain``
    are the post-projection RMSNorm gains. ``w_agg`` mixes per-head scores
    and starts at 1/heads.
    """

    ln_gain: Tensor
    ln_bias: Tensor
    w_q: Tensor
    w_k: Tensor
    q_gain: Tensor
    k_gain: Tensor
    w_agg: Tensor
    heads: int
    head_dim: int

    @staticmethod
    def init(model_dim: int, feat_dim: int, heads: int, head_dim: int,
             rng: np.random.Generator) -> "RouterParams":
        hd = heads * head_dim
        return RouterParams(
            ln_gain=Tensor(np.ones(model_dim), requires_grad=True),
            ln_bias=Tensor(np.zeros(model_dim), requires_grad=True),
            w_q=Tensor(rng.normal(0.0, 1.0 / np.sqrt(model_dim), size=(model_dim, hd)),
                       requires_grad=True),
            w_k=Tensor(rng.normal(0.0, 1.0 / np.sqrt(feat_dim), size=(feat_dim, hd)),
                       requires_grad=True),
            q_gain=Tensor(np.ones(hd), requires_grad=True),
            k_gain=Tensor(np.ones(hd), requires_grad=True),
            w_agg=Tensor(np.full(heads, 1.0 / heads), requires_grad=True),
            heads=heads,
            head_dim=head_dim,
        )

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}.ln_gain": self.ln_gain,
            f"{prefix}.ln_bias": self.ln_bias,
            f"{prefix}.w_q": self.w_q,
            f"{prefix}.w_k": self.w_k,
            f"{prefix}.q_gain": self.q_gain,
            f"{prefix}.k_gain": self.k_gain,
            f"{prefix}.w_agg": self.w_agg,
        }


@dataclass
class RoutingDecision:
    """Hard per-token view choices plus the differentiable soft weights."""

    hard_index: np.ndarray        # (..., N) int64
    y_soft: Tensor                # (..., N, V), rows sum to 1

    @property
    def view_count(self) -> int:
        return self.y_soft.shape[-1]

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


def pool_view_keys(feats: np.ndarray) -> Tensor:
    """Mean over patch tokens: (V, S, feat_dim) -> one key per view, (V, feat_dim)."""
    feats = np.asarray(feats)
    if feats.ndim != 3 or feats.shape[0] < 1:
        raise ValueError(f"expected (V, S, feat_dim) features, got {feats.shape}")
    return Tensor(feats.mean(axis=1))


def routing_logits_batched(z: Tensor, pooled: Tensor, params: RouterParams) -> Tensor:
    """Batched routing scores: z (B, N, D), pooled (B, V, feat_dim) -> (B, N, V)."""
    B, N, _ = z.shape
    V = pooled.shape[1]
    H, dh = params.heads, params.head_dim
    zt = nx.layer_norm(z, params.ln_gain, params.ln_bias)
    q = nx.rms_norm(nx.matmul(zt, params.w_q), params.q_gain)           # (B, N, H*dh)
    k = nx.rms_norm(nx.matmul(pooled, params.w_k), params.k_gain)       # (B, V, H*dh)
    qh = nx.transpose(nx.reshape(q, (B, N, H, dh)), (0, 2, 1, 3))       # (B, H, N, dh)
    kh = nx.transpose(nx.reshape(k, (B, V, H, dh)), (0, 2, 3, 1))       # (B, H, dh, V)
    scores = nx.scale(nx.matmul(qh, kh), 1.0 / np.sqrt(dh))             # (B, H, N, V)
    return nx.head_mix(scores, params.w_agg)                            # (B, N, V)


def sample_gumbel(rng: np.random.Generator, shape) -> np.ndarray:
    """-log(-log(u)) with u in the open interval (0, 1); u == 0 is redrawn."""
    u = rng.random(shape)
    while True:
        bad = u == 0.0
        if not bad.any():
            break
        u[bad] = rng.random(int(bad.sum()))
    return -np.log(-np.log(u))


def gumbel_select(
    logits: Tensor,
    tau: float = 1.0,
    mode: str = "train",
    rng: np.random.Generator | None = None,
    noise: np.ndarray | None = None,
) -> RoutingDecision:
    """Hard view selection with straight-through soft weights.

    ``logits`` may be (N, V) or batched (B, N, V). In train mode Gumbel noise
    is drawn per token and view (from ``rng`` unless an explicit ``noise``
    array is injected); at inference the noise is zero and selection is the
    plain argmax of the logits.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if mode not in ("train", "inference"):
        raise ValueError(f"mode must be train or inference, got {mode!r}")
    logits = logits if isinstance(logits, Tensor) else Tensor(logits)
    if mode == "train":
        if noise is None:
            if rng is None:
                raise ValueError("train mode needs an rng or explicit noise")
            noise = sample_gumbel(rng, logits.shape)
        noisy = nx.add(logits, Tensor(noise))
    else:
        noisy = logits
    hard = np.argmax(noisy.data, axis=-1)
    y_soft = nx.softmax(nx.scale(noisy, 1.0 / tau), axis=-1)
    return RoutingDecision(hard_index=hard, y_soft=y_soft)


def routing_noise(run_seed: int, step: int, block: int, shape) -> np.ndarray:
    """Counter-keyed Gumbel noise: reproducible for a given (seed, step, block).

    Tokens and views map to fixed positions of the Philox counter stream, so
    the draw for one routing call never depends on other calls.
    """
    return sample_gumbel(stream(run_seed, "gumbel", step, block), shape)
