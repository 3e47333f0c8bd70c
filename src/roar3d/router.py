"""Token-wise view routing.

Each 3D latent token scores every input view through pooled view keys and a
multi-head query/key affinity, then commits to exactly one view. Selection
is a hard argmax; during training Gumbel noise encourages exploration and
one straight-through node (:func:`roar3d.numerics.straight_through`) carries
softmax gradients back to the router parameters through a multiplier whose
value is exactly 1. At inference the noise is dropped and routing is
deterministic; under ``no_grad`` the argmax is the whole decision and no
soft weights are built.

An inference request that reads only the argmax scores through a
:class:`ScoreMatrix` (:func:`score_matrix`), which folds the query
projection, its RMSNorm gain and the head mix into one (D, V) matrix per
sample: ``zt @ R`` is the logits times a positive factor per token (the
token's query RMSNorm factor over sqrt(head_dim)), so its argmax is the
logits' argmax. The two can differ only where two exact logits agree to
rounding.

Ties at the argmax break toward the lowest view index, which keeps replays
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nx
from .numerics import Tensor
from .rng import stream


@dataclass
class RoutingDecision:
    """Hard per-token view choices, the soft weights and the straight-through multiplier.

    ``y_soft`` is the softmax of the (noisy) logits as plain data, for the
    entropy log; ``multiplier`` is the graph node that carries the router's
    gradient. A decision made under ``no_grad`` has neither: nothing reads
    them without a backward pass. A decision joined from two row shards has
    no multiplier: each shard's graph holds its own.
    """

    hard_index: np.ndarray          # (..., N) int64
    y_soft: np.ndarray | None       # (..., N, V), rows sum to 1
    multiplier: Tensor | None       # (..., N, 1), value exactly 1

    def soft_entropy(self) -> float:
        if self.y_soft is None:
            raise ValueError("a decision made under no_grad has no soft weights")
        p = np.clip(self.y_soft, 1e-12, 1.0)
        return float(-(p * np.log(p)).sum(axis=-1).mean())


def router_keys(pooled: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Projected view keys: pooled (B, V, feat_dim) -> (B, V, heads * head_dim).

    They depend on the views only, so one request projects them once and
    hands them to :func:`routing_logits_batched` at every step.
    """
    return nx.rms_norm(nx.matmul(pooled, p["w_k"]), p["k_gain"])


class ScoreMatrix(Tensor):
    """One block's folded router scores for one request, (B, D, V) plain data."""

    __slots__ = ()


def score_matrix(keys: Tensor, p: dict[str, Tensor]) -> ScoreMatrix:
    """``w_q @ diag(q_gain * repeat(w_agg, dh)) @ keys^T``: keys (B, V, H*dh) -> (B, D, V).

    Routing ``zt`` through it gives the logits of :func:`routing_logits_batched`
    times each token's positive query RMSNorm factor over sqrt(dh), with
    nothing to differentiate: it is built from plain data for a request whose
    routing reads only the argmax.
    """
    heads = p["w_agg"].shape[0]
    fold = p["q_gain"].data * np.repeat(p["w_agg"].data, p["w_q"].shape[1] // heads)
    return ScoreMatrix(np.matmul(p["w_q"].data * fold, np.swapaxes(keys.data, -1, -2)))


def routing_logits_batched(zt: Tensor, keys: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Batched routing scores: zt (B, N, D), keys (B, V, H*dh) -> (B, N, V).

    ``zt`` are the tokens after the router's pre-norm,
    ``layer_norm(z, p["ln_gain"], p["ln_bias"])``; the forward computes it
    together with the cross-attention norm of the same tokens
    (:func:`roar3d.numerics.layer_norms`). ``keys`` come from
    :func:`router_keys`. ``p`` holds one block's router weights by short
    name. Projections are input-major (``zt @ w_q``), so ``w_q`` is
    (model_dim, heads * head_dim) and ``w_k`` is (feat_dim, heads *
    head_dim). ``q_gain``/``k_gain`` are the post-projection RMSNorm gains,
    and ``w_agg`` mixes the per-head scores, one weight per head.

    Given the :class:`ScoreMatrix` of the keys instead, it returns
    ``zt @ R`` as plain data: the logits times a positive factor per token,
    whose argmax is the logits' argmax up to rounding ties.
    """
    if isinstance(keys, ScoreMatrix):
        return Tensor(np.matmul(zt.data, keys.data))
    q = nx.rms_norm(nx.matmul(zt, p["w_q"]), p["q_gain"])               # (B, N, H*dh)
    return nx.router_scores(q, keys, p["w_agg"], p["w_agg"].shape[0])


def sample_gumbel(rng: np.random.Generator, shape) -> np.ndarray:
    """-log(-log(u)) with u in the open interval (0, 1); u == 0 is redrawn."""
    u = rng.random(shape)
    while True:
        bad = u == 0.0
        if not bad.any():
            break
        u[bad] = rng.random(int(bad.sum()))
    return -np.log(-np.log(u))


def gumbel_select(logits: Tensor, noise: np.ndarray | None = None) -> RoutingDecision:
    """Hard view selection with a straight-through multiplier.

    ``logits`` may be (N, V) or batched (B, N, V). Training passes Gumbel
    ``noise`` of the same shape, which is added before the argmax and the
    softmax; without it (inference) selection is the plain argmax. Under
    ``no_grad`` the decision is the argmax alone. The soft weights are the
    softmax at the fixed temperature ``config.TAU`` = 1, so the noisy logits
    enter it unscaled.
    """
    logits = logits if isinstance(logits, Tensor) else Tensor(logits)
    if noise is not None and np.shape(noise) != logits.shape:
        raise nx.ShapeError(f"noise shape {np.shape(noise)} vs logits {logits.shape}")
    noisy = logits.data if noise is None else logits.data + noise
    hard = np.argmax(noisy, axis=-1)
    if not nx.grad_enabled():
        return RoutingDecision(hard, None, None)
    return RoutingDecision(hard, *nx.straight_through(logits, noisy, hard))


def routing_noise(run_seed: int, step: int, block: int, shape) -> np.ndarray:
    """Counter-keyed Gumbel noise: reproducible for a given (seed, step, block).

    Tokens and views map to fixed positions of the Philox counter stream, so
    the draw for one routing call never depends on other calls.
    """
    return sample_gumbel(stream(run_seed, "gumbel", step, block), shape)
