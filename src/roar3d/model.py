"""Miniature flow-matching transformer over 3D latent tokens.

A latent is an occupancy-grid encoding of a point cloud, a plain (N, D)
array: one token per cell carrying [occupancy, scaled centroid offset xyz,
zero padding]. Blocks run
timestep-modulated self-attention, token-wise view routing, dual-stream
cross-attention to the selected view's patch features, and a modulated MLP;
a zero-initialized linear head emits the velocity field.

All three architectures run one block loop and one cross-attention
function. ``forward_multiview`` routes every token to one view and sends it
through the primary (CA_p) or auxiliary (CA_a) stream. ``forward_single`` is
the same loop without a router: every token attends view 0 through CA_p, with
no straight-through multiplier. The concatenation baseline is that case with
all views flattened into one key set, which ``Model.velocity`` does. Inside
a ``sharding`` scope, which ``trainer.train`` opens, a forward of the scope's
parameters over two or more samples with gradients on runs that loop on two
row shards at once, the second in the scope's worker process, and joins their
velocities (``_forward``).

Parameters, the router's included, live in one flat name -> Tensor dict
(checkpoint friendly); block ``l`` reads its weights by name. ``parameter_layout``
declares every name, shape and init once: ``init_params`` draws from it and the
checkpoint shape check compares against it.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing
import os
import signal
import sys
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager, suppress
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import checkpoint as ckpt
from . import numerics as nx
from .config import (MLP_RATIO, OCCUPANCY_SCALE, OFFSET_SCALE, ConfigError, ModelConfig,
                     set_fields)
from .numerics import Tensor
from .router import (RoutingDecision, gumbel_select, router_keys, routing_logits_batched,
                     routing_noise, score_matrix)
from .rng import stream
from .world import QUARTER_TURNS, PointCloud


# ---------------------------------------------------------------------------
# latent codec
# ---------------------------------------------------------------------------


def _cell_ids(points: np.ndarray, n: int) -> np.ndarray:
    h = 2.0 / n
    idx = np.clip(np.floor((points + 1.0) / h).astype(np.int64), 0, n - 1)
    return (idx[:, 0] * n + idx[:, 1]) * n + idx[:, 2]


def _cell_coords(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer (ix, iy, iz) of every cell of an n**3 grid, in cell-id order."""
    ix, rem = divmod(np.arange(n**3), n * n)
    return (ix, *divmod(rem, n))


def _cell_centers(n: int) -> np.ndarray:
    h = 2.0 / n
    ix, iy, iz = _cell_coords(n)
    return np.stack([-1.0 + (ix + 0.5) * h, -1.0 + (iy + 0.5) * h, -1.0 + (iz + 0.5) * h], axis=1)


def latent_encode(pc: PointCloud, cfg: ModelConfig) -> np.ndarray:
    """(N, D) occupancy + scaled centroid offsets on a grid**3 cell lattice.

    Token = [occ * OCCUPANCY_SCALE, off_x, off_y, off_z, 0, ...]; offsets are
    (centroid - cell center) * OFFSET_SCALE, zero for empty cells.
    """
    n = cfg.grid
    N = cfg.tokens
    pid = _cell_ids(pc.points, n)
    counts = np.bincount(pid, minlength=N).astype(np.float64)
    safe = np.maximum(counts, 1.0)
    centroid = np.stack(
        [np.bincount(pid, weights=pc.points[:, k], minlength=N) / safe for k in range(3)],
        axis=1,
    )
    offsets = np.where(counts[:, None] > 0, centroid - _cell_centers(n), 0.0)
    tokens = np.zeros((N, cfg.model_dim))
    tokens[:, 0] = (counts > 0).astype(np.float64) * OCCUPANCY_SCALE
    tokens[:, 1:4] = offsets * OFFSET_SCALE
    return tokens


def latent_decode(tokens: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Points at occupied-cell centers plus stored offsets.

    Occupancy is thresholded at 0.5; offsets are clipped to the half cell so
    every decoded point stays in its cell. An all-empty latent decodes to a
    (0, 3) array - callers decide how to flag that.
    """
    tokens = np.asarray(tokens)
    n = cfg.grid
    half = 1.0 / n
    occupied = tokens[:, 0] / OCCUPANCY_SCALE >= 0.5
    if not occupied.any():
        return np.zeros((0, 3))
    offsets = np.clip(tokens[occupied, 1:4] / OFFSET_SCALE, -half, half)
    return _cell_centers(n)[occupied] + offsets


def grid_permutation(n: int, quarters: int) -> np.ndarray:
    """dest[old_cell] = cell index after rotating the grid by 90 * quarters."""
    quarters %= 4
    ix, iy, iz = _cell_coords(n)
    for _ in range(quarters):
        ix, iy = n - 1 - iy, ix
    return (ix * n + iy) * n + iz


def rotate_latent(z: np.ndarray, degrees: float, cfg: ModelConfig) -> np.ndarray:
    """Exact quarter-turn of an (N, D) latent: cell permutation + offset rotation.

    This matches re-encoding the rotated cloud bit-for-bit on power-of-two
    grids, so perturbed training latents are precisely the rotated geometry.
    """
    quarters = degrees / 90.0
    if quarters != round(quarters):
        raise ValueError("latent rotation supports quarter turns only")
    quarters = int(round(quarters)) % 4
    dest = grid_permutation(cfg.grid, quarters)
    rot = QUARTER_TURNS[quarters]
    tokens = np.zeros_like(z)
    moved = z.copy()
    moved[:, 1] = rot[0, 0] * z[:, 1] + rot[0, 1] * z[:, 2]
    moved[:, 2] = rot[1, 0] * z[:, 1] + rot[1, 1] * z[:, 2]
    tokens[dest] = moved
    return tokens


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


# One block's tensors by group, in checkpoint order: short name -> (init, shape),
# each shape spelled in the dimension names that parameter_layout resolves. The
# backbone group "" and CA_p make the single-view model; a routed model adds CA_a
# and the router, the "minimal trainable parameters" of the upgrade.
_CA = {"w_q": ("linear", ("d", "hd")), "q_gain": ("ones", ("hd",)),
       "w_k": ("linear", ("feat", "hd")), "k_gain": ("ones", ("hd",)),
       "w_v": ("linear", ("feat", "hd")), "w_o": ("linear", ("hd", "d"))}
_BLOCK_LAYOUT = {
    "": {
        "ln_sa.gain": ("ones", ("d",)), "ln_sa.bias": ("zeros", ("d",)),
        "sa.w_q": ("linear", ("d", "hd")), "sa.w_k": ("linear", ("d", "hd")),
        "sa.w_v": ("linear", ("d", "hd")), "sa.w_o": ("linear", ("hd", "d")),
        "ln_ca.gain": ("ones", ("d",)), "ln_ca.bias": ("zeros", ("d",)),
        "ln_mlp.gain": ("ones", ("d",)), "ln_mlp.bias": ("zeros", ("d",)),
        "mlp.w1": ("linear", ("d", "hidden")), "mlp.b1": ("zeros", ("hidden",)),
        "mlp.w2": ("linear", ("hidden", "d")), "mlp.b2": ("zeros", ("d",)),
        # adaLN-zero: scale/shift/gate for self-attention and MLP, plus a
        # gate for the cross-attention sublayer (7 vectors of width d)
        "mod.w": ("zeros", ("d", "7d")), "mod.b": ("zeros", ("7d",)),
    },
    "ca_p.": _CA,
    "ca_a.": _CA,
    "router.": {
        "ln_gain": ("ones", ("d",)), "ln_bias": ("zeros", ("d",)),
        "w_q": ("linear", ("d", "hd")), "w_k": ("linear", ("feat", "hd")),
        "q_gain": ("ones", ("hd",)), "k_gain": ("ones", ("hd",)),
        "w_agg": ("mean", ("heads",)),
    },
}
_HEAD_LAYOUT = {
    "temb.w1": ("linear", ("d", "d")), "temb.b1": ("zeros", ("d",)),
    "temb.w2": ("linear", ("d", "d")), "temb.b2": ("zeros", ("d",)),
    "final.ln.gain": ("ones", ("d",)), "final.ln.bias": ("zeros", ("d",)),
    "final.mod.w": ("zeros", ("d", "2d")), "final.mod.b": ("zeros", ("2d",)),
    "xhead.w": ("linear", ("d", "d")), "xhead.b": ("zeros", ("d",)),
    "head.w": ("zeros", ("d", "d")), "head.b": ("zeros", ("d",)),
}


def parameter_layout(cfg: ModelConfig) -> dict[str, tuple[str, tuple[int, ...]]]:
    """Every tensor of a ``cfg.arch`` model: name -> (init, shape), in checkpoint order.

    Per block ``blocks.{l}.`` the backbone and CA_p, plus CA_a and the router
    on a routed model; the time embedding and the head come last. The init
    is "linear" (N(0, 1/fan_in)), "zeros", "ones" or "mean" (1/heads).
    """
    d = cfg.model_dim
    dims = {"d": d, "hd": cfg.attn_width, "feat": cfg.feat_dim, "heads": cfg.heads,
            "hidden": MLP_RATIO * d, "7d": 7 * d, "2d": 2 * d}
    groups = ("", "ca_p.", "ca_a.", "router.") if cfg.arch == "routed" else ("", "ca_p.")
    named = [(f"blocks.{l}.{g}{k}", spec) for l in range(cfg.blocks) for g in groups
             for k, spec in _BLOCK_LAYOUT[g].items()]
    named += _HEAD_LAYOUT.items()
    return {name: (init, tuple(dims[n] for n in shape)) for name, (init, shape) in named}


def constant_init(cfg: ModelConfig, init: str, shape: tuple[int, ...]) -> np.ndarray:
    """The start value of a layout entry whose init is not "linear"."""
    return np.full(shape, {"zeros": 0.0, "ones": 1.0, "mean": 1.0 / cfg.heads}[init])


def init_params(cfg: ModelConfig, seed: int) -> dict[str, Tensor]:
    """A random ``cfg.arch`` model: its "linear" tensors drawn from
    ``stream(seed, "init")`` in layout order."""
    rng = stream(seed, "init")
    params = {}
    for name, (init, shape) in parameter_layout(cfg).items():
        data = (rng.normal(0.0, 1.0 / math.sqrt(shape[0]), size=shape) if init == "linear"
                else constant_init(cfg, init, shape))
        params[name] = Tensor(data, requires_grad=True)
    return params


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


@dataclass
class ViewContext:
    """The view-side tensors of a forward: everything that depends only on the views.

    Per block ``l``: ``kv_p[l]`` is the CA_p (keys, values) pair, each
    (B, V, S, H * dh) with the heads unsplit like the queries, keys
    RMS-normed; on a routed model ``kv_a[l]`` is the CA_a pair and
    ``router_keys[l]`` the router's projected pooled keys (B, V, H * dh),
    both None without a router. A routed context built under ``no_grad``
    over two or more views also holds ``scores[l]``, the router's folded
    :class:`roar3d.router.ScoreMatrix` (B, D, V), which a forward without
    gradients or Gumbel noise routes with; every other forward routes with
    the exact logits of ``router_keys``. ``feats`` is the (B, V, S,
    feat_dim) array the context was built from.
    """

    feats: np.ndarray
    kv_p: list
    kv_a: list | None = None
    router_keys: list | None = None
    scores: list | None = None


@dataclass
class TimeContext:
    """The timestep side of a forward: everything that depends only on ``t``.

    ``blocks[l]`` holds block ``l``'s seven adaLN chunks (self-attention
    scale, shift, gate; cross-attention gate; MLP scale, shift, gate) and
    ``final`` the head's (scale, shift), each shaped ``t.shape + (D,)``.
    """

    t: np.ndarray
    blocks: list
    final: tuple

    def row(self, k: int) -> "TimeContext":
        """Row ``k`` of a context built for a (steps, B) schedule, as plain data."""
        def pick(x: Tensor) -> Tensor:
            return Tensor(x.data[k])

        return TimeContext(self.t[k], [[pick(c) for c in chunks] for chunks in self.blocks],
                           tuple(pick(c) for c in self.final))


@dataclass
class ForwardOptions:
    mode: str = "inference"            # routing mode: "train" draws Gumbel noise
    run_seed: int = 0                  # keys the per-(step, block) noise stream
    step: int = 0
    views: ViewContext | None = None   # built from the same feats; None builds it
    time: TimeContext | None = None    # built for the same t; None builds it


@dataclass
class ForwardInfo:
    decisions: list = field(default_factory=list)   # one RoutingDecision per routed block
    views: ViewContext | None = None                # the context the forward used;
                                                    # None after a two-shard forward

    def hard_trace(self) -> np.ndarray:
        """(L, B, N) hard routing indices of one forward pass."""
        return np.stack([d.hard_index for d in self.decisions])

    def mean_entropy(self) -> float:
        if not self.decisions:
            return 0.0
        return float(np.mean([d.soft_entropy() for d in self.decisions]))


def timestep_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    """Sinusoidal features of t in [0, 1], scaled to a 0..1000 phase range.

    Any leading shape of ``t`` works; the features go on a new last axis.
    """
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / half)
    ang = t[..., None] * 1000.0 * freqs
    emb = np.concatenate([np.cos(ang), np.sin(ang)], axis=-1)
    if dim % 2:
        emb = np.concatenate([emb, np.zeros(t.shape + (1,))], axis=-1)
    return emb


_POS_CACHE: dict[tuple[int, int], np.ndarray] = {}


def grid_positional_embedding(cfg: ModelConfig) -> np.ndarray:
    """Fixed sinusoidal embedding of each token's grid cell, (N, D).

    Latent tokens are pure noise at t=1, so without a positional signal the
    permutation-equivariant attention stack could never tell which token is
    which cell. Sin/cos pairs over the three integer cell coordinates give
    every token a deterministic identity; no parameters involved.
    """
    key = (cfg.grid, cfg.model_dim)
    emb = _POS_CACHE.get(key)
    if emb is None:
        n, d = cfg.grid, cfg.model_dim
        coords = np.stack(_cell_coords(n), axis=1).astype(np.float64)
        pairs_per_axis = max(d // 6, 1)
        freqs = (np.pi / n) * (2.0 ** np.arange(pairs_per_axis))
        emb = np.zeros((n**3, d))
        col = 0
        for axis in range(3):
            for f in freqs:
                if col + 2 > d:
                    break
                emb[:, col] = np.sin(coords[:, axis] * f)
                emb[:, col + 1] = np.cos(coords[:, axis] * f)
                col += 2
        emb = _POS_CACHE.setdefault(key, emb)
    return emb


def _t_embed(params, t: np.ndarray, d: int) -> Tensor:
    h = Tensor(timestep_embedding(t, d))
    h = nx.silu(nx.linear(h, params["temb.w1"], params["temb.b1"]))
    return nx.linear(h, params["temb.w2"], params["temb.b2"])


def _modulation(temb: Tensor, w: Tensor, b: Tensor, d: int) -> list:
    """The width-``d`` chunks of the adaLN projection ``silu(temb) @ w + b``."""
    mod = nx.linear(nx.silu(temb), w, b)
    return [nx.slice_last(mod, i, i + d) for i in range(0, b.shape[0], d)]


def time_context(params: dict[str, Tensor], cfg: ModelConfig, t: np.ndarray) -> TimeContext:
    """Build every block's adaLN modulation and the head's from timesteps ``t``.

    ``t`` is (B,) for one forward, or (steps, B) for a whole sampling schedule
    whose rows :meth:`TimeContext.row` hands out. With gradients on the
    context is part of the graph of the forward that builds it.
    """
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    d = cfg.model_dim
    temb = _t_embed(params, t, d)
    blocks = [_modulation(temb, params[f"blocks.{l}.mod.w"], params[f"blocks.{l}.mod.b"], d)
              for l in range(cfg.blocks)]
    final = _modulation(temb, params["final.mod.w"], params["final.mod.b"], d)
    return TimeContext(t, blocks, tuple(final))


def _self_attention_block(params, l: int, z: Tensor, sc, sh, gate, cfg: ModelConfig) -> Tensor:
    pre = f"blocks.{l}"
    h = nx.ada_layer_norm(z, params[f"{pre}.ln_sa.gain"], params[f"{pre}.ln_sa.bias"], sc, sh)
    q, k, v = (nx.matmul(h, params[f"{pre}.sa.{w}"]) for w in ("w_q", "w_k", "w_v"))
    out = nx.matmul(nx.self_attention(q, k, v, cfg.heads), params[f"{pre}.sa.w_o"])
    return nx.gated_add(z, out, gate)


def _mlp_block(params, l: int, z: Tensor, sc, sh, gate) -> Tensor:
    pre = f"blocks.{l}"
    h = nx.ada_layer_norm(z, params[f"{pre}.ln_mlp.gain"], params[f"{pre}.ln_mlp.bias"], sc, sh)
    h = nx.silu(nx.linear(h, params[f"{pre}.mlp.w1"], params[f"{pre}.mlp.b1"]))
    h = nx.linear(h, params[f"{pre}.mlp.w2"], params[f"{pre}.mlp.b2"])
    return nx.gated_add(z, h, gate)


T_FLOOR = 0.02  # clamp for the 1/t factor of the clean-latent parameterization


def _final_head(params, z: Tensor, sc: Tensor, sh: Tensor,
                z_t: np.ndarray, t: np.ndarray) -> Tensor:
    """Clean-latent estimate, then a linear velocity head.

    The stream is decoded to an estimate of the clean latent x; the velocity
    candidate (z_t - x) / max(t, floor) makes the internal regression target
    noise-free (the straight path gives u = (z_t - z)/t exactly), which is
    what lets conditioning train in a desk-sized step budget. The final
    zero-initialized linear head maps that candidate to the emitted velocity.
    """
    h = nx.ada_layer_norm(z, params["final.ln.gain"], params["final.ln.bias"], sc, sh)
    x_hat = nx.linear(h, params["xhead.w"], params["xhead.b"])
    inv_t = 1.0 / np.maximum(t, T_FLOOR)
    candidate = nx.scale_batch(nx.sub(Tensor(z_t), x_hat), inv_t)
    return nx.linear(candidate, params["head.w"], params["head.b"])


def _ca_q(params, prefix: str, znorm: Tensor) -> Tensor:
    """One stream's query per token, (B, N, H * dh)."""
    return nx.rms_norm(nx.matmul(znorm, params[prefix + ".w_q"]), params[prefix + ".q_gain"])


def _ca_kv(params, prefix: str, feats: Tensor):
    """One stream's keys and values per view patch, each (B, V, S, H * dh)."""
    k = nx.rms_norm(nx.matmul(feats, params[prefix + ".w_k"]), params[prefix + ".k_gain"])
    return k, nx.matmul(feats, params[prefix + ".w_v"])


def _router_params(params, l: int) -> dict[str, Tensor]:
    return {k: params[f"blocks.{l}.router.{k}"] for k in _BLOCK_LAYOUT["router."]}


def view_context(params: dict[str, Tensor], cfg: ModelConfig, feats: np.ndarray,
                 routed: bool) -> ViewContext:
    """Build every block's view-side tensors from (B, V, S, feat_dim) ``feats``.

    ``routed`` adds the CA_a pairs and the router keys. Under ``no_grad`` the
    context is plain data that every step of one request can reuse, and a
    routed one over two or more views adds the router's score matrices; with
    gradients on it is part of the graph of the forward that builds it.
    """
    feats = np.asarray(feats)
    feats_t = Tensor(feats)
    blocks = range(cfg.blocks)
    ctx = ViewContext(feats, [_ca_kv(params, f"blocks.{l}.ca_p", feats_t) for l in blocks])
    if routed:
        pooled = Tensor(feats.mean(axis=2))
        ctx.kv_a = [_ca_kv(params, f"blocks.{l}.ca_a", feats_t) for l in blocks]
        routers = [_router_params(params, l) for l in blocks]
        ctx.router_keys = [router_keys(pooled, p) for p in routers]
        if not nx.grad_enabled() and feats.shape[1] > 1:
            ctx.scores = [score_matrix(k, p) for k, p in zip(ctx.router_keys, routers)]
    return ctx


def _cross_attention(
    params, l: int, z: Tensor, znorm: Tensor, views: ViewContext, v_star: np.ndarray,
    use_primary: np.ndarray, multiplier: Tensor | None, gate: Tensor, cfg: ModelConfig,
) -> Tensor:
    """Dual-stream cross attention of block ``l`` over the views of ``views``.

    ``znorm`` is the residual stream ``z`` after the block's ``ln_ca`` norm.
    Token n of sample b attends the S patches of view ``v_star[b, n]``
    through CA_p where ``use_primary[b, n]``, otherwise through CA_a, and its
    output is scaled by the straight-through ``multiplier`` when there is one
    (None under ``no_grad`` and without a router). A block without a
    multiplier whose tokens are all primary runs CA_p alone, as the
    router-less forward always does: CA_a would only add exact zeros. With a
    multiplier CA_a runs, so its weights still get their (zero) gradients.
    """
    pre = f"blocks.{l}"
    q_p, kv_p = _ca_q(params, f"{pre}.ca_p", znorm), views.kv_p[l]
    if multiplier is None and use_primary.all():
        attn = nx.routed_attention(q_p, None, kv_p, None, v_star, use_primary, cfg.heads)
        out = nx.matmul(attn, params[f"{pre}.ca_p.w_o"])
    else:
        q_a = _ca_q(params, f"{pre}.ca_a", znorm)
        attn = nx.routed_attention(q_p, q_a, kv_p, views.kv_a[l], v_star, use_primary,
                                   cfg.heads)
        out = nx.dual_linear(attn, params[f"{pre}.ca_p.w_o"], params[f"{pre}.ca_a.w_o"],
                             use_primary, multiplier)
    return nx.gated_add(z, out, gate)


def forward_single(params: dict[str, Tensor], cfg: ModelConfig, z_t: np.ndarray,
                   t: np.ndarray, feats: np.ndarray,
                   opts: ForwardOptions | None = None) -> tuple[Tensor, ForwardInfo]:
    """Router-less velocity prediction; feats is (B, S', feat_dim), one view.

    Only ``opts.views`` and ``opts.time`` are read: contexts from an earlier
    call on the same ``feats`` and ``t``.
    """
    return _forward(params, cfg, z_t, t, np.asarray(feats)[:, None], None, opts)


def forward_multiview(
    params: dict[str, Tensor],
    cfg: ModelConfig,
    z_t: np.ndarray,
    t: np.ndarray,
    feats: np.ndarray,
    primary_index: np.ndarray,
    opts: ForwardOptions | None = None,
) -> tuple[Tensor, ForwardInfo]:
    """Routed dual-stream velocity prediction.

    ``feats`` is (B, V, S, feat_dim); ``primary_index`` holds one view index
    per sample, or -1 where the primary designation is absent (perturbation
    mode - every token then runs through the auxiliary stream).
    """
    opts = opts or ForwardOptions()
    primary_index = np.asarray(primary_index, dtype=np.int64)
    if primary_index.shape != (z_t.shape[0],):
        raise ValueError("primary_index must have one entry per sample")
    if primary_index.max() >= feats.shape[1] or primary_index.min() < -1:
        raise ValueError("primary index out of range")
    if opts.mode not in ("train", "inference"):
        raise ValueError(f"mode must be train or inference, got {opts.mode!r}")
    return _forward(params, cfg, z_t, t, feats, primary_index, opts)


def _forward(params, cfg: ModelConfig, z_t: np.ndarray, t: np.ndarray, feats: np.ndarray,
             primary_index: np.ndarray | None,
             opts: ForwardOptions | None) -> tuple[Tensor, ForwardInfo]:
    """Both forwards: one graph over the batch, or two row shards in two processes.

    ``primary_index`` None runs without a router. In training mode each
    routed block's Gumbel noise is drawn here, once for the whole batch, and
    each shard takes its rows, so a sample's noise does not depend on how its
    batch was split. Inside :func:`sharding` for these same ``params``, with
    gradients on, a batch of B >= 2 that brings no view or time context is
    split into rows [0, B//2), run by :func:`_rows` on ``params`` here, and
    [B//2, B), run by the scope's :class:`_ShardWorker`; the velocity joins
    the two (:func:`roar3d.numerics.gather_rows`), and the info holds the
    batch's routing decisions, without multipliers, and no view context.
    Any other forward is one graph in the calling process.
    """
    opts = opts or ForwardOptions()
    B, N, _ = z_t.shape
    V = feats.shape[1]
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    noise = None
    if primary_index is not None and opts.mode == "train":
        noise = [routing_noise(opts.run_seed, opts.step, l, (B, N, V)) for l in range(cfg.blocks)]
    worker = _SCOPE.get()
    if (B < 2 or not nx.grad_enabled() or opts.views is not None or opts.time is not None
            or worker is None or worker.params is not params or worker.owner != os.getpid()):
        return _rows(params, cfg, z_t, t, feats, primary_index, opts, noise)

    def shard(rows: slice) -> tuple:
        return (cfg, z_t[rows], t[rows], feats[rows],
                None if primary_index is None else primary_index[rows], opts,
                None if noise is None else [n[rows] for n in noise])

    h = B // 2
    (first, info), (second, decisions), token = worker.forward(
        shard(slice(h, B)), lambda: _rows(params, *shard(slice(0, h))))
    vel = nx.gather_rows(first, second, lambda g: worker.sweep(
        token, g[h:], lambda: nx.sweep(first, g[:h])))
    return vel, ForwardInfo([_joined(a, *b) for a, b in zip(info.decisions, decisions)])


def _joined(a: RoutingDecision, hard_index: np.ndarray,
            y_soft: np.ndarray | None) -> RoutingDecision:
    """One decision over the rows of ``a`` and then the worker's, with no multiplier."""
    soft = None if a.y_soft is None else np.concatenate([a.y_soft, y_soft])
    return RoutingDecision(np.concatenate([a.hard_index, hard_index]), soft, None)


class _ShardWorker:
    """The forked process that runs and sweeps the second row shard of ``params``' forwards.

    Two anonymous shared mappings, made before the fork, each hold one flat
    float64 array with a slice per parameter: the caller copies every
    parameter's data into the first on each forward, and the worker's twins
    are Tensors over views of it; the worker writes its twins' gradients
    into the second after a sweep, and the caller copies them out. The pipe
    carries the shard's inputs and the ``requires_grad`` flags in, and the
    velocity rows, the routing decisions and the flags of which twins got a
    gradient back. Nothing else is shared: each graph lives in one process,
    so values and gradients do not depend on timing.

    Each exchange, :meth:`forward` or :meth:`sweep`, sends its request, runs
    the calling shard's own part meanwhile and then takes the reply
    (:meth:`_overlap`), holding ``lock`` throughout, so threads that reach
    the worker through copies of one context take turns and never read each
    other's replies. An error is raised only once the worker has replied:
    the calling shard's error if it has one, else the worker's; after
    either, a sweep adds none of the worker's gradients. The worker holds
    one graph at a time: a new forward replaces the last one, swept or not,
    and a sweep of a replaced graph raises ``RuntimeError`` and sweeps
    nothing. The worker exits when its pipe reaches end of file, so it does
    not outlive the process that started it; it is a daemon as well, so a
    normal exit stops it at once. Once it has died, every exchange raises
    ``RuntimeError``. It is forked, so it runs on Linux only; elsewhere
    starting one raises ``RuntimeError``.
    """

    def __init__(self, params: dict[str, Tensor]):
        if not sys.platform.startswith("linux"):
            raise RuntimeError("training a batch of two or more rows forks a shard worker "
                               f"process, which roar3d supports on Linux only, not {sys.platform}")
        self.params = params
        self.owner = os.getpid()
        self.lock = threading.Lock()
        shapes = [p.shape for p in params.values()]
        ends = np.cumsum([0] + [math.prod(shape) for shape in shapes])

        def views() -> list[np.ndarray]:
            flat = np.frombuffer(mmap.mmap(-1, 8 * int(ends[-1])))
            return [flat[a:b].reshape(shape) for a, b, shape in zip(ends, ends[1:], shapes)]

        self.data, self.grads = views(), views()
        self.graph = None      # a token of the forward whose graph the worker holds
        fork = multiprocessing.get_context("fork")
        self.conn, child = fork.Pipe()
        self.process = fork.Process(target=self._serve, args=(child,), daemon=True,
                                    name="roar3d-shard")
        self.process.start()
        child.close()

    # -- the worker process ----------------------------------------------------

    def _serve(self, conn) -> None:
        self.conn.close()                       # the caller's end: EOF once the caller is gone
        signal.signal(signal.SIGINT, signal.SIG_IGN)    # an interrupt is the caller's to handle
        twins = [Tensor(view) for view in self.data]
        named = dict(zip(self.params, twins))
        root = None
        while True:
            try:
                request = conn.recv()
            except EOFError:
                return
            try:
                if request[0] == "forward":
                    root = None
                    for twin, flag in zip(twins, request[1]):
                        twin.requires_grad, twin.grad = flag, None
                    vel, info = _rows(named, *request[2])
                    root = vel
                    reply = (vel.data, [(d.hard_index, d.y_soft) for d in info.decisions])
                else:
                    swept, root = root, None
                    nx.sweep(swept, request[1])
                    reply = []
                    for twin, view in zip(twins, self.grads):
                        reply.append(twin.grad is not None)
                        if twin.grad is not None:
                            view[...] = twin.grad
                        twin.grad = None
                message = ("ok", reply)
            except Exception as exc:
                root = None
                message = ("error", exc)
            try:
                conn.send(message)
            except OSError:                     # the caller is gone
                return

    # -- the calling process ---------------------------------------------------

    def _send(self, request) -> None:
        try:
            self.conn.send(request)
        except OSError:
            self._died()
        except BaseException:           # interrupted mid-request: the pipe is out of step
            self.stop()
            raise

    def _receive(self):
        try:
            status, payload = self.conn.recv()
        except (EOFError, OSError):
            self._died()
        except BaseException:           # interrupted mid-reply: the pipe is out of step
            self.stop()
            raise
        if status == "error":
            raise payload
        return payload

    def _died(self):
        self.stop()
        raise RuntimeError(f"the shard worker process (pid {self.process.pid}) died")

    def _overlap(self, request, local: Callable):
        """Send ``request``, run ``local()`` here meanwhile, then take the reply:
        ``(local's result, the reply)``, or the error the class docstring names."""
        self._send(request)
        try:
            mine = local()
        except BaseException:
            with suppress(Exception):
                self._receive()
            raise
        return mine, self._receive()

    def forward(self, args: tuple, local: Callable) -> tuple[object, tuple, object]:
        """Run the shard ``args`` in the worker while ``local()`` runs here.

        Returns ``local``'s result, the worker's (velocity rows, each routed
        block's (hard_index, y_soft)) and the token that :meth:`sweep` takes.
        """
        with self.lock:
            self.graph = None
            for view, p in zip(self.data, self.params.values()):
                np.copyto(view, p.data)
            flags = [p.requires_grad for p in self.params.values()]
            mine, reply = self._overlap(("forward", flags, args), local)
            token = self.graph = object()
        return mine, reply, token

    def sweep(self, token: object, g: np.ndarray, local: Callable) -> None:
        """Sweep the graph of forward ``token`` from ``g`` while ``local()`` runs here,
        then add the worker's gradients to the parameters' in parameter order."""
        with self.lock:
            if self.graph is not token:
                raise RuntimeError("the shard worker no longer holds this graph: "
                                   "a later forward replaced it")
            self.graph = None
            _, flags = self._overlap(("sweep", g), local)
            for p, view, got in zip(self.params.values(), self.grads, flags):
                if got:   # accum_grad keeps a first gradient: copy it out of the mapping
                    p.accum_grad(view.copy() if p.grad is None else view)

    def stop(self) -> None:
        """End the worker process; it may already have ended."""
        self.graph = None
        self.conn.close()
        self.process.kill()
        self.process.join()


_SCOPE: ContextVar[_ShardWorker | None] = ContextVar("shard_worker", default=None)


@contextmanager
def sharding(params: dict[str, Tensor]) -> Iterator[_ShardWorker]:
    """Run this context's grad-on forwards of ``params`` as two row shards (:func:`_forward`).

    Forks a :class:`_ShardWorker` for ``params`` on entry, binds it to the
    current context, as :class:`roar3d.numerics.no_grad` binds its flag, and
    stops it on exit, however the block ends. The names and shapes of
    ``params`` must not change inside the block, and threads that run in
    copies of the context must be done with the worker before it ends.
    """
    worker = _ShardWorker(params)     # forked before the binding, so the worker never sees it
    token = _SCOPE.set(worker)
    try:
        yield worker
    finally:
        _SCOPE.reset(token)
        worker.stop()


def _rows(params, cfg: ModelConfig, z_t: np.ndarray, t: np.ndarray, feats: np.ndarray,
          primary_index: np.ndarray | None, opts: ForwardOptions,
          noise: list | None) -> tuple[Tensor, ForwardInfo]:
    """The block loop over every row of ``z_t``, as one graph.

    The view context comes from ``opts.views``, or is built here when that is
    None; either way it is returned in ``ForwardInfo.views``. The time context
    comes from ``opts.time`` in the same way. ``noise`` holds each routed
    block's Gumbel noise for these rows in training mode, None otherwise.
    Without gradients or noise only the argmax of the logits is read, so the
    router scores through the context's score matrices when it has them.
    """
    B, N, d = z_t.shape
    routed = primary_index is not None
    views = opts.views
    if views is None:
        views = view_context(params, cfg, feats, routed)
    elif (views.router_keys is not None) != routed or not np.array_equal(views.feats, feats):
        raise ValueError("the view context was built from other features or another arch")
    time = opts.time
    if time is None:
        time = time_context(params, cfg, t)
    elif not np.array_equal(time.t, t):
        raise ValueError("the time context was built for other timesteps")
    z = Tensor(z_t + grid_positional_embedding(cfg)[None])
    info = ForwardInfo(views=views)
    V = feats.shape[1]
    # without a router every token takes view 0 through CA_p; so does every
    # token of a one-view router under no_grad, where the argmax of one column
    # is 0 and nothing reads the scores
    score = routed and (V > 1 or nx.grad_enabled())
    folded = noise is None and not nx.grad_enabled() and views.scores is not None
    v_star = np.zeros((B, N), dtype=np.int64)
    use_p = np.ones((B, N), dtype=bool)
    multiplier = None

    for l in range(cfg.blocks):
        sc1, sh1, g1, g_ca, sc2, sh2, g2 = time.blocks[l]
        z = _self_attention_block(params, l, z, sc1, sh1, g1, cfg)
        ln_ca = (params[f"blocks.{l}.ln_ca.gain"], params[f"blocks.{l}.ln_ca.bias"])

        if score:
            p = _router_params(params, l)
            zt, znorm = nx.layer_norms(z, (p["ln_gain"], p["ln_bias"]), ln_ca)
            keys = views.scores[l] if folded else views.router_keys[l]
            logits = routing_logits_batched(zt, keys, p)
            dec = gumbel_select(logits, None if noise is None else noise[l])
        else:
            znorm = nx.layer_norm(z, *ln_ca)
            dec = RoutingDecision(np.zeros((B, N), dtype=np.int64), None, None)
        if routed:
            v_star = dec.hard_index
            multiplier = dec.multiplier
            use_p = (primary_index[:, None] >= 0) & (v_star == primary_index[:, None])
            info.decisions.append(dec)

        z = _cross_attention(params, l, z, znorm, views, v_star, use_p, multiplier, g_ca, cfg)
        z = _mlp_block(params, l, z, sc2, sh2, g2)

    return _final_head(params, z, *time.final, z_t, t), info


class Model:
    """Parameter dict + config bundle with velocity and checkpoint helpers.

    ``velocity`` is the one place that picks the forward by ``cfg.arch``:
    "routed" runs the router on (B, V, S, feat) views, "concat" flattens all
    views into one key set for the router-less forward, and "single" is the
    one-view baseline of the first training phase.
    """

    def __init__(self, cfg: ModelConfig, params: dict[str, Tensor]):
        self.cfg = cfg
        self.params = params

    @staticmethod
    def create(cfg: ModelConfig, seed: int) -> "Model":
        return Model(cfg, init_params(cfg, seed))

    def velocity(self, z_t, t, feats, primary_index=None,
                 opts: ForwardOptions | None = None) -> tuple[Tensor, ForwardInfo]:
        if self.cfg.arch == "routed":
            if primary_index is None:
                raise ValueError("routed model needs a primary_index array")
            return forward_multiview(self.params, self.cfg, z_t, t, feats,
                                     primary_index, opts)
        flat = feats.reshape(feats.shape[0], -1, feats.shape[-1])  # views into one key set
        return forward_single(self.params, self.cfg, z_t, t, flat, opts)

    def named_data(self) -> dict[str, np.ndarray]:
        return {k: v.data for k, v in self.params.items()}

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def copy(self) -> "Model":
        params = {k: Tensor(v.data.copy(), requires_grad=True) for k, v in self.params.items()}
        return Model(replace(self.cfg), params)

    def save(self, path, meta: dict | None = None) -> None:
        ckpt.save_tensors(path, self.named_data())
        sidecar = {"model": asdict(self.cfg)}
        sidecar["model"]["tokens"] = self.cfg.tokens
        if meta:
            sidecar.update(meta)
        ckpt.save_sidecar(path, sidecar)

    @staticmethod
    def load(path) -> "Model":
        tensors = ckpt.load_tensors(path)
        sidecar = ckpt.load_sidecar(path)
        if not isinstance(sidecar.get("model"), dict):
            raise ckpt.CheckpointError(f"{path}.json: no model section")
        cfg = ModelConfig()
        try:
            set_fields(cfg, {k: v for k, v in sidecar["model"].items() if k != "tokens"},
                       "model")
            cfg.validate()
        except ConfigError as exc:
            raise ckpt.CheckpointError(f"{path}.json: {exc}") from None
        diff = mismatched_tensors(cfg, tensors)
        if diff:
            raise ckpt.CheckpointError(f"{path}: {len(diff)} tensor names or shapes differ "
                                       f"from a {cfg.arch} model, first {diff[0]}")
        params = {k: Tensor(v, requires_grad=True) for k, v in tensors.items()}
        return Model(cfg, params)


def mismatched_tensors(cfg: ModelConfig, tensors: dict[str, np.ndarray]) -> list:
    """Sorted (name, shape) pairs in which ``tensors`` and a ``cfg`` model differ."""
    expected = {k: shape for k, (_, shape) in parameter_layout(cfg).items()}
    return sorted(set(expected.items()) ^ {(k, v.shape) for k, v in tensors.items()})


def integrate_flow(
    params: dict[str, Tensor],
    cfg: ModelConfig,
    feats: np.ndarray,
    primary_index: np.ndarray,
    z_init: np.ndarray,
    steps: int,
    collect_trace: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Euler integration of the learned velocity field from t=1 down to 0.

    Deterministic given ``z_init``; with ``collect_trace`` a routed model
    also returns the (T, L, B, N) hard routing indices of every denoising
    step (None for a model without a router). Non-finite ``feats`` or
    ``z_init`` and ``steps < 1`` raise ValueError. The time context of the
    whole schedule is built once; the first step's forward builds the view
    context and every later step reuses it.
    """
    if steps < 1:
        raise ValueError(f"integrate_flow needs steps >= 1, got {steps}")
    if not (np.isfinite(feats).all() and np.isfinite(z_init).all()):
        raise ValueError("integrate_flow needs finite feats and z_init")
    model = Model(cfg, params)
    z = z_init.copy()
    B = z.shape[0]
    dt = 1.0 / steps
    trace = []
    opts = ForwardOptions(mode="inference")
    with nx.no_grad():
        times = time_context(params, cfg, np.stack([np.full(B, 1.0 - k * dt)
                                                    for k in range(steps)]))
        for k in range(steps):
            opts.time = times.row(k)
            vel, info = model.velocity(z, opts.time.t, feats, primary_index, opts)
            opts.views = info.views
            z = z - dt * vel.data
            if collect_trace and info.decisions:
                trace.append(info.hard_trace())
    return z, (np.stack(trace) if trace else None)
