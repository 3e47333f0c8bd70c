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
all views flattened into one key set, which ``Model.velocity`` does.

Parameters, the router's included, live in one flat name -> Tensor dict
(checkpoint friendly); block ``l`` reads its weights by name.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import checkpoint as ckpt
from . import numerics as nx
from .config import ConfigError, ModelConfig, set_fields
from .numerics import Tensor
from .router import gumbel_select, routing_logits_batched, routing_noise
from .rng import stream
from .world import _QUARTER, PointCloud

__all__ = [
    "ForwardOptions",
    "ForwardInfo",
    "latent_encode",
    "latent_decode",
    "rotate_latent",
    "init_single_params",
    "init_multiview_params",
    "Model",
    "mismatched_tensors",
    "forward_single",
    "forward_multiview",
    "integrate_flow",
    "count_parameters",
]


# ---------------------------------------------------------------------------
# latent codec
# ---------------------------------------------------------------------------


def _cell_ids(points: np.ndarray, n: int) -> np.ndarray:
    h = 2.0 / n
    idx = np.clip(np.floor((points + 1.0) / h).astype(np.int64), 0, n - 1)
    return (idx[:, 0] * n + idx[:, 1]) * n + idx[:, 2]


def _cell_centers(n: int) -> np.ndarray:
    h = 2.0 / n
    ids = np.arange(n**3)
    ix, rem = divmod(ids, n * n)
    iy, iz = divmod(rem, n)
    return np.stack([-1.0 + (ix + 0.5) * h, -1.0 + (iy + 0.5) * h, -1.0 + (iz + 0.5) * h], axis=1)


def latent_encode(pc: PointCloud, cfg: ModelConfig) -> np.ndarray:
    """(N, D) occupancy + scaled centroid offsets on a grid**3 cell lattice.

    Token = [occ, off_x, off_y, off_z, 0, ...]; offsets are (centroid - cell
    center) * offset_scale, zero for empty cells.
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
    tokens[:, 0] = (counts > 0).astype(np.float64) * cfg.occupancy_scale
    tokens[:, 1:4] = offsets * cfg.offset_scale
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
    occupied = tokens[:, 0] / cfg.occupancy_scale >= 0.5
    if not occupied.any():
        return np.zeros((0, 3))
    offsets = np.clip(tokens[occupied, 1:4] / cfg.offset_scale, -half, half)
    return _cell_centers(n)[occupied] + offsets


def grid_permutation(n: int, quarters: int) -> np.ndarray:
    """dest[old_cell] = cell index after rotating the grid by 90 * quarters."""
    quarters %= 4
    ids = np.arange(n**3)
    ix, rem = divmod(ids, n * n)
    iy, iz = divmod(rem, n)
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
    rot = _QUARTER[quarters]
    tokens = np.zeros_like(z)
    moved = z.copy()
    moved[:, 1] = rot[0, 0] * z[:, 1] + rot[0, 1] * z[:, 2]
    moved[:, 2] = rot[1, 0] * z[:, 1] + rot[1, 1] * z[:, 2]
    tokens[dest] = moved
    return tokens


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def _linear(rng, d_in: int, d_out: int) -> Tensor:
    return Tensor(rng.normal(0.0, 1.0 / math.sqrt(d_in), size=(d_in, d_out)), requires_grad=True)


def _zeros(*shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def _ones(*shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


def _init_ca(rng, cfg: ModelConfig) -> dict[str, Tensor]:
    hd = cfg.attn_width
    return {
        "w_q": _linear(rng, cfg.model_dim, hd),
        "q_gain": _ones(hd),
        "w_k": _linear(rng, cfg.feat_dim, hd),
        "k_gain": _ones(hd),
        "w_v": _linear(rng, cfg.feat_dim, hd),
        "w_o": _linear(rng, hd, cfg.model_dim),
    }


def _init_router(rng, cfg: ModelConfig) -> dict[str, Tensor]:
    d, hd = cfg.model_dim, cfg.attn_width
    return {
        "ln_gain": _ones(d),
        "ln_bias": _zeros(d),
        "w_q": _linear(rng, d, hd),
        "w_k": _linear(rng, cfg.feat_dim, hd),
        "q_gain": _ones(hd),
        "k_gain": _ones(hd),
        "w_agg": Tensor(np.full(cfg.heads, 1.0 / cfg.heads), requires_grad=True),
    }


_ROUTER_KEYS = ("ln_gain", "ln_bias", "w_q", "w_k", "q_gain", "k_gain", "w_agg")


def _init_backbone_block(rng, cfg: ModelConfig) -> dict[str, Tensor]:
    d = cfg.model_dim
    hd = cfg.attn_width
    hidden = cfg.mlp_ratio * d
    block = {
        "ln_sa.gain": _ones(d),
        "ln_sa.bias": _zeros(d),
        "sa.w_q": _linear(rng, d, hd),
        "sa.w_k": _linear(rng, d, hd),
        "sa.w_v": _linear(rng, d, hd),
        "sa.w_o": _linear(rng, hd, d),
        "ln_ca.gain": _ones(d),
        "ln_ca.bias": _zeros(d),
        "ln_mlp.gain": _ones(d),
        "ln_mlp.bias": _zeros(d),
        "mlp.w1": _linear(rng, d, hidden),
        "mlp.b1": _zeros(hidden),
        "mlp.w2": _linear(rng, hidden, d),
        "mlp.b2": _zeros(d),
        # adaLN-zero: scale/shift/gate for self-attention and MLP, plus a
        # gate for the cross-attention sublayer (7 vectors of width d)
        "mod.w": _zeros(d, 7 * d),
        "mod.b": _zeros(7 * d),
    }
    block.update({"ca_p." + k: v for k, v in _init_ca(rng, cfg).items()})
    return block


def _init_common(rng, cfg: ModelConfig) -> dict[str, Tensor]:
    d = cfg.model_dim
    return {
        "temb.w1": _linear(rng, d, d),
        "temb.b1": _zeros(d),
        "temb.w2": _linear(rng, d, d),
        "temb.b2": _zeros(d),
        "final.ln.gain": _ones(d),
        "final.ln.bias": _zeros(d),
        "final.mod.w": _zeros(d, 2 * d),
        "final.mod.b": _zeros(2 * d),
        "xhead.w": _linear(rng, d, d),
        "xhead.b": _zeros(d),
        "head.w": _zeros(d, d),
        "head.b": _zeros(d),
    }


def init_single_params(cfg: ModelConfig, seed: int) -> dict[str, Tensor]:
    """Single-stream baseline: backbone + CA_p only."""
    rng = stream(seed, "init")
    params: dict[str, Tensor] = {}
    for l in range(cfg.blocks):
        for k, v in _init_backbone_block(rng, cfg).items():
            params[f"blocks.{l}.{k}"] = v
    params.update(_init_common(rng, cfg))
    return params


def init_multiview_params(cfg: ModelConfig, seed: int) -> dict[str, Tensor]:
    """Random multi-view model (router and CA_a included, not upgraded)."""
    rng = stream(seed, "init")
    params: dict[str, Tensor] = {}
    for l in range(cfg.blocks):
        for k, v in _init_backbone_block(rng, cfg).items():
            params[f"blocks.{l}.{k}"] = v
        for k, v in _init_ca(rng, cfg).items():
            params[f"blocks.{l}.ca_a.{k}"] = v
        for k, v in _init_router(rng, cfg).items():
            params[f"blocks.{l}.router.{k}"] = v
    params.update(_init_common(rng, cfg))
    return params


def count_parameters(params: dict[str, Tensor]) -> dict:
    """Parameter counts per group plus the added/baseline ratio."""
    groups = {"backbone": 0, "ca_p": 0, "ca_a": 0, "router": 0}
    for name, t in params.items():
        if ".ca_p." in name:
            groups["ca_p"] += t.data.size
        elif ".ca_a." in name:
            groups["ca_a"] += t.data.size
        elif ".router." in name:
            groups["router"] += t.data.size
        else:
            groups["backbone"] += t.data.size
    baseline = groups["backbone"] + groups["ca_p"]
    added = groups["ca_a"] + groups["router"]
    return {**groups, "baseline": baseline, "added": added,
            "added_ratio": added / baseline if baseline else 0.0}


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


@dataclass
class ForwardOptions:
    mode: str = "inference"            # routing mode: "train" draws Gumbel noise
    tau: float = 1.0
    run_seed: int = 0                  # keys the per-(step, block) noise stream
    step: int = 0
    routing_override: list | None = None   # per-block (B, N) hard indices
    ste_offsets: list | None = None    # per-block (B, N, 1) surrogate offsets


@dataclass
class ForwardInfo:
    decisions: list = field(default_factory=list)   # one RoutingDecision per routed block

    def hard_trace(self) -> np.ndarray:
        """(L, B, N) hard routing indices of one forward pass."""
        return np.stack([d.hard_index for d in self.decisions])

    def mean_entropy(self) -> float:
        if not self.decisions:
            return 0.0
        return float(np.mean([d.soft_entropy() for d in self.decisions]))


def timestep_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    """Sinusoidal features of t in [0, 1], scaled to a 0..1000 phase range."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / half)
    ang = t[:, None] * 1000.0 * freqs[None, :]
    emb = np.concatenate([np.cos(ang), np.sin(ang)], axis=1)
    if dim % 2:
        emb = np.concatenate([emb, np.zeros((t.shape[0], 1))], axis=1)
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
    if key not in _POS_CACHE:
        n, d = cfg.grid, cfg.model_dim
        ids = np.arange(n**3)
        ix, rem = divmod(ids, n * n)
        coords = np.stack([ix, rem // n, rem % n], axis=1).astype(np.float64)
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
        _POS_CACHE[key] = emb
    return _POS_CACHE[key]


def _t_embed(params, t: np.ndarray, d: int) -> Tensor:
    h = Tensor(timestep_embedding(t, d))
    h = nx.silu(nx.add_bias(nx.matmul(h, params["temb.w1"]), params["temb.b1"]))
    return nx.add_bias(nx.matmul(h, params["temb.w2"]), params["temb.b2"])


def _modulation(params, l: int, temb: Tensor, d: int):
    mod = nx.add_bias(nx.matmul(nx.silu(temb), params[f"blocks.{l}.mod.w"]),
                      params[f"blocks.{l}.mod.b"])
    return [nx.slice_last(mod, i * d, (i + 1) * d) for i in range(7)]


def _self_attention_block(params, l: int, z: Tensor, sc, sh, gate, cfg: ModelConfig) -> Tensor:
    B, N, _ = z.shape
    H, dh = cfg.heads, cfg.head_dim
    pre = f"blocks.{l}"
    h = nx.modulate(nx.layer_norm(z, params[f"{pre}.ln_sa.gain"], params[f"{pre}.ln_sa.bias"]),
                    sc, sh)

    def heads(w):
        return nx.transpose(nx.reshape(nx.matmul(h, w), (B, N, H, dh)), (0, 2, 1, 3))

    out = nx.self_attention(heads(params[f"{pre}.sa.w_q"]), heads(params[f"{pre}.sa.w_k"]),
                            heads(params[f"{pre}.sa.w_v"]))
    out = nx.reshape(nx.transpose(out, (0, 2, 1, 3)), (B, N, H * dh))
    out = nx.matmul(out, params[f"{pre}.sa.w_o"])
    return nx.add(z, nx.gate_mul(out, gate))


def _mlp_block(params, l: int, z: Tensor, sc, sh, gate) -> Tensor:
    pre = f"blocks.{l}"
    h = nx.modulate(nx.layer_norm(z, params[f"{pre}.ln_mlp.gain"], params[f"{pre}.ln_mlp.bias"]),
                    sc, sh)
    h = nx.silu(nx.add_bias(nx.matmul(h, params[f"{pre}.mlp.w1"]), params[f"{pre}.mlp.b1"]))
    h = nx.add_bias(nx.matmul(h, params[f"{pre}.mlp.w2"]), params[f"{pre}.mlp.b2"])
    return nx.add(z, nx.gate_mul(h, gate))


T_FLOOR = 0.02  # clamp for the 1/t factor of the clean-latent parameterization


def _final_head(params, z: Tensor, temb: Tensor, d: int,
                z_t: np.ndarray, t: np.ndarray) -> Tensor:
    """Clean-latent estimate, then a linear velocity head.

    The stream is decoded to an estimate of the clean latent x; the velocity
    candidate (z_t - x) / max(t, floor) makes the internal regression target
    noise-free (the straight path gives u = (z_t - z)/t exactly), which is
    what lets conditioning train in a desk-sized step budget. The final
    zero-initialized linear head maps that candidate to the emitted velocity.
    """
    fm = nx.add_bias(nx.matmul(nx.silu(temb), params["final.mod.w"]), params["final.mod.b"])
    sc = nx.slice_last(fm, 0, d)
    sh = nx.slice_last(fm, d, 2 * d)
    h = nx.modulate(nx.layer_norm(z, params["final.ln.gain"], params["final.ln.bias"]), sc, sh)
    x_hat = nx.add_bias(nx.matmul(h, params["xhead.w"]), params["xhead.b"])
    inv_t = 1.0 / np.maximum(np.atleast_1d(np.asarray(t, dtype=np.float64)), T_FLOOR)
    candidate = nx.scale_batch(nx.sub(Tensor(z_t), x_hat), inv_t)
    return nx.add_bias(nx.matmul(candidate, params["head.w"]), params["head.b"])


def _ca_qkv(params, prefix: str, znorm: Tensor, feats: Tensor, cfg: ModelConfig):
    """Stream projections: query per token, keys/values per view patch."""
    B, N, _ = znorm.shape
    Bv, V, S, _ = feats.shape
    H, dh = cfg.heads, cfg.head_dim
    q = nx.rms_norm(nx.matmul(znorm, params[prefix + ".w_q"]), params[prefix + ".q_gain"])
    k = nx.rms_norm(nx.matmul(feats, params[prefix + ".w_k"]), params[prefix + ".k_gain"])
    v = nx.matmul(feats, params[prefix + ".w_v"])
    return (
        nx.reshape(q, (B, N, H, dh)),
        nx.reshape(k, (Bv, V, S, H, dh)),
        nx.reshape(v, (Bv, V, S, H, dh)),
    )


def _cross_attention(
    params, l: int, z: Tensor, feats: Tensor, v_star: np.ndarray,
    use_primary: np.ndarray, multiplier: Tensor | None, gate: Tensor, cfg: ModelConfig,
) -> Tensor:
    """Dual-stream cross attention of block ``l`` over (B, V, S, feat) views.

    Token n of sample b attends the S patches of view ``v_star[b, n]``
    through CA_p where ``use_primary[b, n]``, otherwise through CA_a, and its
    output is scaled by the straight-through ``multiplier``. Without a router
    (``multiplier`` None) CA_p serves both streams and nothing is scaled.
    """
    B, N, _ = z.shape
    pre = f"blocks.{l}"
    znorm = nx.layer_norm(z, params[f"{pre}.ln_ca.gain"], params[f"{pre}.ln_ca.bias"])
    q_p, k_p, vv_p = _ca_qkv(params, f"{pre}.ca_p", znorm, feats, cfg)
    q_a, k_a, vv_a = (q_p, k_p, vv_p) if multiplier is None else \
        _ca_qkv(params, f"{pre}.ca_a", znorm, feats, cfg)
    attn = nx.routed_attention(q_p, q_a, (k_p, vv_p), (k_a, vv_a), v_star, use_primary)
    flat = nx.reshape(attn, (B, N, cfg.attn_width))
    if multiplier is None:
        out = nx.matmul(flat, params[f"{pre}.ca_p.w_o"])
    else:
        mask_p = Tensor(use_primary[..., None].astype(np.float64))
        mask_a = Tensor((~use_primary)[..., None].astype(np.float64))
        out = nx.scale_rows(nx.add(
            nx.matmul(nx.scale_rows(flat, mask_p), params[f"{pre}.ca_p.w_o"]),
            nx.matmul(nx.scale_rows(flat, mask_a), params[f"{pre}.ca_a.w_o"]),
        ), multiplier)
    return nx.add(z, nx.gate_mul(out, gate))


def forward_single(params: dict[str, Tensor], cfg: ModelConfig, z_t: np.ndarray,
                   t: np.ndarray, feats: np.ndarray) -> Tensor:
    """Router-less velocity prediction; feats is (B, S', feat_dim), one view."""
    return _forward(params, cfg, z_t, t, np.asarray(feats)[:, None], None, None)[0]


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
    if primary_index.max() >= feats.shape[1]:
        raise ValueError("primary index out of range")
    if opts.mode not in ("train", "inference"):
        raise ValueError(f"mode must be train or inference, got {opts.mode!r}")
    return _forward(params, cfg, z_t, t, feats, primary_index, opts)


def _forward(params, cfg: ModelConfig, z_t: np.ndarray, t: np.ndarray, feats: np.ndarray,
             primary_index: np.ndarray | None,
             opts: ForwardOptions | None) -> tuple[Tensor, ForwardInfo]:
    """The block loop of both forwards; ``primary_index`` None runs without a router."""
    B, N, d = z_t.shape
    z = Tensor(z_t + grid_positional_embedding(cfg)[None])
    feats_t = Tensor(feats)
    temb = _t_embed(params, t, d)
    info = ForwardInfo()
    # without a router every token takes view 0 through CA_p
    v_star = np.zeros((B, N), dtype=np.int64)
    use_p = np.ones((B, N), dtype=bool)
    multiplier = None
    pooled = None if primary_index is None else Tensor(feats.mean(axis=2))

    for l in range(cfg.blocks):
        sc1, sh1, g1, g_ca, sc2, sh2, g2 = _modulation(params, l, temb, d)
        z = _self_attention_block(params, l, z, sc1, sh1, g1, cfg)

        if primary_index is not None:
            router = {k: params[f"blocks.{l}.router.{k}"] for k in _ROUTER_KEYS}
            logits = routing_logits_batched(z, pooled, router)
            noise = (routing_noise(opts.run_seed, opts.step, l, (B, N, feats.shape[1]))
                     if opts.mode == "train" else None)
            dec = gumbel_select(logits, opts.tau, noise)

            if opts.routing_override is not None:
                dec.hard_index = np.asarray(opts.routing_override[l], dtype=np.int64)
            v_star = dec.hard_index

            multiplier = dec.ste_multiplier() if opts.ste_offsets is None else \
                dec.surrogate_multiplier(opts.ste_offsets[l])

            use_p = (primary_index[:, None] >= 0) & (v_star == primary_index[:, None])
            info.decisions.append(dec)

        z = _cross_attention(params, l, z, feats_t, v_star, use_p, multiplier, g_ca, cfg)
        z = _mlp_block(params, l, z, sc2, sh2, g2)

    return _final_head(params, z, temb, d, z_t, t), info


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
        init = init_multiview_params if cfg.arch == "routed" else init_single_params
        return Model(cfg, init(cfg, seed))

    def velocity(self, z_t, t, feats, primary_index=None,
                 opts: ForwardOptions | None = None) -> tuple[Tensor, ForwardInfo]:
        if self.cfg.arch == "routed":
            if primary_index is None:
                raise ValueError("routed model needs a primary_index array")
            return forward_multiview(self.params, self.cfg, z_t, t, feats,
                                     primary_index, opts)
        flat = feats.reshape(feats.shape[0], -1, feats.shape[-1])  # views into one key set
        return forward_single(self.params, self.cfg, z_t, t, flat), ForwardInfo()

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
    expected = {k: p.shape for k, p in Model.create(cfg, 0).params.items()}
    return sorted(set(expected.items()) ^ {(k, v.shape) for k, v in tensors.items()})


def integrate_flow(
    params: dict[str, Tensor],
    cfg: ModelConfig,
    feats: np.ndarray,
    primary_index: np.ndarray,
    z_init: np.ndarray,
    steps: int = 32,
    collect_trace: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Euler integration of the learned velocity field from t=1 down to 0.

    Deterministic given ``z_init``; with ``collect_trace`` a routed model
    also returns the (T, L, B, N) hard routing indices of every denoising
    step (None for a model without a router).
    """
    model = Model(cfg, params)
    z = z_init.copy()
    B = z.shape[0]
    dt = 1.0 / steps
    trace = []
    opts = ForwardOptions(mode="inference")
    with nx.no_grad():
        for k in range(steps):
            t = np.full(B, 1.0 - k * dt)
            vel, info = model.velocity(z, t, feats, primary_index, opts)
            z = z - dt * vel.data
            if collect_trace and info.decisions:
                trace.append(info.hard_trace())
    return z, (np.stack(trace) if trace else None)
