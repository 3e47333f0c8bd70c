"""Flow-matching training: two phases, orientation perturbation, freezing.

Phase one trains the single-stream baseline on one view per sample. Phase
two upgrades it (auxiliary stream and router initialized from the trained
cross attention) and finetunes on 1 primary + 1..4 auxiliary views.

A training sample is one row of a :class:`Batch`: the (N, D) clean latent,
the (V, S, feat_dim) view features and the primary view index (-1 when
perturbed). With probability ``p_pert`` an eligible multi-view sample is
perturbed (:func:`perturbation`): its latent is quarter-turned into an
azimuth bin that no input view occupies, its primary index is set to -1 so
every token runs through the auxiliary stream, and the primary-stream
weights are frozen for that step. Samples whose views cover all four bins
admit no such turn; they are counted as skips and emitted unperturbed
(eligibility is checked before the coin flip so the realized perturbed
fraction matches ``p_pert``).
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics as nx
from .config import (ADAM_EPS, AUX_MIN, BETA1, BETA2, WEIGHT_DECAY, ConfigError, RunConfig,
                     TrainConfig)
from .data import SplitData
from .model import (ForwardInfo, ForwardOptions, Model, constant_init, mismatched_tensors,
                    parameter_layout, rotate_latent, sharding)
from .numerics import Tensor
from .rng import stream
from .world import BIN_CENTERS, azimuth_bin


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int):
        super().__init__(f"non-finite loss at step {step}")
        self.step = step


@dataclass
class Batch:
    """Stacked sample arrays; primary_index is -1 where the primary is absent."""

    z0: np.ndarray               # (B, N, D)
    feats: np.ndarray            # (B, V, S, feat_dim)
    primary_index: np.ndarray    # (B,)
    skips: int = 0

    @property
    def size(self) -> int:
        return self.z0.shape[0]

    @property
    def perturbed(self) -> np.ndarray:
        """(B,) bool: the samples that were quarter-turned and so lost their primary."""
        return self.primary_index < 0


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def flow_matching_loss(
    model: Model,
    batch: Batch,
    t: np.ndarray,
    noise: np.ndarray,
    opts: ForwardOptions | None = None,
) -> tuple[Tensor, ForwardInfo]:
    """MSE between predicted velocity and (noise - clean) on the straight path.

    z_t = (1 - t) * z_clean + t * noise, target velocity u = noise - z_clean.

    One ``model.velocity`` call over the whole batch: two row shards in two
    processes inside the :func:`roar3d.model.sharding` scope that
    :func:`train` opens (see :func:`roar3d.model._forward`), one graph
    anywhere else. The info holds the batch's routing decisions.
    """
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if noise.shape != batch.z0.shape:
        raise ValueError(f"noise shape {noise.shape} vs latents {batch.z0.shape}")
    t = np.broadcast_to(t, (batch.size,))
    tb = t[:, None, None]
    z_t = (1.0 - tb) * batch.z0 + tb * noise
    vel, info = model.velocity(z_t, t, batch.feats, batch.primary_index, opts)
    loss = nx.mse(vel, Tensor(noise - batch.z0))
    if not np.isfinite(loss.data):
        raise TrainingDiverged(opts.step if opts is not None else -1)
    return loss, info


# ---------------------------------------------------------------------------
# orientation perturbation
# ---------------------------------------------------------------------------


def perturbation(bins: set[int], p_pert: float,
                 rng: np.random.Generator) -> tuple[float | None, bool]:
    """Orientation perturbation of one sample whose views occupy ``bins``.

    Returns (turn, skipped). ``turn`` is the azimuth in degrees by which to
    rotate the clean latent, or None to leave the sample as it is. The clean
    latent faces bin 0, so a turn by ``BIN_CENTERS[b]`` lands it in bin b;
    only bins no view occupies qualify. When the views cover every bin the
    sample is skipped without drawing from ``rng``; otherwise a coin flip at
    ``p_pert`` comes first and the choice among the free turns second.
    """
    free = [turn for b, turn in enumerate(BIN_CENTERS) if b not in bins]
    if not free:
        return None, True
    if rng.random() >= p_pert:
        return None, False
    return free[int(rng.integers(len(free)))], False


# ---------------------------------------------------------------------------
# freezing and the optimizer
# ---------------------------------------------------------------------------


def apply_freeze(params: dict[str, Tensor], perturbed: np.ndarray) -> set[str]:
    """Names of parameters excluded from this step's update.

    Perturbed samples reach only the auxiliary stream, so their primary-
    stream gradient contribution is structurally zero; in a mixed batch the
    CA_p gradient already equals the unperturbed subset's gradient and
    nothing needs masking. Only when the whole batch is perturbed is CA_p
    frozen outright: its gradients are then zero, and AdamW skips the
    update and the weight decay of every returned name.
    """
    perturbed = np.asarray(perturbed, dtype=bool)
    if perturbed.size == 0 or not perturbed.all():
        return set()
    return {name for name in params if ".ca_p." in name}


class AdamW:
    """Decoupled weight decay Adam on a name -> Tensor dict.

    The moments decay at ``BETA1`` and ``BETA2``, the denominator adds
    ``ADAM_EPS`` and the decay is ``WEIGHT_DECAY``, all fixed in ``config``.
    Updates are deterministic functions of (gradients, step counts); frozen
    or gradient-less parameters are left completely untouched, including
    their moment buffers and decay.
    """

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = {k: 0 for k in params}

    def step(self, lr: float, frozen: set[str] = frozenset()) -> None:
        for name, p in self.params.items():
            if name in frozen or p.grad is None:
                continue
            g = p.grad
            self.t[name] += 1
            tk = self.t[name]
            m = self.m[name]
            v = self.v[name]
            m += (1.0 - BETA1) * (g - m)
            v += (1.0 - BETA2) * (g * g - v)
            mhat = m / (1.0 - BETA1**tk)
            vhat = v / (1.0 - BETA2**tk)
            p.data -= lr * (mhat / (np.sqrt(vhat) + ADAM_EPS) + WEIGHT_DECAY * p.data)


def cosine_lr(cfg: TrainConfig, step: int, total: int) -> float:
    if total <= 0:
        return cfg.lr
    frac = min(max(step / total, 0.0), 1.0)
    return cfg.lr_final + 0.5 * (cfg.lr - cfg.lr_final) * (1.0 + math.cos(math.pi * frac))


# ---------------------------------------------------------------------------
# phase transition
# ---------------------------------------------------------------------------


# the router's per-block copies of the upgrade: new parameter <- trained source;
# every CA_a tensor takes its CA_p twin (``parameter_layout`` names them), and
# router.w_agg has no source and starts at its layout init
_ROUTER_COPIES = (
    *((f"router.{k}", f"ca_p.{k}") for k in ("w_q", "w_k", "q_gain", "k_gain")),
    ("router.ln_gain", "ln_ca.gain"),
    ("router.ln_bias", "ln_ca.bias"),
)


def upgrade_from_single(single: Model) -> Model:
    """Single-stream checkpoint -> routed dual-stream model.

    CA_a starts as a bit-exact copy of the trained CA_p; the router's
    query/key projections, QK gains and pre-norm are copied from the same
    cross attention; head aggregation starts at its layout init, uniform at
    1/heads. The backbone is untouched, so forced-primary routing reproduces
    the source model exactly. A routed ``single`` raises ConfigError.
    """
    cfg = single.cfg
    if cfg.arch == "routed":
        raise ConfigError("upgrade must start from a single-stream checkpoint, "
                          "got a routed one")
    new_cfg = replace(cfg, arch="routed")
    layout = parameter_layout(new_cfg)
    data = {name: p.data for name, p in single.params.items()}
    for l in range(cfg.blocks):
        pre = f"blocks.{l}"
        for name in layout:
            if name.startswith(f"{pre}.ca_a."):
                data[name] = data[name.replace(".ca_a.", ".ca_p.")]
        for dst, src in _ROUTER_COPIES:
            data[f"{pre}.{dst}"] = data[f"{pre}.{src}"]
        data[f"{pre}.router.w_agg"] = constant_init(new_cfg, *layout[f"{pre}.router.w_agg"])
    diff = mismatched_tensors(new_cfg, data)
    if diff:
        raise ValueError(f"checkpoint/config mismatch: {len(diff)} tensor names or shapes "
                         f"differ, first {diff[0]}")
    params = {name: Tensor(arr.copy(), requires_grad=True) for name, arr in data.items()}
    return Model(new_cfg, params)


# ---------------------------------------------------------------------------
# batch assembly and the training loop
# ---------------------------------------------------------------------------


def assemble_batch(
    split: SplitData,
    cfg: RunConfig,
    step: int,
    phase: str,
    p_pert: float,
) -> Batch:
    """Deterministic batch for one step, keyed by (run seed, "data", step).

    Multi-view batches share one auxiliary view count so sample tensors
    stack; the count itself is uniform on [AUX_MIN, aux_max] per step.
    """
    rng = stream(cfg.seed, "data", step)
    tc = cfg.train
    B = tc.batch
    K = split.feats.shape[2]
    picks = rng.integers(0, len(split), size=B)
    single_view = phase == "single"
    n_aux = 0 if single_view else int(rng.integers(AUX_MIN, tc.aux_max + 1))

    z0 = np.empty((B,) + split.latents.shape[1:])
    feats = np.empty((B, 1 + n_aux) + split.feats.shape[3:])
    primary = np.zeros(B, dtype=np.int64)
    skips = 0

    for b, i in enumerate(picks):
        cam_rows = [(0, int(rng.integers(K)))]
        for _ in range(n_aux):
            cam_rows.append((int(rng.integers(4)), int(rng.integers(K))))
        feats[b] = [split.feats[i, bn, kk] for bn, kk in cam_rows]
        z0[b] = split.latents[i]
        if single_view:
            continue
        bins = {azimuth_bin(split.cams[i, bn, kk, 0]) for bn, kk in cam_rows}
        turn, skipped = perturbation(bins, p_pert, rng)
        skips += skipped
        if turn is not None:
            z0[b] = rotate_latent(split.latents[i], turn, cfg.model)
            primary[b] = -1
    return Batch(z0=z0, feats=feats, primary_index=primary, skips=skips)


@dataclass
class TrainLog:
    rows: list = field(default_factory=list)
    pert_total: int = 0
    skip_total: int = 0
    seen_total: int = 0

    HEADER = "step,loss,lr,pert_fraction,pert_skips,routing_entropy_mean"

    def add(self, step: int, loss: float, lr: float, batch: Batch, entropy: float) -> None:
        self.pert_total += int(batch.perturbed.sum())
        self.skip_total += batch.skips
        self.seen_total += batch.size
        eligible = max(self.seen_total - self.skip_total, 1)
        self.rows.append(
            f"{step},{loss:.8f},{lr:.8e},{self.pert_total / eligible:.6f},"
            f"{self.skip_total},{entropy:.6f}"
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.HEADER + "\n")
            for row in self.rows:
                fh.write(row + "\n")


def train(model: Model, split: SplitData, cfg: RunConfig, phase: str) -> TrainLog:
    """Run one training phase in place on ``model``; returns the step log.

    ``phase`` is "single" (one view, no router) or "mv". Divergence raises
    :class:`TrainingDiverged` before the parameters are damaged, so the live
    model still holds the last good weights. With a batch of two or more the
    step loop runs inside :func:`roar3d.model.sharding`, whose worker process
    stops when the loop ends or raises.
    """
    if phase not in ("single", "mv"):
        raise ValueError(f"unknown phase {phase!r}")
    tc = cfg.train
    total = tc.steps_single if phase == "single" else tc.steps_mv
    routed = phase == "mv" and model.cfg.arch == "routed"
    p_pert = tc.p_pert if routed else 0.0
    opt = AdamW(model.params)
    log = TrainLog()

    with sharding(model.params) if tc.batch >= 2 else nullcontext():
        for step in range(total):
            batch = assemble_batch(split, cfg, step, phase, p_pert)
            # cube-root draw (density 3t^2) balances the clean-latent head's
            # 1/t^2 effective weighting, so per-sample gradients stay comparable
            # across the path and the high-noise (conditioning) regime is covered
            t = stream(cfg.seed, "time", step).random(batch.size) ** (1.0 / 3.0)
            noise = stream(cfg.seed, "noise", step).normal(size=batch.z0.shape)
            opts = ForwardOptions(mode="train", run_seed=cfg.seed, step=step)
            model.zero_grads()
            loss, info = flow_matching_loss(model, batch, t, noise, opts)
            loss.backward()
            frozen = apply_freeze(model.params, batch.perturbed)
            lr = cosine_lr(tc, step, total)
            opt.step(lr, frozen)
            log.add(step, float(loss.data), lr, batch, info.mean_entropy() if routed else 0.0)
    return log
