"""Desk-scale multi-view conditioned 3D latent flow model.

A miniature flow-matching transformer over occupancy-grid latents of
procedural 3D shapes, conditioned on arbitrary unposed synthetic views
through a token-wise view router and dual-stream cross attention, with an
orientation-perturbation training regime, geometry metrics, and routing
analytics. Everything runs on numpy float64 with a small built-in autodiff
tape, in minutes on a laptop CPU.
"""

from .config import ModelConfig, RunConfig, SampleConfig, TrainConfig, WorldConfig
from .evaluation import (
    chamfer_distance,
    consistency_report,
    cross_block_consistency,
    cross_timestep_consistency,
    evaluate,
    f_score,
    global_consistency,
)
from .model import (
    ForwardOptions,
    Model,
    integrate_flow,
    latent_decode,
    latent_encode,
    rotate_latent,
    time_context,
    view_context,
)
from .numerics import ComputationTape, Tensor, grad_check
from .router import RoutingDecision, gumbel_select, router_keys, routing_logits_batched
from .trainer import (
    AdamW,
    flow_matching_loss,
    perturbation,
    train,
    upgrade_from_single,
)
from .world import Camera, PointCloud, encode_view, generate_shape, rotate_azimuth, sample_views

__version__ = "0.1.0"
