"""Shared fixtures: a micro config and dataset small enough for unit tests."""

import dataclasses

import pytest

import roar3d.numerics as nx
from roar3d.config import ModelConfig, RunConfig, SampleConfig, TrainConfig, WorldConfig
from roar3d.data import build_dataset, load_dataset
from roar3d.numerics import Tensor


def micro_run_config(seed: int = 0) -> RunConfig:
    cfg = RunConfig(
        world=WorldConfig(points=256, patch_grid=2, feat_dim=8, elevation_max=20.0),
        model=ModelConfig(blocks=2, grid=2, model_dim=16, heads=2, head_dim=4,
                          patches=4, feat_dim=8, mlp_ratio=2),
        train=TrainConfig(batch=4, steps_single=40, steps_mv=40, lr=1e-3, lr_final=1e-4),
        sample=SampleConfig(euler_steps=8, n_train=24, n_val=4, n_test=6, views_per_bin=2),
        seed=seed,
    )
    return cfg.validate()


def surrogate_multiplier(dec, offset):
    """Differentiable stand-in y_soft[v*] + offset for a RoutingDecision ``dec``.

    With ``offset = 1 - y_soft[v*]`` captured at the evaluation point this
    equals the straight-through multiplier as a plain function of the
    parameters (no stop-gradient), so central differences of a network built
    with it match the tape gradients of the straight-through network.
    """
    return nx.add(nx.take_index_last(dec.y_soft, dec.hard_index), Tensor(offset))


@pytest.fixture(scope="session")
def micro_cfg():
    return micro_run_config()


@pytest.fixture(scope="session")
def micro_dataset(tmp_path_factory, micro_cfg):
    path = tmp_path_factory.mktemp("micro-data")
    build_dataset(micro_cfg, path, force=True)
    return load_dataset(path)
