"""Shared fixtures: a micro config and dataset small enough for unit tests."""

import dataclasses
import mmap
import math
import multiprocessing

import numpy as np
import pytest

import roar3d.numerics as nx
from roar3d.config import ModelConfig, RunConfig, SampleConfig, TrainConfig, WorldConfig
from roar3d.data import build_dataset, load_dataset
from roar3d.numerics import Tensor
from roar3d.router import RoutingDecision


def micro_run_config(seed: int = 0) -> RunConfig:
    cfg = RunConfig(
        world=WorldConfig(points=256, patch_grid=2, feat_dim=8, elevation_max=20.0),
        model=ModelConfig(blocks=2, grid=2, model_dim=16, heads=2, head_dim=4,
                          patches=4, feat_dim=8),
        train=TrainConfig(batch=4, steps_single=40, steps_mv=40, lr=1e-3, lr_final=1e-4),
        sample=SampleConfig(euler_steps=8, n_train=24, n_val=4, n_test=6, views_per_bin=2),
        seed=seed,
    )
    return cfg.validate()


def randomize_zero_init(params, rng):
    """Random adaLN and velocity-head weights, so a fresh model's velocity is not zero."""
    for k, p in params.items():
        if ".mod." in k or k.startswith("final.mod") or k.startswith("head."):
            p.data[...] = rng.normal(0, 0.2, size=p.data.shape)


# ---------------------------------------------------------------------------
# graph ops that only tests use: scalar losses and the node chains that the
# fused kernels of roar3d.numerics replace
# ---------------------------------------------------------------------------


def add(a, b):
    """a + b of one shape."""
    a, b = nx._as_tensor(a), nx._as_tensor(b)
    if a.shape != b.shape:
        raise nx.ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")

    def backward(g):
        a.accum_grad(g)
        b.accum_grad(g)

    return nx._node(a.data + b.data, (a, b), backward)


def softmax(x):
    """Numerically stable softmax (max-subtracted) over the last axis."""
    x = nx._as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        x.accum_grad(y * (g - dot))

    return nx._node(y, (x,), backward)


def take_index_last(y, idx):
    """Gather one entry per row from the last axis: out[..., 0] = y[..., idx]."""
    y = nx._as_tensor(y)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.shape != y.shape[:-1]:
        raise nx.ShapeError(f"index shape {idx.shape} does not match {y.shape}")
    picked = np.take_along_axis(y.data, idx[..., None], axis=-1)

    def backward(g):
        gy = np.zeros_like(y.data)
        np.put_along_axis(gy, idx[..., None], g, axis=-1)
        y.accum_grad(gy)

    return nx._node(picked, (y,), backward)


def ste_one(soft):
    """Straight-through unit multiplier: value exactly 1, gradient handed to ``soft`` unchanged."""
    soft = nx._as_tensor(soft)

    def backward(g):
        soft.accum_grad(g)

    return nx._node(np.ones_like(soft.data), (soft,), backward)


def straight_through_chain(logits, noise, hard):
    """The four-node spelling of ``nx.straight_through``: (y_soft node, multiplier).

    ``softmax(logits + noise)``, its entry at ``hard`` and a unit
    straight-through node on that entry; without noise the softmax reads
    ``logits`` itself.
    """
    y_soft = softmax(logits if noise is None else add(logits, Tensor(noise)))
    return y_soft, ste_one(take_index_last(y_soft, hard))


def surrogate_multiplier(y_soft, hard_index, offset):
    """Differentiable stand-in ``y_soft[v*] + offset`` for the straight-through multiplier.

    With ``offset = 1 - y_soft[v*]`` captured at the evaluation point this
    equals the straight-through multiplier as a plain function of the
    parameters (no stop-gradient), so central differences of a network built
    with it match the tape gradients of the straight-through network.
    """
    return add(take_index_last(y_soft, hard_index), Tensor(offset))


def surrogate_select(logits, noise, hard_index, offset):
    """A ``gumbel_select`` stand-in: the decision ``hard_index`` whose multiplier is
    :func:`surrogate_multiplier` of ``softmax(logits + noise)``, built from the
    chain above."""
    y_soft, _ = straight_through_chain(logits, noise, hard_index)
    return RoutingDecision(hard_index, y_soft.data,
                           surrogate_multiplier(y_soft, hard_index, offset))


def mul(a, b):
    """a * b of one shape."""
    a, b = nx._as_tensor(a), nx._as_tensor(b)
    if a.shape != b.shape:
        raise nx.ShapeError(f"mul shapes differ: {a.shape} vs {b.shape}")

    def backward(g):
        a.accum_grad(g * b.data)
        b.accum_grad(g * a.data)

    return nx._node(a.data * b.data, (a, b), backward)


def mean_all(x):
    """Mean of every entry."""
    x = nx._as_tensor(x)
    n = x.data.size

    def backward(g):
        x.accum_grad(np.full_like(x.data, float(g) / n))

    return nx._node(np.asarray(x.data.mean()), (x,), backward)


def mse_chain(pred, target):
    """The three-node spelling of ``nx.mse``: ``mean_all(mul(d, d))``, d = pred - target."""
    d = nx.sub(pred, target)
    return mean_all(mul(d, d))


def sum_all(x):
    """Sum of every entry, the scalar loss of most gradient checks."""
    x = nx._as_tensor(x)

    def backward(g):
        x.accum_grad(np.full_like(x.data, float(g)))

    return nx._node(np.asarray(x.data.sum()), (x,), backward)


def scale_rows(x, m):
    """x[..., d] * m[..., 1], one scalar per row."""
    x, m = nx._as_tensor(x), nx._as_tensor(m)
    if m.shape != x.shape[:-1] + (1,):
        raise nx.ShapeError(f"row scale {m.shape} does not match {x.shape}")

    def backward(g):
        x.accum_grad(g * m.data)
        m.accum_grad((g * x.data).sum(axis=-1, keepdims=True))

    return nx._node(x.data * m.data, (x, m), backward)


def reshape(x, shape):
    """The same entries in another shape."""
    x = nx._as_tensor(x)
    old = x.shape

    def backward(g):
        x.accum_grad(g.reshape(old))

    return nx._node(x.data.reshape(shape), (x,), backward)


def transpose(x, axes):
    """Axis permutation into a contiguous copy."""
    x = nx._as_tensor(x)
    axes = tuple(axes)

    def backward(g):
        x.accum_grad(g.transpose(np.argsort(axes)))

    return nx._node(np.ascontiguousarray(x.data.transpose(axes)), (x,), backward)


def scale(x, s):
    """x * s for a constant float ``s``."""
    x = nx._as_tensor(x)
    s = float(s)

    def backward(g):
        x.accum_grad(g * s)

    return nx._node(x.data * s, (x,), backward)


def matmul_batched(a, b):
    """a[..., m, k] @ b[..., k, n] over the same leading batch axes."""
    a, b = nx._as_tensor(a), nx._as_tensor(b)
    if a.ndim < 3 or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise nx.ShapeError(f"batched matmul shapes: {a.shape} x {b.shape}")

    def backward(g):
        a.accum_grad(np.matmul(g, np.swapaxes(b.data, -1, -2)))
        b.accum_grad(np.matmul(np.swapaxes(a.data, -1, -2), g))

    return nx._node(np.matmul(a.data, b.data), (a, b), backward)


def head_mix(scores, w):
    """Aggregate per-head scores: out[b, n, v] = sum_h w[h] * scores[b, h, n, v]."""
    scores, w = nx._as_tensor(scores), nx._as_tensor(w)
    if scores.ndim != 4 or w.shape != (scores.shape[1],):
        raise nx.ShapeError(f"head_mix shapes: {scores.shape}, {w.shape}")
    y = np.einsum("bhnv,h->bnv", scores.data, w.data)

    def backward(g):
        scores.accum_grad(g[:, None, :, :] * w.data[None, :, None, None])
        w.accum_grad(np.einsum("bhnv,bnv->h", scores.data, g))

    return nx._node(y, (scores, w), backward)


def router_score_chain(q, keys, w_agg, heads):
    """The seven-node spelling of ``nx.router_scores``: split, matmul, scale, mix."""
    B, N, width = q.shape
    V, dh = keys.shape[1], width // heads
    qh = transpose(reshape(q, (B, N, heads, dh)), (0, 2, 1, 3))          # (B, H, N, dh)
    kh = transpose(reshape(keys, (B, V, heads, dh)), (0, 2, 3, 1))       # (B, H, dh, V)
    return head_mix(scale(matmul_batched(qh, kh), 1.0 / np.sqrt(dh)), w_agg)


# Inside ``model.sharding``, ``Model.velocity`` runs a batch as two row shards and
# joins their velocities; the loss then differs from one graph over the whole
# batch, which the same call makes outside the scope, by rounding only. Measured
# on the micro and desk configs: losses within 4e-16 relative, every gradient
# entry within 4e-15 of that gradient's largest entry.
LOSS_RTOL = 1e-14
GRAD_RTOL = 1e-13


def assert_gradients_close(got: dict, want: dict) -> None:
    """Same gradient-less names, and every entry within ``GRAD_RTOL`` of the largest."""
    for k, w in want.items():
        assert (got[k] is None) == (w is None), k
        if w is not None:
            assert np.abs(got[k] - w).max() <= GRAD_RTOL * np.abs(w).max(), k


def shared_ints(shape) -> np.ndarray:
    """Zeroed int64s in an anonymous shared mapping: a shard worker forked after
    this call writes into the same memory, so a test reads what the worker saw."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(np.atleast_1d(shape))),
                         dtype=np.int64).reshape(shape)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running, such as a shard worker whose
    scope did not stop it."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    assert not left, f"child processes left running: {left}"


@pytest.fixture(scope="session")
def micro_cfg():
    return micro_run_config()


@pytest.fixture(scope="session")
def micro_dataset(tmp_path_factory, micro_cfg):
    path = tmp_path_factory.mktemp("micro-data")
    build_dataset(micro_cfg, path, force=True)
    return load_dataset(path)
