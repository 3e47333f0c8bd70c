"""Latent codec, dual-stream dispatch, forward passes, parameter counts."""

import dataclasses
import hashlib
import multiprocessing
import os
import threading

import numpy as np
import pytest

import roar3d.model as M
import roar3d.numerics as nx
from roar3d import checkpoint as ckpt
from roar3d.config import ModelConfig, RunConfig
from roar3d.evaluation import geo_metrics
from roar3d.model import (
    ForwardOptions,
    Model,
    forward_multiview,
    forward_single,
    init_params,
    latent_decode,
    latent_encode,
    parameter_layout,
    rotate_latent,
)
from roar3d.numerics import Tensor
from roar3d.router import ScoreMatrix, gumbel_select, routing_logits_batched
from roar3d.trainer import upgrade_from_single
from roar3d.world import PointCloud, generate_shape, rotate_azimuth

from conftest import mean_all, mul, randomize_zero_init, shared_ints, sum_all, surrogate_select

CFG = ModelConfig()

MICRO = ModelConfig(blocks=2, grid=2, model_dim=16, heads=2, head_dim=4,
                    patches=4, feat_dim=8)
SINGLE = dataclasses.replace(MICRO, arch="single")


def _rand_views(rng, cfg, v, batch=None):
    shape = (v, cfg.patches, cfg.feat_dim) if batch is None else (batch, v, cfg.patches, cfg.feat_dim)
    return rng.normal(size=shape)


# ---------------------------------------------------------------------------
# latent codec
# ---------------------------------------------------------------------------


def test_encode_empty_region_gives_zero_tokens():
    pts = np.full((64, 3), 0.8)  # everything in one corner cell
    lat = latent_encode(PointCloud(points=pts), CFG)
    occupied = lat[:, 0] > 0
    assert occupied.sum() == 1
    assert np.array_equal(lat[~occupied], np.zeros_like(lat[~occupied]))


def test_encode_rotate_commutes_with_cell_permutation():
    """encode(rotate(pc)) == rotate_latent(encode(pc)) bit-exactly."""
    for seed in range(6):
        for klass in ("notched-box", "l-prism", "asymmetric-cross", "stepped-pyramid"):
            pc = generate_shape(seed, klass, points=512)
            for deg in (90.0, 180.0, 270.0):
                a = latent_encode(rotate_azimuth(pc, deg), CFG)
                b = rotate_latent(latent_encode(pc, CFG), deg, CFG)
                assert np.array_equal(a, b), (klass, seed, deg)


def test_rotate_latent_quarter_turns_compose():
    lat = latent_encode(generate_shape(0, "l-prism", points=512), CFG)
    turned = rotate_latent(lat, 90.0, CFG)
    assert not np.array_equal(turned, lat)
    assert np.array_equal(rotate_latent(rotate_latent(lat, 270.0, CFG), 180.0, CFG), turned)
    with pytest.raises(ValueError):
        rotate_latent(lat, 45.0, CFG)


def test_decode_all_zero_latent_is_empty():
    out = latent_decode(np.zeros((CFG.tokens, CFG.model_dim)), CFG)
    assert out.shape == (0, 3)


def test_decode_single_cluster():
    pts = np.full((64, 3), 0.8) + np.linspace(0, 0.02, 64)[:, None]
    lat = latent_encode(PointCloud(points=pts), CFG)
    out = latent_decode(lat, CFG)
    assert out.shape == (1, 3)
    # the decoded point sits inside the occupied corner cell
    assert (out > 0.5).all() and (out <= 1.0).all()


def test_roundtrip_chamfer_below_cell_size():
    cell = 2.0 / CFG.grid
    diag = cell * np.sqrt(3)
    worst = 0.0
    rng = np.random.default_rng(0)
    classes = ("notched-box", "l-prism", "asymmetric-cross", "stepped-pyramid")
    for i in range(100):
        pc = generate_shape(int(rng.integers(1 << 30)), classes[i % 4], points=512)
        rec = latent_decode(latent_encode(pc, CFG), CFG)
        worst = max(worst, geo_metrics(rec, pc).cd)
    assert worst < cell, f"worst roundtrip CD {worst}"
    assert worst < diag


# ---------------------------------------------------------------------------
# dispatch + attention cost
# ---------------------------------------------------------------------------


UNIT_GATE = Tensor(np.ones((1, MICRO.model_dim)))  # timestep gating lives in the block


def _routed_cross_attention(params, l, tokens, feats, primary, cfg):
    """Block-l cross attention of one sample, routed by the block's router."""
    z = Tensor(tokens[None])
    views = M.view_context(params, cfg, feats[None], routed=True)
    router = M._router_params(params, l)
    zt, znorm = nx.layer_norms(z, (router["ln_gain"], router["ln_bias"]),
                               (params[f"blocks.{l}.ln_ca.gain"], params[f"blocks.{l}.ln_ca.bias"]))
    dec = gumbel_select(routing_logits_batched(zt, views.router_keys[l], router))
    use_p = dec.hard_index == primary
    return M._cross_attention(params, l, z, znorm, views, dec.hard_index, use_p,
                              dec.multiplier, UNIT_GATE, cfg)


def test_dispatch_single_view_reduces_to_primary_stream():
    rng = np.random.default_rng(0)
    params = init_params(MICRO, 1)
    tokens = rng.normal(size=(MICRO.tokens, MICRO.model_dim))
    feats = _rand_views(rng, MICRO, 1)
    out = _routed_cross_attention(params, 0, tokens, feats, 0, MICRO)

    N = MICRO.tokens
    z = Tensor(tokens[None])
    znorm = nx.layer_norm(z, params["blocks.0.ln_ca.gain"], params["blocks.0.ln_ca.bias"])
    ref = M._cross_attention(params, 0, z, znorm,
                             M.view_context(params, MICRO, feats[None], routed=False),
                             np.zeros((1, N), dtype=np.int64), np.ones((1, N), dtype=bool),
                             None, UNIT_GATE, MICRO)
    assert np.abs(out.data - ref.data).max() < 1e-12


def test_dispatch_equal_streams_make_aux_equal_primary():
    """With CA_a == CA_p, a token routed to an aux view matches CA_p on it."""
    rng = np.random.default_rng(1)
    params = init_params(MICRO, 2)
    for k in ("w_q", "q_gain", "w_k", "k_gain", "w_v", "w_o"):
        params[f"blocks.0.ca_a.{k}"].data[...] = params[f"blocks.0.ca_p.{k}"].data
    tokens = rng.normal(size=(MICRO.tokens, MICRO.model_dim))
    feats = _rand_views(rng, MICRO, 3)
    out_with_primary_0 = _routed_cross_attention(params, 0, tokens, feats, 0, MICRO)
    # re-dispatch declaring a different primary: stream assignment flips for
    # some tokens, but identical parameters must give the identical output
    out_with_primary_2 = _routed_cross_attention(params, 0, tokens, feats, 2, MICRO)
    assert np.abs(out_with_primary_0.data - out_with_primary_2.data).max() < 1e-12


def test_dispatch_rejects_bad_primary():
    rng = np.random.default_rng(2)
    params = init_params(MICRO, 3)
    tokens = rng.normal(size=(1, MICRO.tokens, MICRO.model_dim))
    feats = _rand_views(rng, MICRO, 2, batch=1)
    with pytest.raises(ValueError):
        forward_multiview(params, MICRO, tokens, rng.random(1), feats, np.array([5]),
                          ForwardOptions(mode="inference"))


def test_a_training_forward_draws_each_blocks_routing_noise_once(monkeypatch):
    """One full-batch draw per routed block, on the calling thread; each shard routes
    its rows with its rows of that draw, as the unsharded forward does."""
    rng = np.random.default_rng(12)
    B, V, N = 5, 3, MICRO.tokens
    model = Model(MICRO, init_params(MICRO, 1))
    randomize_zero_init(model.params, rng)
    z, t = rng.normal(size=(B, N, MICRO.model_dim)), rng.random(B)
    feats, primary = _rand_views(rng, MICRO, V, B), np.array([0, 1, -1, 2, 0])
    drawn = []
    draw = M.routing_noise

    def recording(run_seed, step, block, shape):
        drawn.append((block, shape, threading.get_ident()))
        return draw(run_seed, step, block, shape)

    monkeypatch.setattr(M, "routing_noise", recording)
    opts = ForwardOptions(mode="train", run_seed=3, step=7)
    with M.sharding(model.params):
        vel, info = model.velocity(z, t, feats, primary, opts)
    here = threading.get_ident()
    assert not vel._parents   # a gather_rows root: the forward ran as two shards
    assert sorted(drawn) == [(l, (B, N, V), here) for l in range(MICRO.blocks)]

    drawn.clear()
    _, whole = model.velocity(z, t, feats, primary, opts)
    assert len(drawn) == MICRO.blocks
    noise = [draw(3, 7, l, (B, N, V)) for l in range(MICRO.blocks)]
    assert info.hard_trace().tobytes() == whole.hard_trace().tobytes()
    for lo, hi in ((0, B // 2), (B // 2, B)):
        _, part = M._rows(model.params, MICRO, z[lo:hi], t[lo:hi], feats[lo:hi],
                          primary[lo:hi], opts, [n[lo:hi] for n in noise])
        assert info.hard_trace()[:, lo:hi].tobytes() == part.hard_trace().tobytes()
        for got, want in zip(info.decisions, part.decisions):
            assert got.y_soft[lo:hi].tobytes() == want.y_soft.tobytes()
    for got, want in zip(info.decisions, whole.decisions):
        np.testing.assert_allclose(got.y_soft, want.y_soft, rtol=0, atol=1e-12)


@pytest.mark.parametrize("arch, mode", [("routed", "train"), ("routed", "inference"),
                                        ("single", "train")])
def test_a_forward_outside_a_sharding_scope_is_one_graph_bit_exactly(arch, mode):
    """With gradients on and two or more rows, no process starts; value and gradients
    are those of the block loop over every row."""
    rng = np.random.default_rng(14)
    cfg = dataclasses.replace(MICRO, arch=arch)
    B, V, N = 4, 3 if arch == "routed" else 1, cfg.tokens
    z, t = rng.normal(size=(B, N, cfg.model_dim)), rng.random(B)
    feats, primary = _rand_views(rng, cfg, V, B), np.array([0, 1, -1, 2])[:B] % V
    w = Tensor(rng.normal(size=(B, N, cfg.model_dim)))
    opts = ForwardOptions(mode=mode, run_seed=3, step=7)
    outputs = []
    for run in ("velocity", "rows"):
        model = Model(cfg, init_params(cfg, 1))
        randomize_zero_init(model.params, np.random.default_rng(15))
        if run == "velocity":
            vel, _ = model.velocity(z, t, feats, primary, opts)
            assert not multiprocessing.active_children()
        else:
            routed = arch == "routed"
            noise = ([M.routing_noise(3, 7, l, (B, N, V)) for l in range(cfg.blocks)]
                     if routed and mode == "train" else None)
            vel, _ = M._rows(model.params, cfg, z, t, feats, primary if routed else None,
                             opts, noise)
        assert vel._parents   # an op output, not a gather_rows root
        sum_all(mul(vel, w)).backward()
        outputs.append((vel.data.tobytes(),
                        {k: p.grad.tobytes() for k, p in model.params.items()}))
    assert outputs[0] == outputs[1]


def test_forward_rejects_unknown_routing_mode():
    rng = np.random.default_rng(2)
    params = init_params(MICRO, 3)
    tokens = rng.normal(size=(1, MICRO.tokens, MICRO.model_dim))
    feats = _rand_views(rng, MICRO, 2, batch=1)
    with pytest.raises(ValueError):
        forward_multiview(params, MICRO, tokens, rng.random(1), feats, np.array([0]),
                          ForwardOptions(mode="maybe"))


@pytest.mark.parametrize("primary", [-2, -5, 2])
def test_forward_rejects_primary_index_out_of_range(primary):
    """-1 means "no primary"; other negatives and view counts are no view at all."""
    rng = np.random.default_rng(2)
    params = init_params(MICRO, 3)
    tokens = rng.normal(size=(1, MICRO.tokens, MICRO.model_dim))
    feats = _rand_views(rng, MICRO, 2, batch=1)
    forward_multiview(params, MICRO, tokens, rng.random(1), feats, np.array([-1]))
    with pytest.raises(ValueError, match="primary index out of range"):
        forward_multiview(params, MICRO, tokens, rng.random(1), feats, np.array([primary]))


@pytest.mark.parametrize("v", [1, 2, 4, 8])
def test_per_token_attended_keys_equal_patch_count(v):
    """Each token's output is a softmax over the S keys of its own view and stream."""
    rng = np.random.default_rng(3)
    B, N, S, H, d = 2, MICRO.tokens, MICRO.patches, MICRO.heads, MICRO.head_dim
    q = {s: rng.normal(size=(B, N, H * d)) for s in (True, False)}
    k = {s: rng.normal(size=(B, v, S, H, d)) for s in (True, False)}
    val = {s: rng.normal(size=(B, v, S, H, d)) for s in (True, False)}
    view_index = rng.integers(0, v, size=(B, N))
    use_primary = rng.random((B, N)) < 0.5
    flat = lambda x: Tensor(x.reshape(B, v, S, H * d))
    out = nx.routed_attention(Tensor(q[True]), Tensor(q[False]),
                              (flat(k[True]), flat(val[True])),
                              (flat(k[False]), flat(val[False])),
                              view_index, use_primary, H).data
    assert out.shape == (B, N, H * d)
    out = out.reshape(B, N, H, d)
    ref = np.zeros_like(out)
    for b in range(B):
        for n in range(N):
            s, w = bool(use_primary[b, n]), view_index[b, n]
            for h in range(H):
                qh = q[s][b, n].reshape(H, d)[h]
                logits = k[s][b, w, :, h] @ qh / np.sqrt(d)   # (S,)
                p = np.exp(logits - logits.max())
                ref[b, n, h] = (p / p.sum()) @ val[s][b, w, :, h]
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def test_zero_head_gives_zero_velocity():
    rng = np.random.default_rng(4)
    params = init_params(MICRO, 5)  # head is zero-initialized
    B, N = 2, MICRO.tokens
    vel, _ = forward_multiview(params, MICRO, rng.normal(size=(B, N, MICRO.model_dim)),
                               rng.random(B), _rand_views(rng, MICRO, 2, batch=B),
                               np.zeros(B, dtype=np.int64), ForwardOptions(mode="inference"))
    assert np.array_equal(vel.data, np.zeros((B, N, MICRO.model_dim)))


def test_forward_inference_deterministic():
    rng = np.random.default_rng(5)
    params = init_params(MICRO, 6)
    randomize_zero_init(params, rng)
    B, N = 2, MICRO.tokens
    z_t = rng.normal(size=(B, N, MICRO.model_dim))
    t = rng.random(B)
    feats = _rand_views(rng, MICRO, 3, batch=B)
    primary = np.zeros(B, dtype=np.int64)
    a, _ = forward_multiview(params, MICRO, z_t, t, feats, primary, ForwardOptions(mode="inference"))
    b, _ = forward_multiview(params, MICRO, z_t, t, feats, primary, ForwardOptions(mode="inference"))
    assert np.array_equal(a.data, b.data)


def test_single_view_equivalence_with_baseline():
    """V=1 multi-view forward == single-stream forward, any CA_a/router."""
    rng = np.random.default_rng(6)
    single = init_params(SINGLE, 7)
    randomize_zero_init(single, rng)
    multi = init_params(MICRO, 99)  # different CA_a/router draws
    for k, p in single.items():
        multi[k].data[...] = p.data
    B, N = 3, MICRO.tokens
    for draw in range(5):
        z_t = rng.normal(size=(B, N, MICRO.model_dim))
        t = rng.random(B)
        feats = _rand_views(rng, MICRO, 1, batch=B)
        base, _ = forward_single(single, MICRO, z_t, t, feats[:, 0])
        mv, _ = forward_multiview(multi, MICRO, z_t, t, feats, np.zeros(B, dtype=np.int64),
                                  ForwardOptions(mode="inference"))
        assert np.abs(base.data - mv.data).max() < 1e-12


def test_post_upgrade_forced_primary_identity_bit_exact(monkeypatch):
    rng = np.random.default_rng(7)
    single_params = init_params(SINGLE, 8)
    randomize_zero_init(single_params, rng)
    single = Model(dataclasses.replace(MICRO, arch="single"), single_params)
    upgraded = upgrade_from_single(single)
    B, N = 2, MICRO.tokens

    def to_primary(*args):
        dec = gumbel_select(*args)
        dec.hard_index = np.ones_like(dec.hard_index)  # view 1 is every sample's primary
        return dec

    monkeypatch.setattr(M, "gumbel_select", to_primary)
    for draw in range(10):
        z_t = rng.normal(size=(B, N, MICRO.model_dim))
        t = rng.random(B)
        feats = _rand_views(rng, MICRO, 3, batch=B)
        primary = np.full(B, 1, dtype=np.int64)
        base, _ = forward_single(single_params, MICRO, z_t, t, feats[:, 1])
        forced, _ = forward_multiview(upgraded.params, upgraded.cfg, z_t, t, feats, primary,
                                      ForwardOptions(mode="inference"))
        assert np.array_equal(base.data, forced.data), f"draw {draw}"


@pytest.mark.parametrize("arch, views", [("single", 1), ("concat", 3)])
def test_integrate_flow_without_router_is_euler_over_flattened_views(arch, views):
    rng = np.random.default_rng(13)
    cfg = dataclasses.replace(MICRO, arch=arch)
    model = Model.create(cfg, 14)
    randomize_zero_init(model.params, rng)
    B, steps = 2, 4
    feats = _rand_views(rng, cfg, views, batch=B)
    z_init = rng.normal(size=(B, cfg.tokens, cfg.model_dim))
    z, trace = M.integrate_flow(model.params, cfg, feats, np.zeros(B, dtype=np.int64),
                                z_init, steps=steps, collect_trace=True)
    assert trace is None

    flat = feats.reshape(B, views * cfg.patches, cfg.feat_dim)
    ref, dt = z_init.copy(), 1.0 / steps
    with nx.no_grad():
        for k in range(steps):
            vel, _ = forward_single(model.params, cfg, ref, np.full(B, 1.0 - k * dt), flat)
            ref = ref - dt * vel.data
    assert np.array_equal(z, ref)


@pytest.mark.parametrize("views", [1, 2, 4])
def test_integrate_flow_reuses_its_view_context_bit_exactly(views):
    """One context per request gives the latents and trace of a fresh one per step."""
    rng = np.random.default_rng(17)
    model = Model.create(MICRO, 18)
    randomize_zero_init(model.params, rng)
    B, steps = 2, 4
    feats = _rand_views(rng, MICRO, views, batch=B)
    primary = np.zeros(B, dtype=np.int64)
    z_init = rng.normal(size=(B, MICRO.tokens, MICRO.model_dim))
    z, trace = M.integrate_flow(model.params, MICRO, feats, primary, z_init, steps=steps,
                                collect_trace=True)

    ref, dt, ref_trace = z_init.copy(), 1.0 / steps, []
    with nx.no_grad():
        for k in range(steps):
            fresh = M.view_context(model.params, MICRO, feats, routed=True)
            vel, info = forward_multiview(model.params, MICRO, ref, np.full(B, 1.0 - k * dt),
                                          feats, primary, ForwardOptions(views=fresh))
            ref = ref - dt * vel.data
            ref_trace.append(info.hard_trace())
    assert np.array_equal(z, ref)
    assert np.array_equal(trace, np.stack(ref_trace))


def _record_folded(monkeypatch) -> list:
    """Per ``routing_logits_batched`` call from the forward, whether it scored
    through a score matrix."""
    folded = []

    def spy(zt, keys, p):
        folded.append(isinstance(keys, ScoreMatrix))
        return routing_logits_batched(zt, keys, p)

    monkeypatch.setattr(M, "routing_logits_batched", spy)
    return folded


@pytest.mark.parametrize("views, primary", [(2, 0), (2, -1), (4, 0), (4, -1), (12, 0), (12, -1)])
def test_integrate_flow_folded_routing_equals_exact_logits(monkeypatch, views, primary):
    """A request routed through score matrices keeps the latents and trace of exact logits.

    The reference runs every step with a context whose score matrices are
    dropped, so every block routes with ``routing_logits_batched`` over the
    router keys. The router's head weights and query gains are random, with
    either sign.
    """
    folded = _record_folded(monkeypatch)
    rng = np.random.default_rng(31)
    model = Model.create(MICRO, 32)
    randomize_zero_init(model.params, rng)
    for l in range(MICRO.blocks):   # signed, unequal head weights and query gains
        for name in ("w_agg", "q_gain"):
            p = model.params[f"blocks.{l}.router.{name}"]
            p.data[...] = rng.normal(size=p.shape)
    B, steps = 3, 4
    feats = _rand_views(rng, MICRO, views, batch=B)
    prim = np.full(B, primary, dtype=np.int64)
    z_init = rng.normal(size=(B, MICRO.tokens, MICRO.model_dim))
    z, trace = M.integrate_flow(model.params, MICRO, feats, prim, z_init, steps=steps,
                                collect_trace=True)
    assert folded == [True] * (steps * MICRO.blocks)

    folded.clear()
    ref, dt, ref_trace = z_init.copy(), 1.0 / steps, []
    with nx.no_grad():
        exact = dataclasses.replace(M.view_context(model.params, MICRO, feats, routed=True),
                                    scores=None)
        for k in range(steps):
            vel, info = forward_multiview(model.params, MICRO, ref, np.full(B, 1.0 - k * dt),
                                          feats, prim, ForwardOptions(views=exact))
            ref = ref - dt * vel.data
            ref_trace.append(info.hard_trace())
    assert folded == [False] * (steps * MICRO.blocks)
    assert z.tobytes() == ref.tobytes()
    assert trace.tobytes() == np.stack(ref_trace).tobytes()
    assert len(np.unique(trace)) > 1


@pytest.mark.parametrize("arch", ["routed", "concat"])
def test_forward_rejects_a_view_context_of_other_features(arch):
    rng = np.random.default_rng(19)
    cfg = dataclasses.replace(MICRO, arch=arch)
    model = Model.create(cfg, 20)
    B = 2
    feats = _rand_views(rng, cfg, 3, batch=B)
    z_t = rng.normal(size=(B, cfg.tokens, cfg.model_dim))
    t, primary = np.ones(B), np.zeros(B, dtype=np.int64)
    with nx.no_grad():   # a training forward of two or more rows returns no context
        _, info = model.velocity(z_t, t, feats, primary)
    opts = ForwardOptions(views=info.views)
    model.velocity(z_t, t, feats.copy(), primary, opts)    # equal features are accepted
    with pytest.raises(ValueError, match="view context"):
        model.velocity(z_t, t, feats + 1.0, primary, opts)
    if arch == "routed":   # a router-less context lacks CA_a and the router keys
        opts.views = M.view_context(model.params, cfg, feats, routed=False)
        with pytest.raises(ValueError, match="view context"):
            model.velocity(z_t, t, feats, primary, opts)


@pytest.mark.parametrize("arch", ["routed", "concat"])
def test_forward_rejects_a_time_context_of_other_timesteps(arch):
    rng = np.random.default_rng(21)
    cfg = dataclasses.replace(MICRO, arch=arch)
    model = Model.create(cfg, 22)
    randomize_zero_init(model.params, rng)
    B = 2
    feats = _rand_views(rng, cfg, 3, batch=B)
    z_t = rng.normal(size=(B, cfg.tokens, cfg.model_dim))
    t, primary = np.array([0.25, 0.75]), np.zeros(B, dtype=np.int64)
    with nx.no_grad():   # one graph over both rows, like the forward given the context
        fresh, _ = model.velocity(z_t, t, feats, primary)
    opts = ForwardOptions(time=M.time_context(model.params, cfg, t))
    out, _ = model.velocity(z_t, t.copy(), feats, primary, opts)   # equal timesteps are accepted
    assert np.array_equal(out.data, fresh.data)
    for other in (t[::-1], np.full(B, 0.25), t[:1]):
        with pytest.raises(ValueError, match="time context"):
            model.velocity(z_t, other, feats, primary, opts)


@pytest.mark.parametrize("steps", [0, -3])
def test_integrate_flow_rejects_fewer_than_one_step(steps):
    rng = np.random.default_rng(15)
    model = Model.create(MICRO, 16)
    with pytest.raises(ValueError, match="steps >= 1"):
        M.integrate_flow(model.params, MICRO, _rand_views(rng, MICRO, 2, batch=1),
                         np.zeros(1, dtype=np.int64),
                         rng.normal(size=(1, MICRO.tokens, MICRO.model_dim)), steps=steps)


@pytest.mark.parametrize("bad", ["feats", "z_init"])
def test_integrate_flow_rejects_non_finite_inputs(bad):
    rng = np.random.default_rng(15)
    model = Model.create(MICRO, 16)
    inputs = {"feats": _rand_views(rng, MICRO, 2, batch=1),
              "z_init": rng.normal(size=(1, MICRO.tokens, MICRO.model_dim))}
    inputs[bad][0, 0, 0] = np.inf
    with pytest.raises(ValueError, match="finite feats and z_init"):
        M.integrate_flow(model.params, MICRO, inputs["feats"], np.zeros(1, dtype=np.int64),
                         inputs["z_init"], steps=2)


def test_view_order_invariance_at_inference():
    """Permuting the auxiliary views leaves the output unchanged."""
    rng = np.random.default_rng(8)
    params = init_params(MICRO, 9)
    randomize_zero_init(params, rng)
    B, N, V = 2, MICRO.tokens, 4
    z_t = rng.normal(size=(B, N, MICRO.model_dim))
    t = rng.random(B)
    feats = _rand_views(rng, MICRO, V, batch=B)
    out0, _ = forward_multiview(params, MICRO, z_t, t, feats, np.zeros(B, dtype=np.int64),
                                ForwardOptions(mode="inference"))
    perm = np.array([0, 3, 1, 2])  # keeps the physical primary view first
    out1, _ = forward_multiview(params, MICRO, z_t, t, feats[:, perm],
                                np.zeros(B, dtype=np.int64), ForwardOptions(mode="inference"))
    assert np.abs(out0.data - out1.data).max() < 1e-10


@pytest.mark.parametrize("arch, views, primary, mode", [
    ("routed", 1, 0, "inference"), ("routed", 1, -1, "inference"),
    ("routed", 2, 0, "inference"), ("routed", 2, -1, "inference"),
    ("routed", 4, 0, "inference"), ("routed", 4, -1, "inference"),
    ("routed", 4, 0, "train"), ("concat", 3, 0, "inference"), ("single", 1, 0, "inference"),
])
def test_inference_forward_without_soft_weights_bit_exact(monkeypatch, arch, views, primary,
                                                          mode):
    """Under no_grad routing is the bare argmax; velocity and choices keep every bit.

    Without noise a routed block over two or more views scores through its
    score matrix; training mode adds its noise to the exact logits.
    """
    folded = _record_folded(monkeypatch)
    rng = np.random.default_rng(23)
    cfg = dataclasses.replace(MICRO, arch=arch)
    model = Model.create(cfg, 24)
    randomize_zero_init(model.params, rng)
    B = 2
    z_t = rng.normal(size=(B, cfg.tokens, cfg.model_dim))
    t = rng.random(B)
    feats = _rand_views(rng, cfg, views, batch=B)
    prim = np.full(B, primary, dtype=np.int64)
    opts = ForwardOptions(mode=mode, run_seed=2, step=1)
    vel, info = model.velocity(z_t, t, feats, prim, opts)
    assert not any(folded)
    folded.clear()
    with nx.no_grad():
        bare_vel, bare = model.velocity(z_t, t, feats, prim, opts)
    scored = arch == "routed" and views > 1
    assert folded == [scored and mode == "inference"] * (cfg.blocks * scored)
    assert vel.data.tobytes() == bare_vel.data.tobytes()
    assert len(bare.decisions) == (cfg.blocks if arch == "routed" else 0)
    if bare.decisions:
        assert info.hard_trace().tobytes() == bare.hard_trace().tobytes()
        assert all(d.y_soft is not None for d in info.decisions)
        assert all(d.y_soft is None and d.multiplier is None for d in bare.decisions)
        with pytest.raises(ValueError, match="no_grad"):
            bare.decisions[0].soft_entropy()


@pytest.mark.parametrize("primary", [0, -1])
def test_one_view_inference_forward_scores_nothing_bit_exactly(monkeypatch, primary):
    """Under no_grad a one-view router is not scored; velocity and choices keep every bit."""
    calls = []

    def counting(*args):
        calls.append(args)
        return routing_logits_batched(*args)

    monkeypatch.setattr(M, "routing_logits_batched", counting)
    rng = np.random.default_rng(25)
    model = Model.create(MICRO, 26)
    randomize_zero_init(model.params, rng)
    B = 2
    z_t = rng.normal(size=(B, MICRO.tokens, MICRO.model_dim))
    t = rng.random(B)
    feats = _rand_views(rng, MICRO, 1, batch=B)
    prim = np.full(B, primary, dtype=np.int64)
    vel, info = model.velocity(z_t, t, feats, prim)
    assert len(calls) == MICRO.blocks
    # with gradients on the router and CA_a still get their (zero) gradients:
    # AdamW treats a zero gradient and a missing one differently
    mean_all(mul(vel, Tensor(rng.normal(size=vel.shape)))).backward()
    assert all(p.grad is not None for p in model.params.values())
    with nx.no_grad():
        bare_vel, bare = model.velocity(z_t, t, feats, prim)
    assert len(calls) == MICRO.blocks
    assert vel.data.tobytes() == bare_vel.data.tobytes()
    assert info.hard_trace().tobytes() == bare.hard_trace().tobytes()
    assert not bare.hard_trace().any() and all(d.y_soft is None for d in bare.decisions)


def test_all_primary_block_bit_equal_to_the_dual_linear_path(monkeypatch):
    """Without a multiplier an all-primary block runs CA_p alone, bit for bit."""
    calls = []
    dual_linear = nx.dual_linear

    def counting(*args):
        calls.append(args)
        return dual_linear(*args)

    monkeypatch.setattr(nx, "dual_linear", counting)
    rng = np.random.default_rng(27)
    params = init_params(MICRO, 28)
    B, N, V = 2, MICRO.tokens, 3
    z = Tensor(rng.normal(size=(B, N, MICRO.model_dim)))
    feats = _rand_views(rng, MICRO, V, batch=B)
    v_star = np.repeat([[1], [2]], N, axis=1)       # each sample's primary view
    use_p = np.ones((B, N), dtype=bool)
    gate = Tensor(rng.normal(size=(B, MICRO.model_dim)))
    with nx.no_grad():
        views = M.view_context(params, MICRO, feats, routed=True)
        znorm = nx.layer_norm(z, params["blocks.1.ln_ca.gain"], params["blocks.1.ln_ca.bias"])
        args = (params, 1, z, znorm, views, v_star, use_p)
        plain = M._cross_attention(*args, None, gate, MICRO)
        assert not calls
        dual = M._cross_attention(*args, Tensor(np.ones((B, N, 1))), gate, MICRO)
        assert len(calls) == 1
    assert plain.data.tobytes() == dual.data.tobytes()


def test_integrate_flow_one_view_trace_is_all_zero():
    rng = np.random.default_rng(29)
    model = Model.create(MICRO, 30)
    randomize_zero_init(model.params, rng)
    B, steps = 2, 3
    feats = _rand_views(rng, MICRO, 1, batch=B)
    z_init = rng.normal(size=(B, MICRO.tokens, MICRO.model_dim))
    _, trace = M.integrate_flow(model.params, MICRO, feats, np.zeros(B, dtype=np.int64),
                                z_init, steps=steps, collect_trace=True)
    assert trace.shape == (steps, MICRO.blocks, B, MICRO.tokens)
    assert trace.dtype == np.int64 and not trace.any()


def test_timestep_changes_output():
    rng = np.random.default_rng(9)
    params = init_params(MICRO, 10)
    randomize_zero_init(params, rng)
    B, N = 2, MICRO.tokens
    z_t = rng.normal(size=(B, N, MICRO.model_dim))
    feats = _rand_views(rng, MICRO, 2, batch=B)
    primary = np.zeros(B, dtype=np.int64)
    v0, _ = forward_multiview(params, MICRO, z_t, np.zeros(B), feats, primary,
                              ForwardOptions(mode="inference"))
    v1, _ = forward_multiview(params, MICRO, z_t, np.ones(B), feats, primary,
                              ForwardOptions(mode="inference"))
    assert np.abs(v0.data - v1.data).max() > 1e-8


def test_forward_gradients_match_soft_surrogate(monkeypatch):
    """Micro version of the STE gradient acceptance check."""
    rng = np.random.default_rng(10)
    params = init_params(MICRO, 11)
    randomize_zero_init(params, rng)
    B, N, V = 2, MICRO.tokens, 2
    z_t = rng.normal(size=(B, N, MICRO.model_dim))
    t = rng.random(B)
    feats = _rand_views(rng, MICRO, V, batch=B)
    primary = np.array([0, -1])
    target = rng.normal(size=z_t.shape)
    checked = {
        "blocks.0.router.w_q": params["blocks.0.router.w_q"],
        "blocks.0.router.w_agg": params["blocks.0.router.w_agg"],
        "blocks.1.ca_a.w_k": params["blocks.1.ca_a.w_k"],
        "blocks.0.ca_p.w_o": params["blocks.0.ca_p.w_o"],
        "blocks.1.sa.w_v": params["blocks.1.sa.w_v"],
        "blocks.0.mlp.w2": params["blocks.0.mlp.w2"],
        "temb.w1": params["temb.w1"],
        "head.w": params["head.w"],
    }

    def loss():
        opts = ForwardOptions(mode="train", run_seed=3, step=0)
        vel, info = forward_multiview(params, MICRO, z_t, t, feats, primary, opts)
        return nx.mse(vel, Tensor(target)), info

    for p in params.values():
        p.zero_grad()
    with M.sharding(params):
        ste_loss, info = loss()
        ste_loss.backward()
    ste_grads = {k: p.grad.copy() for k, p in checked.items()}

    # the surrogate network replays each (shard, block) hard choice and swaps
    # the straight-through multiplier for y_soft[v*] + (1 - y_soft0[v*]), built
    # from the reference node chain; the calling process routes rows [0, B//2),
    # the worker process rows [B//2, B), each recording the blocks it replays
    # in memory the worker shares
    overrides = [d.hard_index for d in info.decisions]
    offsets = [1.0 - np.take_along_axis(d.y_soft, d.hard_index[..., None], -1)
               for d in info.decisions]
    here = os.getpid()
    calls = shared_ints((2, 4096))    # row 0: the calling process's blocks, row 1: the worker's
    made = shared_ints(2)

    def replay(logits, noise):
        shard = int(os.getpid() != here)
        block = made[shard] % MICRO.blocks
        calls[shard, made[shard]] = block
        made[shard] += 1
        rows = slice(0, B // 2) if shard == 0 else slice(B // 2, B)
        return surrogate_select(logits, noise, overrides[block][rows], offsets[block][rows])

    monkeypatch.setattr(M, "gumbel_select", replay)

    def surrogate():
        return loss()[0]

    with M.sharding(params):      # forked after the patch, so the worker replays too
        for p in params.values():
            p.zero_grad()
        surrogate().backward()
        for k, p in checked.items():
            assert np.array_equal(p.grad, ste_grads[k]), k
        report = nx.grad_check(surrogate, checked, max_entries=5)
    assert max(report.values()) < 1e-4, report
    assert made[0] == made[1] > MICRO.blocks, made
    assert np.array_equal(calls[0, :made[0]], calls[1, :made[1]])


# ---------------------------------------------------------------------------
# parameter counting and checkpoints
# ---------------------------------------------------------------------------


def test_init_multiview_params_pinned():
    """Micro names, order and init draws hash to a fixed value (checkpoint layout),
    for the routed model and the single-view one."""
    for cfg, digest in (
        (MICRO, "89402d8a45a95ce46672954d2d74cd4d7b66c636bd8ce5e5c10396709dfed824"),
        (SINGLE, "5387f6d5b5a25e3ccda3795aa680a86365222caae559aef443e6969f35971c0d"),
    ):
        h = hashlib.sha256()
        for name, p in init_params(cfg, 7).items():
            h.update(name.encode())
            h.update(p.data.tobytes())
        assert h.hexdigest() == digest, cfg.arch


def _group_sizes(cfg):
    """Parameter count per ``parameter_layout`` group; the backbone holds the head too."""
    sizes = dict.fromkeys(("backbone", "ca_p", "ca_a", "router"), 0)
    for name, (_, shape) in parameter_layout(cfg).items():
        group = next((g for g in ("ca_p", "ca_a", "router") if f".{g}." in name), "backbone")
        sizes[group] += int(np.prod(shape))
    return sizes


def test_parameter_layout_router_and_aux_formulas():
    sizes = _group_sizes(CFG)
    d, hd, h, df = CFG.model_dim, CFG.attn_width, CFG.heads, CFG.feat_dim
    router_expected = CFG.blocks * (d * hd + df * hd + h + 2 * hd + 2 * d)
    ca_expected = CFG.blocks * (d * hd + df * hd + df * hd + hd * d + 2 * hd)
    assert sizes["router"] == router_expected
    assert sizes["ca_a"] == ca_expected
    assert sizes["ca_a"] == sizes["ca_p"]
    assert sum(sizes.values()) == sum(p.data.size for p in init_params(CFG, 0).values())


def test_parameter_layout_desk_ratio_frozen():
    """Desk-config added/baseline ratio, frozen as a regression value."""
    sizes = _group_sizes(CFG)
    added, baseline = sizes["ca_a"] + sizes["router"], sizes["backbone"] + sizes["ca_p"]
    assert added == 75280
    assert baseline == 324608
    assert abs(added / baseline - 0.23191) < 1e-4


def test_model_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    model = Model.create(MICRO, 13)
    randomize_zero_init(model.params, rng)
    path = tmp_path / "model.bin"
    model.save(path, meta={"phase": "test"})
    loaded = Model.load(path)
    assert loaded.cfg == model.cfg
    for k, p in model.params.items():
        assert np.array_equal(loaded.params[k].data, p.data)


def test_load_and_upgrade_draw_no_random_model(tmp_path, monkeypatch):
    """``Model.load`` and ``upgrade_from_single`` check names and shapes against the
    parameter layout; neither draws an init stream."""
    routed = Model.create(MICRO, 13)
    routed.save(tmp_path / "model.bin")
    single = Model.create(SINGLE, 8)
    upgrade = upgrade_from_single(single).named_data()

    def no_draws(*args):
        raise AssertionError("a random model was drawn")

    monkeypatch.setattr(M, "stream", no_draws)
    for got, want in ((Model.load(tmp_path / "model.bin"), routed.named_data()),
                      (upgrade_from_single(single), upgrade)):
        assert list(got.params) == list(want)
        for k, arr in want.items():
            assert np.array_equal(got.params[k].data, arr), k


def test_model_load_rejects_tensors_that_do_not_fit_the_config(tmp_path):
    path = tmp_path / "model.bin"
    Model.create(MICRO, 13).save(path)
    tensors = ckpt.load_tensors(path)
    del tensors["blocks.1.ca_a.w_v"]
    ckpt.save_tensors(path, tensors)
    with pytest.raises(ckpt.CheckpointError):
        Model.load(path)
    tensors["blocks.1.ca_a.w_v"] = np.zeros((MICRO.feat_dim + 1, MICRO.attn_width))
    ckpt.save_tensors(path, tensors)
    with pytest.raises(ckpt.CheckpointError):
        Model.load(path)


@pytest.mark.parametrize("edit", [
    lambda text: text[: len(text) // 2],
    lambda text: text.replace('"model"', '"modle"'),
    lambda text: text.replace('"blocks"', '"blockz"'),
    lambda text: text.replace('"blocks": 2', '"blocks": "two"'),
    lambda text: "[1, 2]",
    None,
], ids=["cut", "no-model", "unknown-key", "wrong-type", "not-an-object", "directory"])
def test_model_load_rejects_malformed_sidecar(tmp_path, edit):
    path = tmp_path / "model.bin"
    Model.create(MICRO, 13).save(path)
    side = tmp_path / "model.bin.json"
    if edit is None:  # a directory where the sidecar belongs
        side.unlink()
        side.mkdir()
    else:
        text = side.read_text(encoding="utf-8")
        assert edit(text) != text
        side.write_text(edit(text), encoding="utf-8")
    with pytest.raises(ckpt.CheckpointError):
        Model.load(path)
