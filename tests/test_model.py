"""Latent codec, dual-stream dispatch, forward passes, parameter counts."""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

import roar3d.model as M
import roar3d.numerics as nx
from roar3d import checkpoint as ckpt
from roar3d.config import ModelConfig, RunConfig
from roar3d.evaluation import chamfer_distance
from roar3d.model import (
    ForwardOptions,
    Model,
    count_parameters,
    forward_multiview,
    forward_single,
    init_multiview_params,
    init_single_params,
    latent_decode,
    latent_encode,
    rotate_latent,
)
from roar3d.numerics import Tensor
from roar3d.router import RoutingDecision, gumbel_select, routing_logits_batched
from roar3d.trainer import upgrade_from_single
from roar3d.world import PointCloud, generate_shape, rotate_azimuth

from conftest import surrogate_multiplier

CFG = ModelConfig()

MICRO = ModelConfig(blocks=2, grid=2, model_dim=16, heads=2, head_dim=4,
                    patches=4, feat_dim=8, mlp_ratio=2)


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
        worst = max(worst, chamfer_distance(rec, pc))
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
    router = {k: params[f"blocks.{l}.router.{k}"] for k in M._ROUTER_KEYS}
    dec = gumbel_select(routing_logits_batched(z, views.router_keys[l], router))
    use_p = dec.hard_index == primary
    return M._cross_attention(params, l, z, views, dec.hard_index, use_p,
                              dec.ste_multiplier(), UNIT_GATE, cfg)


def test_dispatch_single_view_reduces_to_primary_stream():
    rng = np.random.default_rng(0)
    params = init_multiview_params(MICRO, 1)
    tokens = rng.normal(size=(MICRO.tokens, MICRO.model_dim))
    feats = _rand_views(rng, MICRO, 1)
    out = _routed_cross_attention(params, 0, tokens, feats, 0, MICRO)

    N = MICRO.tokens
    ref = M._cross_attention(params, 0, Tensor(tokens[None]),
                             M.view_context(params, MICRO, feats[None], routed=False),
                             np.zeros((1, N), dtype=np.int64), np.ones((1, N), dtype=bool),
                             None, UNIT_GATE, MICRO)
    assert np.abs(out.data - ref.data).max() < 1e-12


def test_dispatch_equal_streams_make_aux_equal_primary():
    """With CA_a == CA_p, a token routed to an aux view matches CA_p on it."""
    rng = np.random.default_rng(1)
    params = init_multiview_params(MICRO, 2)
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
    params = init_multiview_params(MICRO, 3)
    tokens = rng.normal(size=(1, MICRO.tokens, MICRO.model_dim))
    feats = _rand_views(rng, MICRO, 2, batch=1)
    with pytest.raises(ValueError):
        forward_multiview(params, MICRO, tokens, rng.random(1), feats, np.array([5]),
                          ForwardOptions(mode="inference"))


def test_forward_rejects_unknown_routing_mode():
    rng = np.random.default_rng(2)
    params = init_multiview_params(MICRO, 3)
    tokens = rng.normal(size=(1, MICRO.tokens, MICRO.model_dim))
    feats = _rand_views(rng, MICRO, 2, batch=1)
    with pytest.raises(ValueError):
        forward_multiview(params, MICRO, tokens, rng.random(1), feats, np.array([0]),
                          ForwardOptions(mode="maybe"))


@pytest.mark.parametrize("primary", [-2, -5, 2])
def test_forward_rejects_primary_index_out_of_range(primary):
    """-1 means "no primary"; other negatives and view counts are no view at all."""
    rng = np.random.default_rng(2)
    params = init_multiview_params(MICRO, 3)
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
    q = {s: rng.normal(size=(B, N, H, d)) for s in (True, False)}
    k = {s: rng.normal(size=(B, v, S, H, d)) for s in (True, False)}
    val = {s: rng.normal(size=(B, v, S, H, d)) for s in (True, False)}
    view_index = rng.integers(0, v, size=(B, N))
    use_primary = rng.random((B, N)) < 0.5
    out = nx.routed_attention(Tensor(q[True]), Tensor(q[False]),
                              (Tensor(k[True]), Tensor(val[True])),
                              (Tensor(k[False]), Tensor(val[False])),
                              view_index, use_primary).data
    ref = np.zeros_like(out)
    for b in range(B):
        for n in range(N):
            s, w = bool(use_primary[b, n]), view_index[b, n]
            for h in range(H):
                logits = k[s][b, w, :, h] @ q[s][b, n, h] / np.sqrt(d)   # (S,)
                p = np.exp(logits - logits.max())
                ref[b, n, h] = (p / p.sum()) @ val[s][b, w, :, h]
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def test_zero_head_gives_zero_velocity():
    rng = np.random.default_rng(4)
    params = init_multiview_params(MICRO, 5)  # head is zero-initialized
    B, N = 2, MICRO.tokens
    vel, _ = forward_multiview(params, MICRO, rng.normal(size=(B, N, MICRO.model_dim)),
                               rng.random(B), _rand_views(rng, MICRO, 2, batch=B),
                               np.zeros(B, dtype=np.int64), ForwardOptions(mode="inference"))
    assert np.array_equal(vel.data, np.zeros((B, N, MICRO.model_dim)))


def _randomize_zero_init(params, rng):
    for k, p in params.items():
        if ".mod." in k or k.startswith("final.mod") or k.startswith("head."):
            p.data[...] = rng.normal(0, 0.2, size=p.data.shape)


def test_forward_inference_deterministic():
    rng = np.random.default_rng(5)
    params = init_multiview_params(MICRO, 6)
    _randomize_zero_init(params, rng)
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
    single = init_single_params(MICRO, 7)
    _randomize_zero_init(single, rng)
    multi = init_multiview_params(MICRO, 99)  # different CA_a/router draws
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
    single_params = init_single_params(MICRO, 8)
    _randomize_zero_init(single_params, rng)
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
    _randomize_zero_init(model.params, rng)
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
    _randomize_zero_init(model.params, rng)
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


@pytest.mark.parametrize("arch", ["routed", "concat"])
def test_forward_rejects_a_view_context_of_other_features(arch):
    rng = np.random.default_rng(19)
    cfg = dataclasses.replace(MICRO, arch=arch)
    model = Model.create(cfg, 20)
    B = 2
    feats = _rand_views(rng, cfg, 3, batch=B)
    z_t = rng.normal(size=(B, cfg.tokens, cfg.model_dim))
    t, primary = np.ones(B), np.zeros(B, dtype=np.int64)
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
    _randomize_zero_init(model.params, rng)
    B = 2
    feats = _rand_views(rng, cfg, 3, batch=B)
    z_t = rng.normal(size=(B, cfg.tokens, cfg.model_dim))
    t, primary = np.array([0.25, 0.75]), np.zeros(B, dtype=np.int64)
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
    params = init_multiview_params(MICRO, 9)
    _randomize_zero_init(params, rng)
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


def test_timestep_changes_output():
    rng = np.random.default_rng(9)
    params = init_multiview_params(MICRO, 10)
    _randomize_zero_init(params, rng)
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
    params = init_multiview_params(MICRO, 11)
    _randomize_zero_init(params, rng)
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
    ste_loss, info = loss()
    ste_loss.backward()
    ste_grads = {k: p.grad.copy() for k, p in checked.items()}

    # the surrogate network replays each block's hard choice and swaps the
    # straight-through multiplier for y_soft[v*] + (1 - y_soft0[v*])
    overrides = [d.hard_index for d in info.decisions]
    offsets = [1.0 - np.take_along_axis(d.y_soft.data, d.hard_index[..., None], -1)
               for d in info.decisions]
    calls = itertools.count()

    def replay(*args):
        dec = gumbel_select(*args)
        block = next(calls) % MICRO.blocks
        dec.hard_index, dec.offset = overrides[block], offsets[block]
        return dec

    monkeypatch.setattr(M, "gumbel_select", replay)
    monkeypatch.setattr(RoutingDecision, "ste_multiplier",
                        lambda dec: surrogate_multiplier(dec, dec.offset))

    def surrogate():
        return loss()[0]

    for p in params.values():
        p.zero_grad()
    surrogate().backward()
    for k, p in checked.items():
        assert np.array_equal(p.grad, ste_grads[k]), k
    report = nx.grad_check(surrogate, checked, max_entries=5)
    assert max(report.values()) < 1e-4, report


# ---------------------------------------------------------------------------
# parameter counting and checkpoints
# ---------------------------------------------------------------------------


def test_init_multiview_params_pinned():
    """Micro names, order and init draws hash to a fixed value (checkpoint layout)."""
    h = hashlib.sha256()
    for name, p in init_multiview_params(MICRO, 7).items():
        h.update(name.encode())
        h.update(p.data.tobytes())
    assert h.hexdigest() == "89402d8a45a95ce46672954d2d74cd4d7b66c636bd8ce5e5c10396709dfed824"


def test_count_parameters_router_and_aux_formulas():
    params = init_multiview_params(CFG, 0)
    counts = count_parameters(params)
    d, hd, h, df = CFG.model_dim, CFG.attn_width, CFG.heads, CFG.feat_dim
    router_expected = CFG.blocks * (d * hd + df * hd + h + 2 * hd + 2 * d)
    ca_expected = CFG.blocks * (d * hd + df * hd + df * hd + hd * d + 2 * hd)
    assert counts["router"] == router_expected
    assert counts["ca_a"] == ca_expected
    assert counts["ca_a"] == counts["ca_p"]
    assert counts["baseline"] == counts["backbone"] + counts["ca_p"]


def test_count_parameters_desk_ratio_frozen():
    """Desk-config added/baseline ratio, frozen as a regression value."""
    counts = count_parameters(init_multiview_params(CFG, 0))
    assert counts["added"] == 75280
    assert counts["baseline"] == 324608
    assert abs(counts["added_ratio"] - 0.23191) < 1e-4


def test_model_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    model = Model.create(MICRO, 13)
    _randomize_zero_init(model.params, rng)
    path = tmp_path / "model.bin"
    model.save(path, meta={"phase": "test"})
    loaded = Model.load(path)
    assert loaded.cfg == model.cfg
    for k, p in model.params.items():
        assert np.array_equal(loaded.params[k].data, p.data)


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
