"""Token-wise view routing: pooling, logits, Gumbel selection, STE."""

import contextlib

import numpy as np
import pytest

import roar3d.numerics as nx
import roar3d.model as M
from roar3d.config import ModelConfig
from roar3d.numerics import Tensor, grad_check
from roar3d.router import (gumbel_select, router_keys, routing_logits_batched, sample_gumbel,
                           score_matrix)
from roar3d.rng import stream

from conftest import mul, reshape, sum_all, surrogate_select


def _params(seed, model_dim=8, feat_dim=8, heads=2, head_dim=4):
    """The router of a freshly initialised one-block routed model."""
    cfg = ModelConfig(blocks=1, model_dim=model_dim, feat_dim=feat_dim, heads=heads,
                      head_dim=head_dim)
    return M._router_params(M.init_params(cfg, seed), 0)


# ---------------------------------------------------------------------------
# pooled view keys
# ---------------------------------------------------------------------------


POOL_CFG = ModelConfig(blocks=1, grid=2, model_dim=16, heads=2, head_dim=4,
                       patches=4, feat_dim=8)


def _pooled_keys(monkeypatch, feats):
    """The (V, feat_dim) pooled keys the routed forward hands ``router_keys`` for ``feats``."""
    seen = []

    def spy(pooled, p):
        seen.append(pooled.data)
        return router_keys(pooled, p)

    monkeypatch.setattr(M, "router_keys", spy)
    params = M.init_params(POOL_CFG, 0)
    z_t = np.zeros((1, POOL_CFG.tokens, POOL_CFG.model_dim))
    M.forward_multiview(params, POOL_CFG, z_t, np.ones(1), feats[None], np.zeros(1, int))
    return seen[0][0]


def test_pool_constant_patches(monkeypatch):
    c = np.array([1.0, -2.0, 3.0, 0.5, 0.0, 4.0, -1.5, 2.0])
    feats = np.tile(c, (2, 4, 1))
    pooled = _pooled_keys(monkeypatch, feats)
    assert np.allclose(pooled, np.tile(c, (2, 1)), atol=1e-15)


def test_pool_zero_features(monkeypatch):
    pooled = _pooled_keys(monkeypatch, np.zeros((3, 4, 8)))
    assert np.array_equal(pooled, np.zeros((3, 8)))


def test_pool_matches_direct_summation(monkeypatch):
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(3, 4, 8))
    pooled = _pooled_keys(monkeypatch, feats)
    expect = feats.sum(axis=1) / feats.shape[1]
    assert np.allclose(pooled, expect, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# routing_logits_batched
# ---------------------------------------------------------------------------


def _one_sample_logits(z, pooled, p):
    """(N, V) logits of one sample through the router's pre-norm and the
    batched router, a batch of one."""
    z, k = Tensor(z[None]), Tensor(pooled)
    keys = router_keys(reshape(k, (1,) + k.shape), p)
    r = routing_logits_batched(nx.layer_norm(z, p["ln_gain"], p["ln_bias"]), keys, p)
    return reshape(r, r.shape[1:])


def test_orthogonal_query_key_gives_zero_logit():
    """Post-norm q and k orthogonal per head => logit is exactly w dot 0."""
    p = _params(1, heads=1, head_dim=2, model_dim=2, feat_dim=2)
    # engineer projections so q = (c, 0) and k = (0, c') before RMSNorm
    p["w_q"].data[...] = np.array([[1.0, 0.0], [1.0, 0.0]])
    p["w_k"].data[...] = np.array([[0.0, 1.0], [0.0, 1.0]])
    z = np.array([[0.7, -0.3]])
    pooled = np.array([[0.4, 0.9]])
    r = _one_sample_logits(z, pooled, p)
    assert abs(float(r.data[0, 0])) < 1e-12


def test_identical_pooled_keys_give_identical_columns():
    rng = np.random.default_rng(2)
    p = _params(2)
    z = rng.normal(size=(5, 8))
    key = rng.normal(size=8)
    pooled = np.tile(key, (4, 1))
    r = _one_sample_logits(z, pooled, p).data
    for v in range(1, 4):
        assert np.array_equal(r[:, 0], r[:, v])


def test_routing_logits_match_per_head_oracle():
    rng = np.random.default_rng(3)
    N, V, H, dh = 3, 2, 2, 4
    D = 8
    p = _params(3, model_dim=D, feat_dim=D, heads=H, head_dim=dh)
    z = rng.normal(size=(N, D))
    pooled = rng.normal(size=(V, D))
    r = _one_sample_logits(z, pooled, p).data

    # direct evaluation of the stated formula
    zt = nx.layer_norm(Tensor(z), p["ln_gain"], p["ln_bias"]).data
    q = nx.rms_norm(Tensor(zt @ p["w_q"].data), p["q_gain"]).data
    k = nx.rms_norm(Tensor(pooled @ p["w_k"].data), p["k_gain"]).data
    expect = np.zeros((N, V))
    for i in range(N):
        for v in range(V):
            acc = 0.0
            for h in range(H):
                qh = q[i, h * dh:(h + 1) * dh]
                kh = k[v, h * dh:(h + 1) * dh]
                acc += p["w_agg"].data[h] * float(qh @ kh) / np.sqrt(dh)
            expect[i, v] = acc
    assert np.allclose(r, expect, rtol=1e-10, atol=1e-14)


def test_w_agg_initialized_uniform():
    p = _params(0, heads=4, head_dim=2)
    assert np.array_equal(p["w_agg"].data, np.full(4, 0.25))


@pytest.mark.parametrize("views", [2, 5, 12])
def test_score_matrix_picks_the_exact_argmax(views):
    """zt @ R is the exact logits times a positive factor per token, and has their argmax.

    The exact side runs with gradients on, as a training forward does. The
    router has a negative head weight and zeroed and negative query gains;
    sample 1 repeats view 0 as its last view, sample 2 view 1 (view 0 at two
    views), so those views tie exactly on both sides and the lower index wins.
    """
    rng = np.random.default_rng(40 + views)
    B, N, D, H, dh = 3, 40, 8, 3, 4
    p = _params(views, model_dim=D, feat_dim=D, heads=H, head_dim=dh)
    p["w_agg"].data[...] = [0.9, -0.6, 0.3]
    p["q_gain"].data[...] = rng.normal(size=H * dh)
    p["q_gain"].data[::5] = 0.0
    p["q_gain"].data[1] = -abs(p["q_gain"].data[1])
    pooled = rng.normal(size=(B, views, D))
    pooled[1, -1] = pooled[1, 0]
    pooled[2, -1] = pooled[2, 1 % (views - 1)]
    zt = nx.layer_norm(Tensor(rng.normal(size=(B, N, D))), p["ln_gain"], p["ln_bias"])
    keys = router_keys(Tensor(pooled), p)
    logits = routing_logits_batched(zt, keys, p)
    exact = gumbel_select(logits)
    assert exact.y_soft is not None

    with nx.no_grad():
        folded = routing_logits_batched(zt, score_matrix(keys, p), p)
        decision = gumbel_select(folded)
    q = zt.data @ p["w_q"].data
    factor = 1.0 / np.sqrt((q * q).mean(axis=-1, keepdims=True) + nx.RMS_EPS) / np.sqrt(dh)
    assert np.allclose(folded.data * factor, logits.data, rtol=1e-12, atol=1e-14)
    assert np.array_equal(decision.hard_index, exact.hard_index)
    assert (exact.hard_index[1:] != views - 1).all()
    assert (exact.hard_index[1] == 0).any() and (exact.hard_index[2] == 1 % (views - 1)).any()
    assert len(np.unique(exact.hard_index)) > 1


# ---------------------------------------------------------------------------
# gumbel_select
# ---------------------------------------------------------------------------


def test_single_view_selects_zero_in_both_modes():
    logits = Tensor(np.array([[0.3], [-1.0], [2.0]]))
    for noise in (sample_gumbel(np.random.default_rng(0), logits.shape), None):
        dec = gumbel_select(logits, noise=noise)
        assert np.array_equal(dec.hard_index, np.zeros(3, dtype=np.int64))
        assert np.allclose(dec.y_soft, 1.0, atol=1e-15)


def test_inference_soft_weights_match_softmax():
    dec = gumbel_select(Tensor(np.array([[2.0, 1.0, 1.0]])))
    assert dec.hard_index[0] == 0
    e = np.exp(np.array([2.0, 1.0, 1.0]))
    assert np.allclose(dec.y_soft[0], e / e.sum(), atol=1e-12)
    assert np.allclose(dec.y_soft[0], [0.576, 0.212, 0.212], atol=5e-4)


def test_noise_of_another_shape_is_rejected():
    logits = Tensor(np.zeros((3, 2)))
    for grad in (nx.no_grad, contextlib.nullcontext):
        with grad(), pytest.raises(nx.ShapeError, match="noise shape"):
            gumbel_select(logits, noise=np.zeros((1, 2)))


def test_tie_breaks_to_lowest_index():
    dec = gumbel_select(Tensor(np.array([[1.0, 1.0]])))
    assert dec.hard_index[0] == 0


def test_ste_forward_identity_is_one_hot():
    rng = np.random.default_rng(5)
    logits = Tensor(rng.normal(size=(6, 4)))
    dec = gumbel_select(logits, noise=sample_gumbel(rng, logits.shape))
    assert np.array_equal(dec.multiplier.data, np.ones((6, 1)))
    # the one-hot at hard_index: all rows sum to 1 with entries in {0, 1}
    one_hot = np.zeros((6, 4))
    one_hot[np.arange(6), dec.hard_index] = 1.0
    assert np.array_equal(one_hot.sum(axis=1), np.ones(6))


def test_ste_backward_equals_soft_surrogate_finite_differences():
    """Tape grads of the STE path == FD of the offset soft surrogate."""
    rng = np.random.default_rng(6)
    N, V, D = 4, 3, 5
    w = Tensor(rng.normal(size=(D, V)), requires_grad=True)
    x = rng.normal(size=(N, D))
    noise = sample_gumbel(np.random.default_rng(1), (N, V))
    downstream = rng.normal(size=(N, 1))

    def decision():
        logits = nx.matmul(Tensor(x), w)
        return gumbel_select(logits, noise=noise)

    # real network: STE multiplier scales a fixed downstream value
    w.zero_grad()
    dec = decision()
    loss = sum_all(mul(dec.multiplier, Tensor(downstream)))
    loss.backward()
    analytic = w.grad.copy()

    # surrogate: multiplier replaced by y_soft[v*] + (1 - y_soft0[v*]), v* frozen,
    # built from the reference node chain
    hard0 = dec.hard_index.copy()
    offset = 1.0 - np.take_along_axis(dec.y_soft, hard0[:, None], axis=-1)

    def surrogate():
        d2 = surrogate_select(nx.matmul(Tensor(x), w), noise, hard0, offset)
        return sum_all(mul(d2.multiplier, Tensor(downstream)))

    report = grad_check(surrogate, {"w": w})
    assert report["w"] < 1e-4
    w.zero_grad()
    surrogate().backward()
    assert np.allclose(w.grad, analytic, rtol=1e-12, atol=1e-15)


def test_view_permutation_equivariance():
    """Permuting views (with identically permuted noise) permutes the decision."""
    rng = np.random.default_rng(7)
    N, V = 5, 4
    logits = rng.normal(size=(N, V))
    noise = sample_gumbel(np.random.default_rng(2), (N, V))
    perm = np.array([2, 0, 3, 1])

    base = gumbel_select(Tensor(logits), noise=noise)
    permuted = gumbel_select(Tensor(logits[:, perm]), noise=noise[:, perm])
    inv = np.argsort(perm)
    assert np.array_equal(inv[base.hard_index], permuted.hard_index)
    assert np.allclose(permuted.y_soft, base.y_soft[:, perm], atol=1e-12)

    # inference mode needs no noise coupling at all
    b2 = gumbel_select(Tensor(logits))
    p2 = gumbel_select(Tensor(logits[:, perm]))
    assert np.array_equal(inv[b2.hard_index], p2.hard_index)


def test_inference_determinism_bit_exact():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(7, 3))
    a = gumbel_select(Tensor(logits))
    b = gumbel_select(Tensor(logits))
    assert np.array_equal(a.hard_index, b.hard_index)
    assert np.array_equal(a.y_soft, b.y_soft)


def test_gumbel_marginals_uniform_logits():
    """With uniform logits each view is picked ~1/V over 100k train draws."""
    V = 4
    draws = 100_000
    noise = sample_gumbel(stream(0, "marginal-test"), (draws, V))
    picks = np.argmax(noise, axis=-1)  # uniform logits: argmax of noise alone
    freq = np.bincount(picks, minlength=V) / draws
    assert np.abs(freq - 1.0 / V).max() < 0.01


def test_routing_noise_is_reproducible_and_blockwise_independent():
    from roar3d.router import routing_noise

    a = routing_noise(42, step=3, block=1, shape=(4, 5))
    b = routing_noise(42, step=3, block=1, shape=(4, 5))
    c = routing_noise(42, step=3, block=2, shape=(4, 5))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
