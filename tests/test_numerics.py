"""Autodiff core: oracle values, finite-difference checks, determinism."""

import ast
import contextlib
import contextvars
import dataclasses
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import roar3d.model as M
import roar3d.numerics as nx
from roar3d import checkpoint as ckpt
from roar3d.numerics import Tensor, grad_check
from roar3d.model import ForwardOptions, Model
from roar3d.router import gumbel_select, sample_gumbel
from roar3d.trainer import Batch, flow_matching_loss

from conftest import (
    add,
    head_mix,
    mean_all,
    micro_run_config,
    mse_chain,
    mul,
    randomize_zero_init,
    reshape,
    router_score_chain,
    scale,
    scale_rows,
    shared_ints,
    softmax,
    ste_one,
    straight_through_chain,
    sum_all,
    surrogate_multiplier,
    take_index_last,
    transpose,
)


def _fd_scalar(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar-valued f at x, elementwise."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + h
        up = f()
        x[i] = orig - h
        dn = f()
        x[i] = orig
        g[i] = (up - dn) / (2 * h)
        it.iternext()
    return g


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def test_matmul_identity():
    a = np.arange(12.0).reshape(3, 4)
    out = nx.matmul(Tensor(np.eye(3)), Tensor(a))
    assert np.array_equal(out.data, a)


def test_matmul_hand_sum():
    out = nx.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    assert np.array_equal(out.data, [[3.0], [7.0]])


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    a = Tensor(rng.normal(size=(5, 7)), requires_grad=True)
    b = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
    w = rng.normal(size=(5, 3))  # fixed projection to a scalar

    loss = sum_all(mul(nx.matmul(a, b), Tensor(w)))
    loss.backward()

    fd_a = _fd_scalar(lambda: float((a.data @ b.data * w).sum()), a.data)
    fd_b = _fd_scalar(lambda: float((a.data @ b.data * w).sum()), b.data)
    assert np.abs(a.grad - fd_a).max() < 1e-6
    assert np.abs(b.grad - fd_b).max() < 1e-6


def test_matmul_shape_mismatch():
    with pytest.raises(nx.ShapeError):
        nx.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


def _straight_through_soft(x):
    """``y_soft`` of ``nx.straight_through`` with the logits as their own noisy copy."""
    x = np.asarray(x, dtype=np.float64)
    return nx.straight_through(Tensor(x), x, np.argmax(x, axis=-1))[0]


# the router's softmax, inside the straight-through node, and the reference op
SOFTMAXES = pytest.mark.parametrize("softmax_of", [
    _straight_through_soft, lambda x: softmax(Tensor(x)).data,
], ids=["straight_through", "reference"])


@SOFTMAXES
def test_softmax_symmetry(softmax_of):
    out = softmax_of([0.0, 0.0])
    assert np.allclose(out, [0.5, 0.5], atol=1e-15)


@SOFTMAXES
def test_softmax_large_inputs_stable(softmax_of):
    out = softmax_of([1000.0, 1000.0, 1000.0])
    assert np.all(np.isfinite(out))
    assert np.allclose(out, [1 / 3] * 3, atol=1e-15)


@SOFTMAXES
def test_softmax_against_longdouble_oracle(softmax_of):
    x = np.array([1.0, 2.0, 3.0])
    hi = np.exp(x.astype(np.longdouble))
    expect = (hi / hi.sum()).astype(np.float64)
    out = softmax_of(x)
    assert np.allclose(out, expect, rtol=1e-12, atol=0)


@SOFTMAXES
def test_softmax_rows_sum_to_one_and_shift_invariant(softmax_of):
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.normal(scale=5.0, size=(4, 6))
        y = softmax_of(x)
        assert np.abs(y.sum(axis=-1) - 1.0).max() < 1e-12
        shifted = softmax_of(x + rng.normal() * np.ones((4, 6)))
        assert np.abs(y - shifted).max() < 1e-12


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_layer_norm_constant_row_is_zero():
    out = nx.layer_norm(Tensor([[3.0, 3.0, 3.0, 3.0]]), Tensor(np.ones(4)), Tensor(np.zeros(4)))
    assert np.allclose(out.data, 0.0, atol=1e-12)


def test_layer_norm_already_normalized():
    out = nx.layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
    assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-4)


def test_layer_norm_formula_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 9))
    gain = rng.normal(size=9)
    bias = rng.normal(size=9)
    mu = x.mean(-1, keepdims=True)
    var = x.var(-1, keepdims=True)
    expect = (x - mu) / np.sqrt(var + 1e-5) * gain + bias
    out = nx.layer_norm(Tensor(x), Tensor(gain), Tensor(bias))
    assert np.allclose(out.data, expect, rtol=1e-10, atol=1e-12)


def test_rms_norm_ones():
    out = nx.rms_norm(Tensor(np.ones(8)[None]), Tensor(np.ones(8)))
    assert np.allclose(out.data, 1.0, atol=1e-5)


def test_rms_norm_zero_vector():
    out = nx.rms_norm(Tensor(np.zeros(6)[None]), Tensor(np.ones(6)))
    assert np.array_equal(out.data, np.zeros((1, 6)))


def test_rms_norm_formula_oracle():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 7))
    gain = rng.normal(size=7)
    expect = x / np.sqrt((x * x).mean(-1, keepdims=True) + 1e-6) * gain
    out = nx.rms_norm(Tensor(x), Tensor(gain))
    assert np.allclose(out.data, expect, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("alpha", [2.0, 17.5, 0.3])
def test_norms_scale_equivariant_far_from_eps(alpha):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 8)) * 300.0  # |alpha*x| >> eps so the eps term is negligible
    g, b = Tensor(np.ones(8)), Tensor(np.zeros(8))
    ln1 = nx.layer_norm(Tensor(x), g, b).data
    ln2 = nx.layer_norm(Tensor(alpha * x), g, b).data
    assert np.abs(ln1 - ln2).max() < 1e-8
    rn1 = nx.rms_norm(Tensor(x), g).data
    rn2 = nx.rms_norm(Tensor(alpha * x), g).data
    assert np.abs(rn1 - rn2).max() < 1e-8


def _layer_norm_mean_var_form(x, gain, bias, g):
    """layer_norm's output and (x, gain, bias) gradients spelled out with mean/var."""
    d = x.shape[-1]
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + nx.LN_EPS)
    xhat = (x - x.mean(axis=-1, keepdims=True)) * inv
    dxhat = g * gain
    gx = (dxhat - dxhat.mean(axis=-1, keepdims=True)
          - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) * inv
    return xhat * gain + bias, gx, (g * xhat).reshape(-1, d).sum(axis=0), \
        g.reshape(-1, d).sum(axis=0)


def _rms_norm_mean_form(x, gain, g):
    """rms_norm's output and (x, gain) gradients spelled out with mean/sum."""
    d = x.shape[-1]
    inv = 1.0 / np.sqrt((x * x).mean(axis=-1, keepdims=True) + nx.RMS_EPS)
    u = x * inv
    gg = g * gain
    dot = (gg * x).sum(axis=-1, keepdims=True)
    return u * gain, gg * inv - x * (dot * inv**3 / d), (g * u).reshape(-1, d).sum(axis=0)


@pytest.mark.parametrize("shape", [(1, 64, 64), (16, 64, 64)])
def test_norms_bit_equal_to_mean_var_form(shape):
    rng = np.random.default_rng(shape[0])
    x = Tensor(rng.normal(size=shape) * 3.0 + 0.5, requires_grad=True)
    gain = Tensor(rng.normal(size=shape[-1]), requires_grad=True)
    bias = Tensor(rng.normal(size=shape[-1]), requires_grad=True)
    g = rng.normal(size=shape)
    for op, inputs, reference in (
        (nx.layer_norm, (x, gain, bias), _layer_norm_mean_var_form),
        (nx.rms_norm, (x, gain), _rms_norm_mean_form),
    ):
        for t in inputs:
            t.zero_grad()
        out = op(*inputs)
        sum_all(mul(out, Tensor(g))).backward()
        got = [out.data] + [t.grad for t in inputs]
        expect = reference(*(t.data for t in inputs), g)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expect], op.__name__


def test_accum_grad_keeps_sibling_gradients_apart():
    """``add`` hands both leaves one gradient array; a later one for ``a`` leaves ``b``'s alone."""
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    sum_all(add(add(a, b), scale(a, 2.0))).backward()
    assert np.array_equal(a.grad, np.full((2, 3), 3.0))
    assert np.array_equal(b.grad, np.ones((2, 3)))


# ---------------------------------------------------------------------------
# grad_check harness
# ---------------------------------------------------------------------------


def test_grad_check_square():
    x = Tensor(np.array([3.0]), requires_grad=True)
    report = grad_check(lambda: sum_all(mul(x, x)), {"x": x})
    x.zero_grad()
    loss = sum_all(mul(x, x))
    loss.backward()
    assert np.allclose(x.grad, 6.0)
    assert report["x"] < 1e-8


def test_grad_check_softmax_sum_is_constant():
    x = Tensor(np.array([0.3, -1.2, 2.0]), requires_grad=True)
    x.zero_grad()
    sum_all(softmax(x)).backward()
    assert np.abs(x.grad).max() < 1e-15
    report = grad_check(lambda: sum_all(softmax(x)), {"x": x})
    assert report["x"] < 1e-4  # FD of a constant is pure roundoff noise


def test_grad_check_rejects_bad_h():
    x = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ValueError):
        grad_check(lambda: sum_all(x), {"x": x}, h=1e-2)


# ---------------------------------------------------------------------------
# every primitive against central differences, many seeds
# ---------------------------------------------------------------------------


def _primitive_cases(rng):
    """(name, params dict, graph builder) triples on small random tensors."""
    B, N, D, H, V, S, dh = 2, 3, 4, 2, 3, 3, 2
    mk = lambda *s: Tensor(rng.normal(size=s), requires_grad=True)

    a2, b2 = mk(3, 4), mk(4, 2)
    ab, bb = mk(2, 3, 4), mk(2, 4, 2)
    shared = mk(4, 2)
    e1, e2 = mk(2, 5), mk(2, 5)
    bias = mk(5)
    w54, b4 = mk(5, 4), mk(4)
    ln_bias = mk(5)
    rows = mk(B, N, 1)
    x3, y3 = mk(B, N, D), mk(B, N, D)
    sc, sh = mk(B, D), mk(B, D)
    ln_g, ln_b = mk(D), mk(D)
    w44 = mk(D, 4)
    w_h = mk(H)
    scores = mk(B, H, N, V)
    q3 = mk(B, N, H * dh)
    k3, v3 = mk(B, N, H * dh), mk(B, N, H * dh)
    qp, qa = mk(B, N, H * dh), mk(B, N, H * dh)
    kp, vp = mk(B, V, S, H * dh), mk(B, V, S, H * dh)
    ka, va = mk(B, V, S, H * dh), mk(B, V, S, H * dh)
    v_star = rng.integers(0, V, size=(B, N))
    use_p = rng.random((B, N)) < 0.5
    idx = rng.integers(0, V, size=(2, 3))
    yv = mk(2, 3, V)

    return [
        ("matmul", {"a": a2, "b": b2}, lambda: nx.matmul(a2, b2)),
        ("matmul_batched", {"a": ab, "b": bb}, lambda: nx.matmul(ab, bb)),
        ("matmul_shared_rhs", {"a": ab, "b": shared}, lambda: nx.matmul(ab, shared)),
        ("add", {"a": e1, "b": e2}, lambda: add(e1, e2)),
        ("sub", {"a": e1, "b": e2}, lambda: nx.sub(e1, e2)),
        ("mul", {"a": e1, "b": e2}, lambda: mul(e1, e2)),
        ("scale", {"a": e1}, lambda: scale(e1, -1.7)),
        ("linear", {"x": e1, "w": w54, "b": b4}, lambda: nx.linear(e1, w54, b4)),
        ("linear_3d", {"x": x3, "w": w44, "b": b4}, lambda: nx.linear(x3, w44, b4)),
        ("scale_rows", {"a": x3, "m": rows}, lambda: scale_rows(x3, rows)),
        ("softmax", {"a": e1}, lambda: softmax(e1)),
        ("layer_norm", {"a": e1, "g": bias, "b": ln_bias},
         lambda: nx.layer_norm(e1, bias, ln_bias)),
        ("rms_norm", {"a": e1, "g": bias}, lambda: nx.rms_norm(e1, bias)),
        ("silu", {"a": e1}, lambda: nx.silu(e1)),
        ("reshape_transpose", {"a": x3},
         lambda: transpose(reshape(x3, (B, N, 2, 2)), (0, 2, 1, 3))),
        ("slice_last", {"a": x3}, lambda: nx.slice_last(x3, 1, 3)),
        ("take_index_last", {"y": yv}, lambda: take_index_last(yv, idx)),
        # ste_one and nx.straight_through are deliberately absent: their backward
        # is the straight-through surrogate, not the true (zero) derivative of
        # their constant forward.
        ("ada_layer_norm", {"x": x3, "g": ln_g, "b": ln_b, "sc": sc, "sh": sh},
         lambda: nx.ada_layer_norm(x3, ln_g, ln_b, sc, sh)),
        ("gated_add", {"z": y3, "x": x3, "g": sc}, lambda: nx.gated_add(y3, x3, sc)),
        ("head_mix", {"s": scores, "w": w_h}, lambda: head_mix(scores, w_h)),
        ("self_attention", {"q": q3, "k": k3, "v": v3},
         lambda: nx.self_attention(q3, k3, v3, H)),
        ("routed_attention", {"qp": qp, "qa": qa, "kp": kp, "vp": vp, "ka": ka, "va": va},
         lambda: nx.routed_attention(qp, qa, (kp, vp), (ka, va), v_star, use_p, H)),
        ("routed_attention_one_stream", {"q": qp, "k": kp, "v": vp},
         lambda: nx.routed_attention(qp, qp, (kp, vp), (kp, vp), v_star, use_p, H)),
        ("mean_all", {"a": e1}, lambda: mean_all(e1)),
        ("mse", {"a": e1, "b": e2}, lambda: nx.mse(e1, e2)),
    ]


def test_primitive_gradients_match_finite_differences_over_seeds():
    """Every primitive op, tape vs central differences, 100 seeds."""
    worst = {}
    for seed in range(100):
        rng = np.random.default_rng(seed)
        for name, params, build in _primitive_cases(rng):
            # random fixed projection makes the scalar sensitive to all outputs
            w = rng.normal(size=build().shape)
            report = grad_check(lambda: sum_all(mul(build(), Tensor(w))),
                                params, max_entries=4, rng=rng)
            err = max(report.values())
            worst[name] = max(worst.get(name, 0.0), err)
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    assert not bad, f"FD mismatch: {bad}"


def test_backward_deterministic_bit_identical():
    def run():
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        h = softmax(nx.matmul(a, b))
        loss = mean_all(mul(h, h))
        loss.backward()
        return a.grad.copy(), b.grad.copy()

    ga1, gb1 = run()
    ga2, gb2 = run()
    assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)


def test_ste_one_forward_is_exact_ones_backward_passthrough():
    y = Tensor(np.array([[0.3, 0.7], [0.9, 0.1]]), requires_grad=True)
    picked = take_index_last(y, np.array([1, 0]))
    out = ste_one(picked)
    assert np.array_equal(out.data, np.ones((2, 1)))
    w = np.array([[2.0], [-3.0]])
    sum_all(mul(out, Tensor(w))).backward()
    expect = np.zeros((2, 2))
    expect[0, 1] = 2.0
    expect[1, 0] = -3.0
    assert np.array_equal(y.grad, expect)


def _node_and_chain_bytes(logits, noise, g):
    """Hard index, y_soft, multiplier value and ``logits`` gradient bytes of
    ``gumbel_select``'s straight-through node and of the reference chain, for
    the loss sum(multiplier * g)."""
    runs = []
    for chain in (False, True):
        logits.zero_grad()
        if chain:
            hard = np.argmax(logits.data if noise is None else logits.data + noise, axis=-1)
            y_soft, m = straight_through_chain(logits, noise, hard)
            y_soft = y_soft.data
        else:
            dec = gumbel_select(logits, noise)
            hard, y_soft, m = dec.hard_index, dec.y_soft, dec.multiplier
            assert len(nx.ComputationTape.trace(m).nodes) == 2    # the node and its logits
        assert np.array_equal(m.data, np.ones(logits.shape[:-1] + (1,)))
        sum_all(mul(m, Tensor(g))).backward()
        runs.append([hard.tobytes(), y_soft.tobytes(), m.data.tobytes(), logits.grad.tobytes()])
    return runs


@pytest.mark.parametrize("noisy", [False, True], ids=["bare", "noise"])
@pytest.mark.parametrize("shape", [(7, 4), (3, 5, 4), (6, 1)], ids=["N,V", "B,N,V", "V=1"])
def test_straight_through_bit_equal_to_reference_chain(shape, noisy):
    """Value, y_soft, hard index and logits gradient of the one node equal the
    four-node chain's (noise add, softmax, gather, unit straight-through), bit for bit."""
    rng = np.random.default_rng(31)
    for _ in range(5):
        logits = Tensor(rng.normal(scale=3.0, size=shape), requires_grad=True)
        noise = sample_gumbel(rng, shape) if noisy else None
        runs = _node_and_chain_bytes(logits, noise, rng.normal(size=shape[:-1] + (1,)))
        assert runs[0] == runs[1]


def test_straight_through_exact_tie_takes_lowest_index_on_both_paths():
    """Noisy logits that tie exactly pick the lowest tied view through the node and the chain."""
    logits = Tensor(np.array([[0.5, 1.0, 0.25], [0.25, 1.0, 0.5], [0.0, 0.5, 0.5]]),
                    requires_grad=True)
    noise = np.array([[0.5, 0.0, 0.75], [1.0, 0.25, 0.0], [0.0, 0.25, 0.25]])
    runs = _node_and_chain_bytes(logits, noise, np.array([[1.5], [-2.0], [0.5]]))
    assert runs[0] == runs[1]
    assert runs[0][0] == np.array([0, 0, 1], dtype=np.int64).tobytes()


@pytest.mark.parametrize("target_grad", [False, True], ids=["target-constant", "target-leaf"])
@pytest.mark.parametrize("shape", [(16, 64, 64), (3, 5, 7), (1,)])
def test_mse_bit_equal_to_reference_chain(shape, target_grad):
    """Value and gradients of the one node equal the sub, mul, mean_all chain's, bit for
    bit, under an incoming gradient other than one; a target that requires a gradient
    gets the negated one."""
    runs = []
    for loss_fn in (nx.mse, mse_chain):
        rng = np.random.default_rng(33)
        pred = Tensor(rng.normal(size=shape), requires_grad=True)
        target = Tensor(rng.normal(size=shape), requires_grad=target_grad)
        loss = loss_fn(pred, target)
        mul(loss, Tensor(np.array(-1.7))).backward()
        runs.append([loss.data.tobytes(), pred.grad.tobytes(),
                     None if target.grad is None else target.grad.tobytes()])
    assert runs[0] == runs[1]
    assert (runs[0][2] is not None) == target_grad
    with pytest.raises(nx.ShapeError):
        nx.mse(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


def _dual_linear_inputs(rng, B=2, N=8, k=4, n=3, V=3):
    """x, w_p, w_a, (a soft routing row per token, hard picks) and a mixed stream mask."""
    x = Tensor(rng.normal(size=(B, N, k)), requires_grad=True)
    w_p = Tensor(rng.normal(size=(k, n)), requires_grad=True)
    w_a = Tensor(rng.normal(size=(k, n)), requires_grad=True)
    y_soft = Tensor(softmax(Tensor(rng.normal(size=(B, N, V)))).data, requires_grad=True)
    hard = rng.integers(0, V, size=(B, N))
    use_p = np.arange(B * N).reshape(B, N) % 2 == 0
    rng.shuffle(use_p.reshape(-1))
    return x, w_p, w_a, (y_soft, hard), use_p


def test_dual_linear_gradients_match_finite_differences():
    rng = np.random.default_rng(21)
    x, w_p, w_a, (y_soft, hard), use_p = _dual_linear_inputs(rng)
    offset = 1.0 - np.take_along_axis(y_soft.data, hard[..., None], -1)
    w = rng.normal(size=x.shape[:-1] + (w_p.shape[1],))

    def f():
        out = nx.dual_linear(x, w_p, w_a, use_p, surrogate_multiplier(y_soft, hard, offset))
        return sum_all(mul(out, Tensor(w)))

    report = grad_check(f, {"x": x, "w_p": w_p, "w_a": w_a, "y_soft": y_soft})
    assert max(report.values()) < 1e-4, report


def _masked_dual_linear(x, w_p, w_a, use_p, m):
    """The six-node masked form that ``dual_linear`` replaces."""
    mask_p = Tensor(use_p[..., None].astype(np.float64))
    mask_a = Tensor((~use_p)[..., None].astype(np.float64))
    return scale_rows(add(nx.matmul(scale_rows(x, mask_p), w_p),
                                nx.matmul(scale_rows(x, mask_a), w_a)), m)


def _straight_through_runs(rng, x, w_p, w_a, routing, use_p):
    """Value and (x, w_p, w_a, y_soft) gradient bytes of ``dual_linear`` and of
    the masked form, each with the straight-through multiplier of ``routing``,
    a (y_soft, hard) pair."""
    y_soft, hard = routing
    inputs = (x, w_p, w_a, y_soft)
    g = Tensor(rng.normal(size=x.shape[:-1] + (w_p.shape[1],)))
    runs = []
    for op in (nx.dual_linear, _masked_dual_linear):
        for t in inputs:
            t.zero_grad()
        out = op(x, w_p, w_a, use_p, ste_one(take_index_last(y_soft, hard)))
        sum_all(mul(out, g)).backward()
        runs.append([out.data.tobytes()] + [t.grad.tobytes() for t in inputs])
    return runs


@pytest.mark.parametrize("seed", range(5))
def test_dual_linear_bit_equal_to_masked_form(seed):
    rng = np.random.default_rng(seed)
    runs = _straight_through_runs(rng, *_dual_linear_inputs(rng))
    assert runs[0] == runs[1]


def test_dual_linear_without_multiplier_equals_unit_multiplier():
    """No multiplier gives the value and (x, w_p, w_a) gradients of a multiplier of ones."""
    rng = np.random.default_rng(22)
    x, w_p, w_a, _, use_p = _dual_linear_inputs(rng)
    g = rng.normal(size=x.shape[:-1] + (w_p.shape[1],))
    ones = Tensor(np.ones(x.shape[:-1] + (1,)), requires_grad=True)
    bare = _run_op(lambda *a: nx.dual_linear(*a, use_p), (x, w_p, w_a), g)
    unit = _run_op(lambda *a: nx.dual_linear(*a, use_p, ones), (x, w_p, w_a), g)
    assert [a.tobytes() for a in bare] == [a.tobytes() for a in unit]


@pytest.mark.parametrize("grad", ["no_grad", "ste_one"])
@pytest.mark.parametrize("rows", ["mixed", "all primary", "all auxiliary"])
@pytest.mark.parametrize("sizes", [{}, {"B": 1, "N": 64, "k": 64, "n": 64}], ids=["tiny", "desk"])
def test_dual_linear_without_multiplier_under_no_grad_bit_equal_to_masked_form(rows, sizes, grad):
    """Picking rows of x @ w_p and x @ w_a gives the masked form's value bit for bit.

    With gradients on and a straight-through multiplier (``ste_one``) every
    gradient is bit-equal to the masked form's too.
    """
    rng = np.random.default_rng(23)
    x, w_p, w_a, routing, use_p = _dual_linear_inputs(rng, **sizes)
    use_p = {"mixed": use_p, "all primary": np.ones_like(use_p),
             "all auxiliary": np.zeros_like(use_p)}[rows]
    if grad == "ste_one":
        runs = _straight_through_runs(rng, x, w_p, w_a, routing, use_p)
        assert runs[0] == runs[1]
        return
    with nx.no_grad():
        bare = nx.dual_linear(x, w_p, w_a, use_p)
        masked = _masked_dual_linear(x, w_p, w_a, use_p, Tensor(np.ones(x.shape[:-1] + (1,))))
    assert bare._backward is None
    assert bare.data.tobytes() == masked.data.tobytes()


# ---------------------------------------------------------------------------
# fused block kernels against the node pairs they replace
# ---------------------------------------------------------------------------


def _run_op(op, inputs, g):
    """op(*inputs)'s output and the gradients of sum(out * g) w.r.t. ``inputs``."""
    for t in inputs:
        t.zero_grad()
    out = op(*inputs)
    sum_all(mul(out, Tensor(g))).backward()
    return [out.data] + [t.grad for t in inputs]


def _leaves(rng, *shapes):
    return [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]


def _matmul_add_bias(x, w, b, g):
    """A shared-rhs matmul node then a bias node, value and (x, w, b) gradients."""
    k, n = w.shape
    y = np.matmul(x, w) + b
    gx = np.matmul(g, np.swapaxes(w, -1, -2))
    gw = x.reshape(-1, k).T @ g.reshape(-1, n) if x.ndim > 2 else np.matmul(x.T, g)
    return y, gx, gw, g.reshape(-1, n).sum(axis=0)


@pytest.mark.parametrize("shape", [(16, 64), (16, 64, 64), (3, 5, 7)])
def test_linear_bit_equal_to_matmul_and_bias(shape):
    rng = np.random.default_rng(len(shape) + shape[-1])
    x, w, b = _leaves(rng, shape, (shape[-1], 24), (24,))
    g = rng.normal(size=shape[:-1] + (24,))
    got = _run_op(nx.linear, (x, w, b), g)
    expect = _matmul_add_bias(x.data, w.data, b.data, g)
    assert all(np.array_equal(a, e) for a, e in zip(got, expect))


@pytest.mark.parametrize("shape", [(1, 64, 64), (16, 64, 64)])
def test_ada_layer_norm_bit_equal_to_layer_norm_and_modulate(shape):
    rng = np.random.default_rng(shape[0] + 1)
    d = shape[-1]
    x, gain, bias = _leaves(rng, shape, (d,), (d,))
    sc, sh = _leaves(rng, shape[:-2] + (d,), shape[:-2] + (d,))
    x.data *= 3.0
    g = rng.normal(size=shape)
    got = _run_op(nx.ada_layer_norm, (x, gain, bias, sc, sh), g)
    # layer_norm node (mean/var form, bit-equal to the kernel), then modulate node
    scale = 1.0 + sc.data[..., None, :]
    normed, gx, ggain, gbias = _layer_norm_mean_var_form(x.data, gain.data, bias.data, g * scale)
    expect = [normed * scale + sh.data[..., None, :], gx, ggain, gbias,
              (g * normed).sum(axis=-2), g.sum(axis=-2)]
    assert all(np.array_equal(a, e) for a, e in zip(got, expect))


@pytest.mark.parametrize("shape", [(1, 64, 64), (16, 64, 64)])
def test_layer_norms_bit_equal_to_separate_layer_norms(shape):
    """Shared statistics give the values and every gradient of one layer_norm per pair.

    ``x`` is also read by a third node, as the residual stream of a routed
    block is (router pre-norm, ``ln_ca``, residual add), so the order in
    which its three gradient terms are summed is pinned too.
    """
    rng = np.random.default_rng(shape[0] + 3)
    d = shape[-1]
    x, g1, b1, g2, b2 = _leaves(rng, shape, (d,), (d,), (d,), (d,))
    x.data *= 3.0
    w1, w2, w3 = (Tensor(rng.normal(size=shape)) for _ in range(3))
    runs = []
    for norms in (lambda: nx.layer_norms(x, (g1, b1), (g2, b2)),
                  lambda: (nx.layer_norm(x, g1, b1), nx.layer_norm(x, g2, b2))):
        for t in (x, g1, b1, g2, b2):
            t.zero_grad()
        y1, y2 = norms()
        loss = add(add(sum_all(mul(y1, w1)), sum_all(mul(y2, w2))),
                      sum_all(mul(x, w3)))
        loss.backward()
        runs.append([y1.data.tobytes(), y2.data.tobytes()]
                    + [t.grad.tobytes() for t in (x, g1, b1, g2, b2)])
    assert runs[0] == runs[1]
    normed, _, ggain, gbias = _layer_norm_mean_var_form(x.data, g2.data, b2.data, w2.data)
    assert runs[0][1] == normed.tobytes()
    assert runs[0][5:] == [ggain.tobytes(), gbias.tobytes()]


@pytest.mark.parametrize("shape", [(1, 64, 64), (16, 64, 64)])
def test_gated_add_bit_equal_to_gate_and_add(shape):
    rng = np.random.default_rng(shape[0] + 2)
    z, x, gate = _leaves(rng, shape, shape, shape[:-2] + shape[-1:])
    g = rng.normal(size=shape)
    got = _run_op(nx.gated_add, (z, x, gate), g)
    gb = gate.data[..., None, :]
    expect = [z.data + x.data * gb, g, g * gb, (g * x.data).sum(axis=-2)]
    assert all(np.array_equal(a, e) for a, e in zip(got, expect))


def _split_attend_merge(q, k, v, heads, g):
    """Head split nodes, a (B, H, N, d) attention node and merge nodes, in plain numpy."""
    B, N, width = q.shape
    dh = width // heads
    qh, kh, vh = (np.ascontiguousarray(t.reshape(B, N, heads, dh).transpose(0, 2, 1, 3))
                  for t in (q, k, v))
    sc = 1.0 / np.sqrt(dh)
    scores = np.matmul(qh, kh.swapaxes(-1, -2)) * sc
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    attn = e / e.sum(axis=-1, keepdims=True)
    out = np.ascontiguousarray(np.matmul(attn, vh).transpose(0, 2, 1, 3)).reshape(B, N, width)
    gh = g.reshape(B, N, heads, dh).transpose(0, 2, 1, 3)
    gattn = np.matmul(gh, vh.swapaxes(-1, -2))
    gv = np.matmul(attn.swapaxes(-1, -2), gh)
    gs = attn * (gattn - (gattn * attn).sum(axis=-1, keepdims=True))
    gq = np.matmul(gs, kh) * sc
    gk = np.matmul(gs.swapaxes(-1, -2), qh) * sc
    return [out] + [t.transpose(0, 2, 1, 3).reshape(B, N, width) for t in (gq, gk, gv)]


@pytest.mark.parametrize("shape,heads", [((16, 64, 64), 4), ((2, 8, 12), 3)])
def test_self_attention_bit_equal_to_split_attend_merge(shape, heads):
    rng = np.random.default_rng(shape[-1])
    q, k, v = _leaves(rng, shape, shape, shape)
    g = rng.normal(size=shape)
    got = _run_op(lambda *a: nx.self_attention(*a, heads), (q, k, v), g)
    expect = _split_attend_merge(q.data, k.data, v.data, heads, g)
    assert all(np.array_equal(a, e) for a, e in zip(got, expect))


def _router_score_inputs(rng, V, B=2, N=6, heads=3, dh=4):
    return _leaves(rng, (B, N, heads * dh), (B, V, heads * dh), (heads,)), heads


def test_router_scores_gradients_match_finite_differences():
    rng = np.random.default_rng(23)
    (q, keys, w_agg), heads = _router_score_inputs(rng, V=3)
    w = rng.normal(size=(2, 6, 3))

    def f():
        return sum_all(mul(nx.router_scores(q, keys, w_agg, heads), Tensor(w)))

    report = grad_check(f, {"q": q, "keys": keys, "w_agg": w_agg})
    assert max(report.values()) < 1e-4, report


@pytest.mark.parametrize("V", [1, 2, 5])
def test_router_scores_bit_equal_to_node_chain(V):
    """Output and the q, keys, w_agg gradients byte-equal to the seven-node chain."""
    rng = np.random.default_rng(30 + V)
    B, N, heads, dh = (int(n) for n in rng.integers(1, 6, size=4))
    (q, keys, w_agg), heads = _router_score_inputs(rng, V, B, N, heads, dh)
    g = rng.normal(size=(B, N, V))
    runs = [_run_op(lambda *a: op(*a, heads), (q, keys, w_agg), g)
            for op in (nx.router_scores, router_score_chain)]
    assert [a.tobytes() for a in runs[0]] == [a.tobytes() for a in runs[1]]


@pytest.mark.parametrize("mixed", [False, True])
def test_routed_attention_one_stream_accumulates_one_gradient_set(monkeypatch, mixed):
    """A call passing one stream twice makes one accum_grad per input, no zero
    arrays, and the gradients of a two-stream call on equal copies, summed."""
    rng = np.random.default_rng(41 + mixed)
    B, N, V, S, H, dh = 2, 7, 3, 4, 2, 3
    q, k, v = _leaves(rng, (B, N, H * dh), (B, V, S, H * dh), (B, V, S, H * dh))
    v_star = rng.integers(0, V, size=(B, N))
    use_p = rng.random((B, N)) < 0.5 if mixed else np.ones((B, N), dtype=bool)
    g = rng.normal(size=(B, N, H * dh))
    out = nx.routed_attention(q, q, (k, v), (k, v), v_star, use_p, H)
    calls = []
    accum = Tensor.accum_grad
    monkeypatch.setattr(Tensor, "accum_grad", lambda t, a: (calls.append(a), accum(t, a))[1])
    out._backward(g)
    monkeypatch.undo()
    assert len(calls) == 3 and all(a.any() for a in calls)

    twin = [[Tensor(t.data.copy(), requires_grad=True) for t in (q, k, v)] for _ in range(2)]
    (qp, kp, vp), (qa, ka, va) = twin
    two = nx.routed_attention(qp, qa, (kp, vp), (ka, va), v_star, use_p, H)
    two._backward(g)
    assert out.data.tobytes() == two.data.tobytes()
    for one, p, a in zip((q, k, v), twin[0], twin[1]):
        assert one.grad.tobytes() == (p.grad + a.grad).tobytes()


# ---------------------------------------------------------------------------
# backward consumes its graph
# ---------------------------------------------------------------------------


def _routed_model(seed: int = 0) -> Model:
    return Model.create(dataclasses.replace(micro_run_config().model, arch="routed"), seed)


def _routed_loss(model: Model, seed: int = 0):
    """A routed flow-matching loss of ``model`` on the micro config and its info."""
    cfg = micro_run_config()
    rng = np.random.default_rng(seed)
    B, V, m = cfg.train.batch, 3, cfg.model
    batch = Batch(z0=rng.normal(size=(B, m.tokens, m.model_dim)),
                  feats=rng.normal(size=(B, V, m.patches, m.feat_dim)),
                  primary_index=np.array([0, 1, -1, 2])[:B])
    opts = ForwardOptions(mode="train", run_seed=seed, step=3)
    return flow_matching_loss(model, batch, rng.random(B), rng.normal(size=batch.z0.shape), opts)


def _grad_bytes(model) -> int:
    return sum(p.grad.nbytes for p in model.params.values() if p.grad is not None)


def test_backward_consumes_its_graph():
    """After backward little beyond the gradients stays alive, and the sweep never
    holds much more than the forward did."""
    model = _routed_model()
    _routed_loss(model)  # fills the positional-embedding cache outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss, info = _routed_loss(model)
        forward = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        loss.backward()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = after - base - _grad_bytes(model)
    assert held < 0.25 * forward, (held, forward)
    assert peak - base < 1.25 * forward, (peak - base, forward)


def _closure_array_bytes(node) -> int:
    """Bytes of the ndarrays a node's backward closure holds, apart from its parents' data."""
    parents = {id(p.data) for p in node._parents}
    held = [cell.cell_contents for cell in node._backward.__closure__]
    return sum(a.nbytes for a in held if isinstance(a, np.ndarray) and id(a) not in parents)


def test_backward_closures_keep_no_rebuildable_arrays():
    """Norms keep per-row statistics (and the modulation scale), self_attention its
    probabilities and router_scores its split keys and scores: nothing a backward
    can rebuild in one pass over its inputs."""
    rng = np.random.default_rng(7)
    B, N, d, H, V = 16, 64, 64, 4, 4
    x, gain, bias, gain2, bias2 = _leaves(rng, (B, N, d), (d,), (d,), (d,), (d,))
    sc, sh = _leaves(rng, (B, d), (B, d))
    q, k, v = _leaves(rng, (B, N, d), (B, N, d), (B, N, d))
    keys, w_agg = _leaves(rng, (B, V, d), (H,))
    row = B * N * 8                               # one float64 per row
    probs = B * H * N * N * 8
    kh_scores = B * H * (d // H) * V * 8 + B * H * N * V * 8
    cases = [
        ([nx.layer_norm(x, gain, bias)], 2 * row),
        (list(nx.layer_norms(x, (gain, bias), (gain2, bias2))), 2 * row),
        ([nx.ada_layer_norm(x, gain, bias, sc, sh)], 2 * row + B * d * 8),
        ([nx.rms_norm(x, gain)], row),
        ([nx.self_attention(q, k, v, H)], probs),
        ([nx.router_scores(q, keys, w_agg, H)], kh_scores),
    ]
    for nodes, allowance in cases:
        for node in nodes:
            held = _closure_array_bytes(node)
            assert held <= allowance, (node._backward.__qualname__, held, allowance)


def _keep_graph_backward(tape, root):
    """``ComputationTape.backward`` without the release: every node keeps its gradient
    and edges."""
    root.grad = np.ones_like(root.data)
    for node in reversed(tape.nodes):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def test_backward_releases_op_outputs_and_keeps_leaf_gradients(monkeypatch):
    here = os.getpid()
    # per process (calling, worker), in memory the worker shares: the op outputs
    # of the tapes it swept, and how many of them still hold a gradient or edges
    swept, held = shared_ints((2, 2))
    sweep = nx.ComputationTape.backward

    def recording(tape, root):
        nodes = [n for n in tape.nodes if n._parents]
        sweep(tape, root)
        shard = int(os.getpid() != here)
        swept[shard] += len(nodes)
        held[shard] += sum(n.grad is not None or n._parents != () for n in nodes)

    monkeypatch.setattr(nx.ComputationTape, "backward", recording)
    model = _routed_model()
    with M.sharding(model.params):      # forked after the patch: the worker's sweeps record too
        loss, info = _routed_loss(model)
        loss.backward()
    assert swept.all() and not held.any(), (swept, held)
    grads = {k: p.grad for k, p in model.params.items()}
    assert all(g is not None for g in grads.values())

    monkeypatch.setattr(nx.ComputationTape, "backward", _keep_graph_backward)
    kept_model = _routed_model()
    with M.sharding(kept_model.params):     # so the worker keeps its graph too
        kept_loss, kept_info = _routed_loss(kept_model)
        kept_loss.backward()
    for k, p in kept_model.params.items():
        assert np.array_equal(grads[k], p.grad), k
    assert loss.data.tobytes() == kept_loss.data.tobytes()
    assert info.mean_entropy() == kept_info.mean_entropy()
    assert info.hard_trace().shape[0] == micro_run_config().model.blocks


def _step_bytes(model, seed: int = 0):
    """One swept step of ``_routed_loss`` on ``model``: loss, routing and gradient bytes."""
    model.zero_grads()
    loss, info = _routed_loss(model, seed)
    loss.backward()
    return (loss.data.tobytes(), info.hard_trace().tobytes(),
            {k: None if p.grad is None else p.grad.tobytes() for k, p in model.params.items()})


def _sharded_step_bytes(model, seed: int = 0):
    """``_step_bytes`` in a sharding scope of its own on ``model``'s parameters."""
    with M.sharding(model.params):
        return _step_bytes(model, seed)


def _inline_velocity(model, z_t, t, feats, primary, opts, merge: bool = True):
    """The two row shards of a training forward, both run here one after the other.

    The second runs on leaf twins of the parameters (their ``data``, their own
    ``grad``), and its sweep adds the twins' gradients to the parameters' in
    parameter order when ``merge``, as the worker's gradients are added.
    """
    cfg, (B, N, _), V = model.cfg, z_t.shape, feats.shape[1]
    noise = [M.routing_noise(opts.run_seed, opts.step, l, (B, N, V)) for l in range(cfg.blocks)]
    twins = {k: Tensor(p.data, requires_grad=p.requires_grad) for k, p in model.params.items()}
    (first, _), (second, _) = (
        M._rows(params, cfg, z_t[r], t[r], feats[r], primary[r], opts, [n[r] for n in noise])
        for params, r in ((model.params, slice(0, B // 2)), (twins, slice(B // 2, B))))

    def sweep_second(g):
        nx.sweep(second, g)

        def finish(merge_now):
            for k, p in model.params.items():
                if merge and merge_now and twins[k].grad is not None:
                    p.accum_grad(twins[k].grad)

        return finish

    return nx.gather_rows(first, second.data, sweep_second)


def _micro_case(seed: int = 2):
    cfg = micro_run_config()
    rng = np.random.default_rng(seed)
    B, V, m = cfg.train.batch, 3, cfg.model
    z_t, t = rng.normal(size=(B, m.tokens, m.model_dim)), rng.random(B)
    feats, target = rng.normal(size=(B, V, m.patches, m.feat_dim)), rng.normal(size=z_t.shape)
    model = _routed_model(seed=seed)
    randomize_zero_init(model.params, rng)
    opts = ForwardOptions(mode="train", run_seed=seed, step=3)
    return model, (z_t, t, feats, np.array([0, 1, -1, 2]), opts), target


def test_worker_process_forward_and_sweep_match_inline_bit_exactly():
    """The second row shard runs its forward and its sweep in another process, and the
    velocity and every gradient are the bytes of running both shards here."""
    outputs = []
    for run in ("worker", "inline"):
        model, args, target = _micro_case()
        if run == "worker":
            with M.sharding(model.params) as worker:
                assert worker.process.pid != os.getpid()
                vel, _ = model.velocity(*args)
                assert not vel._parents and vel._backward is not None   # a gather_rows root
                nx.mse(vel, Tensor(target)).backward()
        else:
            vel = _inline_velocity(model, *args)
            nx.mse(vel, Tensor(target)).backward()
        outputs.append((vel.data.tobytes(), {k: p.grad.tobytes() for k, p in model.params.items()}))
    assert outputs[0] == outputs[1]
    grads = outputs[0][1]
    assert sum(np.frombuffer(g).any() for g in grads.values()) > len(grads) // 2


def test_a_failed_worker_shard_raises_after_the_calling_shard_finishes(monkeypatch):
    want = _sharded_step_bytes(_routed_model())
    model, here, rows, finished, failed = _routed_model(), os.getpid(), M._rows, [], []

    def rows_failing_once_in_the_worker(*args):
        if os.getpid() != here and not failed:
            failed.append(True)          # the worker's copy of the list
            raise FloatingPointError("bad shard")
        out = rows(*args)
        finished.append(os.getpid())
        return out

    monkeypatch.setattr(M, "_rows", rows_failing_once_in_the_worker)
    with M.sharding(model.params):      # forked after the patch
        with pytest.raises(FloatingPointError, match="bad shard"):
            _routed_loss(model)
        assert finished == [here]
        assert _step_bytes(model) == want     # the same worker runs the next step as a fresh one


def test_a_failed_worker_sweep_raises_after_the_calling_sweep_and_merges_nothing(
        monkeypatch):
    model, args, target = _micro_case()
    nx.mse(_inline_velocity(model, *args, merge=False), Tensor(target)).backward()
    calling_shard_only = {k: p.grad for k, p in model.params.items()}
    want = _sharded_step_bytes(_micro_case()[0])
    here, sweep, finished, failed = os.getpid(), nx.sweep, [], []

    def sweep_failing_once_in_the_worker(root, g):
        if os.getpid() != here and not failed:
            failed.append(True)
            raise FloatingPointError("bad sweep")
        sweep(root, g)
        finished.append(os.getpid())

    monkeypatch.setattr(nx, "sweep", sweep_failing_once_in_the_worker)
    model, args, target = _micro_case()
    with M.sharding(model.params):
        vel, _ = model.velocity(*args)
        with pytest.raises(FloatingPointError, match="bad sweep"):
            nx.mse(vel, Tensor(target)).backward()
        assert finished == [here]
        for k, p in model.params.items():    # the calling shard's gradients, none of the worker's
            want_k = calling_shard_only[k]
            assert (p.grad is None) == (want_k is None), k
            assert want_k is None or p.grad.tobytes() == want_k.tobytes(), k
        assert _step_bytes(model) == want    # the worker's reply was taken: in step


def test_a_failed_calling_sweep_waits_for_the_worker_and_merges_nothing(monkeypatch):
    want = _sharded_step_bytes(_micro_case()[0])
    here, sweep, failed = os.getpid(), nx.sweep, []

    def sweep_failing_once_here(root, g):
        if os.getpid() == here and not failed:
            failed.append(True)
            raise FloatingPointError("bad sweep")
        sweep(root, g)

    monkeypatch.setattr(nx, "sweep", sweep_failing_once_here)
    model, args, target = _micro_case()
    with M.sharding(model.params):
        vel, _ = model.velocity(*args)
        with pytest.raises(FloatingPointError, match="bad sweep"):
            nx.mse(vel, Tensor(target)).backward()
        assert all(p.grad is None for p in model.params.values())
        assert _step_bytes(model) == want    # the worker's reply was taken: in step


def test_forwards_without_a_backward_leave_the_worker_usable():
    """A diverged step and a finite-difference probe never sweep their forward: the
    worker drops that graph at the next forward."""
    want = _sharded_step_bytes(_routed_model())
    model = _routed_model()
    with M.sharding(model.params):
        for _ in range(3):
            _routed_loss(model)
        assert _step_bytes(model) == want


def test_a_backward_through_a_replaced_graph_raises_and_sweeps_nothing():
    want = _sharded_step_bytes(_routed_model())
    model = _routed_model()
    with M.sharding(model.params):
        old, _ = _routed_loss(model)
        new, _ = _routed_loss(model)
        with pytest.raises(RuntimeError, match="no longer holds"):
            old.backward()
        assert all(p.grad is None for p in model.params.values())
        new.backward()
    assert {k: None if p.grad is None else p.grad.tobytes()
            for k, p in model.params.items()} == want[2]


def test_a_dead_worker_fails_its_scope_and_the_next_scope_forks_another():
    want = _sharded_step_bytes(_routed_model())
    model = _routed_model()
    with pytest.raises(RuntimeError, match="died"):
        with M.sharding(model.params) as worker:
            loss, _ = _routed_loss(model)
            dead = worker.process
            os.kill(dead.pid, signal.SIGKILL)
            dead.join(10)
            with pytest.raises(RuntimeError, match=f"pid {dead.pid}\\) died"):
                loss.backward()
            assert all(p.grad is None for p in model.params.values())
            _routed_loss(model)          # every later exchange of the scope fails too
    assert not multiprocessing.active_children()
    with M.sharding(model.params) as worker:
        assert worker.process.pid != dead.pid
        assert _step_bytes(model) == want


def test_threads_in_copies_of_a_scope_take_turns_on_its_worker():
    """Threads that run in copies of one context share its worker and take turns on it:
    every forward gets its own rows back, and every step gets its own gradients or
    raises because the other thread's forward replaced its graph."""
    model = _routed_model()
    with M.sharding(model.params):
        want = _step_bytes(model)
        probe = _routed_loss(model, seed=1)[0].data.tobytes()
        outcomes = []

        def train():
            for _ in range(6):
                try:
                    outcomes.append(_step_bytes(model) == want)
                except RuntimeError as exc:
                    outcomes.append("no longer holds" in str(exc))

        def forward():      # forwards only: the two threads never write the same gradients
            for _ in range(6):
                outcomes.append(_routed_loss(model, seed=1)[0].data.tobytes() == probe)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=contextvars.copy_context().run, args=(fn,))
                       for fn in (train, forward)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert len(outcomes) == 12 and all(outcomes), outcomes
        assert _step_bytes(model) == want


def test_a_sharding_scope_needs_linux(monkeypatch):
    monkeypatch.setattr(sys, "platform", "darwin")
    with pytest.raises(RuntimeError, match="Linux only, not darwin"):
        with M.sharding(_routed_model().params):
            pass
    assert not multiprocessing.active_children()


def test_a_process_forked_inside_a_scope_does_not_use_its_worker():
    """A forked child inherits the scope's binding, but not the worker: it runs one graph."""
    model, args, _ = _micro_case()
    one_graph = shared_ints(1)

    def child():
        vel, _ = model.velocity(*args)
        one_graph[0] = bool(vel._parents)

    with M.sharding(model.params):
        process = multiprocessing.get_context("fork").Process(target=child)
        process.start()
        process.join(60)
    assert process.exitcode == 0 and one_graph[0] == 1


# a training loop in a fresh interpreter: argv[1] steps (or forever if negative),
# printing the worker's pid after the first
_TRAINING = """
import itertools, sys
import numpy as np
from roar3d import model as M
from roar3d.config import ModelConfig
from roar3d.model import ForwardOptions, Model
from roar3d.trainer import AdamW, Batch, flow_matching_loss
cfg = ModelConfig(blocks=2, grid=2, model_dim=16, heads=2, head_dim=4, patches=4, feat_dim=8)
model, rng = Model.create(cfg, 0), np.random.default_rng(0)
opt, steps = AdamW(model.params), int(sys.argv[1])
with M.sharding(model.params) as worker:
    for step in range(steps) if steps >= 0 else itertools.count():
        batch = Batch(rng.normal(size=(4, cfg.tokens, cfg.model_dim)),
                      rng.normal(size=(4, 2, cfg.patches, cfg.feat_dim)), np.array([0, 1, -1, 0]))
        model.zero_grads()
        loss, _ = flow_matching_loss(model, batch, rng.random(4),
                                     rng.normal(size=batch.z0.shape),
                                     ForwardOptions(mode="train", step=step))
        loss.backward()
        opt.step(1e-3)
        if step == 0:
            print(worker.process.pid, flush=True)
"""


def _training(steps: int, **kwargs):
    src = str(Path(M.__file__).resolve().parents[1])
    return [sys.executable, "-c", _TRAINING, str(steps)], {
        "env": {**os.environ, "PYTHONPATH": src}, "text": True, **kwargs}


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def test_a_process_that_trains_and_exits_leaves_no_worker():
    cmd, kwargs = _training(2, capture_output=True, timeout=120, check=True)
    pid = int(subprocess.run(cmd, **kwargs).stdout.split()[0])
    assert pid > 0 and not _running(pid)


def test_a_killed_caller_leaves_no_worker():
    cmd, kwargs = _training(-1, stdout=subprocess.PIPE)
    caller = subprocess.Popen(cmd, **kwargs)
    try:
        pid = int(caller.stdout.readline())
        assert _running(pid)
        time.sleep(0.3)                   # mid-training
    finally:
        caller.kill()
        caller.wait(30)
        caller.stdout.close()
    deadline = time.monotonic() + 10
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(pid)


def test_second_backward_through_a_spent_graph_raises():
    model = _routed_model()
    with M.sharding(model.params):
        loss, _ = _routed_loss(model)
        loss.backward()
        with pytest.raises(RuntimeError, match="consumed"):
            loss.backward()
    x = Tensor(np.ones(3), requires_grad=True)
    y = scale(x, 2.0)
    sum_all(y).backward()
    with pytest.raises(RuntimeError, match="consumed"):
        sum_all(mul(y, y)).backward()
    assert np.array_equal(x.grad, np.full(3, 2.0))


# ---------------------------------------------------------------------------
# binary checkpoint container
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "blocks.0.w": rng.normal(size=(4, 7)),
        "scalarish": rng.normal(size=(1,)),
        "deep.name.with.dots": rng.normal(size=(2, 3, 5)),
    }
    path = tmp_path / "model.bin"
    ckpt.save_tensors(path, tensors)
    loaded = ckpt.load_tensors(path)
    assert list(loaded) == list(tensors)
    for k in tensors:
        assert np.array_equal(loaded[k], tensors[k])


def test_checkpoint_keeps_every_rank_and_empty_shape(tmp_path):
    """A rank-0 array loads back rank 0, not as shape (1,)."""
    tensors = {"scalar": np.array(3.0), "empty": np.zeros((0, 3)),
               "matrix": np.arange(6.0).reshape(2, 3)}
    ckpt.save_tensors(tmp_path / "shapes.bin", tensors)
    loaded = ckpt.load_tensors(tmp_path / "shapes.bin")
    assert {k: v.shape for k, v in loaded.items()} == {"scalar": (), "empty": (0, 3),
                                                        "matrix": (2, 3)}
    for k in tensors:
        assert np.array_equal(loaded[k], tensors[k])


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(IOError):
        ckpt.load_tensors(path)


def test_checkpoint_writes_identical_bytes(tmp_path):
    tensors = {"a": np.arange(6.0).reshape(2, 3)}
    ckpt.save_tensors(tmp_path / "one.bin", tensors)
    ckpt.save_tensors(tmp_path / "two.bin", tensors)
    assert (tmp_path / "one.bin").read_bytes() == (tmp_path / "two.bin").read_bytes()


def _tensors_file(tmp_path):
    path = tmp_path / "model.bin"
    ckpt.save_tensors(path, {"blocks.0.w": np.arange(6.0).reshape(2, 3), "b": np.ones(4)})
    return path, path.read_bytes()


def test_checkpoint_truncated_at_any_offset_raises_checkpoint_error(tmp_path):
    """Every cut - header, name, dims or payload - is a CheckpointError."""
    path, blob = _tensors_file(tmp_path)
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(ckpt.CheckpointError):
            ckpt.load_tensors(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path, blob = _tensors_file(tmp_path)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(ckpt.CheckpointError):
        ckpt.load_tensors(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_values(tmp_path, bad):
    path = tmp_path / "model.bin"
    ckpt.save_tensors(path, {"a": np.ones(3), "b": np.array([[0.0, bad]])})
    with pytest.raises(ckpt.CheckpointError, match="'b'"):
        ckpt.load_tensors(path)


# ---------------------------------------------------------------------------
# per-context state
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _entered_in_other_thread(make):
    """Hold ``with make()`` open in a second thread for the body of this block."""
    entered, leave, held = threading.Event(), threading.Event(), []

    def hold():
        with make() as ctx:
            held.append(ctx)
            entered.set()
            leave.wait(10)

    thread = threading.Thread(target=hold)
    thread.start()
    try:
        assert entered.wait(10)
        yield held[0]
    finally:
        leave.set()
        thread.join(10)
    assert not thread.is_alive()


def test_no_grad_in_another_thread_keeps_this_threads_graph():
    with _entered_in_other_thread(nx.no_grad):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        sum_all(nx.matmul(Tensor(np.eye(2)), w)).backward()
    assert w.grad is not None
    assert np.array_equal(w.grad, np.ones((2, 2)))


@pytest.mark.parametrize("module, absent", [
    ("roar3d.numerics", ("roar3d.evaluation",)),  # the package itself imports nothing
    ("roar3d.cli", ()),                           # imports every module
], ids=["numerics", "cli"])
def test_importing_loads_no_scipy(module, absent):
    """A submodule brings only its own imports, and no module of roar3d imports scipy."""
    src = str(Path(nx.__file__).resolve().parents[1])
    code = (f"import {module}, sys; "
            f"print(sorted(m for m in sys.modules "
            f"if m.split('.')[0] == 'scipy' or m in {absent!r}))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert run.stdout.strip() == "[]"


def test_third_party_imports_equal_declared_dependencies():
    """``[project] dependencies`` names exactly the packages that ``src/roar3d`` imports."""
    tomllib = pytest.importorskip("tomllib")
    package = Path(nx.__file__).resolve().parent
    imported = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"roar3d"}
    project = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0]
                for dep in project["dependencies"]}
    assert sorted(third_party) == sorted(declared)


# grad_check is the finite-difference ground truth that demo 01 and the tests run
_UNUSED_EXPORTS = {"grad_check"}


def test_every_numerics_export_is_used_in_src():
    """Each name of ``numerics.__all__`` is read by ``src/roar3d`` outside its own definition.

    A read is a bare name in ``numerics.py`` outside the top-level definition
    of that name, or, in another module, an attribute of the imported module
    (``nx.matmul``) or a name imported from it.
    """
    package = Path(nx.__file__).resolve().parent
    used = set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        home = path.name == "numerics.py"
        modules, names = set(), {n: n for n in nx.__all__} if home else {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name == "numerics":
                        modules.add(alias.asname or alias.name)
                    elif node.module == "numerics":
                        names[alias.asname or alias.name] = alias.name
        for top in tree.body:
            reads = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id in names:
                    reads.add(names[node.id])
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id in modules):
                    reads.add(node.attr)
            used |= reads - {getattr(top, "name", None) if home else None}
    assert sorted(set(nx.__all__) - used) == sorted(_UNUSED_EXPORTS)
