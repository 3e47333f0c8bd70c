"""Autodiff core: oracle values, finite-difference checks, determinism."""

import contextlib
import threading

import numpy as np
import pytest

import roar3d.numerics as nx
from roar3d import checkpoint as ckpt
from roar3d.numerics import Tensor, grad_check


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

    loss = nx.sum_all(nx.mul(nx.matmul(a, b), Tensor(w)))
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


def test_softmax_symmetry():
    out = nx.softmax(Tensor([0.0, 0.0]))
    assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_softmax_large_inputs_stable():
    out = nx.softmax(Tensor([1000.0, 1000.0, 1000.0]))
    assert np.all(np.isfinite(out.data))
    assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)


def test_softmax_against_longdouble_oracle():
    x = np.array([1.0, 2.0, 3.0])
    hi = np.exp(x.astype(np.longdouble))
    expect = (hi / hi.sum()).astype(np.float64)
    out = nx.softmax(Tensor(x))
    assert np.allclose(out.data, expect, rtol=1e-12, atol=0)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.normal(scale=5.0, size=(4, 6))
        y = nx.softmax(Tensor(x)).data
        assert np.abs(y.sum(axis=-1) - 1.0).max() < 1e-12
        shifted = nx.softmax(Tensor(x + rng.normal() * np.ones((4, 6)))).data
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


# ---------------------------------------------------------------------------
# grad_check harness
# ---------------------------------------------------------------------------


def test_grad_check_square():
    x = Tensor(np.array([3.0]), requires_grad=True)
    report = grad_check(lambda: nx.sum_all(nx.mul(x, x)), {"x": x})
    x.zero_grad()
    loss = nx.sum_all(nx.mul(x, x))
    loss.backward()
    assert np.allclose(x.grad, 6.0)
    assert report["x"] < 1e-8


def test_grad_check_softmax_sum_is_constant():
    x = Tensor(np.array([0.3, -1.2, 2.0]), requires_grad=True)
    x.zero_grad()
    nx.sum_all(nx.softmax(x)).backward()
    assert np.abs(x.grad).max() < 1e-15
    report = grad_check(lambda: nx.sum_all(nx.softmax(x)), {"x": x})
    assert report["x"] < 1e-4  # FD of a constant is pure roundoff noise


def test_grad_check_rejects_bad_h():
    x = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ValueError):
        grad_check(lambda: nx.sum_all(x), {"x": x}, h=1e-2)


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
    ln_bias = mk(5)
    rows = mk(B, N, 1)
    x3 = mk(B, N, D)
    sc, sh = mk(B, D), mk(B, D)
    w_h = mk(H)
    scores = mk(B, H, N, V)
    q4 = mk(B, H, N, dh)
    k4, v4 = mk(B, H, N, dh), mk(B, H, N, dh)
    qp, qa = mk(B, N, H, dh), mk(B, N, H, dh)
    kp, vp = mk(B, V, S, H, dh), mk(B, V, S, H, dh)
    ka, va = mk(B, V, S, H, dh), mk(B, V, S, H, dh)
    v_star = rng.integers(0, V, size=(B, N))
    use_p = rng.random((B, N)) < 0.5
    idx = rng.integers(0, V, size=(2, 3))
    yv = mk(2, 3, V)

    return [
        ("matmul", {"a": a2, "b": b2}, lambda: nx.matmul(a2, b2)),
        ("matmul_batched", {"a": ab, "b": bb}, lambda: nx.matmul(ab, bb)),
        ("matmul_shared_rhs", {"a": ab, "b": shared}, lambda: nx.matmul(ab, shared)),
        ("add", {"a": e1, "b": e2}, lambda: nx.add(e1, e2)),
        ("sub", {"a": e1, "b": e2}, lambda: nx.sub(e1, e2)),
        ("mul", {"a": e1, "b": e2}, lambda: nx.mul(e1, e2)),
        ("scale", {"a": e1}, lambda: nx.scale(e1, -1.7)),
        ("add_bias", {"a": e1, "b": bias}, lambda: nx.add_bias(e1, bias)),
        ("scale_rows", {"a": x3, "m": rows}, lambda: nx.scale_rows(x3, rows)),
        ("softmax", {"a": e1}, lambda: nx.softmax(e1)),
        ("layer_norm", {"a": e1, "g": bias, "b": ln_bias},
         lambda: nx.layer_norm(e1, bias, ln_bias)),
        ("rms_norm", {"a": e1, "g": bias}, lambda: nx.rms_norm(e1, bias)),
        ("silu", {"a": e1}, lambda: nx.silu(e1)),
        ("reshape_transpose", {"a": x3},
         lambda: nx.transpose(nx.reshape(x3, (B, N, 2, 2)), (0, 2, 1, 3))),
        ("slice_last", {"a": x3}, lambda: nx.slice_last(x3, 1, 3)),
        ("take_index_last", {"y": yv}, lambda: nx.take_index_last(yv, idx)),
        # ste_one is deliberately absent: its backward is the straight-through
        # surrogate, not the true (zero) derivative of its constant forward.
        ("modulate", {"x": x3, "sc": sc, "sh": sh}, lambda: nx.modulate(x3, sc, sh)),
        ("gate_mul", {"x": x3, "g": sc}, lambda: nx.gate_mul(x3, sc)),
        ("head_mix", {"s": scores, "w": w_h}, lambda: nx.head_mix(scores, w_h)),
        ("self_attention", {"q": q4, "k": k4, "v": v4}, lambda: nx.self_attention(q4, k4, v4)),
        ("routed_attention", {"qp": qp, "qa": qa, "kp": kp, "vp": vp, "ka": ka, "va": va},
         lambda: nx.routed_attention(qp, qa, (kp, vp), (ka, va), v_star, use_p)),
        ("mean_all", {"a": e1}, lambda: nx.mean_all(e1)),
    ]


def test_primitive_gradients_match_finite_differences_over_seeds():
    """Every primitive op, tape vs central differences, 100 seeds."""
    worst = {}
    for seed in range(100):
        rng = np.random.default_rng(seed)
        for name, params, build in _primitive_cases(rng):
            # random fixed projection makes the scalar sensitive to all outputs
            w = rng.normal(size=build().shape)
            report = grad_check(lambda: nx.sum_all(nx.mul(build(), Tensor(w))),
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
        h = nx.softmax(nx.matmul(a, b))
        loss = nx.mean_all(nx.mul(h, h))
        loss.backward()
        return a.grad.copy(), b.grad.copy()

    ga1, gb1 = run()
    ga2, gb2 = run()
    assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)


def test_ste_one_forward_is_exact_ones_backward_passthrough():
    y = Tensor(np.array([[0.3, 0.7], [0.9, 0.1]]), requires_grad=True)
    picked = nx.take_index_last(y, np.array([1, 0]))
    out = nx.ste_one(picked)
    assert np.array_equal(out.data, np.ones((2, 1)))
    w = np.array([[2.0], [-3.0]])
    nx.sum_all(nx.mul(out, Tensor(w))).backward()
    expect = np.zeros((2, 2))
    expect[0, 1] = 2.0
    expect[1, 0] = -3.0
    assert np.array_equal(y.grad, expect)


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
        nx.sum_all(nx.matmul(Tensor(np.eye(2)), w)).backward()
    assert w.grad is not None
    assert np.array_equal(w.grad, np.ones((2, 2)))

