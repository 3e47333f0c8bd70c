"""Dense float64 tensors with reverse-mode autodiff.

Just enough operations for attention stacks: matmul, norms, softmax, SiLU,
a couple of gather/broadcast helpers, and two fused attention kernels. The
design goals are auditability and determinism, not generality:

* everything is float64, row-major;
* no broadcasting beyond the documented cases (shared 2-D rhs in matmul,
  bias over the last axis, per-row scalars);
* backward passes are hand-written per op and verified against central
  finite differences (see :func:`grad_check` and the test suite).

Tensors are immutable after construction except through their owning graph;
forward/backward of one graph is single-threaded, independent graphs may run
on independent threads. ``no_grad`` acts on the current context only, so one
thread's inference does not switch off another's graph.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ComputationTape",
    "ShapeError",
    "no_grad",
    "matmul",
    "add",
    "sub",
    "mul",
    "scale",
    "add_bias",
    "scale_rows",
    "dual_linear",
    "scale_batch",
    "softmax",
    "layer_norm",
    "rms_norm",
    "silu",
    "reshape",
    "transpose",
    "slice_last",
    "take_index_last",
    "ste_one",
    "modulate",
    "gate_mul",
    "head_mix",
    "self_attention",
    "routed_attention",
    "mean_all",
    "sum_all",
    "mse",
    "grad_check",
]

LN_EPS = 1e-5
RMS_EPS = 1e-6


class ShapeError(ValueError):
    """Raised when operand shapes violate an op's contract."""


class Tensor:
    """A dense float64 array plus optional gradient buffer.

    Graph edges (`_parents`, `_backward`) are populated by the ops below;
    leaves created directly carry none.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def zero_grad(self) -> None:
        self.grad = None

    def accum_grad(self, g: np.ndarray) -> None:
        # Constants outside the graph never need gradient storage.
        if not (self.requires_grad or self._parents):
            return
        # g is kept, not copied, and may be shared with siblings: no backward
        # or optimizer writes into a gradient array in place
        self.grad = g if self.grad is None else self.grad + g

    def backward(self) -> None:
        """Reverse-mode sweep from this (scalar) tensor."""
        ComputationTape.trace(self).backward(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = self.name or "tensor"
        return f"Tensor({tag}, shape={self.shape}, grad={'yes' if self.grad is not None else 'no'})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_grad_enabled: ContextVar[bool] = ContextVar("grad_enabled", default=True)


class no_grad:
    """Context that skips graph construction (pure inference, same math)."""

    def __enter__(self):
        self._token = _grad_enabled.set(False)
        return self

    def __exit__(self, *exc):
        _grad_enabled.reset(self._token)


def _node(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled.get() and any(p.requires_grad or p._parents for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


class ComputationTape:
    """Reverse-topological schedule over a forward graph.

    ``trace`` collects every node reachable from the root exactly once, in a
    deterministic DFS order; ``backward`` walks the record in reverse so each
    node's backward fires exactly once, after all its consumers.
    """

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @staticmethod
    def trace(root: Tensor) -> "ComputationTape":
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        return ComputationTape(order)

    def backward(self, root: Tensor) -> None:
        if root.data.size != 1:
            raise ShapeError("backward root must be scalar, got shape %s" % (root.shape,))
        root.grad = np.ones_like(root.data)
        for node in reversed(self.nodes):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. Either both operands share leading batch axes, or
    ``b`` is a plain 2-D matrix applied to every leading slice of ``a``."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul needs >=2-D operands")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims {a.shape} x {b.shape}")
    shared_rhs = b.ndim == 2 and a.ndim > 2
    if not shared_rhs and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul batch dims differ: {a.shape} x {b.shape}")
    out_data = np.matmul(a.data, b.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad or a._parents:
            a.accum_grad(np.matmul(g, np.swapaxes(b.data, -1, -2)))
        if b.requires_grad or b._parents:
            if shared_rhs:
                k, n = b.shape
                gb = a.data.reshape(-1, k).T @ g.reshape(-1, n)
            else:
                gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b.accum_grad(gb)

    return _node(out_data, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")

    def backward(g: np.ndarray) -> None:
        a.accum_grad(g)
        b.accum_grad(g)

    return _node(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"sub shapes differ: {a.shape} vs {b.shape}")

    def backward(g: np.ndarray) -> None:
        a.accum_grad(g)
        b.accum_grad(-g)

    return _node(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} vs {b.shape}")

    def backward(g: np.ndarray) -> None:
        a.accum_grad(g * b.data)
        b.accum_grad(g * a.data)

    return _node(a.data * b.data, (a, b), backward)


def scale(x: Tensor, s: float) -> Tensor:
    x = _as_tensor(x)
    s = float(s)

    def backward(g: np.ndarray) -> None:
        x.accum_grad(g * s)

    return _node(x.data * s, (x,), backward)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """x[..., d] + b[d]."""
    x, b = _as_tensor(x), _as_tensor(b)
    if b.ndim != 1 or b.shape[0] != x.shape[-1]:
        raise ShapeError(f"bias {b.shape} does not match last axis of {x.shape}")

    def backward(g: np.ndarray) -> None:
        x.accum_grad(g)
        b.accum_grad(g.reshape(-1, g.shape[-1]).sum(axis=0))

    return _node(x.data + b.data, (x, b), backward)


def scale_rows(x: Tensor, m: Tensor) -> Tensor:
    """x[..., d] * m[..., 1], one scalar per row."""
    x, m = _as_tensor(x), _as_tensor(m)
    if m.shape != x.shape[:-1] + (1,):
        raise ShapeError(f"row scale {m.shape} does not match {x.shape}")

    def backward(g: np.ndarray) -> None:
        x.accum_grad(g * m.data)
        m.accum_grad((g * x.data).sum(axis=-1, keepdims=True))

    return _node(x.data * m.data, (x, m), backward)


def dual_linear(x: Tensor, w_p: Tensor, w_a: Tensor, use_primary: np.ndarray,
                multiplier: Tensor) -> Tensor:
    """Two-stream linear map with a row scale, as one node.

    Row r of ``x[..., k]`` goes through ``w_p`` (k, n) where ``use_primary[r]``
    and through ``w_a`` otherwise, then is scaled by ``multiplier[r, 0]``. It
    runs the masked form ``(x * mask_p) @ w_p + (x * mask_a) @ w_a`` with
    full-size matmuls, so its value and every gradient equal, bit for bit,
    those of the six nodes that spell it out with ``scale_rows``, ``matmul``
    and ``add``.
    """
    x, w_p, w_a, m = _as_tensor(x), _as_tensor(w_p), _as_tensor(w_a), _as_tensor(multiplier)
    use_primary = np.asarray(use_primary, dtype=bool)
    if w_p.ndim != 2 or w_p.shape != w_a.shape or x.shape[-1] != w_p.shape[0]:
        raise ShapeError(f"dual_linear weights {w_p.shape}, {w_a.shape} for x {x.shape}")
    if use_primary.shape != x.shape[:-1] or m.shape != x.shape[:-1] + (1,):
        raise ShapeError(f"dual_linear rows: mask {use_primary.shape}, multiplier {m.shape}, "
                         f"x {x.shape}")
    mask_p = use_primary[..., None].astype(np.float64)
    mask_a = (~use_primary)[..., None].astype(np.float64)
    x_p, x_a = x.data * mask_p, x.data * mask_a
    summed = np.matmul(x_p, w_p.data) + np.matmul(x_a, w_a.data)
    k, n = w_p.shape

    def backward(g: np.ndarray) -> None:
        gs = g * m.data
        if x.requires_grad or x._parents:
            gx = np.matmul(gs, w_p.data.T) * mask_p
            gx += np.matmul(gs, w_a.data.T) * mask_a
            x.accum_grad(gx)
        for w, xs in ((w_p, x_p), (w_a, x_a)):
            if w.requires_grad or w._parents:
                w.accum_grad(xs.reshape(-1, k).T @ gs.reshape(-1, n))
        m.accum_grad((g * summed).sum(axis=-1, keepdims=True))

    return _node(summed * m.data, (x, w_p, w_a, m), backward)


def scale_batch(x: Tensor, s: np.ndarray) -> Tensor:
    """x[b, ...] * s[b] with a constant per-sample scale vector."""
    x = _as_tensor(x)
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (x.shape[0],):
        raise ShapeError(f"batch scale {s.shape} does not match {x.shape}")
    view = s.reshape((-1,) + (1,) * (x.ndim - 1))

    def backward(g: np.ndarray) -> None:
        x.accum_grad(g * view)

    return _node(x.data * view, (x,), backward)


def softmax(x: Tensor) -> Tensor:
    """Numerically stable softmax (max-subtracted) over the last axis."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        dot = (g * y).sum(axis=-1, keepdims=True)
        x.accum_grad(y * (g - dot))

    return _node(y, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row zero mean / unit variance over the last axis, then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.shape[-1]
    if d < 2:
        raise ShapeError("layer_norm needs last axis >= 2")
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError("layer_norm affine shape mismatch")
    # the sums and divisions of np.mean and np.var, without their Python overhead
    xc = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.add.reduce(np.square(xc), axis=-1, keepdims=True) / d + LN_EPS)
    xhat = xc * inv
    y = xhat * gain.data + bias.data

    def backward(g: np.ndarray) -> None:
        if x.requires_grad or x._parents:
            dxhat = g * gain.data
            mean_dot = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d
            dxhat -= np.add.reduce(dxhat, axis=-1, keepdims=True) / d
            dxhat -= xhat * mean_dot
            dxhat *= inv
            x.accum_grad(dxhat)
        gain.accum_grad((g * xhat).reshape(-1, d).sum(axis=0))
        bias.accum_grad(g.reshape(-1, d).sum(axis=0))

    return _node(y, (x, gain, bias), backward)


def rms_norm(x: Tensor, gain: Tensor) -> Tensor:
    """x / sqrt(mean(x^2) + RMS_EPS) * gain over the last axis."""
    x, gain = _as_tensor(x), _as_tensor(gain)
    d = x.shape[-1]
    if gain.shape != (d,):
        raise ShapeError("rms_norm gain shape mismatch")
    inv = 1.0 / np.sqrt(np.add.reduce(x.data * x.data, axis=-1, keepdims=True) / d + RMS_EPS)
    u = x.data * inv
    y = u * gain.data

    def backward(g: np.ndarray) -> None:
        if x.requires_grad or x._parents:
            gg = g * gain.data
            dot = np.add.reduce(gg * x.data, axis=-1, keepdims=True)
            gg *= inv
            gg -= x.data * (dot * inv**3 / d)
            x.accum_grad(gg)
        gain.accum_grad((g * u).reshape(-1, d).sum(axis=0))

    return _node(y, (x, gain), backward)


def silu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    s = 1.0 / (1.0 + np.exp(-x.data))
    y = x.data * s

    def backward(g: np.ndarray) -> None:
        x.accum_grad(g * (s * (1.0 + x.data * (1.0 - s))))

    return _node(y, (x,), backward)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    old = x.shape

    def backward(g: np.ndarray) -> None:
        x.accum_grad(g.reshape(old))

    return _node(x.data.reshape(shape), (x,), backward)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(axes)

    def backward(g: np.ndarray) -> None:
        x.accum_grad(g.transpose(np.argsort(axes)))

    return _node(np.ascontiguousarray(x.data.transpose(axes)), (x,), backward)


def slice_last(x: Tensor, start: int, stop: int) -> Tensor:
    x = _as_tensor(x)

    def backward(g: np.ndarray) -> None:
        gx = np.zeros_like(x.data)
        gx[..., start:stop] = g
        x.accum_grad(gx)

    return _node(np.ascontiguousarray(x.data[..., start:stop]), (x,), backward)


def take_index_last(y: Tensor, idx: np.ndarray) -> Tensor:
    """Gather one entry per row from the last axis: out[..., 0] = y[..., idx]."""
    y = _as_tensor(y)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.shape != y.shape[:-1]:
        raise ShapeError(f"index shape {idx.shape} does not match {y.shape}")
    picked = np.take_along_axis(y.data, idx[..., None], axis=-1)

    def backward(g: np.ndarray) -> None:
        gy = np.zeros_like(y.data)
        np.put_along_axis(gy, idx[..., None], g, axis=-1)
        y.accum_grad(gy)

    return _node(picked, (y,), backward)


def ste_one(soft: Tensor) -> Tensor:
    """Straight-through unit multiplier.

    Forward value is exactly 1 everywhere; the backward pass hands the
    incoming gradient to ``soft`` unchanged. Composing ``scale_rows(x,
    ste_one(p))`` therefore leaves x untouched in the forward pass while
    routing x-weighted gradient into p.
    """
    soft = _as_tensor(soft)

    def backward(g: np.ndarray) -> None:
        soft.accum_grad(g)

    return _node(np.ones_like(soft.data), (soft,), backward)


def modulate(x: Tensor, sc: Tensor, sh: Tensor) -> Tensor:
    """x[..., n, d] * (1 + sc[..., d]) + sh[..., d], broadcast over tokens."""
    x, sc, sh = _as_tensor(x), _as_tensor(sc), _as_tensor(sh)
    if sc.shape != x.shape[:-2] + (x.shape[-1],) or sh.shape != sc.shape:
        raise ShapeError(f"modulate shapes: x {x.shape}, scale {sc.shape}, shift {sh.shape}")
    scb = sc.data[..., None, :]
    y = x.data * (1.0 + scb) + sh.data[..., None, :]

    def backward(g: np.ndarray) -> None:
        x.accum_grad(g * (1.0 + scb))
        sc.accum_grad((g * x.data).sum(axis=-2))
        sh.accum_grad(g.sum(axis=-2))

    return _node(y, (x, sc, sh), backward)


def gate_mul(x: Tensor, gate: Tensor) -> Tensor:
    """x[..., n, d] * gate[..., d], broadcast over tokens."""
    x, gate = _as_tensor(x), _as_tensor(gate)
    if gate.shape != x.shape[:-2] + (x.shape[-1],):
        raise ShapeError(f"gate {gate.shape} does not match {x.shape}")
    gb = gate.data[..., None, :]

    def backward(g: np.ndarray) -> None:
        x.accum_grad(g * gb)
        gate.accum_grad((g * x.data).sum(axis=-2))

    return _node(x.data * gb, (x, gate), backward)


def head_mix(scores: Tensor, w: Tensor) -> Tensor:
    """Aggregate per-head scores: out[b, n, v] = sum_h w[h] * scores[b, h, n, v]."""
    scores, w = _as_tensor(scores), _as_tensor(w)
    if scores.ndim != 4 or w.shape != (scores.shape[1],):
        raise ShapeError(f"head_mix shapes: {scores.shape}, {w.shape}")
    y = np.einsum("bhnv,h->bnv", scores.data, w.data)

    def backward(g: np.ndarray) -> None:
        scores.accum_grad(g[:, None, :, :] * w.data[None, :, None, None])
        w.accum_grad(np.einsum("bhnv,bnv->h", scores.data, g))

    return _node(y, (scores, w), backward)


def mean_all(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    n = x.data.size

    def backward(g: np.ndarray) -> None:
        x.accum_grad(np.full_like(x.data, float(g) / n))

    return _node(np.asarray(x.data.mean()), (x,), backward)


def sum_all(x: Tensor) -> Tensor:
    x = _as_tensor(x)

    def backward(g: np.ndarray) -> None:
        x.accum_grad(np.full_like(x.data, float(g)))

    return _node(np.asarray(x.data.sum()), (x,), backward)


def mse(pred: Tensor, target: Tensor) -> Tensor:
    d = sub(pred, target)
    return mean_all(mul(d, d))


# ---------------------------------------------------------------------------
# fused attention kernels
# ---------------------------------------------------------------------------


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, sc: float):
    """softmax(q k^T * sc) v over (..., n, d) arrays; returns (out, attn)."""
    scores = np.matmul(q, k.swapaxes(-1, -2)) * sc
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    attn = e / e.sum(axis=-1, keepdims=True)
    return np.matmul(attn, v), attn


def _attend_grad(g: np.ndarray, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                 attn: np.ndarray, sc: float):
    """Backward of :func:`_attend` for output gradient ``g``; returns (gq, gk, gv)."""
    gattn = np.matmul(g, v.swapaxes(-1, -2))
    gv = np.matmul(attn.swapaxes(-1, -2), g)
    gs = attn * (gattn - (gattn * attn).sum(axis=-1, keepdims=True))
    gq = np.matmul(gs, k) * sc
    gk = np.matmul(gs.swapaxes(-1, -2), q) * sc
    return gq, gk, gv


def self_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled dot-product attention, q/k/v shaped (B, H, N, d).

    Fused so one graph node covers scores, softmax and the value product.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.ndim != 4 or q.shape != k.shape or k.shape != v.shape:
        raise ShapeError(f"self_attention shapes: {q.shape}, {k.shape}, {v.shape}")
    sc = 1.0 / np.sqrt(q.shape[-1])
    out, attn = _attend(q.data, k.data, v.data, sc)

    def backward(g: np.ndarray) -> None:
        gq, gk, gv = _attend_grad(g, q.data, k.data, v.data, attn, sc)
        v.accum_grad(gv)
        q.accum_grad(gq)
        k.accum_grad(gk)

    return _node(out, (q, k, v), backward)


def routed_attention(
    q_p: Tensor,
    q_a: Tensor,
    kv_p: tuple[Tensor, Tensor],
    kv_a: tuple[Tensor, Tensor],
    view_index: np.ndarray,
    use_primary: np.ndarray,
) -> Tensor:
    """Per-token single-view cross attention with dual parameter streams.

    Each token n of sample b attends to exactly the S patch keys of its
    selected view ``view_index[b, n]``, through the primary stream where
    ``use_primary[b, n]`` and the auxiliary stream otherwise. Queries are
    (B, N, H, d); each stream's keys/values are (B, V, S, H, d). Tokens are
    grouped by (sample, view, stream) so the kernel runs a handful of
    medium-sized matmuls instead of one per token.
    """
    q_p, q_a = _as_tensor(q_p), _as_tensor(q_a)
    k_p, v_p = (_as_tensor(t) for t in kv_p)
    k_a, v_a = (_as_tensor(t) for t in kv_a)
    if q_p.shape != q_a.shape or q_p.ndim != 4:
        raise ShapeError(f"routed_attention query shapes: {q_p.shape}, {q_a.shape}")
    if k_p.shape != v_p.shape or k_a.shape != v_a.shape or k_p.shape != k_a.shape:
        raise ShapeError("routed_attention key/value shapes differ")
    B, N, H, dh = q_p.shape
    Bv, V, _, Hk, dk = k_p.shape
    if (Bv, Hk, dk) != (B, H, dh):
        raise ShapeError(f"routed_attention q {q_p.shape} vs k {k_p.shape}")
    view_index = np.asarray(view_index, dtype=np.int64)
    use_primary = np.asarray(use_primary, dtype=bool)
    if view_index.shape != (B, N) or use_primary.shape != (B, N):
        raise ShapeError("routed_attention index shapes")
    if view_index.min() < 0 or view_index.max() >= V:
        raise ShapeError("view index out of range")
    sc = 1.0 / np.sqrt(dh)
    streams = {True: (q_p, k_p, v_p), False: (q_a, k_a, v_a)}

    def operands(b, v, primary, idx):
        """The group's (H, G, d) queries and (H, S, d) keys and values."""
        q, k, vv = streams[primary]
        return (q.data[b, idx].transpose(1, 0, 2), k.data[b, v].transpose(1, 0, 2),
                vv.data[b, v].transpose(1, 0, 2))

    out = np.zeros((B, N, H, dh))
    groups: list[tuple[int, int, bool, np.ndarray, np.ndarray]] = []
    for b in range(B):
        for v in np.unique(view_index[b]):
            sel = view_index[b] == v
            for primary in (True, False):
                idx = np.nonzero(sel & (use_primary[b] == primary))[0]
                if idx.size == 0:
                    continue
                og, attn = _attend(*operands(b, v, primary, idx), sc)
                out[b, idx] = og.transpose(1, 0, 2)
                groups.append((b, int(v), primary, idx, attn))

    def backward(g: np.ndarray) -> None:
        grads = {s: [np.zeros_like(t.data) for t in ts] for s, ts in streams.items()}
        for b, v, primary, idx, attn in groups:
            gq, gk, gv = _attend_grad(g[b, idx].transpose(1, 0, 2),
                                      *operands(b, v, primary, idx), attn, sc)
            gq_s, gk_s, gv_s = grads[primary]
            gq_s[b, idx] += gq.transpose(1, 0, 2)
            gk_s[b, v] += gk.transpose(1, 0, 2)
            gv_s[b, v] += gv.transpose(1, 0, 2)
        for i in range(3):  # q_p, q_a, k_p, k_a, v_p, v_a
            for primary in (True, False):
                streams[primary][i].accum_grad(grads[primary][i])

    return _node(out, (q_p, q_a, k_p, v_p, k_a, v_a), backward)


# ---------------------------------------------------------------------------
# finite-difference verification
# ---------------------------------------------------------------------------


def grad_check(
    f: Callable[[], Tensor],
    params: dict[str, Tensor],
    h: float = 1e-5,
    rtol: float = 1e-4,
    atol: float = 1e-8,
    max_entries: int | None = None,
    rng: np.random.Generator | None = None,
) -> dict[str, float]:
    """Compare tape gradients of scalar ``f()`` against central differences.

    ``f`` must rebuild its graph from the current ``params`` data on every
    call and be deterministic. Returns the max relative error per parameter,
    where the relative error of (analytic a, numeric n) is
    ``|a - n| / (atol/rtol + max(|a|, |n|))`` so that near-zero gradients are
    judged against an absolute floor. ``max_entries`` caps how many entries
    per parameter are probed (seeded subsample); None probes all.
    """
    if not (1e-6 <= h <= 1e-4):
        raise ValueError("h outside [1e-6, 1e-4]")
    for p in params.values():
        p.zero_grad()
    loss = f()
    if not np.isfinite(loss.data):
        raise FloatingPointError("non-finite loss at base point")
    loss.backward()
    analytic = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for k, p in params.items()}

    rng = rng or np.random.default_rng(0)
    report: dict[str, float] = {}
    for name, p in params.items():
        n = p.data.size
        if max_entries is not None and n > max_entries:
            entries = np.sort(rng.choice(n, size=max_entries, replace=False))
        else:
            entries = np.arange(n)
        worst = 0.0
        for i in entries:
            at = np.unravel_index(int(i), p.data.shape)
            orig = p.data[at]
            p.data[at] = orig + h
            up = float(f().data)
            p.data[at] = orig - h
            dn = float(f().data)
            p.data[at] = orig
            if not (np.isfinite(up) and np.isfinite(dn)):
                raise FloatingPointError(f"non-finite f at {name}[{i}] +/- h")
            numeric = (up - dn) / (2.0 * h)
            a = float(analytic[name][at])
            err = abs(a - numeric) / (atol / rtol + max(abs(a), abs(numeric)))
            worst = max(worst, err)
        report[name] = worst
    return report
