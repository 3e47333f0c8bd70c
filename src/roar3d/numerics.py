"""Dense float64 tensors with reverse-mode autodiff.

Just enough operations for attention stacks: matmul, norms, SiLU, a slice
and a per-sample scale, the fused glue of an adaLN-zero block (``linear``,
``ada_layer_norm``, ``gated_add``), the router's score kernel and its
straight-through hard choice (``straight_through``), two fused attention
kernels and the squared-error loss (``mse``). The design goals are auditability and determinism, not
generality:

* everything is float64, row-major;
* no broadcasting beyond the documented cases (shared 2-D rhs in matmul,
  bias over the last axis, per-row scalars);
* backward passes are hand-written per op and verified against central
  finite differences (see :func:`grad_check` and the test suite).

Tensors are immutable after construction except through their owning graph;
forward/backward of one graph is single-threaded. Independent graphs may run
on independent threads. ``no_grad`` acts on the current context only, so
one thread's inference does not switch off another's graph. This module
starts no thread and no process.

``gather_rows`` is the one node whose graph spans two processes. Inside the
sharding scope that ``roar3d.trainer.train`` opens, a training forward of
the model (``roar3d.model._forward``) splits its batch into two row shards:
the first runs on the parameters in the calling process, the second in the
scope's worker process, on leaf twins over a shared copy of the parameters'
data, and ``gather_rows`` joins the calling shard's output with the
worker's rows. Its backward hands the worker its rows of the incoming
gradient, sweeps the first shard's graph meanwhile, waits for the worker
and then adds the worker's gradients to the parameters' in parameter order.
The two processes share the parameters' data (the caller copies it into a
shared mapping on every forward, the worker only reads it) and the worker's
gradients (the worker writes them into a second mapping, the caller only
reads them after the sweep); the batch arrays, the shard's outputs and
small flags travel as messages over a pipe. Nothing else is shared: every
graph, tape and gradient buffer lives in one process, so values and
gradients do not depend on timing or on the number of CPUs. The worker
holds the graph of the last sharded forward only, so the backward of a
graph that a later forward has replaced raises ``RuntimeError`` and sweeps
nothing.

Backward consumes its graph: as the sweep passes an op output it drops that
node's gradient, its parents and its backward closure, so the saved arrays
of a step are freed while the sweep runs, not when the next step rebinds its
variables. Leaves keep their gradients and every node keeps its ``data``; a
second backward through a spent graph raises ``RuntimeError``. The sweep
touches only the nodes of its own graph, so independent graphs stay
thread-independent.

A backward closure keeps only what it cannot rebuild in one elementwise pass
over data the graph already holds: the norms keep per-row statistics (and
``ada_layer_norm`` its modulation scale) and rebuild their normalized rows
from the input, and the attention and router-score kernels split the heads
of their inputs again instead of keeping the split copies. Arrays that cost
an ``exp`` or a matmul to rebuild stay saved: ``silu``'s sigmoid, the
attention probabilities, the router's unmixed scores, the soft weights of
``straight_through`` and ``dual_linear``'s picked rows. Rebuilt arrays run
the forward's own expressions, so every gradient is the same, bit for bit.
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
    "grad_enabled",
    "matmul",
    "sub",
    "linear",
    "dual_linear",
    "scale_batch",
    "layer_norm",
    "layer_norms",
    "rms_norm",
    "silu",
    "slice_last",
    "straight_through",
    "ada_layer_norm",
    "gated_add",
    "router_scores",
    "self_attention",
    "routed_attention",
    "mse",
    "sweep",
    "gather_rows",
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
        if not self.requires_grad:
            return
        # g is kept, not copied, and may be shared with siblings: no backward
        # or optimizer writes into a gradient array in place
        self.grad = g if self.grad is None else self.grad + g

    def backward(self) -> None:
        """Reverse-mode sweep from this (scalar) tensor; consumes its graph.

        Afterwards the leaves hold their gradients and every op output has
        dropped its gradient and graph edges (see :class:`ComputationTape`).
        """
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


def grad_enabled() -> bool:
    """True unless the current context is inside :class:`no_grad`."""
    return _grad_enabled.get()


def _node(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _spent(g: np.ndarray) -> None:
    raise RuntimeError("backward through a graph that an earlier backward consumed")


class ComputationTape:
    """Reverse-topological schedule over a forward graph.

    ``trace`` collects every node reachable from the root exactly once, in a
    deterministic DFS order; ``backward`` walks the record in reverse so each
    node's backward fires exactly once, after all its consumers.

    ``backward`` consumes the graph: it pops each node off the tape, and once
    an op output's backward has run it sets the node's ``grad`` to None, its
    parents to ``()`` and its backward to one that raises ``RuntimeError``.
    Each saved array is freed as soon as the last node holding it is passed.
    Leaves keep their gradients and every node keeps its ``data``. The tape
    is local to one call, so sweeps of independent graphs on independent
    threads never share state. A ``gather_rows`` node, which has no
    parents, runs its first shard's sweep from its own backward, while the
    process that holds its second shard's graph runs that one.
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
        nodes = self.nodes
        while nodes:
            node = nodes.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._parents = ()
            node._backward = _spent


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
        if a.requires_grad:
            a.accum_grad(np.matmul(g, np.swapaxes(b.data, -1, -2)))
        if b.requires_grad:
            if shared_rhs:
                k, n = b.shape
                gb = a.data.reshape(-1, k).T @ g.reshape(-1, n)
            else:
                gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b.accum_grad(gb)

    return _node(out_data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"sub shapes differ: {a.shape} vs {b.shape}")

    def backward(g: np.ndarray) -> None:
        a.accum_grad(g)
        b.accum_grad(-g)

    return _node(a.data - b.data, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x[..., k] @ w[k, n] + b[n] as one node.

    It runs the expressions of ``matmul`` with a shared 2-D rhs followed by a
    bias add, in the same order, so its value and every gradient equal, bit
    for bit, those of that node pair.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(f"linear shapes: x {x.shape}, w {w.shape}, b {b.shape}")
    k, n = w.shape

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x.accum_grad(np.matmul(g, w.data.T))
        if w.requires_grad:
            w.accum_grad(x.data.reshape(-1, k).T @ g.reshape(-1, n))
        b.accum_grad(g.reshape(-1, n).sum(axis=0))

    return _node(np.matmul(x.data, w.data) + b.data, (x, w, b), backward)


def dual_linear(x: Tensor, w_p: Tensor, w_a: Tensor, use_primary: np.ndarray,
                multiplier: Tensor | None = None) -> Tensor:
    """Two-stream linear map with an optional row scale, as one node.

    Row r of ``x[..., k]`` goes through ``w_p`` (k, n) where ``use_primary[r]``
    and through ``w_a`` otherwise, then is scaled by ``multiplier[r, 0]``. Each
    row is picked from ``x @ w_p`` or ``x @ w_a``, so its value and every
    gradient equal, bit for bit, those of the six nodes of the masked form
    ``((x * mask_p) @ w_p + (x * mask_a) @ w_a) * multiplier``, which only
    adds exact zeros to the picked row. Without a multiplier no row is scaled,
    which equals a multiplier of ones bit for bit (x * 1.0 == x). The row
    masks and the masked copies of ``x`` are built in the backward, for the
    input and weight gradients, so a forward without a graph builds none; the
    picked rows, which the multiplier's gradient reads, stay saved, as they
    would take two matmuls to rebuild.
    """
    x, w_p, w_a = _as_tensor(x), _as_tensor(w_p), _as_tensor(w_a)
    m = None if multiplier is None else _as_tensor(multiplier)
    use_primary = np.asarray(use_primary, dtype=bool)
    if w_p.ndim != 2 or w_p.shape != w_a.shape or x.shape[-1] != w_p.shape[0]:
        raise ShapeError(f"dual_linear weights {w_p.shape}, {w_a.shape} for x {x.shape}")
    if use_primary.shape != x.shape[:-1] or (m is not None and m.shape != x.shape[:-1] + (1,)):
        raise ShapeError(f"dual_linear rows: mask {use_primary.shape}, "
                         f"multiplier {None if m is None else m.shape}, x {x.shape}")
    summed = np.where(use_primary[..., None], np.matmul(x.data, w_p.data),
                      np.matmul(x.data, w_a.data))
    k, n = w_p.shape

    def backward(g: np.ndarray) -> None:
        mask_p = use_primary[..., None].astype(np.float64)
        mask_a = (~use_primary)[..., None].astype(np.float64)
        gs = g if m is None else g * m.data
        if x.requires_grad:
            gx = np.matmul(gs, w_p.data.T) * mask_p
            gx += np.matmul(gs, w_a.data.T) * mask_a
            x.accum_grad(gx)
        for w, mask in ((w_p, mask_p), (w_a, mask_a)):
            if w.requires_grad:
                w.accum_grad((x.data * mask).reshape(-1, k).T @ gs.reshape(-1, n))
        if m is not None:
            m.accum_grad((g * summed).sum(axis=-1, keepdims=True))

    if m is None:
        return _node(summed, (x, w_p, w_a), backward)
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


def _check_layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> int:
    d = x.shape[-1]
    if d < 2:
        raise ShapeError("layer_norm needs last axis >= 2")
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError("layer_norm affine shape mismatch")
    return d


def _layer_norm_stats(x: np.ndarray, d: int):
    """(xhat, mean, inv) of a layer norm over the last axis of width ``d``.

    A backward keeps the per-row ``mean`` and ``inv`` only and rebuilds
    ``xhat`` from ``x`` with :func:`_normalize`, which gives the same bits.
    """
    # the sums and divisions of np.mean and np.var, without their Python overhead
    mean = np.add.reduce(x, axis=-1, keepdims=True) / d
    xhat = x - mean
    inv = 1.0 / np.sqrt(np.add.reduce(np.square(xhat), axis=-1, keepdims=True) / d + LN_EPS)
    xhat *= inv
    return xhat, mean, inv


def _normalize(x: np.ndarray, mean: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """``xhat`` of :func:`_layer_norm_stats` from its per-row statistics."""
    xhat = x - mean
    xhat *= inv
    return xhat


def _layer_norm_backward(g: np.ndarray, x: Tensor, gain: Tensor, bias: Tensor,
                         xhat: np.ndarray, inv: np.ndarray, d: int) -> None:
    if x.requires_grad:
        dxhat = g * gain.data
        mean_dot = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d
        dxhat -= np.add.reduce(dxhat, axis=-1, keepdims=True) / d
        dxhat -= xhat * mean_dot
        dxhat *= inv
        x.accum_grad(dxhat)
    gain.accum_grad((g * xhat).reshape(-1, d).sum(axis=0))
    bias.accum_grad(g.reshape(-1, d).sum(axis=0))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row zero mean / unit variance over the last axis, then affine."""
    return layer_norms(x, (gain, bias))[0]


def layer_norms(x: Tensor, *affine: tuple[Tensor, Tensor]) -> tuple[Tensor, ...]:
    """``layer_norm(x, gain, bias)`` for each (gain, bias) pair, one node each.

    The statistics of ``x`` are computed once and shared by every node, so
    each node's value and gradients equal, bit for bit, those of its own
    ``layer_norm`` call. Each backward rebuilds ``xhat`` from them.
    """
    x = _as_tensor(x)
    pairs = [(_as_tensor(gain), _as_tensor(bias)) for gain, bias in affine]
    d = x.shape[-1]
    for gain, bias in pairs:
        _check_layer_norm(x, gain, bias)
    xhat, mean, inv = _layer_norm_stats(x.data, d)

    def node(gain: Tensor, bias: Tensor) -> Tensor:
        def backward(g: np.ndarray) -> None:
            _layer_norm_backward(g, x, gain, bias, _normalize(x.data, mean, inv), inv, d)

        return _node(xhat * gain.data + bias.data, (x, gain, bias), backward)

    return tuple(node(gain, bias) for gain, bias in pairs)


def rms_norm(x: Tensor, gain: Tensor) -> Tensor:
    """x / sqrt(mean(x^2) + RMS_EPS) * gain over the last axis.

    The backward keeps the per-row ``inv`` only and rebuilds ``x * inv``.
    """
    x, gain = _as_tensor(x), _as_tensor(gain)
    d = x.shape[-1]
    if gain.shape != (d,):
        raise ShapeError("rms_norm gain shape mismatch")
    inv = 1.0 / np.sqrt(np.add.reduce(x.data * x.data, axis=-1, keepdims=True) / d + RMS_EPS)
    y = x.data * inv * gain.data

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            gg = g * gain.data
            dot = np.add.reduce(gg * x.data, axis=-1, keepdims=True)
            gg *= inv
            gg -= x.data * (dot * inv**3 / d)
            x.accum_grad(gg)
        gain.accum_grad((g * (x.data * inv)).reshape(-1, d).sum(axis=0))

    return _node(y, (x, gain), backward)


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x); the backward keeps the sigmoid, which costs an exp to rebuild."""
    x = _as_tensor(x)
    s = 1.0 / (1.0 + np.exp(-x.data))
    y = x.data * s

    def backward(g: np.ndarray) -> None:
        x.accum_grad(g * (s * (1.0 + x.data * (1.0 - s))))

    return _node(y, (x,), backward)


def slice_last(x: Tensor, start: int, stop: int) -> Tensor:
    x = _as_tensor(x)

    def backward(g: np.ndarray) -> None:
        gx = np.zeros_like(x.data)
        gx[..., start:stop] = g
        x.accum_grad(gx)

    return _node(np.ascontiguousarray(x.data[..., start:stop]), (x,), backward)


def straight_through(logits: Tensor, noisy: np.ndarray,
                     hard: np.ndarray) -> tuple[np.ndarray, Tensor]:
    """A hard choice per row with a straight-through gradient, as one node.

    ``noisy`` is the data of ``logits`` (..., N, V) plus any Gumbel noise and
    ``hard`` (..., N) the chosen index of each row. Returns ``y_soft``, the
    softmax of ``noisy`` as plain data, and the (..., N, 1) multiplier, whose
    value is exactly 1 and whose backward hands ``logits`` the gradient of
    ``y_soft[..., hard]``: the softmax Jacobian applied to the incoming
    gradient placed at ``hard`` (Jang et al. 2017; Bengio et al. 2013). It
    runs the expressions of the chain it replaces (noise add, max-subtracted
    softmax, a gather at ``hard`` and a unit straight-through node), in the
    same order, so its value and every gradient equal that chain's bit for
    bit. The backward keeps ``y_soft``.
    """
    logits = _as_tensor(logits)
    hard = np.asarray(hard, dtype=np.int64)
    if noisy.shape != logits.shape or hard.shape != logits.shape[:-1]:
        raise ShapeError(f"straight_through shapes: logits {logits.shape}, "
                         f"noisy {noisy.shape}, hard {hard.shape}")
    e = np.exp(noisy - noisy.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        gy = np.zeros_like(y)
        np.put_along_axis(gy, hard[..., None], g, axis=-1)
        dot = (gy * y).sum(axis=-1, keepdims=True)
        logits.accum_grad(y * (gy - dot))

    return y, _node(np.ones(hard.shape + (1,)), (logits,), backward)


def ada_layer_norm(x: Tensor, gain: Tensor, bias: Tensor, sc: Tensor, sh: Tensor) -> Tensor:
    """``layer_norm(x, gain, bias) * (1 + sc) + sh`` as one node.

    ``x`` is (..., n, d); the scale ``sc`` and shift ``sh`` are (..., d) and
    broadcast over the n tokens (adaLN modulation). The value and every
    gradient equal, bit for bit, those of a layer-norm node followed by a
    modulation node. The backward keeps the per-row statistics and the
    modulation scale and rebuilds the normalized rows from ``x``.
    """
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    sc, sh = _as_tensor(sc), _as_tensor(sh)
    d = _check_layer_norm(x, gain, bias)
    if sc.shape != x.shape[:-2] + (d,) or sh.shape != sc.shape:
        raise ShapeError(f"ada_layer_norm shapes: x {x.shape}, scale {sc.shape}, shift {sh.shape}")
    xhat, mean, inv = _layer_norm_stats(x.data, d)
    normed = xhat * gain.data + bias.data
    scale = 1.0 + sc.data[..., None, :]

    def backward(g: np.ndarray) -> None:
        xhat = _normalize(x.data, mean, inv)
        sc.accum_grad((g * (xhat * gain.data + bias.data)).sum(axis=-2))
        sh.accum_grad(g.sum(axis=-2))
        _layer_norm_backward(g * scale, x, gain, bias, xhat, inv, d)

    return _node(normed * scale + sh.data[..., None, :], (x, gain, bias, sc, sh), backward)


def gated_add(z: Tensor, x: Tensor, gate: Tensor) -> Tensor:
    """Gated residual ``z + x * gate`` as one node.

    ``z`` and ``x`` are (..., n, d); ``gate`` is (..., d) and broadcasts over
    the n tokens. The value and every gradient equal, bit for bit, those of a
    gating node followed by an add node.
    """
    z, x, gate = _as_tensor(z), _as_tensor(x), _as_tensor(gate)
    if z.shape != x.shape or gate.shape != x.shape[:-2] + (x.shape[-1],):
        raise ShapeError(f"gated_add shapes: z {z.shape}, x {x.shape}, gate {gate.shape}")
    gb = gate.data[..., None, :]

    def backward(g: np.ndarray) -> None:
        z.accum_grad(g)
        x.accum_grad(g * gb)
        gate.accum_grad((g * x.data).sum(axis=-2))

    return _node(z.data + x.data * gb, (z, x, gate), backward)


def router_scores(q: Tensor, keys: Tensor, w_agg: Tensor, heads: int) -> Tensor:
    """Head-mixed scaled dot products of token queries and view keys, as one node.

    ``q`` is (B, N, heads * dh), ``keys`` (B, V, heads * dh) and ``w_agg``
    (heads,); the output is (B, N, V) with
    ``out[b, n, v] = sum_h w_agg[h] * <q[b, n, h], keys[b, v, h]> / sqrt(dh)``.
    It runs the expressions of the node chain it replaces (split both inputs
    into contiguous per-head copies, batched matmul, scale, head mix), in the
    same order, so its value and every gradient equal that chain's bit for bit.
    The backward keeps the split keys and the unmixed scores and splits ``q``
    again.
    """
    q, keys, w_agg = _as_tensor(q), _as_tensor(keys), _as_tensor(w_agg)
    if q.ndim != 3 or keys.ndim != 3 or q.shape[0] != keys.shape[0] \
            or q.shape[-1] != keys.shape[-1] or q.shape[-1] % heads or w_agg.shape != (heads,):
        raise ShapeError(f"router_scores shapes: q {q.shape}, keys {keys.shape}, "
                         f"w_agg {w_agg.shape}, {heads} heads")
    B, N, width = q.shape
    V = keys.shape[1]
    dh = width // heads
    s = float(1.0 / np.sqrt(dh))
    qh = _split_heads(q.data, heads)                                     # (B, H, N, dh)
    kh = np.ascontiguousarray(keys.data.reshape(B, V, heads, dh).transpose(0, 2, 3, 1))
    scores = np.matmul(qh, kh)                                           # (B, H, N, V)
    scores *= s

    def backward(g: np.ndarray) -> None:
        gs = g[:, None, :, :] * w_agg.data[None, :, None, None]
        gs *= s
        if q.requires_grad:
            gq = np.matmul(gs, np.swapaxes(kh, -1, -2))
            q.accum_grad(gq.transpose(0, 2, 1, 3).reshape(B, N, width))
        if keys.requires_grad:
            gk = np.matmul(np.swapaxes(_split_heads(q.data, heads), -1, -2), gs)
            keys.accum_grad(gk.transpose(0, 3, 1, 2).reshape(B, V, width))
        w_agg.accum_grad(np.einsum("bhnv,bnv->h", scores, g))

    return _node(np.einsum("bhnv,h->bnv", scores, w_agg.data), (q, keys, w_agg), backward)


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared difference, one node; the expressions of a ``sub``, ``mul``,
    ``mean_all`` chain in its order, so its value and gradients, bit for bit."""
    pred, target = _as_tensor(pred), _as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"mse shapes differ: {pred.shape} vs {target.shape}")
    d = pred.data - target.data

    def backward(g: np.ndarray) -> None:
        f = np.full_like(d, float(g) / d.size)
        gd = f * d + f * d
        pred.accum_grad(gd)
        target.accum_grad(-gd)

    return _node(np.asarray((d * d).mean()), (pred, target), backward)


# ---------------------------------------------------------------------------
# two row shards, the second one's graph held elsewhere
# ---------------------------------------------------------------------------


def sweep(root: Tensor, g: np.ndarray) -> None:
    """Backward over ``root``'s graph from the incoming gradient ``g`` of its value."""
    head = Tensor(np.zeros(()), requires_grad=True)
    head._parents = (root,)
    head._backward = lambda _: root.accum_grad(g)
    ComputationTape.trace(head).backward(head)


def gather_rows(first: Tensor, second: np.ndarray,
                sweep_second: Callable[[np.ndarray], Callable[[bool], None]]) -> Tensor:
    """The rows of ``first`` and then those of ``second``, as one parent-less node.

    ``second`` is the value of a graph that another process holds.
    ``sweep_second(g)`` starts that graph's sweep from its rows ``g`` of the
    incoming gradient and returns ``finish(merge)``, which waits for the
    sweep and, if ``merge``, adds its gradients to the leaves they belong to.
    The node's backward starts the other sweep, sweeps ``first``'s graph
    from its own rows meanwhile, and then finishes the other one. An error
    of either sweep is raised only once both have ended, the calling
    process's first; after an error no gradient of the other sweep is
    added.
    """
    out = Tensor(np.concatenate([first.data, second]))
    if not (_grad_enabled.get() and first.requires_grad):
        return out
    h = first.shape[0]

    def backward(g: np.ndarray) -> None:
        finish = sweep_second(g[h:])
        try:
            sweep(first, g[:h])
        except BaseException:
            try:
                finish(False)
            except Exception:   # the calling process's error is the one raised
                pass
            raise
        finish(True)

    out.requires_grad = True
    out._backward = backward
    return out


# ---------------------------------------------------------------------------
# fused attention kernels
# ---------------------------------------------------------------------------


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, sc: float):
    """softmax(q k^T * sc) v over (..., n, d) arrays; returns (out, attn).

    Like :func:`_attend_grad` it works in place on its own temporaries, which
    gives the values of the out-of-place expressions with fewer large arrays.
    """
    attn = np.matmul(q, k.swapaxes(-1, -2))
    attn *= sc
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    return np.matmul(attn, v), attn


def _attend_grad(g: np.ndarray, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                 attn: np.ndarray, sc: float):
    """Backward of :func:`_attend` for output gradient ``g``; returns (gq, gk, gv)."""
    gattn = np.matmul(g, v.swapaxes(-1, -2))
    gv = np.matmul(attn.swapaxes(-1, -2), g)
    gattn -= (gattn * attn).sum(axis=-1, keepdims=True)
    gattn *= attn
    gq = np.matmul(gattn, k)
    gq *= sc
    gk = np.matmul(gattn.swapaxes(-1, -2), q)
    gk *= sc
    return gq, gk, gv


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(B, N, heads * d) -> contiguous (B, heads, N, d)."""
    B, N, width = x.shape
    return np.ascontiguousarray(x.reshape(B, N, heads, width // heads).transpose(0, 2, 1, 3))


def self_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over (B, N, heads * d) q/k/v.

    Fused so one graph node covers the head split, scores, softmax, the
    value product and the head merge; the output is (B, N, heads * d). The
    backward keeps the attention probabilities and splits q, k and v again.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.ndim != 3 or q.shape != k.shape or k.shape != v.shape or q.shape[-1] % heads:
        raise ShapeError(f"self_attention shapes: {q.shape}, {k.shape}, {v.shape}, "
                         f"{heads} heads")
    B, N, width = q.shape
    dh = width // heads
    sc = 1.0 / np.sqrt(dh)
    out, attn = _attend(*(_split_heads(t.data, heads) for t in (q, k, v)), sc)

    def backward(g: np.ndarray) -> None:
        gq, gk, gv = _attend_grad(g.reshape(B, N, heads, dh).transpose(0, 2, 1, 3),
                                  *(_split_heads(t.data, heads) for t in (q, k, v)),
                                  attn, sc)
        v.accum_grad(gv.transpose(0, 2, 1, 3).reshape(B, N, width))
        q.accum_grad(gq.transpose(0, 2, 1, 3).reshape(B, N, width))
        k.accum_grad(gk.transpose(0, 2, 1, 3).reshape(B, N, width))

    merged = np.ascontiguousarray(out.transpose(0, 2, 1, 3)).reshape(B, N, width)
    return _node(merged, (q, k, v), backward)


def routed_attention(
    q_p: Tensor,
    q_a: Tensor,
    kv_p: tuple[Tensor, Tensor],
    kv_a: tuple[Tensor, Tensor],
    view_index: np.ndarray,
    use_primary: np.ndarray,
    heads: int,
) -> Tensor:
    """Per-token single-view cross attention with dual parameter streams.

    Each token n of sample b attends to exactly the S patch keys of its
    selected view ``view_index[b, n]``, through the primary stream where
    ``use_primary[b, n]`` and the auxiliary stream otherwise. Queries and the
    output are (B, N, heads * d), each stream's keys and values
    (B, V, S, heads * d); the kernel splits the heads inside. Tokens are
    grouped by (sample, view, stream) so the kernel runs a handful of
    medium-sized matmuls instead of one per token. A router-less call passes
    its one stream twice (``q_a is q_p`` and ``kv_a is kv_p``); its backward
    then builds and accumulates one set of gradients.
    """
    q_p, q_a = _as_tensor(q_p), _as_tensor(q_a)
    k_p, v_p = (_as_tensor(t) for t in kv_p)
    k_a, v_a = (_as_tensor(t) for t in kv_a)
    if q_p.shape != q_a.shape or q_p.ndim != 3:
        raise ShapeError(f"routed_attention query shapes: {q_p.shape}, {q_a.shape}")
    if k_p.shape != v_p.shape or k_a.shape != v_a.shape or k_p.shape != k_a.shape:
        raise ShapeError("routed_attention key/value shapes differ")
    B, N, width = q_p.shape
    if k_p.ndim != 4 or (k_p.shape[0], k_p.shape[-1]) != (B, width) or width % heads:
        raise ShapeError(f"routed_attention q {q_p.shape} vs k {k_p.shape}, {heads} heads")
    V, S = k_p.shape[1:3]
    H, dh = heads, width // heads
    view_index = np.asarray(view_index, dtype=np.int64)
    use_primary = np.asarray(use_primary, dtype=bool)
    if view_index.shape != (B, N) or use_primary.shape != (B, N):
        raise ShapeError("routed_attention index shapes")
    if view_index.min() < 0 or view_index.max() >= V:
        raise ShapeError("view index out of range")
    sc = 1.0 / np.sqrt(dh)
    one_stream = q_a is q_p and k_a is k_p and v_a is v_p
    streams = {True: (q_p, k_p, v_p), False: (q_a, k_a, v_a)}
    arrays = {s: (q.data.reshape(B, N, H, dh), k.data.reshape(B, V, S, H, dh),
                  vv.data.reshape(B, V, S, H, dh)) for s, (q, k, vv) in streams.items()}

    def operands(b, v, primary, idx):
        """The group's (H, G, d) queries and (H, S, d) keys and values."""
        q, k, vv = arrays[primary]
        return (q[b, idx].transpose(1, 0, 2), k[b, v].transpose(1, 0, 2),
                vv[b, v].transpose(1, 0, 2))

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
        g = g.reshape(B, N, H, dh)
        grads = {True: [np.zeros_like(a) for a in arrays[True]]}
        grads[False] = grads[True] if one_stream else [np.zeros_like(a) for a in arrays[False]]
        for b, v, primary, idx, attn in groups:
            gq, gk, gv = _attend_grad(g[b, idx].transpose(1, 0, 2),
                                      *operands(b, v, primary, idx), attn, sc)
            gq_s, gk_s, gv_s = grads[primary]
            gq_s[b, idx] += gq.transpose(1, 0, 2)
            gk_s[b, v] += gk.transpose(1, 0, 2)
            gv_s[b, v] += gv.transpose(1, 0, 2)
        for primary in (True,) if one_stream else (True, False):
            for t, gt in zip(streams[primary], grads[primary]):
                t.accum_grad(gt.reshape(t.shape))

    return _node(out.reshape(B, N, width), (q_p, q_a, k_p, v_p, k_a, v_a), backward)


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
