"""Span tracer for the traced benchmark run.

Spans are recorded from the benchmark's side only: ``install`` replaces the
public functions of the roar3d modules with wrappers that open a span, call
the original and close the span. Each span holds a name, start, end, the
span that was open when it started (its parent) and the id of the op it ran
under (-1 during set-up). Spans stay in flat in-memory arrays until
``save`` writes them out after the run.

Self time is a span's duration minus the time its child spans cover: the
union of the children's intervals, clipped to the span. Child spans on one
thread run one after another inside their parent, so the self times of all
spans under an op add up to the op's duration. A child that overlaps a
sibling or ends outside its parent breaks that sum, and an unclosed span
makes it NaN; ``op_sum_error`` reports both.

Counters (exact work counts, computed bytes and flops) are kept per op next
to the spans, so the analysis can restrict them to a fixed prefix of ops.
"""

from __future__ import annotations

import math
import os
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

OP = "op"


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, obj, attr: str, value) -> None:
        self._saved.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def undo(self) -> None:
        while self._saved:
            obj, attr, old = self._saved.pop()
            setattr(obj, attr, old)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[tuple[str, int], float] = defaultdict(float)
        self.op_id = -1
        self._op_span = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, nid: int, now: float | None = None) -> int:
        stack = self._stack()
        main = threading.get_ident() == self._main
        with self._lock:
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id if main else -1)
            self.start.append(time.perf_counter() if now is None else now)
            self.end.append(math.nan)
        stack.append(idx)
        return idx

    def close(self, idx: int, now: float | None = None) -> None:
        self.end[idx] = time.perf_counter() if now is None else now
        self._stack().pop()

    def wrap(self, fn, name: str):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def next_op(self, now: float) -> None:
        """Close the running op span (if any) at ``now`` and open the next."""
        self.end_op(now)
        self.op_id += 1
        self._op_span = self.open(self.name_id(OP), now)

    def end_op(self, now: float) -> None:
        if self._op_span >= 0:
            self.close(self._op_span, now)
            self._op_span = -1

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:  # build_dataset's worker threads count too
            self.counts[(name, self.op_id)] += value

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration minus the union of the direct children's intervals, clipped to the span."""
    covered = np.zeros(start.size)
    kids = np.nonzero(parent >= 0)[0]
    kids = kids[np.lexsort((start[kids], parent[kids]))]
    st, en = start.tolist(), end.tolist()
    group, reach = -1, 0.0          # current parent, furthest child end so far
    for i, p in zip(kids.tolist(), parent[kids].tolist()):
        if p != group:
            group, reach = p, st[p]
        s, e = max(st[i], reach), min(en[i], en[p])
        if not e >= s:                # NaN, or nothing left after clipping
            if math.isnan(e):
                covered[p] = math.nan
            continue
        covered[p] += e - s
        reach = e
    return (end - start) - covered


def op_sum_error(arrays: dict, selft: np.ndarray, op_name: int) -> float:
    """Largest |sum of self times under an op - the op's duration|, in seconds.

    ``arrays`` is ``Tracer.arrays()``, ``selft`` the ``self_times`` of its
    spans and ``op_name`` the name id of the op spans. NaN when a span under
    an op was never closed; 0 when there are no ops.
    """
    ops = np.nonzero(arrays["name"] == op_name)[0]
    if ops.size == 0:
        return 0.0
    in_op = arrays["op"] >= 0
    n = int(arrays["op"].max()) + 1
    sums = np.bincount(arrays["op"][in_op], weights=selft[in_op], minlength=n)
    dur = arrays["end"][ops] - arrays["start"][ops]
    return float(np.max(np.abs(sums[arrays["op"][ops]] - dur)))


# ---------------------------------------------------------------------------
# wrappers around the roar3d public functions
# ---------------------------------------------------------------------------


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every traced public function; ``patches.undo()`` removes them."""
    from roar3d import checkpoint, data, evaluation, model, numerics, trainer, world

    wrap = tracer.wrap
    count = tracer.count
    # the forward pass in progress: its view-side arrays (features, pooled
    # keys) and whether it routes
    fwd = {"views": [], "routed": False}

    # trainer: train() looks these names up in its own module
    traced_batch = wrap(trainer.assemble_batch, "trainer.assemble_batch")

    def assemble_batch(*args, **kwargs):
        batch = traced_batch(*args, **kwargs)
        count("trainer.samples", batch.size)
        count("trainer.perturbed", float(batch.perturbed.sum()))
        count("trainer.pert_skips", batch.skips)
        count("trainer.views", batch.size * batch.feats.shape[1])
        return batch

    patches.set(trainer, "assemble_batch", assemble_batch)
    patches.set(trainer, "flow_matching_loss",
                wrap(trainer.flow_matching_loss, "trainer.loss_fwd"))
    patches.set(trainer.AdamW, "step", wrap(trainer.AdamW.step, "trainer.adamw"))
    patches.set(numerics.Tensor, "backward",
                wrap(numerics.Tensor.backward, "trainer.backward"))

    # model: integrate_flow and Model.velocity call the forwards by module name
    def forward(fn, routed: bool):
        traced = wrap(fn, "model.forward")

        def call(*args, **kwargs):
            feats = args[4] if len(args) > 4 else kwargs["feats"]
            fwd.update(views=[np.asarray(feats)], routed=routed)
            try:
                return traced(*args, **kwargs)
            finally:
                fwd.update(views=[], routed=False)

        return call

    patches.set(model, "forward_multiview", forward(model.forward_multiview, True))
    patches.set(model, "forward_single", forward(model.forward_single, False))
    patches.set(model, "integrate_flow", wrap(model.integrate_flow, "model.integrate_flow"))
    patches.set(model, "latent_decode", wrap(model.latent_decode, "model.latent_decode"))

    # router: model.py imports these by name, so wrap the names model looks up
    traced_logits = wrap(model.routing_logits_batched, "router.logits")

    def routing_logits_batched(z, pooled, params):
        count("router.calls")
        fwd["views"].append(pooled.data)
        return traced_logits(z, pooled, params)

    patches.set(model, "routing_logits_batched", routing_logits_batched)
    patches.set(model, "gumbel_select", wrap(model.gumbel_select, "router.select"))
    patches.set(model, "routing_noise", wrap(model.routing_noise, "router.noise"))

    # numerics
    traced_matmul = wrap(numerics.matmul, "numerics.matmul")

    def matmul(a, b):
        ad = a.data if isinstance(a, numerics.Tensor) else np.asarray(a)
        bd = b.data if isinstance(b, numerics.Tensor) else np.asarray(b)
        count("numerics.matmul.flop", 2.0 * ad.size * bd.shape[-1])
        for view in fwd["views"]:
            if np.may_share_memory(ad, view):
                count("numerics.matmul.view_side_calls")
                break
        return traced_matmul(a, b)

    patches.set(numerics, "matmul", matmul)

    def kernel(fn, name: str, counter=None):
        traced = wrap(fn, name + ".fwd")
        bwd_name = name + ".bwd"

        def call(*args, **kwargs):
            if counter is not None:
                counter(*args)
            out = traced(*args, **kwargs)
            if out._backward is not None:
                out._backward = wrap(out._backward, bwd_name)
            return out

        return call

    def routed_counts(q_p, q_a, kv_p, kv_a, view_index, use_primary, *rest):
        vi = np.asarray(view_index, dtype=np.int64)
        up = np.asarray(use_primary, dtype=bool)
        B, N = vi.shape
        V = kv_p[0].shape[1]
        key = (np.arange(B)[:, None] * V + vi) * 2 + up
        count("numerics.routed_attention.calls")
        count("numerics.routed_attention.groups", np.unique(key).size)
        count("numerics.routed_attention.tokens", B * N)
        if fwd["routed"]:
            count("router.tokens", B * N)
            count("router.primary_tokens", float(up.sum()))

    patches.set(numerics, "self_attention",
                kernel(numerics.self_attention, "numerics.self_attention"))
    patches.set(numerics, "routed_attention",
                kernel(numerics.routed_attention, "numerics.routed_attention", routed_counts))

    traced_tape = wrap(numerics.ComputationTape.backward, "numerics.tape.backward")

    def tape_backward(tape, root):
        count("numerics.tape.nodes", len(tape.nodes))
        return traced_tape(tape, root)

    patches.set(numerics.ComputationTape, "backward", tape_backward)

    accum = numerics.Tensor.accum_grad

    def accum_grad(t, g):
        count("numerics.accum_grad.calls")
        if t.grad is None and (t.requires_grad or t._parents):
            count("numerics.accum_grad.copy_bytes", np.asarray(g).nbytes)
        return accum(t, g)

    patches.set(numerics.Tensor, "accum_grad", accum_grad)

    # evaluation, world, data, checkpoint
    patches.set(evaluation, "geo_metrics",
                wrap(evaluation.geo_metrics, "evaluation.geo_metrics"))
    traced_encode = wrap(world.encode_view, "world.encode_view")

    def encode_view(*args, **kwargs):
        count("world.encode_view.calls")
        return traced_encode(*args, **kwargs)

    patches.set(world, "encode_view", encode_view)
    patches.set(data, "encode_view", encode_view)
    patches.set(data, "generate_shape", wrap(data.generate_shape, "world.generate_shape"))
    patches.set(data, "build_dataset", wrap(data.build_dataset, "data.build_dataset"))
    patches.set(data, "load_dataset", wrap(data.load_dataset, "data.load_dataset"))
    traced_save = wrap(checkpoint.save_tensors, "checkpoint.save_tensors")

    def save_tensors(path, tensors):
        traced_save(path, tensors)
        count("checkpoint.bytes", os.path.getsize(path))

    patches.set(checkpoint, "save_tensors", save_tensors)
    patches.set(checkpoint, "load_tensors",
                wrap(checkpoint.load_tensors, "checkpoint.load_tensors"))
