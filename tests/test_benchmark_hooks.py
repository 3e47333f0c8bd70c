"""The benchmark's tracer and step hooks still fit the library they patch.

``perfbench/tracing.py`` replaces roar3d functions by module name and reads
their arguments by position (``feats`` is the fifth argument of both
forwards). A rename or signature change in ``src/`` would break the
benchmark first; this test runs one routed training step and one flow
integration through the installed wrappers so that it breaks here too.
``perfbench/workloads.py`` records one loss per training step from
``trainer.flow_matching_loss`` and checks the gradients in
``trainer.apply_freeze``; the second test holds ``train`` to that contract.
The tracer keeps one per-forward state for every call of the wrapped
forwards, so a training step must enter them once, whatever processes the
forward uses inside; the third test holds the model to that.
"""

import dataclasses
import importlib.util
import time
from pathlib import Path

import numpy as np

from roar3d import model as model_mod
from roar3d import trainer
from roar3d.model import Model
from roar3d.trainer import upgrade_from_single

from conftest import (
    LOSS_RTOL,
    assert_gradients_close,
    micro_run_config,
    randomize_zero_init,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_run_a_routed_step_and_a_sample(micro_dataset):
    tracing = _load_tracing()
    cfg = micro_run_config(seed=1)
    cfg.train = dataclasses.replace(cfg.train, steps_mv=1)
    model = upgrade_from_single(Model.create(dataclasses.replace(cfg.model, arch="single"), 1))
    split = micro_dataset.split("train")
    rng = np.random.default_rng(0)
    feats = split.feats[:1, :2, 0]                              # (1, 2, S, feat_dim)
    z_init = rng.normal(size=(1,) + split.latents.shape[1:])
    originals = (model_mod.forward_multiview, trainer.apply_freeze)

    tracer, patches = tracing.Tracer(), tracing.Patches()
    tracing.install(tracer, patches)
    frozen = []
    freeze = trainer.apply_freeze

    def apply_freeze(params, perturbed):   # the benchmark's gradient check rides here
        frozen.append(freeze(params, perturbed))
        return frozen[-1]

    try:
        patches.set(trainer, "apply_freeze", apply_freeze)
        tracer.next_op(time.perf_counter())
        trainer.train(model, split, cfg, "mv")
        tracer.next_op(time.perf_counter())
        z, trace = model_mod.integrate_flow(model.params, model.cfg, feats,
                                            np.zeros(1, dtype=np.int64), z_init, steps=2,
                                            collect_trace=True)
        tracer.end_op(time.perf_counter())
    finally:
        patches.undo()

    assert (model_mod.forward_multiview, trainer.apply_freeze) == originals
    assert len(frozen) == 1 and isinstance(frozen[0], set)
    assert np.isfinite(z).all() and trace.shape == (2, cfg.model.blocks, 1, cfg.model.tokens)
    spans = {tracer.names[i] for i in tracer.name}
    assert {
        "trainer.assemble_batch", "trainer.loss_fwd", "trainer.backward", "trainer.adamw",
        "model.forward", "model.integrate_flow", "router.logits", "router.select",
        "router.noise", "numerics.matmul", "numerics.self_attention.bwd",
        "numerics.routed_attention.fwd", "numerics.routed_attention.bwd",
        "numerics.tape.backward",
    } <= spans
    sample_spans = {tracer.names[i] for i, op in zip(tracer.name, tracer.op) if op == 1}
    assert {"router.logits", "router.select"} <= sample_spans   # inference routing is traced
    for op in (0, 1):   # the forward wrapper found the view features in both ops
        assert tracer.counts[("numerics.matmul.view_side_calls", op)] > 0
        assert tracer.counts[("router.tokens", op)] > 0


def test_each_step_reports_the_full_batch_loss_and_merged_gradients(micro_dataset,
                                                                    monkeypatch):
    cfg = micro_run_config(seed=2)
    cfg.train = dataclasses.replace(cfg.train, steps_mv=3)
    model = upgrade_from_single(Model.create(dataclasses.replace(cfg.model, arch="single"), 2))
    randomize_zero_init(model.params, np.random.default_rng(2))
    steps, checked = [], []
    loss_fn, freeze = trainer.flow_matching_loss, trainer.apply_freeze

    def flow_matching_loss(m, batch, t, noise, opts=None):
        loss, info = loss_fn(m, batch, t, noise, opts)
        ref_model = m.copy()    # other parameters: one graph inside train's scope
        ref, ref_info = loss_fn(ref_model, batch, t, noise, opts)
        ref.backward()
        assert info.views is None and ref_info.views is not None   # joined shards, one graph
        assert batch.size == cfg.train.batch
        assert abs(float(loss.data) - float(ref.data)) <= LOSS_RTOL * abs(float(ref.data))
        steps.append({k: p.grad for k, p in ref_model.params.items()})
        return loss, info

    def apply_freeze(params, perturbed):
        assert_gradients_close({k: p.grad for k, p in params.items()}, steps[-1])
        checked.append(len(steps))
        return freeze(params, perturbed)

    monkeypatch.setattr(trainer, "flow_matching_loss", flow_matching_loss)
    monkeypatch.setattr(trainer, "apply_freeze", apply_freeze)
    trainer.train(model, micro_dataset.split("train"), cfg, "mv")
    assert checked == [1, 2, 3]


def test_a_traced_training_step_enters_the_forward_once(micro_dataset):
    """One ``model.forward`` span per routed step, and equal counters run to run."""
    tracing = _load_tracing()
    cfg = micro_run_config(seed=3)
    cfg.train = dataclasses.replace(cfg.train, steps_mv=1)
    split = micro_dataset.split("train")
    counts = []
    for _ in range(2):
        model = upgrade_from_single(Model.create(dataclasses.replace(cfg.model, arch="single"),
                                                 3))
        randomize_zero_init(model.params, np.random.default_rng(3))
        tracer, patches = tracing.Tracer(), tracing.Patches()
        tracing.install(tracer, patches)
        try:
            tracer.next_op(time.perf_counter())
            trainer.train(model, split, cfg, "mv")
            tracer.end_op(time.perf_counter())
        finally:
            patches.undo()
        forward = tracer.name_id("model.forward")
        assert [op for name, op in zip(tracer.name, tracer.op) if name == forward] == [0]
        assert tracer.counts[("router.calls", 0)] > 0
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1]
