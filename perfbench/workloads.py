"""The three benchmark workloads and the metrics computed from one run.

Every workload is a closed loop with one client: the next op starts when the
previous one returns. A run first sets up ``SETUP_REPS`` times (dataset,
model, checkpoint round trip, warm-up ops) and reports the median set-up
time; the objects of the last set-up are then measured. It runs at least
``OPS_MIN`` ops and keeps going until ``seconds`` have passed. The result
checks (loss / Chamfer means, output digests and exact counts) cover the first
``OPS_MIN`` ops only, so they do not depend on how fast the machine is.

Between measured ops the run times ``hostprobe.run``, a fixed unit of host
work outside the ops' timing. ``op_cost.p50``, the median over ops of the op's
time divided by the mean time of the probes just before and just after it,
follows roar3d's speed and mostly not the host's. ``setup_s`` is scaled the
same way: each set-up's time over the mean of the probes around it, times
``PROBE_REF_S``, so it reads in seconds on a host where one probe takes 20 ms.

``reference_errors`` re-runs the first ops at a fixed seed and compares them
with the outputs stored in ``reference.json``, so a change of the computed
result beyond rounding fails the run whatever seed it was given.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from roar3d import data, evaluation, model, rng, trainer, world
from roar3d.config import RunConfig

import hostprobe
import tracing

WORKLOADS = ("train-mv", "train-single", "sample")
OPS_MIN = 60                  # with the set-ups, a run stays near 40 s on a slow host
SETUP_REPS = 3
PROBE_REF_S = 0.020           # set-up seconds are scaled to a host where a probe takes this
WARMUP_OPS = 1
REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 0
REFERENCE_OPS = 3             # covers each sample view count once
REFERENCE_RTOL = 1e-6         # rounding-level changes pass, changed results fail
REFERENCE_ATOL = 1e-9
SAMPLE_VIEWS = (1, 2, 4)      # view count of request j is SAMPLE_VIEWS[j % 3]
# The weights of every run come from this seed, like one fixed checkpoint;
# the workload seed makes the data, the sampling noise and the training
# batches. With weights drawn per seed, sample_cd_x1000 spread by ~9% of its
# median across seeds; with fixed weights, by 2-4%.
MODEL_SEED = 0
ADALN_STD = 0.1
# Velocity-head std: small on train-* so early losses stay near those of the
# zero-head init; larger on sample so decodes hold tens of points, not 0-5.
HEAD_STD = {"train-mv": 0.02, "train-single": 0.02, "sample": 0.1}


def bench_config(workload: str, seed: int) -> RunConfig:
    """Desk defaults with a reduced split: step cost does not depend on split size.

    ``sample`` draws its requests from 20 test shapes, so the first
    ``OPS_MIN`` requests meet every shape at every view count; the training
    workloads use 32 train shapes.
    """
    cfg = RunConfig(seed=seed)
    n_train, n_test = (8, 20) if workload == "sample" else (32, 8)
    cfg.sample.n_train, cfg.sample.n_val, cfg.sample.n_test = n_train, 0, n_test
    return cfg.validate()


def warm_start(m: model.Model, head_std: float) -> None:
    """Give the zero-initialized adaLN and velocity-head weights random values.

    A freshly created model has adaLN-zero gates and a zero velocity head, so
    its velocity is identically zero: a sampled latent would be its initial
    noise whatever the network computes, and every block would route alike.
    This fills those tensors (and nothing else) from ``MODEL_SEED``; it is
    input generation, not training.
    """
    g = rng.stream(MODEL_SEED, "bench-warm-start")
    for name, p in m.params.items():
        if name.endswith("mod.w"):
            p.data[...] = g.normal(0.0, ADALN_STD, size=p.shape)
        elif name.endswith("head.w"):
            p.data[...] = g.normal(0.0, head_std, size=p.shape)


@dataclass
class Context:
    workload: str
    cfg: RunConfig
    split: data.SplitData           # train split, or test split on ``sample``
    model: model.Model
    warmup: list                    # outputs of the warm-up ops


@dataclass
class OpLog:
    durations: list = field(default_factory=list)   # seconds per finished op
    attempted: int = 0
    failed: int = 0
    diverged: int = 0
    outputs: list = field(default_factory=list)     # per-op result value
    grad_sq: list = field(default_factory=list)     # train: per-step squared gradient
                                                    # norm of each parameter
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    probe_s: list = field(default_factory=list)     # probe before each op, and one after
    errors: list = field(default_factory=list)


def set_up(workload: str, cfg: RunConfig, workdir: Path) -> Context:
    data_dir = workdir / "data"
    data.build_dataset(cfg, data_dir, force=True)
    store = data.load_dataset(data_dir)
    single = model.Model.create(dataclasses.replace(cfg.model, arch="single"), MODEL_SEED)
    warm_start(single, HEAD_STD[workload])
    m = single if workload == "train-single" else trainer.upgrade_from_single(single)
    path = workdir / "checkpoint.bin"
    m.save(path)
    loaded = model.Model.load(path)
    for name, p in m.params.items():
        if not np.array_equal(p.data, loaded.params[name].data):
            raise RuntimeError(f"checkpoint round trip changed {name}")
    split = store.split("test" if workload == "sample" else "train")
    ctx = Context(workload, cfg, split, loaded, [])
    if workload == "sample":
        ctx.warmup = [sample_request(ctx, j)[0] for j in range(WARMUP_OPS)]
    else:
        scratch = dataclasses.replace(ctx, model=loaded.copy())
        ctx.warmup = run_train(scratch, 0.0, WARMUP_OPS, None, probe=False).outputs
    return ctx


def _phase(workload: str) -> str:
    return "single" if workload == "train-single" else "mv"


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


class _Stop(Exception):
    """Raised from the op boundary when the run has measured enough."""


class NonFiniteGradient(ArithmeticError):
    """A training step produced a non-finite parameter gradient."""


def sample_request(ctx: Context, j: int):
    """One ``roar3d sample``-style request: encode views, integrate, decode, score."""
    cfg, split, m = ctx.cfg, ctx.split, ctx.model
    views = SAMPLE_VIEWS[j % len(SAMPLE_VIEWS)]
    shape = (j // len(SAMPLE_VIEWS)) % len(split)
    pc = world.PointCloud(split.points[shape])
    feats = np.stack([world.encode_view(pc, cam, cfg.world)
                      for cam in evaluation.eval_cameras(views)])[None]
    N, D = split.latents.shape[1:]
    z_init = rng.stream(cfg.seed, "sample-noise", j).normal(size=(1, N, D))
    z0, _ = model.integrate_flow(m.params, m.cfg, feats, np.zeros(1, dtype=np.int64),
                                 z_init, steps=cfg.sample.euler_steps)
    points = model.latent_decode(z0[0], m.cfg)
    if points.shape[0] == 0:
        cd = evaluation.EMPTY_CLOUD_CD
    else:
        cd = evaluation.geo_metrics(points, split.points[shape]).cd
    return z0, points, cd


def run_sample(ctx: Context, seconds: float, ops_min: int, tracer) -> OpLog:
    log = OpLog()
    t0 = time.perf_counter()
    j = 0
    while j < ops_min or time.perf_counter() - t0 < seconds:
        log.attempted += 1
        log.probe_s.append(hostprobe.run())
        start = time.perf_counter()
        if tracer is not None:
            tracer.next_op(start)
        try:
            z0, points, cd = sample_request(ctx, j)
            if not np.isfinite(z0).all():
                raise FloatingPointError(f"non-finite latent in request {j}")
            if points.shape[0] and (np.abs(points) > 1.0 + 1e-12).any():
                raise ValueError(f"decoded point outside the canonical box in request {j}")
            if not (math.isfinite(cd) and cd >= 0.0):
                raise ValueError(f"bad Chamfer distance {cd} in request {j}")
            if j < len(ctx.warmup) and not np.array_equal(z0, ctx.warmup[j]):
                raise ValueError(f"request {j} differs from its warm-up run")
        except Exception:  # any raise fails the op; the run records it and stops
            log.failed += 1
            log.errors.append(traceback.format_exc(limit=-3))
            break
        finally:
            end = time.perf_counter()
            if tracer is not None:
                tracer.end_op(end)
        log.durations.append(end - start)
        if j < ops_min:
            log.outputs.append(1e3 * cd)
            log.digest.update(z0.tobytes())
        j += 1
    log.probe_s.append(hostprobe.run())
    return log


def run_train(ctx: Context, seconds: float, ops_min: int, tracer,
              probe: bool = True) -> OpLog:
    """Time ``trainer.train`` step by step from its calls to ``assemble_batch``.

    ``train`` has no per-step hook, so the op boundary is the one public call
    it makes once per step; the finite-loss and finite-gradient checks ride on
    ``flow_matching_loss`` and ``apply_freeze``, which it also calls once per
    step. The host probe runs at the boundary, outside both ops' times; the
    warm-up and reference runs, which are not measured, skip it.
    """
    log = OpLog()
    patches = tracing.Patches()
    clock = {"start": None, "t0": None}
    losses: list[float] = []

    def close(now: float) -> None:
        if clock["start"] is not None:
            log.durations.append(now - clock["start"])
            clock["start"] = None

    assemble = trainer.assemble_batch
    loss_fn = trainer.flow_matching_loss
    freeze = trainer.apply_freeze

    def assemble_batch(*args, **kwargs):
        now = time.perf_counter()
        close(now)
        done = len(log.durations)
        if tracer is not None:
            tracer.end_op(now)
        if done >= ops_min and now - clock["t0"] >= seconds:
            raise _Stop
        log.attempted += 1
        if probe:
            log.probe_s.append(hostprobe.run())
            now = time.perf_counter()
        clock["start"] = now
        if tracer is not None:
            tracer.next_op(now)
        return assemble(*args, **kwargs)

    def flow_matching_loss(*args, **kwargs):
        loss, info = loss_fn(*args, **kwargs)
        losses.append(float(loss.data))
        return loss, info

    def apply_freeze(params, perturbed):
        sq = np.array([0.0 if p.grad is None else np.vdot(p.grad, p.grad)
                       for p in params.values()])
        if not np.isfinite(sq).all():
            raise NonFiniteGradient(
                f"non-finite gradient in {list(params)[int(np.argmin(np.isfinite(sq)))]}")
        log.grad_sq.append(sq)
        return freeze(params, perturbed)

    patches.set(trainer, "assemble_batch", assemble_batch)
    patches.set(trainer, "flow_matching_loss", flow_matching_loss)
    patches.set(trainer, "apply_freeze", apply_freeze)
    clock["t0"] = time.perf_counter()
    try:
        trainer.train(ctx.model, ctx.split, ctx.cfg, _phase(ctx.workload))
    except _Stop:
        pass
    except Exception as exc:  # any raise fails the op; the run records it and stops
        log.failed += 1
        log.diverged += isinstance(exc, trainer.TrainingDiverged)
        log.errors.append(traceback.format_exc(limit=-3))
        clock["start"] = None
    finally:
        patches.undo()
    now = time.perf_counter()
    close(now)
    if tracer is not None:
        tracer.end_op(now)
    if probe:
        log.probe_s.append(hostprobe.run())
    kept = losses[: min(ops_min, len(log.durations))]
    if kept[: len(ctx.warmup)] != ctx.warmup[: len(kept)]:
        log.errors.append("first training losses differ from the warm-up run")
    log.outputs = kept
    log.digest.update(np.asarray(kept, dtype=np.float64).tobytes())
    return log


# ---------------------------------------------------------------------------
# a whole run
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, work_root: Path,
        cfg: RunConfig | None = None) -> dict:
    """Set up, measure and analyse one run; returns the result record."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    cfg = cfg or bench_config(workload, seed)
    tracer = tracing.Tracer() if trace else None
    patches = tracing.Patches()
    if tracer is not None:
        tracing.install(tracer, patches)
    work_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        setup_times, setup_probes = [], [hostprobe.run()]
        for rep in range(SETUP_REPS):
            rep_dir = workdir / f"setup{rep}"
            t = time.perf_counter()
            ctx = set_up(workload, cfg, rep_dir)
            setup_times.append(time.perf_counter() - t)
            setup_probes.append(hostprobe.run())
            if rep + 1 < SETUP_REPS:
                shutil.rmtree(rep_dir)
        runner = run_sample if workload == "sample" else run_train
        log = runner(ctx, seconds, OPS_MIN, tracer)
    finally:
        patches.undo()
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "workload": workload,
        "seed": seed,
        "trace": bool(trace),
        "ops_min": OPS_MIN,
        "attempted": log.attempted,
        "failed": log.failed,
        "errors": log.errors,
        "digest": log.digest.hexdigest(),
        "end_to_end": end_to_end(workload, cfg, log, setup_times, setup_probes),
        "op_ms": [1e3 * d for d in log.durations],
        "probe_ms": [1e3 * d for d in log.probe_s],
        "setup_s_each": setup_times,
        "setup_probe_ms": [1e3 * d for d in setup_probes],
    }
    result["correct"] = (log.failed == 0 and not log.errors
                         and len(log.durations) >= OPS_MIN)
    if tracer is not None:
        result["tracer"] = tracer
        result["per_layer"], result["self_time_error_ms"] = per_layer(tracer)
        result["per_layer"]["trainer.diverged"] = float(log.diverged)
        result["counts_digest"] = counts_digest(tracer)
        if not result["self_time_error_ms"] <= 1e-6:  # also fails on NaN
            result["correct"] = False
    return result


def reference_outputs(workload: str, work_root: Path) -> list:
    """Outputs of the first ``REFERENCE_OPS`` ops at ``REFERENCE_SEED``.

    On ``train-*``, each step's loss followed by the squared gradient norm of
    every parameter: the loss alone barely depends on a freshly initialized
    network. On ``sample``, the row and column sums of each sampled latent
    (tokens x channels), which keeps the stored file small.
    """
    work_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="ref-", dir=work_root))
    try:
        ctx = set_up(workload, bench_config(workload, REFERENCE_SEED), workdir)
        if workload == "sample":
            latents = [sample_request(ctx, j)[0][0] for j in range(REFERENCE_OPS)]
            return [np.concatenate([z.sum(axis=1), z.sum(axis=0)]) for z in latents]
        log = run_train(ctx, 0.0, REFERENCE_OPS, None, probe=False)
        return [np.concatenate([[loss], sq]) for loss, sq in zip(log.outputs, log.grad_sq)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def reference_errors(workload: str, work_root: Path) -> list[str]:
    """Differences between ``reference_outputs`` and ``reference.json``."""
    stored = json.loads(REFERENCE.read_text())[workload]
    return compare_reference(stored, reference_outputs(workload, work_root))


def compare_reference(stored: list, got: list) -> list[str]:
    """One message per op whose output is not within the reference tolerance."""
    errors = []
    for j, (want, have) in enumerate(zip(stored, got)):
        want, have = np.asarray(want), np.asarray(have)
        if want.shape != have.shape:
            errors.append(f"reference op {j} has shape {have.shape}, "
                          f"reference.json {want.shape}")
        elif not np.allclose(have, want, rtol=REFERENCE_RTOL, atol=REFERENCE_ATOL):
            errors.append(f"reference op {j} at seed {REFERENCE_SEED} differs from "
                          f"reference.json by up to {np.max(np.abs(have - want)):.3g}")
    if len(got) != len(stored):
        errors.append(f"reference run gave {len(got)} ops, reference.json {len(stored)}")
    return errors


def end_to_end(workload: str, cfg: RunConfig, log: OpLog, setup_times: list,
               setup_probes: list) -> dict:
    ms = np.asarray(log.durations) * 1e3
    ops = len(ms)
    busy = float(ms.sum()) / 1e3 if ops else math.nan
    items = ops * (1 if workload == "sample" else cfg.train.batch)
    out_name = "sample_cd_x1000" if workload == "sample" else "train_loss_mean"
    out_mean = float(np.mean(log.outputs)) if log.outputs else math.nan
    # the highest percentile up to 90 with at least ten ops beyond it
    hi = min(90.0, 100.0 * (ops - 10) / ops) if ops > 10 else math.nan
    # op j ran between probes j and j + 1; a failed op's probes come after
    probe_ms = np.asarray(log.probe_s[: ops + 1]) * 1e3
    cost = ms / (0.5 * (probe_ms[:-1] + probe_ms[1:])) if ops else ms
    return {
        "setup_s": PROBE_REF_S * statistics.median(
            t / (0.5 * (a + b)) for t, a, b in zip(setup_times, setup_probes, setup_probes[1:])),
        "setup_wall_s": statistics.median(setup_times),
        "op_cost.p50": float(np.median(cost)) if ops else math.nan,
        "probe_ms.p50": float(np.median(probe_ms)) if ops else math.nan,
        "op_ms.p50": float(np.percentile(ms, 50)) if ops else math.nan,
        "op_ms.p90": float(np.percentile(ms, hi)) if ops > 10 else math.nan,
        "op_count": ops,
        "items_per_s": items / busy if ops else math.nan,
        "failed_frac": log.failed / max(log.attempted, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        out_name: out_mean,
        "output_mean": out_mean,
    }


# ---------------------------------------------------------------------------
# traced-run analysis
# ---------------------------------------------------------------------------


def per_layer(tracer) -> tuple[dict, float]:
    """Per-op layer times from the spans and per-op counts from the first ops.

    Times are averaged over every timed op; counts over the first ``OPS_MIN``
    ops, so they are exact at a fixed seed. Set-up metrics are per set-up.
    Also returns the self-time sum error of ``tracing.op_sum_error`` in ms.
    """
    a = tracer.arrays()
    names = tracer.names
    dur = a["end"] - a["start"]
    selft = tracing.self_times(a["parent"], a["start"], a["end"])
    in_op = a["op"] >= 0
    n_ops = int(a["op"].max()) + 1 if in_op.any() else 0

    def nid(name):
        return names.index(name) if name in names else -1

    def op_total(name, values=dur):
        mask = in_op & (a["name"] == nid(name))
        return float(values[mask].sum())

    def per_op_ms(name, values=dur):
        return 1e3 * op_total(name, values) / n_ops if n_ops else 0.0

    def setup_total(name):
        mask = ~in_op & (a["name"] == nid(name))
        return float(dur[mask].sum()) / SETUP_REPS

    prefix = min(OPS_MIN, n_ops)

    def cnt(name):
        total = sum(v for (k, op), v in tracer.counts.items() if k == name and 0 <= op < prefix)
        return total / prefix if prefix else 0.0

    def spans(name):
        mask = (a["name"] == nid(name)) & in_op & (a["op"] < prefix)
        return float(mask.sum()) / prefix if prefix else 0.0

    def setup_cnt(name):
        return sum(v for (k, op), v in tracer.counts.items() if k == name and op < 0) / SETUP_REPS

    def ratio(num, den):
        d = cnt(den)
        return cnt(num) / d if d else 0.0

    m = {
        "trainer.assemble_batch_ms": per_op_ms("trainer.assemble_batch"),
        "trainer.loss_fwd_ms": per_op_ms("trainer.loss_fwd"),
        "trainer.backward_ms": per_op_ms("trainer.backward"),
        "trainer.adamw_ms": per_op_ms("trainer.adamw"),
        "trainer.perturbed_share": ratio("trainer.perturbed", "trainer.samples"),
        "trainer.pert_skip_share": ratio("trainer.pert_skips", "trainer.samples"),
        "trainer.views_per_sample": ratio("trainer.views", "trainer.samples"),
        "model.forward_ms": per_op_ms("model.forward"),
        "model.self_ms": per_op_ms("model.forward", selft),
        "model.integrate_flow_ms": per_op_ms("model.integrate_flow"),
        "model.latent_decode_ms": per_op_ms("model.latent_decode"),
        "router.logits_ms": per_op_ms("router.logits"),
        "router.select_ms": per_op_ms("router.select"),
        "router.noise_ms": per_op_ms("router.noise"),
        "router.calls": cnt("router.calls"),
        "router.primary_share": ratio("router.primary_tokens", "router.tokens"),
        "numerics.self_attention.fwd_ms": per_op_ms("numerics.self_attention.fwd"),
        "numerics.self_attention.bwd_ms": per_op_ms("numerics.self_attention.bwd"),
        "numerics.routed_attention.fwd_ms": per_op_ms("numerics.routed_attention.fwd"),
        "numerics.routed_attention.bwd_ms": per_op_ms("numerics.routed_attention.bwd"),
        "numerics.routed_attention.calls": cnt("numerics.routed_attention.calls"),
        "numerics.routed_attention.groups": cnt("numerics.routed_attention.groups"),
        "numerics.routed_attention.tokens_per_group": ratio(
            "numerics.routed_attention.tokens", "numerics.routed_attention.groups"),
        "numerics.matmul.calls": spans("numerics.matmul"),
        "numerics.matmul.ms": per_op_ms("numerics.matmul"),
        "numerics.matmul.gflop": cnt("numerics.matmul.flop") / 1e9,
        "numerics.matmul.view_side_calls": cnt("numerics.matmul.view_side_calls"),
        "numerics.tape.nodes": cnt("numerics.tape.nodes"),
        "numerics.tape.backward_ms": per_op_ms("numerics.tape.backward", selft),
        "numerics.accum_grad.calls": cnt("numerics.accum_grad.calls"),
        "numerics.accum_grad.copy_mb": cnt("numerics.accum_grad.copy_bytes") / 2**20,
        "evaluation.geo_metrics_ms": per_op_ms("evaluation.geo_metrics"),
        "world.encode_view_ms": per_op_ms("world.encode_view"),
        "world.encode_view_calls": cnt("world.encode_view.calls"),
        "world.setup_encode_view_calls": setup_cnt("world.encode_view.calls"),
        "world.generate_shape_ms": 1e3 * setup_total("world.generate_shape"),
        "data.build_dataset_s": setup_total("data.build_dataset"),
        "data.load_dataset_s": setup_total("data.load_dataset"),
        "data.workers": float(rng.worker_count()),
        "checkpoint.save_tensors_ms": 1e3 * setup_total("checkpoint.save_tensors"),
        "checkpoint.load_tensors_ms": 1e3 * setup_total("checkpoint.load_tensors"),
        "checkpoint.mb": setup_cnt("checkpoint.bytes") / 2**20,
    }

    err = tracing.op_sum_error(a, selft, nid(tracing.OP))
    op_ms = dur[a["name"] == nid(tracing.OP)] * 1e3
    m["traced.op_ms.p50"] = float(np.percentile(op_ms, 50)) if n_ops else 0.0
    m["traced.span_count"] = float(len(dur))
    return m, 1e3 * err


def counts_digest(tracer) -> str:
    """Digest of every counter over the first ``OPS_MIN`` ops."""
    h = hashlib.sha256()
    for (name, op), v in sorted(tracer.counts.items()):
        if 0 <= op < OPS_MIN:
            h.update(f"{name}:{op}:{v!r};".encode())
    return h.hexdigest()
