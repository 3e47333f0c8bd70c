"""Command-line entry point.

Subcommands wire the library into reproducible runs:

    gen-data        procedural dataset (manifest + per-split containers)
    train-single    phase 1: single-view baseline from scratch
    upgrade         copy-initialize router + auxiliary stream from phase 1
    train-mv        phase 2: multi-view finetune (routed or concat baseline)
    sample          decode one shape from a checkpoint (optional routing trace)
    eval            held-out geometry metrics per view count
    analyze-router  consistency report over routing traces

Every command resolves defaults < config file < flags, writes the resolved
config into its output directory, and derives all randomness from one root
seed. Exit codes: 0 ok, 2 config error, 3 missing or malformed input,
4 divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import evaluation
from .config import ConfigError, RunConfig
from .data import build_dataset, load_dataset
from .model import Model, integrate_flow, latent_decode
from .rng import stream
from .trainer import TrainingDiverged, train, upgrade_from_single
from .world import PointCloud, encode_view

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_DIVERGED = 4


def _resolve_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = RunConfig.load(args.config)
    overrides = {
        "seed": getattr(args, "seed", None),
        "train.p_pert": getattr(args, "p_pert", None),
        "train.batch": getattr(args, "batch", None),
        "train.steps_single": getattr(args, "steps_single", None),
        "train.steps_mv": getattr(args, "steps_mv", None),
        "sample.euler_steps": getattr(args, "euler_steps", None),
        "world.classes": getattr(args, "classes", None),
    }
    return cfg.apply_overrides(overrides)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _save_run_model(model: Model, cfg: RunConfig, out: Path, phase: str, steps: int) -> None:
    model.save(out / "checkpoint.bin", meta={
        "phase": phase,
        "steps": steps,
        "seed": cfg.seed,
        "config_hash": cfg.provenance,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    })
    cfg.write(out / "resolved.cfg")


def _load_model(path: str) -> Model:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"checkpoint not found: {p}")
    return Model.load(p)


def _load_data(path: str):
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"dataset not found: {p}")
    return load_dataset(p)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    cfg = _resolve_config(args)
    build_dataset(cfg, args.out, force=args.force)
    print(f"dataset written to {args.out}")
    return EXIT_OK


def cmd_train_single(args) -> int:
    cfg = _resolve_config(args)
    data = _load_data(args.data)
    out = _out_dir(args)
    model = Model.create(dataclasses.replace(cfg.model, arch="single"), cfg.seed)
    try:
        log = train(model, data.split("train"), cfg, phase="single")
    except TrainingDiverged:
        _save_run_model(model, cfg, out, "single-aborted", -1)
        raise
    log.write(out / "metrics.csv")
    _save_run_model(model, cfg, out, "single", cfg.train.steps_single)
    print(f"single-view checkpoint at {out / 'checkpoint.bin'}")
    return EXIT_OK


def cmd_upgrade(args) -> int:
    cfg = _resolve_config(args)
    single = _load_model(args.ckpt)
    out = _out_dir(args)
    model = upgrade_from_single(single)
    _save_run_model(model, cfg, out, "upgraded", 0)
    print(f"upgraded checkpoint at {out / 'checkpoint.bin'}")
    return EXIT_OK


def cmd_train_mv(args) -> int:
    cfg = _resolve_config(args)
    data = _load_data(args.data)
    out = _out_dir(args)
    model = _load_model(args.ckpt)
    if args.arch == "routed" and model.cfg.arch != "routed":
        model = upgrade_from_single(model)
    elif args.arch == "concat":
        if model.cfg.arch == "routed":
            raise ConfigError("concat baseline must start from a single-stream checkpoint")
        model.cfg = dataclasses.replace(model.cfg, arch="concat")
    try:
        log = train(model, data.split("train"), cfg, phase="mv")
    except TrainingDiverged:
        _save_run_model(model, cfg, out, "mv-aborted", -1)
        raise
    log.write(out / "metrics.csv")
    _save_run_model(model, cfg, out, f"mv-{args.arch}", cfg.train.steps_mv)
    print(f"multi-view checkpoint at {out / 'checkpoint.bin'}")
    return EXIT_OK


def _shape_features(points: np.ndarray, cfg: RunConfig, count: int) -> np.ndarray:
    cams = evaluation.eval_cameras(count)
    return np.stack([encode_view(PointCloud(points), cam, cfg.world) for cam in cams])


def cmd_sample(args) -> int:
    cfg = _resolve_config(args)
    model = _load_model(args.ckpt)
    data = _load_data(args.data)
    split = data.split(args.split)
    if not 0 <= args.shape < len(split):
        raise ConfigError(f"shape index {args.shape} out of range (split has {len(split)})")
    out = _out_dir(args)

    feats = _shape_features(split.points[args.shape], cfg, args.views)[None]
    N, D = split.latents.shape[1:]
    z_init = stream(cfg.seed, "sample-noise", args.shape).normal(size=(1, N, D))
    z0, trace = integrate_flow(model.params, model.cfg, feats,
                               np.zeros(1, dtype=np.int64), z_init,
                               steps=cfg.sample.euler_steps,
                               collect_trace=args.trace)
    points = latent_decode(z0[0], model.cfg)
    ckpt.save_tensors(out / "sample.bin", {"points": points})
    ckpt.save_sidecar(out / "sample.bin", {
        "shape_id": split.ids[args.shape],
        "views": args.views,
        "seed": cfg.seed,
        "euler_steps": cfg.sample.euler_steps,
        "empty": bool(points.shape[0] == 0),
        "config_hash": cfg.provenance,
    })
    if args.trace:
        if trace is None:
            raise ConfigError("--trace requires a routed checkpoint")
        evaluation.save_trace(out / "trace.rtrc", trace[:, :, 0, :], args.views,
                              meta={"shape_id": split.ids[args.shape], "seed": cfg.seed})
    print(f"sample written to {out / 'sample.bin'} ({points.shape[0]} points)")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    model = _load_model(args.ckpt)
    data = _load_data(args.data)
    split = data.split(args.split)
    counts = args.view_counts
    out = _out_dir(args)
    result = evaluation.evaluate(model, split, cfg, view_counts=counts, seed=cfg.seed)
    evaluation.write_metrics_csv(out / "metrics.csv", result["rows"])
    summary = {str(k): v for k, v in result["summary"].items()}
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    cfg.write(out / "resolved.cfg")
    for count in counts:
        s = result["summary"][count]
        print(f"views={count}: CD x1e3 = {1e3 * s['cd_mean']:.3f}  "
              f"F1(0.1) = {s['f1_0_1_mean']:.1f}  F1(0.05) = {s['f1_0_05_mean']:.1f}")
    return EXIT_OK


def cmd_analyze_router(args) -> int:
    traces = []
    for path in args.traces:
        p = Path(path)
        if not p.exists():
            raise FileNotFoundError(f"trace not found: {p}")
        trace, _ = evaluation.load_trace(p)
        traces.append(trace)
    report = evaluation.consistency_report(traces)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"consistency report at {out}: "
          f"cross-block {report['cross_block']['mean']:.4f}, "
          f"cross-timestep {report['cross_timestep']['mean']:.4f}, "
          f"global {report['global']['mean']:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _view_count(text: str) -> int:
    count = int(text)
    if not 1 <= count <= evaluation.MAX_VIEWS:
        raise argparse.ArgumentTypeError(f"view count must be in 1..{evaluation.MAX_VIEWS}")
    return count


def _view_counts(text: str) -> tuple[int, ...]:
    return tuple(_view_count(c) for c in text.split(","))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="config file (key = value sections, or JSON)")
    p.add_argument("--seed", type=int, help="root seed for all sub-streams")
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="roar3d", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the procedural dataset")
    _add_common(p)
    p.add_argument("--classes", help="comma-separated shape classes (world.classes)")
    p.add_argument("--force", action="store_true", help="overwrite an existing dataset")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train-single", help="phase 1: single-view pretraining")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--batch", type=int)
    p.add_argument("--steps-single", type=int, dest="steps_single")
    p.set_defaults(fn=cmd_train_single)

    p = sub.add_parser("upgrade", help="weight-copy upgrade to the routed model")
    _add_common(p)
    p.add_argument("--ckpt", required=True, help="single-stream checkpoint")
    p.set_defaults(fn=cmd_upgrade)

    p = sub.add_parser("train-mv", help="phase 2: multi-view finetuning")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True, help="single or upgraded checkpoint")
    p.add_argument("--arch", choices=("routed", "concat"), default="routed")
    p.add_argument("--p-pert", type=float, dest="p_pert")
    p.add_argument("--batch", type=int)
    p.add_argument("--steps-mv", type=int, dest="steps_mv")
    p.set_defaults(fn=cmd_train_mv)

    p = sub.add_parser("sample", help="decode one shape from a checkpoint")
    _add_common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--shape", type=int, default=0, help="shape index within the split")
    p.add_argument("--views", type=_view_count, default=1)
    p.add_argument("--euler-steps", type=int, dest="euler_steps")
    p.add_argument("--trace", action="store_true", help="also write the routing trace")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("eval", help="held-out geometry metrics per view count")
    _add_common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--view-counts", type=_view_counts, default=(1, 2, 4), dest="view_counts",
                   help=f"comma-separated view counts, each in 1..{evaluation.MAX_VIEWS}")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("analyze-router", help="routing consistency report")
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument("traces", nargs="+", help="routing trace files")
    p.set_defaults(fn=cmd_analyze_router)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileExistsError as exc:
        print(f"refusing to overwrite: {exc} (use --force)", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except ckpt.CheckpointError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
