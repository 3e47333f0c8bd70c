"""The full two-phase training protocol at mouse scale (about two minutes).

Builds a tiny dataset, pretrains the single-view baseline, upgrades it
(auxiliary stream + router copied from the trained cross attention), runs
the multi-view phase with orientation perturbation, and evaluates geometry
across view counts.
"""

import dataclasses
import tempfile
import time

import numpy as np

from roar3d.config import ModelConfig, RunConfig, SampleConfig, TrainConfig, WorldConfig
from roar3d.data import build_dataset, load_dataset
from roar3d.evaluation import evaluate
from roar3d.model import Model
from roar3d.trainer import train, upgrade_from_single

cfg = RunConfig(
    world=WorldConfig(points=512, patch_grid=3, feat_dim=16),
    model=ModelConfig(blocks=2, grid=3, model_dim=32, heads=2, head_dim=8,
                      patches=9, feat_dim=16),
    train=TrainConfig(batch=8, lr=1e-3, lr_final=1e-4, steps_single=300, steps_mv=300),
    sample=SampleConfig(euler_steps=16, n_train=96, n_val=8, n_test=16, views_per_bin=3),
    seed=0,
).validate()

with tempfile.TemporaryDirectory() as tmp:
    build_dataset(cfg, tmp, force=True)
    store = load_dataset(tmp)
    tr, te = store.split("train"), store.split("test")

    print("=== phase 1: single-view pretraining ===")
    t0 = time.time()
    single = Model.create(dataclasses.replace(cfg.model, arch="single"), cfg.seed)
    log1 = train(single, tr, cfg, phase="single")
    losses = [float(r.split(",")[1]) for r in log1.rows]
    print(f"{len(losses)} steps in {time.time()-t0:.0f}s, "
          f"loss {np.mean(losses[:20]):.3f} -> {np.mean(losses[-20:]):.3f}")

    print("\n=== upgrade: copy CA_p into CA_a and the router ===")
    mv = upgrade_from_single(single)
    same = np.array_equal(mv.params["blocks.0.ca_a.w_q"].data,
                          mv.params["blocks.0.ca_p.w_q"].data)
    print("CA_a starts as an exact copy of CA_p:", same)

    print("\n=== phase 2: multi-view finetune with orientation perturbation ===")
    t0 = time.time()
    log2 = train(mv, tr, cfg, phase="mv")
    last = log2.rows[-1].split(",")
    print(f"{len(log2.rows)} steps in {time.time()-t0:.0f}s; "
          f"perturbed fraction {last[3]}, skips {last[4]}, routing entropy {last[5]}")

    print("\n=== held-out geometry vs view count ===")
    res = evaluate(mv, te, cfg, view_counts=(1, 2, 4))
    for count, s in res["summary"].items():
        print(f"views={count}: CD x1e3 = {1e3 * s['cd_mean']:7.2f}   "
              f"F1(0.1) = {s['f1_0_1_mean']:5.1f}   F1(0.05) = {s['f1_0_05_mean']:5.1f}")
