"""Smoke and determinism tests of the benchmark at a micro config.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import report  # noqa: E402
import workloads  # noqa: E402
from roar3d.config import (ModelConfig, RunConfig, SampleConfig,  # noqa: E402
                           TrainConfig, WorldConfig)

OPS = workloads.OPS_MIN
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def micro_config(seed: int = 0) -> RunConfig:
    cfg = RunConfig(
        world=WorldConfig(points=256, patch_grid=2, feat_dim=8, elevation_max=20.0),
        model=ModelConfig(blocks=2, grid=2, model_dim=16, heads=2, head_dim=4,
                          patches=4, feat_dim=8, mlp_ratio=2),
        train=TrainConfig(batch=4, steps_single=2 * OPS, steps_mv=2 * OPS, lr=1e-3,
                          lr_final=1e-4),
        sample=SampleConfig(euler_steps=4, n_train=8, n_val=0, n_test=3, views_per_bin=2),
        seed=seed,
    )
    return cfg.validate()


def micro_run(workload, trace, tmp_path, seed=0):
    return workloads.run(workload, seed, 0.0, trace, tmp_path, cfg=micro_config(seed))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_end_to_end_metric_is_emitted(workload, tmp_path):
    result = micro_run(workload, False, tmp_path)
    assert result["correct"], result["errors"]
    assert result["attempted"] == OPS and result["failed"] == 0
    e2e = result["end_to_end"]
    assert e2e["failed_frac"] == 0.0
    assert e2e["op_count"] == OPS
    assert len(result["probe_ms"]) == OPS + 1  # one probe before each op, one after
    named = "sample_cd_x1000" if workload == "sample" else "train_loss_mean"
    for name in ("setup_s", "setup_wall_s", "op_cost.p50", "op_ms.p50", "op_ms.p90",
                 "items_per_s", "peak_rss_mb", named):
        assert e2e[name] > 0.0, name
    lines, final = report.render(result, {}, SPEC, tmp_path / "out")
    parsed = json.loads(final)
    assert set(parsed) == {"correct", "attempted", "failed", "metrics"}
    for spec in SPEC["end_to_end"]:
        metric = parsed["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0.0
    printed = {line.split()[0]: line.split()[-1] for line in lines if not line.startswith("#")}
    for name in ("setup_s", "setup_wall_s", "op_cost.p50", "op_ms.p50", "op_ms.p90",
                 "items_per_s", "failed_frac", "peak_rss_mb", named):
        assert printed[name] == report.unit(name)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_self_times_sum_to_op_duration(workload, tmp_path):
    result = micro_run(workload, True, tmp_path)
    assert result["correct"], result["errors"]
    assert result["self_time_error_ms"] <= 1e-6
    tracer = result["tracer"]
    assert (tracer.arrays()["name"] == tracer.names.index("op")).sum() == OPS
    layer = result["per_layer"]
    for spec in SPEC["per_layer"]:  # listed metrics are non-zero on every workload
        assert layer[spec["name"]] > 0.0, spec["name"]
    assert layer["model.forward_ms"] > 0 and layer["numerics.matmul.calls"] > 0
    if workload == "sample":
        assert layer["numerics.tape.nodes"] == 0 and layer["trainer.backward_ms"] == 0
        # per request: steps x blocks x (k, v of two streams + pooled router keys)
        cfg = micro_config()
        views = sum(workloads.SAMPLE_VIEWS[j % 3] for j in range(OPS))
        assert layer["numerics.matmul.view_side_calls"] == \
            cfg.sample.euler_steps * cfg.model.blocks * 5
        assert layer["world.encode_view_calls"] == views / OPS
    else:
        assert layer["numerics.tape.nodes"] > 0 and layer["trainer.backward_ms"] > 0
    if workload == "train-single":
        assert layer["router.calls"] == 0
    else:
        assert layer["router.calls"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_runs_at_one_seed_agree(workload, tmp_path):
    first = micro_run(workload, True, tmp_path)
    second = micro_run(workload, True, tmp_path)
    assert first["digest"] == second["digest"]
    assert first["counts_digest"] == second["counts_digest"]
    exact = ("numerics.tape.nodes", "numerics.matmul.calls",
             "numerics.matmul.view_side_calls", "numerics.routed_attention.groups",
             "router.calls")
    for name in exact:
        assert first["per_layer"][name] == second["per_layer"][name], name
    plain = micro_run(workload, False, tmp_path)
    assert plain["digest"] == first["digest"]
    other = micro_run(workload, False, tmp_path, seed=1)
    assert other["digest"] != first["digest"]


def test_a_diverged_step_fails_its_op(monkeypatch, tmp_path):
    real = workloads.trainer.flow_matching_loss

    def loss(model, batch, t, noise, opts=None):
        if opts.step == 3:  # warm-up runs step 0 only
            raise workloads.trainer.TrainingDiverged(opts.step)
        return real(model, batch, t, noise, opts)

    monkeypatch.setattr(workloads.trainer, "flow_matching_loss", loss)
    result = micro_run("train-single", True, tmp_path)
    assert (result["attempted"], result["failed"], result["correct"]) == (4, 1, False)
    assert result["end_to_end"]["failed_frac"] == 0.25
    assert result["end_to_end"]["op_count"] == 3
    assert len(result["probe_ms"]) == 5 and math.isfinite(result["end_to_end"]["op_cost.p50"])
    assert result["per_layer"]["trainer.diverged"] == 1
    assert "TrainingDiverged" in result["errors"][0]


def spans(rows):
    """Tracer-style arrays from (name, parent, op, start, end) rows; name 0 is the op."""
    cols = list(zip(*rows))
    return {"name": np.array(cols[0]), "parent": np.array(cols[1]), "op": np.array(cols[2]),
            "start": np.array(cols[3], dtype=float), "end": np.array(cols[4], dtype=float)}


def sum_error(a):
    selft = workloads.tracing.self_times(a["parent"], a["start"], a["end"])
    return workloads.tracing.op_sum_error(a, selft, 0)


def test_self_time_sum_catches_broken_spans():
    nested = [(0, -1, 0, 0.0, 10.0), (1, 0, 0, 1.0, 4.0), (2, 1, 0, 2.0, 3.0),
              (1, 0, 0, 5.0, 9.0), (0, -1, 1, 10.0, 12.0), (1, 4, 1, 10.5, 11.0)]
    a = spans(nested)
    assert sum_error(a) == 0.0
    selft = workloads.tracing.self_times(a["parent"], a["start"], a["end"])
    assert list(selft) == [3.0, 2.0, 1.0, 4.0, 1.5, 0.5]

    overlapping = nested[:3] + [(1, 0, 0, 3.5, 9.0)] + nested[4:]
    assert sum_error(spans(overlapping)) == pytest.approx(0.5)
    outside = nested[:3] + [(1, 0, 0, 5.0, 11.0)] + nested[4:]
    assert sum_error(spans(outside)) == pytest.approx(1.0)
    unclosed = nested[:2] + [(2, 1, 0, 2.0, math.nan)] + nested[3:]
    assert math.isnan(sum_error(spans(unclosed)))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_outputs_are_reproduced(workload, tmp_path):
    stored = json.loads(workloads.REFERENCE.read_text())[workload]
    got = workloads.reference_outputs(workload, tmp_path)
    assert workloads.compare_reference(stored, got) == []
    rounding = [np.asarray(x) * (1 + 1e-9) for x in got]
    assert workloads.compare_reference(stored, rounding) == []
    changed = [np.asarray(x) * (1 + 1e-4) for x in got]
    assert len(workloads.compare_reference(stored, changed)) == len(got)
    assert len(workloads.compare_reference(stored, got[:-1])) == 1
