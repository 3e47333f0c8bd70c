"""End-to-end CLI: dataset, training phases, sampling, eval, analytics."""

import json
from pathlib import Path

import numpy as np
import pytest

from roar3d import checkpoint as ckpt
from roar3d.cli import EXIT_CONFIG, EXIT_MISSING, EXIT_OK, main
from roar3d.evaluation import load_trace, save_trace


def _write_micro_cfg(path: Path, seed: int = 0) -> Path:
    cfg = path / "micro.cfg"
    cfg.write_text(
        "\n".join([
            "[world]",
            "points = 256",
            "patch_grid = 2",
            "feat_dim = 8",
            "[model]",
            "blocks = 2",
            "grid = 2",
            "model_dim = 16",
            "heads = 2",
            "head_dim = 4",
            "patches = 4",
            "feat_dim = 8",
            "[train]",
            "batch = 4",
            "steps_single = 25",
            "steps_mv = 25",
            "[sample]",
            "euler_steps = 8",
            "n_train = 16",
            "n_val = 2",
            "n_test = 4",
            "views_per_bin = 2",
            "[run]",
            f"seed = {seed}",
            "",
        ]),
        encoding="utf-8",
    )
    return cfg


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data + both training phases, shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = _write_micro_cfg(root)
    data = root / "data"
    assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == EXIT_OK
    single = root / "single"
    assert main(["train-single", "--config", str(cfg), "--data", str(data),
                 "--out", str(single)]) == EXIT_OK
    up = root / "up"
    assert main(["upgrade", "--config", str(cfg), "--ckpt", str(single / "checkpoint.bin"),
                 "--out", str(up)]) == EXIT_OK
    mv = root / "mv"
    assert main(["train-mv", "--config", str(cfg), "--data", str(data),
                 "--ckpt", str(up / "checkpoint.bin"), "--out", str(mv)]) == EXIT_OK
    return {"root": root, "cfg": cfg, "data": data, "single": single, "up": up, "mv": mv}


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def test_gen_data_manifest_contract(pipeline):
    manifest = (pipeline["data"] / "manifest.jsonl").read_text().splitlines()
    assert len(manifest) == 16 + 2 + 4
    recs = [json.loads(line) for line in manifest]
    assert {r["split"] for r in recs} == {"train", "val", "test"}
    assert all(set(r) == {"shape_id", "class", "seed", "split"} for r in recs)


def test_gen_data_refuses_overwrite_without_force(pipeline):
    code = main(["gen-data", "--config", str(pipeline["cfg"]), "--out", str(pipeline["data"])])
    assert code == EXIT_CONFIG


def test_gen_data_deterministic(tmp_path):
    cfg = _write_micro_cfg(tmp_path, seed=9)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-data", "--config", str(cfg), "--out", str(a)]) == EXIT_OK
    assert main(["gen-data", "--config", str(cfg), "--out", str(b)]) == EXIT_OK
    assert (a / "manifest.jsonl").read_bytes() == (b / "manifest.jsonl").read_bytes()
    assert (a / "train.bin").read_bytes() == (b / "train.bin").read_bytes()


def test_gen_data_class_filter(tmp_path):
    cfg = _write_micro_cfg(tmp_path, seed=3)
    out = tmp_path / "nb"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out),
                 "--classes", "notched-box"]) == EXIT_OK
    recs = [json.loads(l) for l in (out / "manifest.jsonl").read_text().splitlines()]
    assert all(r["class"] == "notched-box" for r in recs)
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "bad"),
                 "--classes", "dodecahedron"]) == EXIT_CONFIG
    # the filter is the world.classes override, so dataset.cfg rebuilds the same dataset
    assert "classes = notched-box\n" in (out / "dataset.cfg").read_text()
    again = tmp_path / "again"
    assert main(["gen-data", "--config", str(out / "dataset.cfg"), "--out", str(again)]) == EXIT_OK
    for name in ("manifest.jsonl", "train.bin", "val.bin", "test.bin", "dataset.cfg"):
        assert (out / name).read_bytes() == (again / name).read_bytes()


# ---------------------------------------------------------------------------
# training commands
# ---------------------------------------------------------------------------


def test_training_artifacts_exist(pipeline):
    for run in ("single", "up", "mv"):
        out = pipeline[run]
        assert (out / "checkpoint.bin").exists()
        assert (out / "checkpoint.bin.json").exists()
        assert (out / "resolved.cfg").exists()
    for run in ("single", "mv"):
        lines = (pipeline[run] / "metrics.csv").read_text().splitlines()
        assert lines[0] == "step,loss,lr,pert_fraction,pert_skips,routing_entropy_mean"
        assert len(lines) == 26  # header + 25 steps


def test_upgrade_marks_arch_routed(pipeline):
    meta = ckpt.load_sidecar(pipeline["up"] / "checkpoint.bin")
    assert meta["model"]["arch"] == "routed"


def test_train_mv_p_pert_zero_logs_zero_fraction(pipeline, tmp_path):
    out = tmp_path / "mv0"
    code = main(["train-mv", "--config", str(pipeline["cfg"]), "--data", str(pipeline["data"]),
                 "--ckpt", str(pipeline["up"] / "checkpoint.bin"), "--out", str(out),
                 "--p-pert", "0"])
    assert code == EXIT_OK
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    assert all(r.split(",")[3] == "0.000000" for r in rows)


def test_train_mv_concat_baseline(pipeline, tmp_path):
    out = tmp_path / "concat"
    code = main(["train-mv", "--config", str(pipeline["cfg"]), "--data", str(pipeline["data"]),
                 "--ckpt", str(pipeline["single"] / "checkpoint.bin"), "--out", str(out),
                 "--arch", "concat"])
    assert code == EXIT_OK
    meta = ckpt.load_sidecar(out / "checkpoint.bin")
    assert meta["model"]["arch"] == "concat"


def test_missing_inputs_exit_code(pipeline, tmp_path):
    code = main(["train-mv", "--config", str(pipeline["cfg"]), "--data", str(tmp_path / "nope"),
                 "--ckpt", str(pipeline["up"] / "checkpoint.bin"), "--out", str(tmp_path / "x")])
    assert code == EXIT_MISSING
    code = main(["sample", "--config", str(pipeline["cfg"]), "--data", str(pipeline["data"]),
                 "--ckpt", str(tmp_path / "missing.bin"), "--out", str(tmp_path / "y")])
    assert code == EXIT_MISSING
    code = main(["train-single", "--config", str(tmp_path / "absent.cfg"),
                 "--data", str(pipeline["data"]), "--out", str(tmp_path / "z")])
    assert code == EXIT_MISSING


def test_truncated_checkpoint_exit_code(pipeline, tmp_path):
    src = pipeline["mv"] / "checkpoint.bin"
    cut = tmp_path / "checkpoint.bin"
    cut.write_bytes(src.read_bytes()[:-8])
    Path(str(cut) + ".json").write_bytes(Path(str(src) + ".json").read_bytes())
    code = main(["sample", "--config", str(pipeline["cfg"]), "--data", str(pipeline["data"]),
                 "--ckpt", str(cut), "--out", str(tmp_path / "y")])
    assert code == EXIT_MISSING


def test_truncated_sidecar_exit_code(pipeline, tmp_path):
    src = pipeline["mv"] / "checkpoint.bin"
    cut = tmp_path / "checkpoint.bin"
    cut.write_bytes(src.read_bytes())
    Path(str(cut) + ".json").write_bytes(Path(str(src) + ".json").read_bytes()[:40])
    code = main(["sample", "--config", str(pipeline["cfg"]), "--data", str(pipeline["data"]),
                 "--ckpt", str(cut), "--out", str(tmp_path / "y")])
    assert code == EXIT_MISSING


def _copy_data(src: Path, dst: Path) -> Path:
    dst.mkdir()
    for f in src.iterdir():
        (dst / f.name).write_bytes(f.read_bytes())
    return dst


def _sample(pipeline, out: Path, cfg=None, data=None) -> int:
    return main(["sample", "--config", str(cfg or pipeline["cfg"]),
                 "--data", str(data or pipeline["data"]),
                 "--ckpt", str(pipeline["mv"] / "checkpoint.bin"), "--out", str(out)])


def test_non_finite_dataset_exit_code(pipeline, tmp_path):
    data = _copy_data(pipeline["data"], tmp_path / "data")
    tensors = ckpt.load_tensors(data / "test.bin")
    name = next(k for k in tensors if k.endswith("/feats"))
    tensors[name][0, 0, 0, 0] = np.nan
    ckpt.save_tensors(data / "test.bin", tensors)
    code = main(["sample", "--config", str(pipeline["cfg"]), "--data", str(data),
                 "--ckpt", str(pipeline["mv"] / "checkpoint.bin"), "--out", str(tmp_path / "y")])
    assert code == EXIT_MISSING


def test_bad_config_exit_code(pipeline, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[train]\np_pert = 1.5\n", encoding="utf-8")
    code = main(["train-single", "--config", str(bad), "--data", str(pipeline["data"]),
                 "--out", str(tmp_path / "w")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("case, expected", [
    ("config-dir", EXIT_MISSING),
    ("ckpt-dir", EXIT_MISSING),
    ("trace-dir", EXIT_MISSING),
    ("config-not-utf8", EXIT_CONFIG),
])
def test_directory_or_undecodable_input_exit_code(pipeline, tmp_path, case, expected):
    folder = tmp_path / "folder"
    folder.mkdir()
    cfg, ckpt_path = pipeline["cfg"], pipeline["mv"] / "checkpoint.bin"
    if case == "config-dir":
        cfg = folder
    elif case == "ckpt-dir":
        ckpt_path = folder
    elif case == "config-not-utf8":
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"# caf\xe9\n" + pipeline["cfg"].read_bytes())
    if case == "trace-dir":
        argv = ["analyze-router", "--out", str(tmp_path / "r.json"), str(folder)]
    else:
        argv = ["sample", "--config", str(cfg), "--data", str(pipeline["data"]),
                "--ckpt", str(ckpt_path), "--out", str(tmp_path / "y")]
    assert main(argv) == expected


@pytest.mark.parametrize("case", ["manifest-not-utf8", "manifest-dir"])
def test_unreadable_manifest_exit_code(pipeline, tmp_path, case):
    data = _copy_data(pipeline["data"], tmp_path / "data")
    manifest = data / "manifest.jsonl"
    if case == "manifest-not-utf8":
        manifest.write_bytes(b"\xff" + manifest.read_bytes())
    else:
        manifest.unlink()
        manifest.mkdir()
    code = main(["train-single", "--config", str(pipeline["cfg"]), "--data", str(data),
                 "--out", str(tmp_path / "w")])
    assert code == EXIT_MISSING


def _edit_manifest(data: Path, edit) -> None:
    manifest = data / "manifest.jsonl"
    manifest.write_text(edit(manifest.read_text(encoding="utf-8")), encoding="utf-8")


def _drop_first_class(text: str) -> str:
    first, rest = text.split("\n", 1)
    rec = json.loads(first)
    del rec["class"]
    return json.dumps(rec) + "\n" + rest


def _drop_first_test_cams(data: Path) -> None:
    tensors = ckpt.load_tensors(data / "test.bin")
    del tensors[next(k for k in tensors if k.endswith("/cams"))]
    ckpt.save_tensors(data / "test.bin", tensors)


def _train_container_to_directory(data: Path) -> None:
    (data / "train.bin").unlink()
    (data / "train.bin").mkdir()


@pytest.mark.parametrize("edit", [
    lambda data: _edit_manifest(data, lambda text: text[:-30]),
    lambda data: _edit_manifest(data, lambda text: "[1, 2]\n" + text),
    lambda data: _edit_manifest(data, _drop_first_class),
    _drop_first_test_cams,
    _train_container_to_directory,
], ids=["manifest-cut", "record-not-object", "record-without-class", "tensors-missing",
        "split-container-is-directory"])
def test_malformed_dataset_exit_code(pipeline, tmp_path, edit):
    data = _copy_data(pipeline["data"], tmp_path / "data")
    edit(data)
    assert _sample(pipeline, tmp_path / "y", data=data) == EXIT_MISSING


@pytest.mark.parametrize("name, edit", [
    ("bad.json", lambda text: '{"model": 5}'),
    ("bad.json", lambda text: "[1, 2]"),
    ("bad.json", lambda text: '{"run": 5}'),
    ("bad.json", lambda text: '{"run": {"seed": "x"}}'),
    ("bad.cfg", lambda text: text.replace("[train]", "[train]\ntau = 0")),
    ("bad.cfg", lambda text: text.replace("n_test = 4", "n_test = -1")),
    ("bad.cfg", lambda text: text.replace("views_per_bin = 2", "views_per_bin = 0")),
    ("bad.cfg", lambda text: text.replace("[world]", "[world]\nclasses = foo")),
    ("bad.cfg", lambda text: text.replace("[world]", "[world]\nlift_seed = -1")),
    ("bad.cfg", lambda text: text.replace("points = 256", "points = 4")),
    ("bad.cfg", lambda text: text.replace("[world]", "[world]\nimage_extent = 0")),
    ("bad.cfg", lambda text: text.replace("[world]", "[world]\nocclusion_window = -0.1")),
    ("bad.cfg", lambda text: text.replace("[model]", "[model]\noccupancy_scale = 0")),
    ("bad.cfg", lambda text: text.replace("[model]", "[model]\noffset_scale = 0")),
    ("bad.cfg", lambda text: text.replace("[train]", "[train]\nlr = inf")),
    ("bad.cfg", lambda text: text.replace("[train]", "[train]\nlr_final = -1e-4")),
    ("bad.cfg", lambda text: text.replace("[train]", "[train]\nbeta1 = 1.0")),
    ("bad.cfg", lambda text: text.replace("[train]", "[train]\nbeta2 = -0.5")),
    ("bad.cfg", lambda text: text.replace("[train]", "[train]\nadam_eps = 0")),
], ids=["section-not-object", "payload-not-object", "run-not-object", "seed-not-int",
        "tau-zero", "split-size-negative", "views-per-bin-zero", "unknown-class",
        "lift-seed-negative", "points-below-16", "image-extent-zero",
        "occlusion-window-negative", "occupancy-scale-zero", "offset-scale-zero",
        "lr-infinite", "lr-final-negative", "beta1-one", "beta2-negative", "adam-eps-zero"])
def test_bad_config_value_exit_code(pipeline, tmp_path, name, edit):
    text = pipeline["cfg"].read_text(encoding="utf-8")
    assert edit(text) != text
    bad = tmp_path / name
    bad.write_text(edit(text), encoding="utf-8")
    assert _sample(pipeline, tmp_path / "y", cfg=bad) == EXIT_CONFIG


@pytest.fixture(scope="module")
def data_without_val(pipeline, tmp_path_factory):
    """The pipeline dataset with no val records, so its val split is empty."""
    data = _copy_data(pipeline["data"], tmp_path_factory.mktemp("noval") / "data")
    _edit_manifest(data, lambda text: "".join(
        line + "\n" for line in text.splitlines() if json.loads(line)["split"] != "val"))
    return data


@pytest.mark.parametrize("command, extra", [
    ("sample", ["--shape", "-1"]),
    ("sample", ["--euler-steps", "0"]),
    ("sample", ["--euler-steps", "-3"]),
    ("sample", ["--split", "nope"]),
    ("sample", ["--split", "val"]),
    ("eval", ["--split", "nope"]),
    ("eval", ["--split", "val"]),
    ("eval", ["--view-counts", "1,a"]),
    ("eval", ["--view-counts", "0"]),
    ("eval", ["--view-counts", "13"]),
    ("sample", ["--seed", "-1"]),
    ("sample", ["--seed", str(2**64 - 1)]),
], ids=lambda v: v if isinstance(v, str) else " ".join(v))
def test_bad_argument_exit_code(pipeline, data_without_val, tmp_path, command, extra):
    code = main([command, "--config", str(pipeline["cfg"]), "--data", str(data_without_val),
                 "--ckpt", str(pipeline["mv"] / "checkpoint.bin"), "--out", str(tmp_path / "y"),
                 *extra])
    assert code == EXIT_CONFIG


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def test_sample_deterministic_bytes(pipeline, tmp_path):
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        code = main(["sample", "--config", str(pipeline["cfg"]), "--data", str(pipeline["data"]),
                     "--ckpt", str(pipeline["mv"] / "checkpoint.bin"), "--out", str(out),
                     "--views", "2", "--shape", "1", "--trace"])
        assert code == EXIT_OK
        outs.append(out)
    for fname in ("sample.bin", "sample.bin.json", "trace.rtrc", "trace.rtrc.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname


def test_sample_trace_shape_contract(pipeline, tmp_path):
    out = tmp_path / "tr"
    assert main(["sample", "--config", str(pipeline["cfg"]), "--data", str(pipeline["data"]),
                 "--ckpt", str(pipeline["mv"] / "checkpoint.bin"), "--out", str(out),
                 "--views", "3", "--trace"]) == EXIT_OK
    trace, v = load_trace(out / "trace.rtrc")
    assert v == 3
    assert trace.shape == (8, 2, 8)  # euler_steps x blocks x tokens
    assert trace.max() < 3


def test_sample_trace_on_router_less_checkpoint_fails_before_sampling(pipeline, tmp_path):
    out = tmp_path / "tr"
    assert main(["sample", "--config", str(pipeline["cfg"]), "--data", str(pipeline["data"]),
                 "--ckpt", str(pipeline["single"] / "checkpoint.bin"), "--out", str(out),
                 "--trace"]) == EXIT_CONFIG
    assert not (out / "sample.bin").exists()


def test_sample_view_counts_both_work(pipeline, tmp_path):
    for views in (1, 4):
        out = tmp_path / f"v{views}"
        assert main(["sample", "--config", str(pipeline["cfg"]), "--data", str(pipeline["data"]),
                     "--ckpt", str(pipeline["mv"] / "checkpoint.bin"), "--out", str(out),
                     "--views", str(views)]) == EXIT_OK
        assert (out / "sample.bin").exists()
    bad = main(["sample", "--config", str(pipeline["cfg"]), "--data", str(pipeline["data"]),
                "--ckpt", str(pipeline["mv"] / "checkpoint.bin"), "--out", str(tmp_path / "vb"),
                "--views", "40"])
    assert bad == EXIT_CONFIG


# ---------------------------------------------------------------------------
# eval + analyze-router
# ---------------------------------------------------------------------------


def test_eval_outputs_and_determinism(pipeline, tmp_path):
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        code = main(["eval", "--config", str(pipeline["cfg"]), "--data", str(pipeline["data"]),
                     "--ckpt", str(pipeline["mv"] / "checkpoint.bin"), "--out", str(out),
                     "--view-counts", "1,2,4"])
        assert code == EXIT_OK
        outs.append(out)
    assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()
    assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()

    rows = (outs[0] / "metrics.csv").read_text().splitlines()
    assert rows[0] == "shape_id,view_count,cd_x1000,f1_0_1,f1_0_05"
    assert len(rows) == 1 + 3 * 4  # header + 3 view counts x 4 test shapes
    summary = json.loads((outs[0] / "summary.json").read_text())
    assert set(summary) == {"1", "2", "4"}


def test_analyze_router_constant_trace(tmp_path):
    trace = np.full((6, 3, 10), 1, dtype=int)
    paths = []
    for i in range(2):
        p = tmp_path / f"t{i}.rtrc"
        save_trace(p, trace, view_count=4)
        paths.append(str(p))
    out = tmp_path / "report.json"
    assert main(["analyze-router", "--out", str(out)] + paths) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["cross_block"]["mean"] == 1.0
    assert rep["cross_timestep"]["mean"] == 1.0
    assert rep["global"]["mean"] == 1.0


def test_analyze_router_truncated_trace_exit_code(tmp_path):
    p = tmp_path / "cut.rtrc"
    save_trace(p, np.zeros((4, 2, 6), dtype=int), view_count=2)
    p.write_bytes(p.read_bytes()[:-3])
    assert main(["analyze-router", "--out", str(tmp_path / "c.json"), str(p)]) == EXIT_MISSING


def test_analyze_router_traces_of_different_lengths_exit_code(tmp_path):
    paths = []
    for i, shape in enumerate([(4, 2, 6), (3, 2, 5)]):
        paths.append(str(tmp_path / f"t{i}.rtrc"))
        save_trace(paths[-1], np.zeros(shape, dtype=int), view_count=2)
    assert main(["analyze-router", "--out", str(tmp_path / "r.json"), *paths]) == EXIT_CONFIG


@pytest.mark.parametrize("shape", [(1, 2, 6), (3, 1, 6)], ids=["one-timestep", "one-block"])
def test_analyze_router_short_trace_exit_code(tmp_path, shape):
    p = tmp_path / "short.rtrc"
    save_trace(p, np.zeros(shape, dtype=int), view_count=2)
    assert main(["analyze-router", "--out", str(tmp_path / "r.json"), str(p)]) == EXIT_CONFIG


def test_analyze_router_matches_library_metrics(pipeline, tmp_path):
    out = tmp_path / "tr2"
    assert main(["sample", "--config", str(pipeline["cfg"]), "--data", str(pipeline["data"]),
                 "--ckpt", str(pipeline["mv"] / "checkpoint.bin"), "--out", str(out),
                 "--views", "4", "--trace"]) == EXIT_OK
    report_path = tmp_path / "rep.json"
    assert main(["analyze-router", "--out", str(report_path),
                 str(out / "trace.rtrc")]) == EXIT_OK
    rep = json.loads(report_path.read_text())
    from roar3d.evaluation import (cross_block_consistency, cross_timestep_consistency,
                                   global_consistency)
    trace, _ = load_trace(out / "trace.rtrc")
    assert rep["cross_block"]["mean"] == cross_block_consistency(trace)
    assert rep["cross_timestep"]["mean"] == cross_timestep_consistency(trace)
    assert rep["global"]["mean"] == global_consistency(trace)
