"""End-to-end CLI: dataset, training phases, sampling, eval, analytics."""

import configparser
import dataclasses
import json
import multiprocessing
import struct
from pathlib import Path

import numpy as np
import pytest

from roar3d import checkpoint as ckpt
from roar3d import trainer
from roar3d.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_MISSING, EXIT_OK, main
from roar3d.config import ModelConfig, RunConfig
from roar3d.evaluation import load_trace, save_trace
from roar3d.model import Model


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


def _model_section(cfg: RunConfig) -> dict:
    """``cfg``'s model as a checkpoint sidecar writes it."""
    return {**dataclasses.asdict(cfg.model), "tokens": cfg.model.tokens}


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


@pytest.mark.parametrize("diverges", [False, True], ids=["ok", "diverged"])
def test_train_single_in_process_leaves_no_child_process(pipeline, tmp_path, monkeypatch,
                                                         diverges):
    """The training command's shard worker stops with its run, also when the run exits 4."""
    loss_fn, alive = trainer.flow_matching_loss, []

    def flow_matching_loss(model, batch, t, noise, opts):
        alive.append(len(multiprocessing.active_children()))
        if diverges and opts.step == 3:
            raise trainer.TrainingDiverged(opts.step)
        return loss_fn(model, batch, t, noise, opts)

    monkeypatch.setattr(trainer, "flow_matching_loss", flow_matching_loss)
    out = tmp_path / "w"
    code = main(["train-single", "--config", str(pipeline["cfg"]), "--data", str(pipeline["data"]),
                 "--out", str(out)])
    assert code == (EXIT_DIVERGED if diverges else EXIT_OK)
    assert alive == [1] * (4 if diverges else 25)
    assert not multiprocessing.active_children()
    assert ckpt.load_sidecar(out / "checkpoint.bin")["phase"] == (
        "single-aborted" if diverges else "single")


def test_train_single_records_the_single_stream_model_it_trained(pipeline):
    recorded = RunConfig.load(pipeline["single"] / "resolved.cfg")
    meta = ckpt.load_sidecar(pipeline["single"] / "checkpoint.bin")
    assert recorded.model.arch == "single"
    assert _model_section(recorded) == meta["model"]
    assert recorded.provenance == meta["config_hash"]


@pytest.mark.parametrize("command", ["train-mv", "sample", "eval"])
def test_a_run_records_the_checkpoints_model_not_the_configs(pipeline, tmp_path, command):
    """--config asks for 5 blocks of 1 head; the checkpoint's 2 blocks of 2 heads are recorded."""
    text = pipeline["cfg"].read_text(encoding="utf-8")
    cfg = tmp_path / "other.cfg"
    cfg.write_text(text.replace("blocks = 2", "blocks = 5").replace("heads = 2", "heads = 1"),
                   encoding="utf-8")
    source = pipeline["up" if command == "train-mv" else "mv"] / "checkpoint.bin"
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--data", str(pipeline["data"]),
                 "--ckpt", str(source), "--out", str(out)]) == EXIT_OK
    recorded = RunConfig.load(out / "resolved.cfg")
    assert (recorded.model.blocks, recorded.model.heads) == (2, 2)
    ran = out / "checkpoint.bin" if command == "train-mv" else source
    assert _model_section(recorded) == ckpt.load_sidecar(ran)["model"]
    if command != "eval":  # eval records no config hash
        artifact = "checkpoint.bin" if command == "train-mv" else "sample.bin"
        assert ckpt.load_sidecar(out / artifact)["config_hash"] == recorded.provenance


def test_upgrade_marks_arch_routed(pipeline):
    meta = ckpt.load_sidecar(pipeline["up"] / "checkpoint.bin")
    assert meta["model"]["arch"] == "routed"


def test_upgrade_of_a_routed_checkpoint_exit_code(pipeline, tmp_path, capsys):
    out = tmp_path / "again"
    code = main(["upgrade", "--config", str(pipeline["cfg"]),
                 "--ckpt", str(pipeline["up"] / "checkpoint.bin"), "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and "routed" in err
    assert not out.exists()


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
    code = main(["analyze-router", "--out", str(tmp_path / "r.json"), str(tmp_path / "t.bin")])
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


# the twelve keys that config files and checkpoint sidecars carried before their
# values became constants, each at that value
FIXED_KEYS = {
    "world": {"image_extent": 1.5, "occlusion_window": 0.15, "lift_seed": 2401},
    "model": {"occupancy_scale": 4.0, "offset_scale": 8.0, "mlp_ratio": 2},
    "train": {"weight_decay": 0.01, "beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-08,
              "aux_min": 1, "tau": 1.0},
}


def _checkpoint_with_model_keys(pipeline, tmp_path: Path, run: str, **keys) -> Path:
    """A copy of ``run``'s checkpoint whose sidecar [model] also holds ``keys``."""
    src = pipeline[run] / "checkpoint.bin"
    path = tmp_path / "keyed" / "checkpoint.bin"
    path.parent.mkdir()
    path.write_bytes(src.read_bytes())
    meta = ckpt.load_sidecar(src)
    meta["model"].update(keys)
    ckpt.save_sidecar(path, meta)
    return path


@pytest.mark.parametrize("command", ["eval", "train-mv"])
def test_checkpoint_with_another_codec_scale_exit_code(pipeline, tmp_path, capsys, command):
    """The latent codec's scales are fixed, so a checkpoint asking for others is refused."""
    path = _checkpoint_with_model_keys(pipeline, tmp_path, "single", occupancy_scale=1.0)
    out = tmp_path / "y"
    code = main([command, "--config", str(pipeline["cfg"]), "--data", str(pipeline["data"]),
                 "--ckpt", str(path), "--out", str(out)])
    assert code == EXIT_MISSING
    assert "occupancy_scale" in capsys.readouterr().err
    assert not out.exists()


def test_checkpoint_with_a_boolean_dimension_exit_code(pipeline, tmp_path, capsys):
    """A JSON true in a sidecar is not a number, although Python counts it as 1."""
    path = _checkpoint_with_model_keys(pipeline, tmp_path, "mv", blocks=True)
    code = main(["sample", "--config", str(pipeline["cfg"]), "--data", str(pipeline["data"]),
                 "--ckpt", str(path), "--out", str(tmp_path / "y")])
    assert code == EXIT_MISSING
    assert "'blocks'" in capsys.readouterr().err


def test_a_config_and_checkpoint_spelling_out_the_fixed_keys_load(pipeline, tmp_path):
    """A resolved.cfg with all 38 values and a sidecar with the codec scales run as before."""
    parser = configparser.ConfigParser()
    parser.read_string((pipeline["mv"] / "resolved.cfg").read_text(encoding="utf-8"))
    for section, values in FIXED_KEYS.items():
        parser[section].update({k: str(v) for k, v in values.items()})
    assert sum(len(parser[s]) for s in parser.sections()) == 38
    spelled = tmp_path / "spelled.cfg"
    with open(spelled, "w", encoding="utf-8") as fh:
        parser.write(fh)
    keyed = _checkpoint_with_model_keys(pipeline, tmp_path, "mv", **FIXED_KEYS["model"])
    outs = [tmp_path / "plain", tmp_path / "spelled"]
    for cfg, path, out in [(pipeline["mv"] / "resolved.cfg", pipeline["mv"] / "checkpoint.bin",
                            outs[0]), (spelled, keyed, outs[1])]:
        assert main(["sample", "--config", str(cfg), "--data", str(pipeline["data"]),
                     "--ckpt", str(path), "--out", str(out)]) == EXIT_OK
    for name in ("sample.bin", "sample.bin.json", "resolved.cfg"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def _copy_data(src: Path, dst: Path) -> Path:
    dst.mkdir()
    for f in src.iterdir():
        (dst / f.name).write_bytes(f.read_bytes())
    return dst


def _sample(pipeline, out: Path, cfg=None, data=None) -> int:
    return main(["sample", "--config", str(cfg or pipeline["cfg"]),
                 "--data", str(data or pipeline["data"]),
                 "--ckpt", str(pipeline["mv"] / "checkpoint.bin"), "--out", str(out)])


@pytest.mark.parametrize("command", ["gen-data", "train-single", "upgrade", "train-mv",
                                     "sample", "eval", "analyze-router"])
@pytest.mark.parametrize("where", ["taken", "under-a-file"])
def test_unusable_out_exit_code(pipeline, tmp_path, capsys, command, where):
    """An --out that cannot be made is a config error naming it, and nothing is written.

    "taken" is a regular file where the directory goes, or, for analyze-router,
    whose --out is a file, a directory where the file goes.
    """
    afile = tmp_path / "afile"
    afile.write_text("kept\n", encoding="utf-8")
    out = afile / "sub" if where == "under-a-file" else afile
    if where == "taken" and command == "analyze-router":
        out = tmp_path / "adir"
        out.mkdir()
    if command == "analyze-router":
        trace = tmp_path / "t.bin"
        save_trace(trace, np.zeros((3, 2, 6), dtype=int), view_count=2)
        argv = [command, "--out", str(out), str(trace)]
    else:
        argv = [command, "--config", str(pipeline["cfg"]), "--out", str(out)]
    if command not in ("gen-data", "upgrade", "analyze-router"):
        argv += ["--data", str(pipeline["data"])]
    if command in ("upgrade", "train-mv", "sample", "eval"):
        run = {"upgrade": "single", "train-mv": "up"}.get(command, "mv")
        argv += ["--ckpt", str(pipeline[run] / "checkpoint.bin")]
    assert main(argv) == EXIT_CONFIG
    # the report's own directory is the one that cannot be made under a file
    named = afile if (command, where) == ("analyze-router", "under-a-file") else out
    err = capsys.readouterr().err
    assert str(named) in err and "--force" not in err
    assert afile.read_text(encoding="utf-8") == "kept\n"
    assert not out.is_dir() or not any(out.iterdir())


@pytest.mark.parametrize("command, taken", [("train-single", "resolved.cfg"),
                                            ("sample", "sample.bin.json"),
                                            ("eval", "summary.json")])
def test_output_file_taken_by_a_directory_exit_code(pipeline, tmp_path, capsys, command, taken):
    """A directory where the command would write a file is a config error naming it,
    raised before any work: nothing is written."""
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    argv = [command, "--config", str(pipeline["cfg"]), "--out", str(out),
            "--data", str(pipeline["data"])]
    if command != "train-single":
        argv += ["--ckpt", str(pipeline["mv"] / "checkpoint.bin")]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(out / taken) in err and "directory" in err
    assert [p.name for p in out.iterdir()] == [taken] and not any((out / taken).iterdir())


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


def _first_record(change):
    """A manifest text edit that applies ``change`` to the first record."""
    def edit(text: str) -> str:
        first, rest = text.split("\n", 1)
        rec = json.loads(first)
        change(rec)
        return json.dumps(rec) + "\n" + rest

    return edit


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
    lambda data: _edit_manifest(data, _first_record(lambda rec: rec.pop("class"))),
    lambda data: _edit_manifest(data, _first_record(lambda rec: rec.update(split="tset"))),
    _drop_first_test_cams,
    _train_container_to_directory,
], ids=["manifest-cut", "record-not-object", "record-without-class",
        "record-with-unknown-split", "tensors-missing", "split-container-is-directory"])
def test_malformed_dataset_exit_code(pipeline, tmp_path, edit):
    data = _copy_data(pipeline["data"], tmp_path / "data")
    edit(data)
    assert _sample(pipeline, tmp_path / "y", data=data) == EXIT_MISSING


def test_points_of_differing_length_exit_code(pipeline, tmp_path):
    data = _copy_data(pipeline["data"], tmp_path / "data")
    tensors = ckpt.load_tensors(data / "train.bin")
    name = next(k for k in tensors if k.endswith("/points"))
    tensors[name] = tensors[name][:-5]
    ckpt.save_tensors(data / "train.bin", tensors)
    code = main(["train-single", "--config", str(pipeline["cfg"]), "--data", str(data),
                 "--out", str(tmp_path / "w")])
    assert code == EXIT_MISSING


def _checkpoint(tmp_path: Path, arch: str, **changes) -> Path:
    """A fresh checkpoint of the micro model config with ``changes`` applied."""
    micro = dict(blocks=2, grid=2, model_dim=16, heads=2, head_dim=4, patches=4, feat_dim=8)
    path = tmp_path / "other" / "checkpoint.bin"
    path.parent.mkdir()
    Model.create(ModelConfig(arch=arch, **{**micro, **changes}), 0).save(path)
    return path


def test_dataset_not_fitting_the_run_model_exit_code(pipeline, tmp_path, capsys):
    """Without --config the run's model is the default one, not the micro dataset's."""
    code = main(["train-single", "--data", str(pipeline["data"]), "--out", str(tmp_path / "w")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "(8, 16)" in err and "(64, 64)" in err


def test_dataset_not_fitting_the_checkpoint_to_finetune_exit_code(pipeline, tmp_path, capsys):
    ckpt_path = _checkpoint(tmp_path, "single", model_dim=12)
    code = main(["train-mv", "--config", str(pipeline["cfg"]), "--data", str(pipeline["data"]),
                 "--ckpt", str(ckpt_path), "--out", str(tmp_path / "w")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "(8, 16)" in err and "(8, 12)" in err


@pytest.mark.parametrize("command", ["sample", "eval"])
def test_dataset_not_fitting_the_checkpoint_exit_code(pipeline, tmp_path, capsys, command):
    ckpt_path = _checkpoint(tmp_path, "routed", grid=3)
    code = main([command, "--config", str(pipeline["cfg"]), "--data", str(pipeline["data"]),
                 "--ckpt", str(ckpt_path), "--out", str(tmp_path / "y")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "(8, 16)" in err and "(27, 16)" in err


@pytest.mark.parametrize("command", ["sample", "eval", "upgrade", "train-mv"])
def test_checkpoint_not_fitting_the_run_world_exit_code(pipeline, tmp_path, capsys, command):
    """Without --config the run's world encodes 16 patches of width 32 per view."""
    run = "single" if command == "upgrade" else "mv"
    out = tmp_path / "y"
    argv = [command, "--ckpt", str(pipeline[run] / "checkpoint.bin"), "--out", str(out)]
    if command != "upgrade":
        argv += ["--data", str(pipeline["data"])]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "(16, 32)" in err and "(4, 8)" in err
    assert not out.exists()


def _json_of(text: str) -> str:
    """The config ``text`` as a JSON object of sections, a form that is not a config."""
    parser = configparser.ConfigParser()
    parser.read_string(text)
    return json.dumps({s: dict(parser[s]) for s in parser.sections()})


@pytest.mark.parametrize("name, edit", [
    ("micro.json", _json_of),
    ("bad.cfg", lambda text: text.replace("[train]", "[train]\ntau = 0")),
    ("bad.cfg", lambda text: text.replace("[train]", "[train]\ntau = inf")),
    ("bad.cfg", lambda text: text.replace("n_test = 4", "n_test = -1")),
    ("bad.cfg", lambda text: text.replace("views_per_bin = 2", "views_per_bin = 0")),
    ("bad.cfg", lambda text: text.replace("[world]", "[world]\nclasses = foo")),
    ("bad.cfg", lambda text: text.replace("[world]", "[world]\nlift_seed = -1")),
    ("bad.cfg", lambda text: text.replace("points = 256", "points = 4")),
    ("bad.cfg", lambda text: text.replace("[world]", "[world]\nimage_extent = 0")),
    ("bad.cfg", lambda text: text.replace("[world]", "[world]\nocclusion_window = -0.1")),
    ("bad.cfg", lambda text: text.replace("[model]", "[model]\noccupancy_scale = 0")),
    ("bad.cfg", lambda text: text.replace("[model]", "[model]\noffset_scale = 0")),
    ("bad.cfg", lambda text: text.replace("[model]", "[model]\nmlp_ratio = 4")),
    ("bad.cfg", lambda text: text.replace("[train]", "[train]\nlr = inf")),
    ("bad.cfg", lambda text: text.replace("[train]", "[train]\nlr_final = -1e-4")),
    ("bad.cfg", lambda text: text.replace("[train]", "[train]\nbeta1 = 1.0")),
    ("bad.cfg", lambda text: text.replace("[train]", "[train]\nbeta2 = -0.5")),
    ("bad.cfg", lambda text: text.replace("[train]", "[train]\nadam_eps = 0")),
    ("bad.cfg", lambda text: text.replace("[run]", "[run]\nsed = 4")),
    ("bad.cfg", lambda text: text.replace("patch_grid = 2", "patch_grid = -2")),
    ("bad.cfg", lambda text: text.replace("[world]", "[world]\nelevation_max = nan")),
    ("bad.cfg", lambda text: text.replace("[world]", "[world]\nelevation_max = inf")),
    ("bad.cfg", lambda text: text.replace("[world]", "[world]\nelevation_max = -30")),
], ids=["json-config", "tau-zero", "tau-infinite", "split-size-negative", "views-per-bin-zero",
        "unknown-class", "lift-seed-negative", "points-below-16", "image-extent-zero",
        "occlusion-window-negative", "occupancy-scale-zero", "offset-scale-zero", "mlp-ratio-four",
        "lr-infinite", "lr-final-negative", "beta1-one", "beta2-negative", "adam-eps-zero",
        "run-unknown-key", "patch-grid-negative", "elevation-max-nan", "elevation-max-inf",
        "elevation-max-negative"])
def test_bad_config_value_exit_code(pipeline, tmp_path, name, edit):
    text = pipeline["cfg"].read_text(encoding="utf-8")
    assert edit(text) != text
    bad = tmp_path / name
    bad.write_text(edit(text), encoding="utf-8")
    assert _sample(pipeline, tmp_path / "y", cfg=bad) == EXIT_CONFIG


def test_gen_data_with_a_bad_world_value_exit_code(pipeline, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(pipeline["cfg"].read_text(encoding="utf-8")
                   .replace("patch_grid = 2", "patch_grid = -2"), encoding="utf-8")
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG
    assert not (out / "manifest.jsonl").exists()


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
    ("eval", ["--view-counts", "1,1"]),
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
    for fname in ("sample.bin", "sample.bin.json", "trace.bin", "trace.bin.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname


def test_sample_trace_shape_contract(pipeline, tmp_path):
    out = tmp_path / "tr"
    assert main(["sample", "--config", str(pipeline["cfg"]), "--data", str(pipeline["data"]),
                 "--ckpt", str(pipeline["mv"] / "checkpoint.bin"), "--out", str(out),
                 "--views", "3", "--trace"]) == EXIT_OK
    trace, v = load_trace(out / "trace.bin")
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


def test_sample_one_view_trace_into_analyze_router(pipeline, tmp_path):
    out = tmp_path / "v1"
    assert main(["sample", "--config", str(pipeline["cfg"]), "--data", str(pipeline["data"]),
                 "--ckpt", str(pipeline["mv"] / "checkpoint.bin"), "--out", str(out),
                 "--views", "1", "--trace"]) == EXIT_OK
    trace, v = load_trace(out / "trace.bin")
    assert v == 1
    assert trace.shape == (8, 2, 8) and not trace.any()
    report_path = tmp_path / "rep.json"
    assert main(["analyze-router", "--out", str(report_path),
                 str(out / "trace.bin")]) == EXIT_OK
    rep = json.loads(report_path.read_text())
    assert [rep[k]["mean"] for k in ("cross_block", "cross_timestep", "global")] == [1.0] * 3


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
        p = tmp_path / f"t{i}.bin"
        save_trace(p, trace, view_count=4)
        paths.append(str(p))
    out = tmp_path / "report.json"
    assert main(["analyze-router", "--out", str(out)] + paths) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["cross_block"]["mean"] == 1.0
    assert rep["cross_timestep"]["mean"] == 1.0
    assert rep["global"]["mean"] == 1.0


def test_analyze_router_report_is_strict_json_when_a_third_is_empty(tmp_path):
    """Two timesteps and two blocks leave the late third empty: it reads null, not NaN."""
    rng = np.random.default_rng(0)
    paths = []
    for i in range(2):
        paths.append(str(tmp_path / f"t{i}.bin"))
        save_trace(paths[-1], rng.integers(0, 3, size=(2, 2, 8)), view_count=3)
    out = tmp_path / "r.json"
    assert main(["analyze-router", "--out", str(out), *paths]) == EXIT_OK

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    rep = json.loads(out.read_text(), parse_constant=reject)
    assert [rep[k]["late"] for k in ("cross_block", "cross_timestep", "global")] == [None] * 3


def test_analyze_router_old_rtrc_trace_exit_code(tmp_path, capsys):
    """A trace in the retired RTRC format (magic, five u32 header fields, u16 view
    indices) is not a tensor container: bad magic, exit 3."""
    p = tmp_path / "trace.rtrc"
    header = struct.pack("<IIIII", 1, 2, 2, 3, 2)  # version, T, L, N, views
    p.write_bytes(b"RTRC" + header + np.zeros(12, dtype="<u2").tobytes())
    assert main(["analyze-router", "--out", str(tmp_path / "r.json"), str(p)]) == EXIT_MISSING
    assert "bad magic" in capsys.readouterr().err


def test_analyze_router_truncated_trace_exit_code(tmp_path):
    p = tmp_path / "cut.bin"
    save_trace(p, np.zeros((4, 2, 6), dtype=int), view_count=2)
    p.write_bytes(p.read_bytes()[:-3])
    assert main(["analyze-router", "--out", str(tmp_path / "c.json"), str(p)]) == EXIT_MISSING


def test_analyze_router_traces_of_different_lengths_exit_code(tmp_path):
    paths = []
    for i, shape in enumerate([(4, 2, 6), (3, 2, 5)]):
        paths.append(str(tmp_path / f"t{i}.bin"))
        save_trace(paths[-1], np.zeros(shape, dtype=int), view_count=2)
    assert main(["analyze-router", "--out", str(tmp_path / "r.json"), *paths]) == EXIT_CONFIG


@pytest.mark.parametrize("shape", [(1, 2, 6), (3, 1, 6)], ids=["one-timestep", "one-block"])
def test_analyze_router_short_trace_exit_code(tmp_path, shape):
    p = tmp_path / "short.bin"
    save_trace(p, np.zeros(shape, dtype=int), view_count=2)
    assert main(["analyze-router", "--out", str(tmp_path / "r.json"), str(p)]) == EXIT_CONFIG


def test_analyze_router_matches_library_metrics(pipeline, tmp_path):
    out = tmp_path / "tr2"
    assert main(["sample", "--config", str(pipeline["cfg"]), "--data", str(pipeline["data"]),
                 "--ckpt", str(pipeline["mv"] / "checkpoint.bin"), "--out", str(out),
                 "--views", "4", "--trace"]) == EXIT_OK
    report_path = tmp_path / "rep.json"
    assert main(["analyze-router", "--out", str(report_path),
                 str(out / "trace.bin")]) == EXIT_OK
    rep = json.loads(report_path.read_text())
    from roar3d.evaluation import (cross_block_consistency, cross_timestep_consistency,
                                   global_consistency)
    trace, _ = load_trace(out / "trace.bin")
    assert rep["cross_block"]["mean"] == cross_block_consistency(trace)
    assert rep["cross_timestep"]["mean"] == cross_timestep_consistency(trace)
    assert rep["global"]["mean"] == global_consistency(trace)
