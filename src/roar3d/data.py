"""Dataset generation and loading.

A dataset directory holds a newline-delimited JSON manifest plus one binary
tensor container per split. Every shape stores its canonical point cloud,
its encoded latent, and a pre-encoded camera pool: ``views_per_bin`` cameras
per azimuth bin, so training never re-renders views in the hot loop.

Everything is derived from the run seed through named streams; rebuilding
with the same seed yields byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .config import ConfigError, RunConfig
from .model import latent_encode
from .rng import stream, stream_seed
from .world import encode_view, generate_shape, sample_views

SPLITS = ("train", "val", "test")


@dataclass
class SplitData:
    ids: list[str]
    points: np.ndarray       # (n, P, 3)
    latents: np.ndarray      # (n, N, D)
    feats: np.ndarray        # (n, 4, K, S, feat_dim) camera-pool features
    cams: np.ndarray         # (n, 4, K, 2) azimuth, elevation

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class DatasetStore:
    splits: dict[str, SplitData]

    def split(self, name: str) -> SplitData:
        """The named split; an unknown or empty split (not loaded) is a ConfigError."""
        if name not in self.splits:
            raise ConfigError(f"split {name!r} is unknown or empty")
        return self.splits[name]


def _shape_record(cfg: RunConfig, index: int) -> dict:
    seed = stream_seed(cfg.seed, "dataset-shape", index)
    klass = cfg.world.classes[index % len(cfg.world.classes)]
    sizes = (cfg.sample.n_train, cfg.sample.n_val, cfg.sample.n_test)
    bounds = np.cumsum(sizes)
    split = SPLITS[int(np.searchsorted(bounds, index, side="right"))]
    return {"shape_id": f"{klass}:{seed:016x}", "class": klass, "seed": seed, "split": split}


def _build_shape(rec: dict, cfg: RunConfig) -> dict[str, np.ndarray]:
    pc = generate_shape(rec["seed"], rec["class"], cfg.world.points)
    latent = latent_encode(pc, cfg.model)
    K = cfg.sample.views_per_bin
    S = cfg.world.patches
    feats = np.zeros((4, K, S, cfg.world.feat_dim))
    cams = np.zeros((4, K, 2))
    for b in range(4):
        pool = sample_views(stream(rec["seed"], "viewpool", b), K, bins=(b,),
                            elevation_max=cfg.world.elevation_max)
        for k, cam in enumerate(pool):
            feats[b, k] = encode_view(pc, cam, cfg.world)
            cams[b, k] = (cam.azimuth, cam.elevation)
    return {"points": pc.points, "latent": latent, "feats": feats, "cams": cams}


def build_dataset(cfg: RunConfig, out_dir: str | Path, force: bool = False) -> Path:
    """Generate manifest + per-split containers under ``out_dir``.

    An existing manifest there is a FileExistsError unless ``force``.
    """
    out = Path(out_dir)
    manifest_path = out / "manifest.jsonl"
    if manifest_path.exists() and not force:
        raise FileExistsError(f"{manifest_path} exists")
    out.mkdir(parents=True, exist_ok=True)
    total = cfg.sample.n_train + cfg.sample.n_val + cfg.sample.n_test
    records = [_shape_record(cfg, i) for i in range(total)]
    built = [_build_shape(r, cfg) for r in records]

    for split in SPLITS:
        tensors: dict[str, np.ndarray] = {}
        for rec, payload in zip(records, built):
            if rec["split"] != split:
                continue
            for key, arr in payload.items():
                tensors[f"{rec['shape_id']}/{key}"] = arr
        ckpt.save_tensors(out / f"{split}.bin", tensors)

    with open(manifest_path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    cfg.write(out / "dataset.cfg")
    return out


def load_dataset(path: str | Path) -> DatasetStore:
    path = Path(path)
    manifest_path = path / "manifest.jsonl"
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no manifest file at {manifest_path}")
    try:
        text = manifest_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ckpt.CheckpointError(f"{manifest_path}: not UTF-8 ({exc.reason})") from None
    manifest = []
    for n, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ckpt.CheckpointError(f"{manifest_path}:{n}: {exc}") from None
        if not isinstance(rec, dict) or not {"shape_id", "class", "split"} <= rec.keys():
            raise ckpt.CheckpointError(
                f"{manifest_path}:{n}: not an object with shape_id, class and split")
        if rec["split"] not in SPLITS:
            raise ckpt.CheckpointError(f"{manifest_path}:{n}: unknown split {rec['split']!r}")
        manifest.append(rec)
    splits: dict[str, SplitData] = {}
    for split in SPLITS:
        recs = [r for r in manifest if r["split"] == split]
        tensors = ckpt.load_tensors(path / f"{split}.bin")
        if not recs:
            continue
        try:
            splits[split] = SplitData(
                ids=[r["shape_id"] for r in recs],
                points=np.stack([tensors[f"{r['shape_id']}/points"] for r in recs]),
                latents=np.stack([tensors[f"{r['shape_id']}/latent"] for r in recs]),
                feats=np.stack([tensors[f"{r['shape_id']}/feats"] for r in recs]),
                cams=np.stack([tensors[f"{r['shape_id']}/cams"] for r in recs]),
            )
        except KeyError as exc:
            raise ckpt.CheckpointError(f"{path / f'{split}.bin'}: no tensor {exc}") from None
        except ValueError as exc:  # np.stack of shapes whose arrays differ in size
            raise ckpt.CheckpointError(f"{path / f'{split}.bin'}: {exc}") from None
    return DatasetStore(splits=splits)
