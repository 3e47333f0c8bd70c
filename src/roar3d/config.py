"""Run configuration: defaults, file parsing, flag overrides, provenance.

Resolution order is defaults < config file < command-line flags; the fully
resolved config is written verbatim into every output directory so a run can
be reproduced from its artifacts alone.

Config files are diff-friendly ``key = value`` text with ``[section]``
headers (JSON with the same section/key structure is also accepted).

The desk-scale defaults below are sized so a full two-phase training run
finishes in minutes on a laptop CPU.
"""

from __future__ import annotations

import configparser
import dataclasses
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .checkpoint import content_hash
from .rng import SEED_LIMIT

__all__ = [
    "WorldConfig",
    "ModelConfig",
    "TrainConfig",
    "SampleConfig",
    "RunConfig",
    "ConfigError",
]

SHAPE_CLASSES = ("notched-box", "l-prism", "asymmetric-cross", "stepped-pyramid")


class ConfigError(ValueError):
    """Bad config file or flag value."""


@dataclass
class WorldConfig:
    """Procedural shapes, cameras, and the synthetic view encoder."""

    points: int = 2048            # surface samples per shape
    patch_grid: int = 4           # per-view patch grid is patch_grid x patch_grid
    feat_dim: int = 32            # lifted per-patch feature width
    elevation_max: float = 30.0   # cameras sample elevation in +/- this range
    image_extent: float = 1.5     # orthographic half-extent of the patch grid
    occlusion_window: float = 0.15  # visible-shell depth window per patch
    lift_seed: int = 2401         # fixed seed of the shared 5 -> feat_dim lift
    classes: tuple = SHAPE_CLASSES

    @property
    def patches(self) -> int:
        return self.patch_grid * self.patch_grid

    def validate(self) -> None:
        if self.points < 16:
            raise ConfigError("world.points must be at least 16")
        if not self.image_extent > 0.0:
            raise ConfigError("world.image_extent must be positive")
        if not self.occlusion_window >= 0.0:
            raise ConfigError("world.occlusion_window must not be negative")
        if not 0 <= self.lift_seed < SEED_LIMIT:
            raise ConfigError("world.lift_seed must lie in [0, 2**63)")
        if not self.classes or not set(self.classes) <= set(SHAPE_CLASSES):
            raise ConfigError(f"world.classes must be a non-empty subset of {SHAPE_CLASSES}, "
                              f"got {self.classes}")


@dataclass
class ModelConfig:
    """Miniature flow-matching transformer dimensions."""

    blocks: int = 4
    grid: int = 4                 # latent occupancy grid; tokens = grid**3
    model_dim: int = 64
    heads: int = 4
    head_dim: int = 16
    patches: int = 16             # per-view patch tokens (world.patch_grid**2)
    feat_dim: int = 32            # per-view feature width (world.feat_dim)
    mlp_ratio: int = 2
    # Latent channel scaling: flow matching needs the clean latent commensurate
    # with unit noise or the conditional signal drowns. Occupancy {0,1} and the
    # +/- quarter-cell offsets are stored multiplied by these (both powers of
    # two, so codec round trips and quarter-turn permutation stay bit-exact);
    # the decoder divides back before thresholding.
    occupancy_scale: float = 4.0
    offset_scale: float = 8.0
    arch: str = "routed"          # "routed" (dual-stream), "concat", or "single"

    @property
    def tokens(self) -> int:
        return self.grid**3

    @property
    def attn_width(self) -> int:
        return self.heads * self.head_dim

    def validate(self) -> None:
        if min(self.blocks, self.grid, self.model_dim, self.heads, self.head_dim,
               self.patches, self.feat_dim, self.mlp_ratio) <= 0:
            raise ConfigError("model dims must be positive")
        if self.arch not in ("routed", "concat", "single"):
            raise ConfigError(f"unknown arch {self.arch!r}")
        if self.model_dim < 4:
            raise ConfigError("model_dim must hold the 4 geometry channels")
        if not (self.occupancy_scale > 0.0 and self.offset_scale > 0.0):
            raise ConfigError("occupancy_scale and offset_scale must be positive")


@dataclass
class TrainConfig:
    """Optimization schedule for both training phases."""

    lr: float = 3e-4
    lr_final: float = 3e-5
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch: int = 16
    steps_single: int = 1200
    steps_mv: int = 1500
    p_pert: float = 0.2
    aux_min: int = 1
    aux_max: int = 4
    tau: float = 1.0              # Gumbel-Softmax temperature, fixed

    def validate(self) -> None:
        if not all(math.isfinite(lr) and lr >= 0.0 for lr in (self.lr, self.lr_final)):
            raise ConfigError("lr and lr_final must be finite and not negative")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("beta1 and beta2 must lie in [0, 1)")
        if not self.adam_eps > 0.0:
            raise ConfigError("adam_eps must be positive")
        if not 0.0 <= self.p_pert <= 1.0:
            raise ConfigError("p_pert must lie in [0, 1]")
        if not 0 <= self.aux_min <= self.aux_max:
            raise ConfigError("aux view range must satisfy 0 <= min <= max")
        if self.batch < 1 or self.steps_single < 0 or self.steps_mv < 0:
            raise ConfigError("batch and step counts must be positive")
        if not self.tau > 0.0:
            raise ConfigError("tau must be positive")


@dataclass
class SampleConfig:
    """Flow integration and dataset split sizes."""

    euler_steps: int = 32
    n_train: int = 400
    n_val: int = 50
    n_test: int = 50
    views_per_bin: int = 6        # pre-encoded camera pool per shape and bin

    def validate(self) -> None:
        if self.euler_steps < 1:
            raise ConfigError("euler_steps must be at least 1")
        if min(self.n_train, self.n_val, self.n_test) < 0:
            raise ConfigError("split sizes must not be negative")
        if self.views_per_bin < 1:
            raise ConfigError("views_per_bin must be at least 1")


@dataclass
class RunConfig:
    world: WorldConfig = field(default_factory=WorldConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    sample: SampleConfig = field(default_factory=SampleConfig)
    seed: int = 0

    def validate(self) -> "RunConfig":
        if not 0 <= self.seed < SEED_LIMIT:
            raise ConfigError("seed must lie in [0, 2**63)")
        self.world.validate()
        self.model.validate()
        self.train.validate()
        self.sample.validate()
        if self.model.patches != self.world.patches:
            raise ConfigError("model.patches must equal world.patch_grid**2")
        if self.model.feat_dim != self.world.feat_dim:
            raise ConfigError("model.feat_dim must equal world.feat_dim")
        return self

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        d = {
            "world": dataclasses.asdict(self.world),
            "model": dataclasses.asdict(self.model),
            "train": dataclasses.asdict(self.train),
            "sample": dataclasses.asdict(self.sample),
            "run": {"seed": self.seed},
        }
        d["world"]["classes"] = list(self.world.classes)
        return d

    @property
    def provenance(self) -> str:
        return content_hash(self.to_dict())

    def write(self, path: str | Path) -> None:
        """Write the resolved config as sectioned key = value text."""
        lines = []
        for section, payload in self.to_dict().items():
            lines.append(f"[{section}]")
            for key, value in payload.items():
                if isinstance(value, (list, tuple)):
                    value = ",".join(str(v) for v in value)
                lines.append(f"{key} = {value}")
            lines.append("")
        Path(path).write_text("\n".join(lines), encoding="utf-8")

    @staticmethod
    def from_dict(payload: dict) -> "RunConfig":
        cfg = RunConfig()
        sections = {
            "world": cfg.world,
            "model": cfg.model,
            "train": cfg.train,
            "sample": cfg.sample,
        }
        if not isinstance(payload, dict):
            raise ConfigError("config must be an object of sections")
        for section, values in payload.items():
            if not isinstance(values, dict):
                raise ConfigError(f"config section [{section}] must be an object")
            if section == "run":
                if "seed" in values:
                    cfg.seed = _coerce(values["seed"], cfg.seed, "seed")
                continue
            if section not in sections:
                raise ConfigError(f"unknown config section [{section}]")
            set_fields(sections[section], values, section)
        return cfg.validate()

    @staticmethod
    def load(path: str | Path) -> "RunConfig":
        path = Path(path)
        if not path.is_file():
            raise FileNotFoundError(f"config file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8: {exc}") from None
        if path.suffix == ".json" or text.lstrip().startswith("{"):
            try:
                return RunConfig.from_dict(json.loads(text))
            except json.JSONDecodeError as exc:
                raise ConfigError(f"bad JSON config: {exc}") from exc
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"bad config file: {exc}") from exc
        payload = {s: dict(parser.items(s)) for s in parser.sections()}
        return RunConfig.from_dict(payload)

    def apply_overrides(self, overrides: dict[str, object]) -> "RunConfig":
        """Apply dotted-path overrides like {"train.p_pert": 0.1, "seed": 3}."""
        for dotted, value in overrides.items():
            if value is None:
                continue
            if dotted == "seed":
                self.seed = int(value)
                continue
            section, _, key = dotted.partition(".")
            target = getattr(self, section, None)
            if target is None or not key:
                raise ConfigError(f"unknown override {dotted!r}")
            if not hasattr(target, key):
                raise ConfigError(f"unknown override {dotted!r}")
            setattr(target, key, _coerce(value, getattr(target, key), dotted))
        return self.validate()


def set_fields(target, values: dict, section: str) -> None:
    """Set ``values`` on the dataclass ``target``, each coerced to its default's type.

    An unknown key or a value that does not coerce raises ConfigError.
    """
    valid = {f.name for f in fields(target)}
    for key, raw in values.items():
        if key not in valid:
            raise ConfigError(f"unknown key {key!r} in [{section}]")
        setattr(target, key, _coerce(raw, getattr(target, key), key))


def _coerce(raw, template, key: str):
    """Coerce a string/JSON value to the type of the default it replaces."""
    if isinstance(template, bool):
        if isinstance(raw, bool):
            return raw
        if str(raw).lower() in ("1", "true", "yes"):
            return True
        if str(raw).lower() in ("0", "false", "no"):
            return False
        raise ConfigError(f"bad boolean for {key!r}: {raw!r}")
    try:
        if isinstance(template, int):
            return int(raw)
        if isinstance(template, float):
            return float(raw)
        if isinstance(template, (tuple, list)):
            if isinstance(raw, (tuple, list)):
                return tuple(str(v) for v in raw)
            return tuple(s.strip() for s in str(raw).split(",") if s.strip())
        return str(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
