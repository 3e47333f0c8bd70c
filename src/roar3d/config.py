"""Run configuration: defaults, file parsing, flag overrides, provenance.

Resolution order is defaults < config file < command-line flags; the fully
resolved config is written verbatim into every output directory so a run can
be reproduced from its artifacts alone.

Config files are diff-friendly ``key = value`` text with ``[section]``
headers, the format :meth:`RunConfig.write` produces; no other format is read.

The desk-scale defaults below are sized so a full two-phase training run
finishes in minutes on a laptop CPU. Values the recipe fixes are module
constants, not fields; a file may still name one, at its fixed value only
(``RETIRED``).
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import InitVar, dataclass, field, fields
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
_SECTIONS = ("world", "model", "train", "sample")  # the dataclass sections of a RunConfig

# Fixed values of the recipe, read from here alone.
IMAGE_EXTENT = 1.5            # orthographic half-extent of the view patch grid
OCCLUSION_WINDOW = 0.15       # visible-shell depth window per patch
LIFT_SEED = 2401              # seed of the shared 5 -> feat_dim feature lift
# Latent channel scaling: flow matching needs the clean latent commensurate
# with unit noise or the conditional signal drowns. Occupancy {0,1} and the
# +/- quarter-cell offsets are stored multiplied by these (both powers of
# two, so codec round trips and quarter-turn permutation stay bit-exact);
# the decoder divides back before thresholding.
OCCUPANCY_SCALE = 4.0
OFFSET_SCALE = 8.0
WEIGHT_DECAY = 0.01           # AdamW's decoupled weight decay
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
AUX_MIN = 1                   # fewest auxiliary views of a multi-view step
MLP_RATIO = 2                 # MLP hidden width per model_dim
TAU = 1.0                     # Gumbel-Softmax temperature: the router's softmax is unscaled

# Keys that config files and checkpoint sidecars once set, with the one value
# each may still hold.
RETIRED = {
    "world": {"image_extent": IMAGE_EXTENT, "occlusion_window": OCCLUSION_WINDOW,
              "lift_seed": LIFT_SEED},
    "model": {"occupancy_scale": OCCUPANCY_SCALE, "offset_scale": OFFSET_SCALE,
              "mlp_ratio": MLP_RATIO},
    "train": {"weight_decay": WEIGHT_DECAY, "beta1": BETA1, "beta2": BETA2,
              "adam_eps": ADAM_EPS, "aux_min": AUX_MIN, "tau": TAU},
}


class ConfigError(ValueError):
    """Bad config file or flag value."""


@dataclass
class WorldConfig:
    """Procedural shapes, cameras, and the synthetic view encoder."""

    points: int = 2048            # surface samples per shape
    patch_grid: int = 4           # per-view patch grid is patch_grid x patch_grid
    feat_dim: int = 32            # lifted per-patch feature width
    elevation_max: float = 30.0   # cameras sample elevation in +/- this range
    classes: tuple = SHAPE_CLASSES

    @property
    def patches(self) -> int:
        return self.patch_grid * self.patch_grid

    def validate(self) -> None:
        if self.points < 16:
            raise ConfigError("world.points must be at least 16")
        if self.patch_grid < 1:
            raise ConfigError("world.patch_grid must be at least 1")
        if not 0.0 <= self.elevation_max <= 90.0:  # also false for nan
            raise ConfigError(f"world.elevation_max must lie in [0, 90], got {self.elevation_max}")
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
    arch: str = "routed"          # "routed" (dual-stream), "concat", or "single"
    mlp_ratio: InitVar[int] = MLP_RATIO   # retired: accepted at MLP_RATIO only, not a field

    def __post_init__(self, mlp_ratio: int) -> None:
        if mlp_ratio != MLP_RATIO:
            raise ConfigError(f"mlp_ratio is fixed at {MLP_RATIO}, got {mlp_ratio!r}")

    @property
    def tokens(self) -> int:
        return self.grid**3

    @property
    def attn_width(self) -> int:
        return self.heads * self.head_dim

    def validate(self) -> None:
        if min(self.blocks, self.grid, self.model_dim, self.heads, self.head_dim,
               self.patches, self.feat_dim) <= 0:
            raise ConfigError("model dims must be positive")
        if self.arch not in ("routed", "concat", "single"):
            raise ConfigError(f"unknown arch {self.arch!r}")
        if self.model_dim < 4:
            raise ConfigError("model_dim must hold the 4 geometry channels")


@dataclass
class TrainConfig:
    """Optimization schedule for both training phases."""

    lr: float = 3e-4
    lr_final: float = 3e-5
    batch: int = 16
    steps_single: int = 1200
    steps_mv: int = 1500
    p_pert: float = 0.2
    aux_max: int = 4

    def validate(self) -> None:
        if not all(math.isfinite(lr) and lr >= 0.0 for lr in (self.lr, self.lr_final)):
            raise ConfigError("lr and lr_final must be finite and not negative")
        if not 0.0 <= self.p_pert <= 1.0:
            raise ConfigError("p_pert must lie in [0, 1]")
        if not self.aux_max >= AUX_MIN:
            raise ConfigError(f"aux_max must be at least {AUX_MIN}")
        if self.batch < 1 or self.steps_single < 0 or self.steps_mv < 0:
            raise ConfigError("batch and step counts must be positive")


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
        """ConfigError unless each section is valid and the world makes the views the model
        reads; returns self."""
        if not 0 <= self.seed < SEED_LIMIT:
            raise ConfigError("seed must lie in [0, 2**63)")
        self.world.validate()
        self.model.validate()
        self.train.validate()
        self.sample.validate()
        have = (self.world.patches, self.world.feat_dim)
        want = (self.model.patches, self.model.feat_dim)
        if have != want:
            raise ConfigError(f"the world makes (patches, feat_dim) {have} per view, "
                              f"the model reads {want}")
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
    def load(path: str | Path) -> "RunConfig":
        """The defaults overlaid with the sectioned ``key = value`` file at ``path``."""
        path = Path(path)
        if not path.is_file():
            raise FileNotFoundError(f"config file not found: {path}")
        parser = configparser.ConfigParser()
        try:
            parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8: {exc}") from None
        except configparser.Error as exc:
            raise ConfigError(f"bad config file: {exc}") from exc
        cfg = RunConfig()
        for section in parser.sections():
            values = dict(parser.items(section))
            if section == "run":
                for key, raw in values.items():
                    if key != "seed":
                        raise ConfigError(f"unknown key {key!r} in [run]")
                    cfg.seed = _coerce(raw, cfg.seed, key)
            elif section in _SECTIONS:
                set_fields(getattr(cfg, section), values, section)
            else:
                raise ConfigError(f"unknown config section [{section}]")
        return cfg.validate()

    def apply_overrides(self, overrides: dict[str, object]) -> "RunConfig":
        """Apply dotted-path overrides like {"train.p_pert": 0.1, "seed": 3}."""
        for dotted, value in overrides.items():
            if value is None:
                continue
            if dotted == "seed":
                self.seed = int(value)
                continue
            section, _, key = dotted.partition(".")
            if section not in _SECTIONS:
                raise ConfigError(f"unknown override {dotted!r}")
            set_fields(getattr(self, section), {key: value}, section)
        return self.validate()


def set_fields(target, values: dict, section: str) -> None:
    """Set ``values`` on the dataclass ``target``, each coerced to its default's type.

    A key of ``RETIRED[section]`` sets nothing and is accepted at its fixed
    value only. An unknown key, a value that does not coerce or a retired key
    at another value raises ConfigError.
    """
    valid = {f.name for f in fields(target)}
    retired = RETIRED.get(section, {})
    for key, raw in values.items():
        if key in retired:
            if _coerce(raw, retired[key], key) != retired[key]:
                raise ConfigError(f"{key!r} in [{section}] is fixed at {retired[key]}, "
                                  f"got {raw!r}")
        elif key in valid:
            setattr(target, key, _coerce(raw, getattr(target, key), key))
        else:
            raise ConfigError(f"unknown key {key!r} in [{section}]")


def _coerce(raw, template, key: str):
    """Coerce a config string or sidecar JSON value to the type of the default it replaces.

    A JSON boolean is not a number here, although Python counts it as one.
    """
    if isinstance(raw, bool) and isinstance(template, (int, float)):
        raise ConfigError(f"bad value for {key!r}: {raw!r} is not a number")
    try:
        if isinstance(template, int):
            return int(raw)
        if isinstance(template, float):
            return float(raw)
        if isinstance(template, tuple):
            return tuple(s.strip() for s in str(raw).split(",") if s.strip())
        return str(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
