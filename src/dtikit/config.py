"""Run configuration: a flat, typed key-value file with stage defaults.

Config files are JSON objects whose keys are dotted paths ("train.lr").
Every key has a declared type, unknown keys are rejected, and the file must
carry the schema version it was written against.  Hyperparameters live
here; file-system paths (corpus, manifests, checkpoints, output) arrive on
the command line and never enter the snapshot, so a run directory moved to
another machine still reproduces.

Defaults depend on the stage.  Supervised stages train longer with larger
batches; the episodic stage uses a higher learning rate over fewer epochs
because each step already averages a full episode.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .encoder import ConfigError, EncoderConfig

CONFIG_VERSION = 2

STAGES = ("vanilla", "cada", "meta", "regress")

PRESETS = ("paper", "small")


# dotted key -> (RunConfig attribute, type)
SCHEMA = {
    "config_version": ("config_version", int),
    "stage": ("stage", str),
    "seed": ("seed", int),
    "train.lr": ("lr", float),
    "train.batch_size": ("batch_size", int),
    "train.epochs": ("epochs", int),
    "train.lambda_adv": ("lambda_adv", float),
    "train.grl_scale": ("grl_scale", float),
    "train.warmup_fraction": ("warmup_fraction", float),
    "meta.k_shot": ("k_shot", int),
    "meta.k_query": ("k_query", int),
    "meta.episodes_per_epoch": ("episodes_per_epoch", int),
    "meta.eval_episodes": ("eval_episodes", int),
    "loss.focal_alpha": ("focal_alpha", float),
    "loss.focal_gamma": ("focal_gamma", float),
    "proto.uniform_attention": ("uniform_attention", bool),
    "model.preset": ("model_preset", str),
    "model.max_seq_len": ("max_seq_len", int),
    "model.use_gau": ("use_gau", bool),
}

_ATTR_TO_KEY = {attr: key for key, (attr, _) in SCHEMA.items()}

STAGE_DEFAULTS = {
    "vanilla": {"lr": 5e-5, "batch_size": 64, "epochs": 100},
    "cada": {"lr": 5e-5, "batch_size": 64, "epochs": 100},
    "regress": {"lr": 5e-5, "batch_size": 64, "epochs": 100},
    "meta": {"lr": 1e-4, "batch_size": 32, "epochs": 50},
}


@dataclass(frozen=True)
class RunConfig:
    config_version: int = CONFIG_VERSION
    stage: str = "vanilla"
    seed: int = 0
    lr: float = 5e-5
    batch_size: int = 64
    epochs: int = 100
    lambda_adv: float = 1.0
    grl_scale: float = 1.0
    warmup_fraction: float = 0.1
    k_shot: int = 5
    k_query: int = 5
    episodes_per_epoch: int = 100
    eval_episodes: int = 100
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0
    uniform_attention: bool = False
    model_preset: str = "paper"
    max_seq_len: int = 0  # 0 keeps the preset's value
    use_gau: bool = True

    def encoder_config(self) -> EncoderConfig:
        overrides = {"use_gau": self.use_gau}
        if self.max_seq_len:
            overrides["max_seq_len"] = self.max_seq_len
        if self.model_preset == "small":
            return EncoderConfig.small(**overrides)
        return EncoderConfig(**overrides)

    def to_flat(self) -> dict:
        return {_ATTR_TO_KEY[f.name]: getattr(self, f.name) for f in fields(self)}

    def snapshot_json(self) -> str:
        return json.dumps(self.to_flat(), indent=1, sort_keys=True) + "\n"


def load_config(path) -> dict:
    """Read a flat config file into a raw key-value dict."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        values = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigError("config must be a flat JSON object")
    return values


def _coerce(key: str, value, want: type):
    if want is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{key} must be a boolean, got {value!r}")
        return value
    if want is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        return value
    if want is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
        return float(value)
    if want is str:
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a string, got {value!r}")
        return value
    raise AssertionError(f"unhandled schema type {want}")


def resolve_config(values: dict | None = None, overrides: dict | None = None) -> RunConfig:
    """Merge file values and command-line overrides over stage defaults.

    Precedence, lowest to highest: stage defaults, config file, overrides.
    The stage itself may come from any layer, so it is settled first.
    """
    values = dict(values or {})
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}

    version = values.pop("config_version", CONFIG_VERSION)
    if not isinstance(version, int) or isinstance(version, bool):
        raise ConfigError(f"config_version must be an integer, got {version!r}")
    if version != CONFIG_VERSION:
        raise ConfigError(
            f"config_version {version} not supported, expected {CONFIG_VERSION}"
        )

    attrs = {}
    for key, value in values.items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        attr, want = SCHEMA[key]
        attrs[attr] = _coerce(key, value, want)

    for attr, value in overrides.items():
        if attr not in _ATTR_TO_KEY:
            raise ConfigError(f"unknown override {attr!r}")
        _, want = SCHEMA[_ATTR_TO_KEY[attr]]
        attrs[attr] = _coerce(_ATTR_TO_KEY[attr], value, want)

    stage = attrs.get("stage", "vanilla")
    if stage not in STAGES:
        raise ConfigError(f"stage must be one of {STAGES}, got {stage!r}")
    for attr, default in STAGE_DEFAULTS[stage].items():
        attrs.setdefault(attr, default)

    cfg = RunConfig(config_version=CONFIG_VERSION, **attrs)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    def positive(name, value):
        if value <= 0:
            raise ConfigError(f"{_ATTR_TO_KEY[name]} must be positive, got {value}")

    positive("lr", cfg.lr)
    positive("batch_size", cfg.batch_size)
    positive("epochs", cfg.epochs)
    positive("k_shot", cfg.k_shot)
    positive("k_query", cfg.k_query)
    positive("episodes_per_epoch", cfg.episodes_per_epoch)
    positive("eval_episodes", cfg.eval_episodes)
    positive("focal_alpha", cfg.focal_alpha)
    if cfg.focal_gamma < 0:
        raise ConfigError(f"loss.focal_gamma must be non-negative, got {cfg.focal_gamma}")
    if cfg.lambda_adv < 0:
        raise ConfigError(f"train.lambda_adv must be non-negative, got {cfg.lambda_adv}")
    if not 0 < cfg.warmup_fraction <= 1:
        raise ConfigError(
            f"train.warmup_fraction must be in (0, 1], got {cfg.warmup_fraction}"
        )
    if cfg.model_preset not in PRESETS:
        raise ConfigError(f"model.preset must be one of {PRESETS}, got {cfg.model_preset!r}")
    if cfg.max_seq_len < 0:
        raise ConfigError("model dimensions cannot be negative")


def save_snapshot(cfg: RunConfig, path) -> None:
    Path(path).write_text(cfg.snapshot_json())
