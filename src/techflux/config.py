"""Pipeline configuration shared by the CLI subcommands.

A configuration can come from three layers: built-in defaults, a flat JSON
config file, and command-line flags. Flags win over the file, the file wins
over defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .cograph import FIELD_CHOICES, PAIR_CHOICES
from .errors import ConfigError
from .fileio import read_json
from .transition import MEASURES


@dataclass(frozen=True)
class PipelineConfig:
    lexicon: str | None = None
    field: str = "both"
    pairs: str = "all"
    top_n: int = 100
    measure: str = "overlap_target"
    tau: float = 0.1
    resolution: float = 1.0
    weighted_mean: bool = False
    out: str = "."

    def __post_init__(self) -> None:
        if self.field not in FIELD_CHOICES:
            raise ConfigError(f"field must be one of {FIELD_CHOICES}, got {self.field!r}")
        if self.pairs not in PAIR_CHOICES:
            raise ConfigError(f"pairs must be one of {PAIR_CHOICES}, got {self.pairs!r}")
        if not isinstance(self.top_n, int) or isinstance(self.top_n, bool) or self.top_n < 1:
            raise ConfigError(f"top_n must be an integer >= 1, got {self.top_n!r}")
        if self.measure not in MEASURES:
            raise ConfigError(f"measure must be one of {MEASURES}, got {self.measure!r}")
        if not 0.0 < self.tau < 1.0:
            raise ConfigError(f"tau must lie in (0, 1), got {self.tau}")
        if not self.resolution > 0.0:
            raise ConfigError(f"resolution must be positive, got {self.resolution}")
        if not isinstance(self.weighted_mean, bool):
            raise ConfigError(f"weighted_mean must be a boolean, got {self.weighted_mean!r}")


# config-file key (= dataclass field) -> expected JSON type
_CONFIG_KEYS: dict[str, type] = {
    "lexicon": str,
    "field": str,
    "pairs": str,
    "top_n": int,
    "measure": str,
    "tau": float,
    "resolution": float,
    "weighted_mean": bool,
    "out": str,
}


def read_config_file(path: str | Path) -> dict[str, object]:
    """Load a flat JSON object of config keys, which are the dataclass field names."""
    raw = read_json(path, ConfigError, "config file")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a flat JSON object")
    values: dict[str, object] = {}
    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}: unknown config key {key!r}")
        expected = _CONFIG_KEYS[key]
        if expected is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{path}: key {key!r} must be a number, got {value!r}")
            value = float(value)
        elif expected is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{path}: key {key!r} must be an integer, got {value!r}")
        elif not isinstance(value, expected):
            raise ConfigError(f"{path}: key {key!r} must be {expected.__name__}, got {value!r}")
        values[key] = value
    return values


def build_config(file_values: dict[str, object] | None = None, flag_values: dict[str, object] | None = None) -> PipelineConfig:
    """Merge defaults, config-file values, and flags; flags take precedence."""
    merged: dict[str, object] = {}
    if file_values:
        merged.update(file_values)
    if flag_values:
        for name, value in flag_values.items():
            if value is not None:
                merged[name] = value
    known = {f.name for f in fields(PipelineConfig)}
    for name in merged:
        if name not in known:
            raise ConfigError(f"unknown config field {name!r}")
    return PipelineConfig(**merged)
