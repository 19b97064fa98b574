"""Pipeline configuration shared by the CLI subcommands.

A configuration can come from three layers: built-in defaults, a flat JSON
config file, and command-line flags. Flags win over the file, the file wins
over defaults.

Each setting is declared once, as a `PipelineConfig` field that carries its
default, its help text and, where the value is one of a fixed set, its
choices. The config-file key and the flag (with ``-`` for ``_``) take the
field's name, and both take the field's type from `setting_type`.
"""

from __future__ import annotations

from dataclasses import Field, dataclass, field, fields
from pathlib import Path

from .cograph import FIELD_CHOICES, PAIR_CHOICES
from .errors import ConfigError
from .fileio import read_json
from .transition import MEASURES


def _setting(default: object, help: str, choices: tuple[str, ...] | None = None):
    return field(default=default, metadata={"help": help, "choices": choices})


@dataclass(frozen=True)
class PipelineConfig:
    lexicon: str | None = _setting(None, "term lexicon JSON file")
    field: str = _setting("both", "where terms come from", FIELD_CHOICES)
    pairs: str = _setting("all", "which co-occurring pairs become edges", PAIR_CHOICES)
    top_n: int = _setting(100, "keep the N most frequent nodes")
    measure: str = _setting("overlap_target", "cluster similarity measure", MEASURES)
    tau: float = _setting(0.1, "event threshold in (0,1)")
    resolution: float = _setting(1.0, "clustering resolution")
    weighted_mean: bool = _setting(False, "weight cluster indices by cluster size")
    out: str = _setting(".", "output directory")

    def __post_init__(self) -> None:
        for setting in fields(self):
            choices = setting.metadata["choices"]
            value = getattr(self, setting.name)
            if choices is not None and value not in choices:
                raise ConfigError(f"{setting.name} must be one of {choices}, got {value!r}")
        if not isinstance(self.top_n, int) or isinstance(self.top_n, bool) or self.top_n < 1:
            raise ConfigError(f"top_n must be an integer >= 1, got {self.top_n!r}")
        if not 0.0 < self.tau < 1.0:
            raise ConfigError(f"tau must lie in (0, 1), got {self.tau}")
        if not self.resolution > 0.0:
            raise ConfigError(f"resolution must be positive, got {self.resolution}")
        if not isinstance(self.weighted_mean, bool):
            raise ConfigError(f"weighted_mean must be a boolean, got {self.weighted_mean!r}")


# setting name (= config-file key) -> its PipelineConfig field
SETTINGS: dict[str, Field] = {setting.name: setting for setting in fields(PipelineConfig)}


def setting_type(setting: Field) -> type:
    """The type a setting takes in a config file and on its flag: its default's, or str for lexicon."""
    return str if setting.default is None else type(setting.default)


def read_config_file(path: str | Path) -> dict[str, object]:
    """Load a flat JSON object of config keys, which are the dataclass field names."""
    raw = read_json(path, ConfigError, "config file")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a flat JSON object")
    values: dict[str, object] = {}
    for key, value in raw.items():
        if key not in SETTINGS:
            raise ConfigError(f"{path}: unknown config key {key!r}")
        expected = setting_type(SETTINGS[key])
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
    for name in merged:
        if name not in SETTINGS:
            raise ConfigError(f"unknown config field {name!r}")
    return PipelineConfig(**merged)
