"""Pipeline configuration shared by the CLI subcommands.

A configuration can come from three layers: built-in defaults, a flat JSON
config file, and command-line flags. Flags win over the file, the file wins
over defaults.

Each setting is declared once, as a `PipelineConfig` field that carries its
default, its help text, its choices where the value is one of a fixed set,
and any other rule its value must meet. The config-file key and the flag
(with ``-`` for ``_``) take the field's name, and both take the field's
type from `setting_type`.
"""

from __future__ import annotations

from dataclasses import Field, dataclass, field, fields
from pathlib import Path

from .cograph import FIELD_CHOICES, PAIR_CHOICES
from .errors import ConfigError
from .fileio import read_json
from .transition import MEASURES


def _setting(default: object, help: str, choices: tuple[str, ...] | None = None, rule=None):
    """A setting's field; rule is (requirement, test), and choices make the rule.

    A value of the setting's type must pass test; one that fails either
    check is reported as "<name> must <requirement>, got <value>".
    """
    if choices is not None:
        rule = (f"be one of {choices}", choices.__contains__)
    return field(default=default, metadata={"help": help, "choices": choices, "rule": rule})


# the requirement of a setting without a rule, by its type
_TYPE_REQUIREMENTS = {bool: "be a boolean", int: "be an integer", float: "be a number", str: "be a string"}


@dataclass(frozen=True)
class PipelineConfig:
    lexicon: str | None = _setting(None, "term lexicon JSON file")
    field: str = _setting("both", "where terms come from", FIELD_CHOICES)
    pairs: str = _setting("all", "which co-occurring pairs become edges", PAIR_CHOICES)
    top_n: int = _setting(100, "keep the N most frequent nodes", rule=("be an integer >= 1", lambda n: n >= 1))
    measure: str = _setting("overlap_target", "cluster similarity measure", MEASURES)
    tau: float = _setting(0.1, "event threshold in (0,1)", rule=("lie in (0, 1)", lambda t: 0.0 < t < 1.0))
    resolution: float = _setting(1.0, "clustering resolution", rule=("be positive", lambda r: r > 0.0))
    weighted_mean: bool = _setting(False, "weight cluster indices by cluster size")
    out: str = _setting(".", "output directory")

    def __post_init__(self) -> None:
        for setting in fields(self):
            value = getattr(self, setting.name)
            if value is None and setting.default is None:
                continue
            expected = setting_type(setting)
            requirement, test = setting.metadata["rule"] or (_TYPE_REQUIREMENTS[expected], None)
            if not _has_type(value, expected) or (test is not None and not test(value)):
                raise ConfigError(f"{setting.name} must {requirement}, got {value!r}")


# setting name (= config-file key) -> its PipelineConfig field
SETTINGS: dict[str, Field] = {setting.name: setting for setting in fields(PipelineConfig)}


def setting_type(setting: Field) -> type:
    """The type a setting takes in a config file and on its flag: its default's, or str for lexicon."""
    return str if setting.default is None else type(setting.default)


def _has_type(value: object, expected: type) -> bool:
    """isinstance, except that a bool is no int or float and an int is a float."""
    if isinstance(value, bool):
        return expected is bool
    if expected is float:
        return isinstance(value, (int, float))
    return isinstance(value, expected)


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
        if not _has_type(value, expected):
            kind = {float: "a number", int: "an integer"}.get(expected, expected.__name__)
            raise ConfigError(f"{path}: key {key!r} must be {kind}, got {value!r}")
        values[key] = float(value) if expected is float else value
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
