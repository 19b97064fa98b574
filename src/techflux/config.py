"""Pipeline configuration shared by the CLI subcommands.

A configuration can come from three layers: built-in defaults, a flat JSON
config file, and command-line flags. Flags win over the file, the file wins
over defaults.

Each setting is declared once, as a `Setting` in the `SETTINGS` table: its
default, its help text, its choices where the value is one of a fixed set,
and any other rule its value must meet. The `PipelineConfig` fields and
their defaults are the table's, in its order. The config-file key and the
flag (with ``-`` for ``_``) take the setting's name, and both take the
setting's type from `setting_type`. Every value is checked by the one
`check_setting`, in the same words wherever it comes from: a config-file
value as it is read, with the file's name in front; a flag's after the
merge; and a library function that takes a setting defaults to
``SETTINGS[name].default`` and checks it under its own error class.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from pathlib import Path

from .errors import ConfigError, TechfluxError
from .fileio import read_json
from .records import Checked

FIELD_CHOICES = ("text", "tags", "both")
PAIR_CHOICES = ("all", "tech-tag")
MEASURE_OVERLAP_TARGET = "overlap_target"
MEASURE_JACCARD = "jaccard"
MEASURES = (MEASURE_OVERLAP_TARGET, MEASURE_JACCARD)

# One setting's declaration. rule is None or (requirement, test): a value of
# the setting's type must pass test, and one that fails either check is
# reported as "<name> must <requirement>, got <value>".
Setting = namedtuple("Setting", "default help choices rule")


def _setting(default: object, help: str, choices: tuple[str, ...] | None = None, rule=None) -> Setting:
    """A setting's declaration; choices make the rule."""
    if choices is not None:
        rule = (f"be one of {choices}", choices.__contains__)
    return Setting(default, help, choices, rule)


# by type: the requirement of a setting without a rule
_TYPE_REQUIREMENTS = {bool: "be a boolean", int: "be an integer", float: "be a number", str: "be a string"}

# setting name (= config-file key = PipelineConfig field) -> its declaration
SETTINGS: dict[str, Setting] = {
    "lexicon": _setting(None, "term lexicon JSON file"),
    "field": _setting("both", "where terms come from", FIELD_CHOICES),
    "pairs": _setting("all", "which co-occurring pairs become edges", PAIR_CHOICES),
    "top_n": _setting(100, "keep the N most frequent nodes", rule=("be an integer >= 1", lambda n: n >= 1)),
    "measure": _setting(MEASURE_OVERLAP_TARGET, "cluster similarity measure", MEASURES),
    "tau": _setting(0.1, "event threshold in (0,1)", rule=("lie in (0, 1)", lambda t: 0.0 < t < 1.0)),
    "resolution": _setting(1.0, "clustering resolution", rule=("be positive and finite", lambda r: 0.0 < r <= sys.float_info.max)),
    "weighted_mean": _setting(False, "weight cluster indices by cluster size"),
    "out": _setting(".", "output directory"),
}


class PipelineConfig(Checked, namedtuple("PipelineConfig", SETTINGS, defaults=[s.default for s in SETTINGS.values()])):
    """A value for every setting, each meeting its setting's type and rule."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> PipelineConfig:
        config = super().__new__(cls, *args, **kwargs)
        for name, value in zip(SETTINGS, config):
            check_setting(name, value)
        return config


def check_setting(name: str, value: object, error: type[TechfluxError] = ConfigError) -> None:
    """Raise error("<name> must <requirement>, got <value!r>") unless value meets the setting's type and rule."""
    setting = SETTINGS[name]
    if value is None and setting.default is None:
        return
    expected = setting_type(setting)
    requirement, test = setting.rule or (_TYPE_REQUIREMENTS[expected], None)
    if not _has_type(value, expected) or (test is not None and not test(value)):
        raise error(f"{name} must {requirement}, got {value!r}")


def setting_type(setting: Setting) -> type:
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
    """Load a flat JSON object of setting names, each value meeting its setting's rule (a null lexicon is none)."""
    values = read_json(path, ConfigError, "config file")
    if not isinstance(values, dict):
        raise ConfigError(f"{path}: config must be a flat JSON object")
    for key, value in values.items():
        if key not in SETTINGS:
            raise ConfigError(f"{path}: unknown config key {key!r}")
        try:
            check_setting(key, value)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None
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
