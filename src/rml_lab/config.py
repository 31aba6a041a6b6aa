"""Experiment configuration: JSON schema, defaults, validation."""

from __future__ import annotations

import dataclasses
import json
import re
import typing
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .trainer import RmlConfig


@dataclass
class ExperimentConfig:
    """Everything a training run needs beyond the dataset files themselves."""

    data_dir: str = "data"
    out_dir: str = "runs/out"
    train: RmlConfig = dataclasses.field(default_factory=RmlConfig)

    def to_dict(self) -> dict:
        blob = {k: getattr(self, k) for k in _TOP_FIELDS}
        blob.update({k: getattr(self.train, k) for k in _TRAIN_FIELDS})
        blob["arch_pair"] = list(self.train.arch_pair)
        blob["feature_dim"] = list(self.train.feature_dim)
        return blob

    def validate(self) -> "ExperimentConfig":
        self.train.validate()
        return self


_TRAIN_FIELDS = tuple(f.name for f in dataclasses.fields(RmlConfig))
_TOP_FIELDS = ("data_dir", "out_dir")
# the declared type of every field a config file may set
_FIELD_TYPES = {**typing.get_type_hints(RmlConfig), **typing.get_type_hints(ExperimentConfig)}


def _fits(value, tp) -> bool:
    """Whether a JSON value has the declared type ``tp``. Bools are not
    numbers, ints are floats, and a pair field takes one value or a list."""
    if typing.get_origin(tp) is tuple:
        return all(_fits(v, typing.get_args(tp)[0])
                   for v in (value if isinstance(value, list) else [value]))
    kinds = typing.get_args(tp) or (tp,)
    if isinstance(value, bool):
        return bool in kinds
    return any(isinstance(value, (int, float) if t is float else t) for t in kinds)


def config_from_dict(blob: dict) -> ExperimentConfig:
    """Build a validated config from a plain dict; unknown keys and values
    of the wrong JSON type are errors."""
    if not isinstance(blob, dict):
        raise ConfigError("expected a JSON object")
    unknown = sorted(set(blob) - set(_TOP_FIELDS) - set(_TRAIN_FIELDS))
    if unknown:
        raise ConfigError(f"unknown field(s) {unknown}", unknown[0])
    for name, value in blob.items():
        if not _fits(value, _FIELD_TYPES[name]):
            raise ConfigError(f"{name} has the wrong JSON type: {json.dumps(value)}", name)
    top = {k: blob[k] for k in _TOP_FIELDS if k in blob}
    train_kw = {k: blob[k] for k in _TRAIN_FIELDS if k in blob}
    return ExperimentConfig(train=RmlConfig(**train_kw), **top).validate()


def _line_of(text: str, field: str, after: int = 0) -> int | None:
    """Line number of the first key ``field`` below line ``after``."""
    key = re.compile(rf'"{re.escape(field)}"\s*:')
    for i, line in enumerate(text.splitlines(), start=1):
        if i > after and key.search(line):
            return i
    return None


def validate_config(path) -> ExperimentConfig:
    """Load and validate a JSON config file, or the ``resolved_config`` of a
    run manifest; defaults fill absent fields.

    Errors name the file and, when a field is at fault, its line.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    if not path.is_file():
        raise ConfigError(f"config path is not a file: {path}")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        blob = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    after = 0
    if isinstance(blob, dict) and "resolved_config" in blob:
        after = _line_of(text, "resolved_config") or 0
        blob = blob["resolved_config"]
    try:
        return config_from_dict(blob)
    except ConfigError as exc:
        line = _line_of(text, exc.field, after) if exc.field else None
        at = f"{path}:{line}" if line else str(path)
        raise ConfigError(f"{at}: {exc}", exc.field) from None


def resolved_dump(cfg: ExperimentConfig) -> str:
    """Canonical JSON of the fully defaulted config (a validation fixpoint)."""
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n"
