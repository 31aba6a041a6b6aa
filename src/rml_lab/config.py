"""Experiment configuration: JSON schema, defaults, validation."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .trainer import RmlConfig

DATASETS = ("mnist", "shapes")


@dataclass
class ExperimentConfig:
    """Everything a training run needs beyond the dataset files themselves."""

    dataset: str = "shapes"
    data_dir: str = "data"
    out_dir: str = "runs/out"
    preset: str | None = None
    train: RmlConfig = dataclasses.field(default_factory=RmlConfig)

    def to_dict(self) -> dict:
        blob = {
            "dataset": self.dataset,
            "data_dir": self.data_dir,
            "out_dir": self.out_dir,
            "preset": self.preset,
        }
        blob.update({k: getattr(self.train, k) for k in _TRAIN_FIELDS})
        blob["arch_pair"] = list(self.train.arch_pair)
        blob["feature_dim"] = list(self.train.feature_dim)
        return blob

    def validate(self) -> "ExperimentConfig":
        if self.dataset not in DATASETS:
            raise ConfigError(f"dataset must be one of {DATASETS}, got {self.dataset!r}")
        self.train.validate()
        return self


_TRAIN_FIELDS = tuple(f.name for f in dataclasses.fields(RmlConfig))
_TOP_FIELDS = ("dataset", "data_dir", "out_dir", "preset")


def config_from_dict(blob: dict, where: str = "config") -> ExperimentConfig:
    """Build a validated config from a plain dict; unknown keys are errors."""
    if not isinstance(blob, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    unknown = set(blob) - set(_TOP_FIELDS) - set(_TRAIN_FIELDS)
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {sorted(unknown)}")
    top = {k: blob[k] for k in _TOP_FIELDS if k in blob}
    train_kw = {k: blob[k] for k in _TRAIN_FIELDS if k in blob}
    try:
        cfg = ExperimentConfig(train=RmlConfig(**train_kw), **top)
    except TypeError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    try:
        cfg.validate()
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return cfg


def _line_of(text: str, field: str) -> int | None:
    for i, line in enumerate(text.splitlines(), start=1):
        if f'"{field}"' in line:
            return i
    return None


def validate_config(path) -> ExperimentConfig:
    """Load and validate a JSON config file; defaults fill absent fields.

    Unknown fields and out-of-range values raise a config error naming the
    field and, when it can be located, its line in the file.
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
    if isinstance(blob, dict):
        unknown = set(blob) - set(_TOP_FIELDS) - set(_TRAIN_FIELDS)
        if unknown:
            field = sorted(unknown)[0]
            line = _line_of(text, field)
            at = f"{path}:{line}" if line else str(path)
            raise ConfigError(f"{at}: unknown field {field!r}")
        try:
            return config_from_dict(blob, where=str(path))
        except ConfigError as exc:
            # attach a line reference for the offending field when findable
            for field in list(blob):
                if f"{field} " in str(exc) or f"{field!r}" in str(exc) or field in str(exc):
                    line = _line_of(text, field)
                    if line is not None:
                        raise ConfigError(f"{path}:{line}: {exc}") from None
            raise
    return config_from_dict(blob, where=str(path))


def resolved_dump(cfg: ExperimentConfig) -> str:
    """Canonical JSON of the fully defaulted config (a validation fixpoint)."""
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n"
