"""Flat key=value run configuration.

A run file is plain text: one `key=value` per line, `#` comments, blank lines
ignored.  Keys are dotted paths into the model/training dataclasses; the same
keys are accepted as command-line overrides, which win over the file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError
from .model import ModelConfig
from .training import TrainParams


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainParams = field(default_factory=TrainParams)

    def validate(self) -> "RunConfig":
        self.model.validate()
        self.train.validate()
        return self


def _parse_bool(s: str) -> bool:
    t = s.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


def _parse_int_tuple(s: str) -> tuple:
    s = s.strip()
    return tuple(int(tok) for tok in s.split(",")) if s else ()


def _parse_str_tuple(s: str) -> tuple:
    s = s.strip()
    return tuple(tok.strip() for tok in s.split(",")) if s else ()


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _schema(rc: RunConfig):
    """Ordered (key, parser, owner object, attribute) rows; one per field."""
    m, t = rc.model, rc.train
    return [
        ("seed", int, m, "seed"),
        ("afv_enabled", _parse_bool, m, "afv_enabled"),
        ("backbone.stem_channels", int, m.backbone, "stem_channels"),
        ("backbone.channels", _parse_int_tuple, m.backbone, "channels"),
        ("matching.max_disparity", int, m.matching, "max_disparity"),
        ("matching.corr_channels", int, m.matching, "corr_channels"),
        ("cgf.positions", _parse_str_tuple, m.cgf, "positions"),
        ("cgf.detach_context", _parse_bool, m.cgf, "detach_context"),
        ("train.steps", int, t, "steps"),
        ("train.lr", float, t, "lr"),
        ("train.lr_decay_steps", _parse_int_tuple, t, "lr_decay_steps"),
        ("train.lr_decay_factor", float, t, "lr_decay_factor"),
        ("train.batch_size", int, t, "batch_size"),
        ("train.data_seed", int, t, "data_seed"),
        ("train.height", int, t, "height"),
        ("train.width", int, t, "width"),
        ("train.mode", str, t, "mode"),
        ("train.constant_disparity", float, t, "constant_disparity"),
        ("train.train_samples", int, t, "train_samples"),
        ("train.eval_samples", int, t, "eval_samples"),
    ]


def parse_pairs(text: str) -> dict:
    """key=value lines -> dict, with line numbers in every complaint."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs


def apply_pairs(rc: RunConfig, pairs: dict) -> RunConfig:
    rows = {key: (parse, obj, attr) for key, parse, obj, attr in _schema(rc)}
    unknown = sorted(k for k in pairs if k not in rows)
    if unknown:
        raise ConfigError(
            f"unknown config keys: {', '.join(unknown)}; "
            f"valid keys are {', '.join(sorted(rows))}"
        )
    for key, value in pairs.items():
        parse, obj, attr = rows[key]
        try:
            setattr(obj, attr, parse(value))
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"bad value for {key}: {value!r}") from None
    return rc


def load_run_config(text: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then the file contents, then explicit overrides."""
    rc = RunConfig()
    if text is not None:
        apply_pairs(rc, parse_pairs(text))
    if overrides:
        apply_pairs(rc, overrides)
    return rc.validate()


def run_config_to_text(rc: RunConfig) -> str:
    """Serialize every field in schema order; parsing the result reproduces
    the config exactly."""
    return "".join(f"{key}={_fmt(getattr(obj, attr))}\n"
                   for key, _, obj, attr in _schema(rc))
