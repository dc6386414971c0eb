"""Flat key=value run configuration.

A run file is plain text: one `key=value` per line, `#` comments, blank lines
ignored.  The keys are the fields of the model and training dataclasses:
`ModelConfig`'s bare, a nested config's under its field name
(`backbone.channels`), `TrainParams`' under `train.`.  The same keys are
accepted as command-line overrides, which win over the file.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass

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


def _parser(default):
    """The parser of a key, chosen by the type of its default value: a tuple
    takes comma-separated entries of its first entry's type."""
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, tuple):
        item = type(default[0])
        return lambda s: tuple(item(tok.strip()) for tok in s.split(",")) if s.strip() else ()
    return type(default)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _rows(obj, prefix: str):
    """The schema rows of obj's fields, a nested config's under its name."""
    defaults = type(obj)()
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _rows(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", _parser(getattr(defaults, f.name)), obj, f.name


def _schema(rc: RunConfig):
    """Ordered (key, parser, owner object, attribute) rows; one per field."""
    return [*_rows(rc.model, ""), *_rows(rc.train, "train.")]


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
