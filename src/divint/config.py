"""Layered runtime configuration.

Precedence, highest first: command-line flags, then DIVINT_* environment
variables, then a `divisor-intersect.toml` file in the working directory,
then built-in defaults.  The file format is deliberately minimal (key = value
lines, `#` comments, optional quotes); there is no seed anywhere because
every computation is deterministic.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import NamedTuple, Optional

CONFIG_FILENAME = "divisor-intersect.toml"
ENV_PREFIX = "DIVINT_"
FORMATS = ("text", "json", "csv")


class _Settings(NamedTuple):
    # Accepted and range-checked so that existing flags and config files keep
    # working; every engine is sequential, so it changes nothing.
    threads: int = 1
    format: str = "text"


class RunConfig(_Settings):
    """The validated settings; every way of building one runs the checks."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.format not in FORMATS:
            raise ValueError(
                f"format must be one of {FORMATS}, got {self.format!r}"
            )
        if self.threads < 1:
            raise ValueError(f"threads must be positive, got {self.threads}")
        return self

    @classmethod
    def _make(cls, iterable):
        # `_replace` builds through `_make`, which would skip `__new__`
        return cls(*iterable)


# The fields of RunConfig are the one list of knobs.
KEYS = frozenset(RunConfig._fields)
_INT_KEYS = frozenset(k for k, v in RunConfig._field_defaults.items()
                      if isinstance(v, int))


def _coerce(key: str, value):
    if key not in _INT_KEYS:
        return str(value)
    if isinstance(value, int):
        return value
    try:
        return int(str(value), 10)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got '{value}'") from None


def parse_config_file(path: Path) -> dict:
    """key = value pairs from a minimal toml-style file.

    A `#` starts a comment wherever it stands, so no value may hold one; the
    quotes around a value are dropped after its comment is.
    """
    out: dict = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("["):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        value = value.split("#", 1)[0].strip()
        if len(value) >= 2 and value[0] in "\"'" and value[-1] == value[0]:
            value = value[1:-1]
        if key not in KEYS:
            raise ValueError(
                f"{path}:{lineno}: unknown key {key!r} (known: {sorted(KEYS)})"
            )
        out[key] = value
    return out


def resolve_config(flags: Optional[dict] = None, *,
                   cwd: Optional[Path] = None,
                   env: Optional[dict] = None) -> RunConfig:
    """Merge the four layers into a validated RunConfig.

    `flags` entries with value None count as unset.  `cwd` and `env` exist
    for tests; they default to the real working directory and environment.
    """
    env = dict(os.environ) if env is None else env
    settings: dict = {}
    path = (Path(cwd) if cwd is not None else Path.cwd()) / CONFIG_FILENAME
    if path.is_file():
        settings.update(parse_config_file(path))
    for key in KEYS:
        name = ENV_PREFIX + key.upper()
        if name in env:
            settings[key] = env[name]
    for key, value in (flags or {}).items():
        if key not in KEYS:
            raise ValueError(f"unknown configuration flag {key!r}")
        if value is not None:
            settings[key] = value
    return RunConfig(**{k: _coerce(k, v) for k, v in settings.items()})
