"""Flat key=value run configuration.

Format: one `key=value` per line, comments as in a mesh file, unknown or
duplicate keys are errors, missing keys take the documented defaults.
Relative paths are resolved against the config file's directory; an
empty path is refused.  Numbers parse as table fields do, and floats
must be finite.  The physics keys are the fields of
:class:`PhysicalParams`, the splitting and run keys those of
:class:`RunConfig`; a :class:`Config` holds one of each, built once when
a config is read, which applies every range and divisibility rule.
"""
from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass, fields, replace

from .mesh import is_data_line, parse_number
from .simulator import RunConfig
from .stability import PhysicalParams


class ConfigError(ValueError):
    """Bad configuration file or override."""


def _parse_float(tok: str) -> float:
    value = parse_number(tok)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {tok!r}")
    return value


def _parse_path(tok: str) -> str:
    if not tok:
        raise ValueError("empty path")
    return tok


def _parse_node_ids(tok: str):
    """Comma-separated gauge node ids; an empty value gives none."""
    ids = tuple(parse_number(part, int) for part in tok.split(",")) if tok else ()
    if any(i < 0 for i in ids):
        raise ValueError("node ids must be >= 0")
    return ids


@dataclass(frozen=True)
class Config:
    """Every tunable of the CLI: ``params`` and ``run_config``, which check
    their own values, then the files, gauges and initial elevation."""

    params: PhysicalParams = PhysicalParams()
    run_config: RunConfig = RunConfig()
    mesh: str | None = None
    gauges: tuple = ()
    out_dir: str = "out"
    # forcing and initial condition
    tide: str | None = None
    wind: str | None = None
    eta0: float = 0.0
    restart: str | None = None


_OWNERS = {"params": PhysicalParams, "run_config": RunConfig}   # checked in this order
_OWNER_OF = {f.name: name for name, cls in _OWNERS.items() for f in fields(cls) if f.init}
_PATH_KEYS = ("mesh", "tide", "wind", "restart")
_RESOLVED_KEYS = _PATH_KEYS + ("out_dir",)   # out_dir is created, not checked

_TYPE_PARSERS = {"float": _parse_float, "str": str, "tuple": _parse_node_ids}
# the flat keys: every settings field, then Config's own file and state keys
_PARSERS = {f.name: _parse_path if f.name in _RESOLVED_KEYS else _TYPE_PARSERS[f.type]
            for cls in (*_OWNERS.values(), Config) for f in fields(cls)
            if f.init and f.name not in _OWNERS}


def _parse_pair(text, where=""):
    """(key, value) of one ``key=value``; ``where`` prefixes error messages."""
    key, eq, tok = text.partition("=")
    key = key.strip()
    if not eq:
        raise ConfigError(f"{where}expected key=value, got {text!r}")
    if key not in _PARSERS:
        raise ConfigError(f"{where}unknown key {key!r}")
    try:
        return key, _PARSERS[key](tok.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}bad value for {key}: {exc}") from None


def parse_config_text(text, base_dir=".", where="<config>") -> Config:
    """Parse key=value lines into a validated Config.

    Lines end where a file's lines do, at LF, CRLF or a lone CR only."""
    values = {}
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        if not is_data_line(line):
            continue
        key, value = _parse_pair(line.strip(), f"{where}:{lineno}: ")
        if key in values:
            raise ConfigError(f"{where}:{lineno}: duplicate key {key!r}")
        values[key] = value
    # the default out_dir, too, lies in the config file's directory
    return _with_values(Config(), {"out_dir": Config.out_dir, **values}, base_dir)


def load_config(path) -> Config:
    """Read a config file; referenced files must exist."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, base_dir=os.path.dirname(os.path.abspath(path)),
                             where=str(path))


def apply_overrides(cfg: Config, pairs) -> Config:
    """Apply `key=value` override strings (later pairs win)."""
    return _with_values(cfg, dict(_parse_pair(pair) for pair in pairs), ".")


def _with_values(cfg: Config, values, base_dir) -> Config:
    """``cfg`` with the flat ``values`` set, relative paths among them
    resolved against ``base_dir``.  Each settings object is rebuilt once
    from its own keys, which applies its range and divisibility rules;
    then every referenced file must exist."""
    changes = {}
    try:
        for name in _OWNERS:
            owned = {k: v for k, v in values.items() if _OWNER_OF.get(k) == name}
            changes[name] = replace(getattr(cfg, name), **owned)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for key, value in values.items():
        if key in _RESOLVED_KEYS and not os.path.isabs(value):
            value = os.path.normpath(os.path.join(base_dir, value))
        if key not in _OWNER_OF:
            changes[key] = value
    cfg = replace(cfg, **changes)
    for key in _PATH_KEYS:
        value = getattr(cfg, key)
        if value is not None and not os.path.isfile(value):
            raise ConfigError(f"{key} file not found: {value}")
    return cfg
