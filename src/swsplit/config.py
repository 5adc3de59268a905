"""Flat key=value run configuration.

Format: one `key=value` per line, `#` starts a comment line, unknown or
duplicate keys are errors, missing keys take the documented defaults.
Relative paths are resolved against the config file's directory.  Floats
must be finite; every range and divisibility rule is that of
:class:`PhysicalParams` or :class:`RunConfig`, applied when a config is
read.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace

from .simulator import RunConfig
from .stability import PhysicalParams


class ConfigError(ValueError):
    """Bad configuration file or override."""


def _parse_float(tok: str) -> float:
    value = float(tok)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {tok!r}")
    return value


def _parse_node_ids(tok: str):
    """Comma-separated gauge node ids; an empty value gives none."""
    ids = tuple(int(part) for part in tok.split(",")) if tok else ()
    if any(i < 0 for i in ids):
        raise ValueError("node ids must be >= 0")
    return ids


@dataclass
class Config:
    """Every tunable of the CLI; defaults are those of the dataclasses
    that own the values, :class:`PhysicalParams` and :class:`RunConfig`."""

    mesh: str | None = None
    # physics
    g: float = PhysicalParams.g
    k0: float = PhysicalParams.k0
    k1: float = PhysicalParams.k1
    xi: float = PhysicalParams.xi
    h_min: float = PhysicalParams.h_min
    # splitting
    tau: float = RunConfig.tau
    tau_tilde: float = RunConfig.tau_tilde
    theta1: float = RunConfig.theta1
    theta2: float = RunConfig.theta2
    # run
    duration: float = RunConfig.duration
    snapshot_interval: float = RunConfig.snapshot_interval
    gauges: tuple = ()
    gate_mode: str = RunConfig.gate_mode
    out_dir: str = "out"
    # forcing and initial condition
    tide: str | None = None
    wind: str | None = None
    eta0: float = 0.0
    restart: str | None = None

    def params(self) -> PhysicalParams:
        """The physics keys; ValueError names a range rule they break."""
        return PhysicalParams(**self._fields_of(PhysicalParams))

    def run_config(self) -> RunConfig:
        """The splitting and run keys; ValueError names a rule they break."""
        return RunConfig(**self._fields_of(RunConfig))

    def _fields_of(self, cls):
        return {f.name: getattr(self, f.name) for f in fields(cls) if f.init}


_PATH_KEYS = ("mesh", "tide", "wind", "restart")
_RESOLVED_KEYS = _PATH_KEYS + ("out_dir",)   # out_dir is created, not checked

_TYPE_PARSERS = {"float": _parse_float, "str": str, "str | None": str,
                 "tuple": _parse_node_ids}
_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(Config)}


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
    """Parse key=value lines into a validated Config."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, value = _parse_pair(line, f"{where}:{lineno}: ")
        if key in values:
            raise ConfigError(f"{where}:{lineno}: duplicate key {key!r}")
        values[key] = value
    cfg = Config(**values)
    _resolve_paths(cfg, base_dir)
    validate_config(cfg)
    return cfg


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
    values = dict(_parse_pair(pair) for pair in pairs)
    merged = replace(cfg, **values)
    _resolve_paths(merged, ".", only=values.keys())
    validate_config(merged)
    return merged


def _resolve_paths(cfg: Config, base_dir, only=None):
    for key in _RESOLVED_KEYS:
        if only is not None and key not in only:
            continue
        value = getattr(cfg, key)
        if value is not None and not os.path.isabs(value):
            setattr(cfg, key, os.path.normpath(os.path.join(base_dir, value)))


def validate_config(cfg: Config):
    """Build the physics and run settings, which check every range and
    divisibility rule, and check that referenced files exist."""
    try:
        cfg.params()
        cfg.run_config()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for key in _PATH_KEYS:
        value = getattr(cfg, key)
        if value is not None and not os.path.isfile(value):
            raise ConfigError(f"{key} file not found: {value}")
