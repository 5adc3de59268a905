"""Flat key=value run configuration.

Format: one `key=value` per line, `#` starts a comment line, unknown or
duplicate keys are errors, missing keys take the documented defaults.
Relative paths are resolved against the config file's directory.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .simulator import GATE_MODES


class ConfigError(ValueError):
    """Bad configuration file or override."""


def _parse_bool(tok: str) -> bool:
    low = tok.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {tok!r}")


def _parse_gauges(tok: str):
    tok = tok.strip()
    if not tok:
        return ()
    return tuple(int(part) for part in tok.split(","))


@dataclass
class Config:
    """Every tunable of the CLI, with the documented defaults."""

    mesh: str | None = None
    # physics
    g: float = 9.81
    k0: float = 1e-4
    k1: float = 40.0
    xi: float = 3.2e-6
    h_min: float = 0.05
    # splitting
    tau: float = 3.0
    tau_tilde: float = 300.0
    theta1: float = 0.5
    theta2: float = 0.5
    # run
    duration: float = 0.0
    snapshot_interval: float = 0.0
    gauges: tuple = ()
    gate_mode: str = "enforce"
    out_dir: str = "out"
    # forcing and initial condition
    tide: str | None = None
    wind: str | None = None
    eta0: float = 0.0
    restart: str | None = None
    # solver
    cg_tol: float = 1e-10
    consistent_correction: bool = False

    def to_text(self) -> str:
        """Canonical key=value rendering; reloading it reproduces self."""
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if f.name == "gauges":
                value = ",".join(str(g) for g in value)
            elif isinstance(value, bool):
                value = str(value).lower()
            elif isinstance(value, float):
                value = repr(value)
            lines.append(f"{f.name}={value}")
        return "\n".join(lines) + "\n"


_PATH_KEYS = ("mesh", "tide", "wind", "restart")
_RESOLVED_KEYS = _PATH_KEYS + ("out_dir",)   # out_dir is created, not checked

_PARSERS = {
    "mesh": str, "tide": str, "wind": str, "restart": str,
    "g": float, "k0": float, "k1": float, "xi": float, "h_min": float,
    "tau": float, "tau_tilde": float, "theta1": float, "theta2": float,
    "duration": float, "snapshot_interval": float,
    "gauges": _parse_gauges, "gate_mode": str, "out_dir": str,
    "eta0": float,
    "cg_tol": float, "consistent_correction": _parse_bool,
}


def parse_config_text(text, base_dir=".", where="<config>") -> Config:
    """Parse key=value lines into a validated Config."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{where}:{lineno}: expected key=value")
        key, _, tok = line.partition("=")
        key = key.strip()
        tok = tok.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{where}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{where}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](tok)
        except ValueError as exc:
            raise ConfigError(f"{where}:{lineno}: bad value for {key}: {exc}") from None
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
    values = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override must be key=value, got {pair!r}")
        key, _, tok = pair.partition("=")
        key = key.strip()
        if key not in _PARSERS:
            raise ConfigError(f"unknown key {key!r}")
        try:
            values[key] = _PARSERS[key](tok.strip())
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from None
    merged = Config(**{**{f.name: getattr(cfg, f.name) for f in fields(cfg)}, **values})
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
    """Range/divisibility checks plus existence of referenced files."""
    if cfg.g <= 0 or cfg.k1 <= 0:
        raise ConfigError("g and k1 must be positive")
    if cfg.k0 < 0 or cfg.xi < 0:
        raise ConfigError("k0 and xi must be >= 0")
    if cfg.h_min <= 0:
        raise ConfigError("h_min must be positive")
    if cfg.tau <= 0 or cfg.tau_tilde <= 0:
        raise ConfigError("tau and tau_tilde must be positive")
    if not (0.0 <= cfg.theta1 <= 1.0 and 0.0 <= cfg.theta2 <= 1.0):
        raise ConfigError("theta1 and theta2 must lie in [0, 1]")
    n = cfg.tau_tilde / cfg.tau
    if abs(round(n) * cfg.tau - cfg.tau_tilde) > 1e-9 * cfg.tau_tilde or round(n) < 1:
        raise ConfigError(f"tau_tilde={cfg.tau_tilde:g} must be an integer "
                          f"multiple of tau={cfg.tau:g}")
    for name, value in (("duration", cfg.duration),
                        ("snapshot_interval", cfg.snapshot_interval)):
        if value < 0:
            raise ConfigError(f"{name} must be >= 0")
        if value and abs(round(value / cfg.tau_tilde) * cfg.tau_tilde - value) \
                > 1e-9 * max(value, cfg.tau_tilde):
            raise ConfigError(f"{name}={value:g} must be a multiple of tau_tilde")
    if cfg.gate_mode not in GATE_MODES:
        raise ConfigError(f"gate_mode must be one of {GATE_MODES}")
    if cfg.cg_tol <= 0:
        raise ConfigError("cg_tol must be positive")
    if any(g < 0 for g in cfg.gauges):
        raise ConfigError("gauge node ids must be >= 0")
    for key in _PATH_KEYS:
        value = getattr(cfg, key)
        if value is not None and not os.path.isfile(value):
            raise ConfigError(f"{key} file not found: {value}")
