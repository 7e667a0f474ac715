"""Flat dotted-key scenario configs for the command-line runner.

A config file is plain text, one ``block.key=value`` per line, ``#`` for
comments.  ScenarioConfig wraps the parsed mapping with typed getters that
record every key they resolve (defaults included), so a run can stamp its
outputs with the exact configuration that produced them.

A block's keys are its dataclass's fields: ``gaussian.d`` is the ``d`` of
GaussianParams, ``trajectory.L0`` the ``L0`` of the wall that
``trajectory.kind`` names.  The dataclass checks its values, once, and
``_build`` reports a bad one by its dotted key.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, fields
from pathlib import Path

from .core import (
    DomainError,
    GaussianParams,
    LinearWall,
    PhysicalConstants,
    ReversingLinearWall,
    ScaledWall,
    SmoothPeriodicWall,
    WallTrajectory,
)


class ConfigError(ValueError):
    """A missing, malformed, or out-of-range configuration key."""


def parse_config(path) -> dict[str, str]:
    """Read ``key=value`` lines; blank lines and # comments are skipped."""
    text = Path(path).read_text(encoding="utf-8")
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


_MISSING = object()


class ScenarioConfig:
    """Typed access to a flat key-value mapping, with resolution tracking."""

    def __init__(self, raw: dict[str, str]):
        self._raw = dict(raw)
        self._resolved: dict[str, str] = {}

    def has(self, key: str) -> bool:
        return key in self._raw

    def _fetch(self, key: str, default):
        if key in self._raw:
            return self._raw[key]
        if default is _MISSING:
            raise ConfigError(f"missing required key {key!r}")
        return default

    def get_str(self, key: str, default=_MISSING, choices=None) -> str:
        val = self._fetch(key, default)
        val = str(val)
        if choices is not None and val not in choices:
            raise ConfigError(f"{key}={val!r} not one of {sorted(choices)}")
        self._resolved[key] = val
        return val

    def get_float(self, key: str, default=_MISSING) -> float:
        val = self._fetch(key, default)
        try:
            out = float(val)
        except (TypeError, ValueError):
            raise ConfigError(f"{key}={val!r} is not a number") from None
        if not math.isfinite(out):
            raise ConfigError(f"{key}={val!r} is not a finite number")
        self._resolved[key] = repr(out)
        return out

    def get_int(self, key: str, default=_MISSING, least=-math.inf, most=math.inf) -> int:
        val = self._fetch(key, default)
        try:
            out = int(str(val), 10)
        except (TypeError, ValueError):
            raise ConfigError(f"{key}={val!r} is not an integer") from None
        if out < least:
            raise ConfigError(f"{key} must be at least {least}")
        if out > most:
            raise ConfigError(f"{key} must be at most {most}")
        self._resolved[key] = str(out)
        return out

    def get_float_list(self, key: str, default=_MISSING) -> list[float]:
        val = self._fetch(key, default)
        if isinstance(val, (list, tuple)):
            items = [float(v) for v in val]
        else:
            parts = [p for p in str(val).split(",") if p.strip()]
            if not parts:
                raise ConfigError(f"{key} must hold a comma-separated list")
            try:
                items = [float(p) for p in parts]
            except ValueError:
                raise ConfigError(f"{key}={val!r} is not a list of numbers") from None
        if not all(math.isfinite(v) for v in items):
            raise ConfigError(f"{key}={val!r} holds a non-finite number")
        self._resolved[key] = ",".join(repr(v) for v in items)
        return items

    def resolved_line(self) -> str:
        """Sorted ``key=value`` record of everything this run actually read."""
        return " ".join(f"{k}={self._resolved[k]}" for k in sorted(self._resolved))

    def unused_keys(self) -> list[str]:
        return sorted(set(self._raw) - set(self._resolved))


def _keyed(call, keys: dict[str, str], *args, **kwargs):
    """call(*args, **kwargs), with a DomainError it raises turned into a
    ConfigError in which each name of ``keys`` that the message mentions
    reads as its key: "x_min must lie below x_max" becomes "solver.x_min
    must lie below solver.x_max"."""
    try:
        return call(*args, **kwargs)
    except DomainError as exc:
        pattern = r"\b(%s)\b" % "|".join(map(re.escape, keys))
        raise ConfigError(re.sub(pattern, lambda m: keys[m[1]], str(exc))) from None


def _build(cfg: ScenarioConfig, block: str, cls, **given):
    """The dataclass ``cls`` built from its own fields: each one that
    ``given`` leaves out and whose default is a float, or that has none,
    reads ``block.<field>`` as a float, with that default when there is
    one.  An error in a field names its dotted key (``_keyed``)."""
    for f in fields(cls):
        if f.name not in given and (f.default is MISSING or isinstance(f.default, float)):
            default = _MISSING if f.default is MISSING else f.default
            given[f.name] = cfg.get_float(f"{block}.{f.name}", default)
    return _keyed(cls, {f.name: f"{block}.{f.name}" for f in fields(cls)}, **given)


def build_constants(cfg: ScenarioConfig) -> PhysicalConstants:
    return _build(cfg, "constants", PhysicalConstants)


#: trajectory.kind -> class; kind=scaled wraps one of these
_KINDS = {
    "linear": LinearWall,
    "reversing_linear": ReversingLinearWall,
    "smooth_periodic": SmoothPeriodicWall,
}


def build_trajectory(cfg: ScenarioConfig) -> WallTrajectory:
    """Construct a wall trajectory from the config block under ``trajectory``.

    kind=scaled wraps an inner trajectory named by ``trajectory.inner`` whose
    parameters live in the same block (L0, q, omega, T as needed).
    """
    kind = cfg.get_str("trajectory.kind", choices=[*_KINDS, "scaled"])
    if kind != "scaled":
        return _build(cfg, "trajectory", _KINDS[kind])
    inner = _build(cfg, "trajectory", _KINDS[cfg.get_str("trajectory.inner", choices=_KINDS)])
    return _build(cfg, "trajectory", ScaledWall, inner=inner)


def build_gaussian(cfg: ScenarioConfig) -> GaussianParams:
    return _build(cfg, "gaussian", GaussianParams)
