"""Flat dotted-key scenario configs for the command-line runner.

A config file is plain text, one ``block.key=value`` per line, ``#`` for
comments.  ScenarioConfig wraps the parsed mapping with typed getters that
record every key they resolve (defaults included), so a run can stamp its
outputs with the exact configuration that produced them.
"""

from __future__ import annotations

import math
from pathlib import Path

from .core import (
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

    def get_int(self, key: str, default=_MISSING) -> int:
        val = self._fetch(key, default)
        try:
            out = int(str(val), 10)
        except (TypeError, ValueError):
            raise ConfigError(f"{key}={val!r} is not an integer") from None
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


def build_constants(cfg: ScenarioConfig) -> PhysicalConstants:
    hbar = cfg.get_float("constants.hbar", 1.0)
    mass = cfg.get_float("constants.mass", 1.0)
    try:
        return PhysicalConstants(hbar=hbar, mass=mass)
    except ValueError as exc:
        raise ConfigError(f"constants block invalid: {exc}") from None


_KINDS = ("linear", "reversing_linear", "smooth_periodic", "scaled")


def build_trajectory(cfg: ScenarioConfig) -> WallTrajectory:
    """Construct a wall trajectory from the config block under ``trajectory``.

    kind=scaled wraps an inner trajectory named by ``trajectory.inner`` whose
    parameters live in the same block (L0, q, omega, T as needed).
    """
    kind = cfg.get_str("trajectory.kind", choices=_KINDS)
    try:
        if kind == "scaled":
            inner_kind = cfg.get_str(
                "trajectory.inner", choices=set(_KINDS) - {"scaled"}
            )
            inner = _build_plain(cfg, inner_kind)
            return ScaledWall(inner=inner, k=cfg.get_float("trajectory.k"))
        return _build_plain(cfg, kind)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"trajectory block invalid: {exc}") from None


def _build_plain(cfg: ScenarioConfig, kind: str) -> WallTrajectory:
    L0 = cfg.get_float("trajectory.L0")
    if kind == "linear":
        return LinearWall(L0=L0, q=cfg.get_float("trajectory.q"))
    if kind == "reversing_linear":
        return ReversingLinearWall(
            L0=L0, q=cfg.get_float("trajectory.q"), T=cfg.get_float("trajectory.T")
        )
    return SmoothPeriodicWall(
        L0=L0, q=cfg.get_float("trajectory.q"), omega=cfg.get_float("trajectory.omega")
    )


def build_gaussian(cfg: ScenarioConfig) -> GaussianParams:
    try:
        return GaussianParams(
            d=cfg.get_float("gaussian.d"),
            x0=cfg.get_float("gaussian.x0", 0.0),
            p0=cfg.get_float("gaussian.p0", 0.0),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"gaussian block invalid: {exc}") from None
